"""SharedArena: allocation, handles, attach round-trips, lifecycle.

The arena is the shared-address half of the process backend: blocks it
hands out must be recognisable from any view (``handle_of``), must
reconstruct bit-identically in another attachment (``attach_handle``),
and must never outlive their arena as ``/dev/shm`` files — including
when the owning scope unwinds on an exception.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mp import arena as arena_module
from repro.mp.arena import (
    ArenaHandle,
    SharedArena,
    arena_array,
    attach_handle,
    default_arena,
    handle_of,
    leaked_segment_files,
)

pytestmark = pytest.mark.mp


@pytest.fixture
def arena():
    with SharedArena(segment_bytes=1 << 20) as a:
        yield a
        names = a.segment_names
    leaked = leaked_segment_files()
    assert not any(name in leaked for name in names)


class TestAllocation:
    def test_zeros_shape_dtype(self, arena):
        block = arena.zeros((8, 16), np.float32)
        assert block.shape == (8, 16)
        assert block.dtype == np.float32
        assert (block == 0).all()

    def test_blocks_are_disjoint_and_writable(self, arena):
        x = arena.zeros((64,))
        y = arena.zeros((64,))
        x[...] = 1.0
        y[...] = 2.0
        assert (x == 1.0).all() and (y == 2.0).all()

    def test_array_copies_source(self, arena):
        src = np.arange(12, dtype=np.float64).reshape(3, 4)
        block = arena.array(src)
        assert np.array_equal(block, src)
        src[0, 0] = 99.0
        assert block[0, 0] == 0.0  # a copy, not a view

    def test_grows_new_segments_on_demand(self):
        with SharedArena(segment_bytes=4096) as a:
            for _ in range(4):
                a.zeros((1024,))  # 8 KiB each > segment size
            assert len(a.segment_names) >= 4

    def test_oversized_block_gets_dedicated_segment(self):
        with SharedArena(segment_bytes=4096) as a:
            big = a.zeros((100_000,))
            big[...] = 3.0
            assert (big == 3.0).all()

    def test_closed_arena_refuses_allocation(self):
        a = SharedArena()
        a.close()
        with pytest.raises(RuntimeError, match="closed"):
            a.zeros((4,))

    def test_scalar_shape_and_int_shape(self, arena):
        assert arena.zeros(7).shape == (7,)
        assert arena.zeros((2, 3, 4)).shape == (2, 3, 4)


class TestHandles:
    def test_whole_block_round_trip(self, arena):
        block = arena.zeros((16, 16))
        block[...] = np.arange(256).reshape(16, 16)
        handle = handle_of(block)
        assert isinstance(handle, ArenaHandle)
        twin = attach_handle(handle)
        assert np.array_equal(twin, block)
        twin[0, 0] = -5.0
        assert block[0, 0] == -5.0  # same memory

    def test_view_round_trip(self, arena):
        block = arena.zeros((32, 32))
        block[...] = np.arange(1024).reshape(32, 32)
        tile = block[8:16, 16:24]
        handle = handle_of(tile)
        assert handle is not None
        assert handle.shape == (8, 8)
        twin = attach_handle(handle)
        assert np.array_equal(twin, tile)
        twin += 1000.0
        assert np.array_equal(block[8:16, 16:24], twin)

    def test_non_arena_array_has_no_handle(self):
        assert handle_of(np.zeros((4, 4))) is None

    def test_non_ndarray_has_no_handle(self, arena):
        assert handle_of([1, 2, 3]) is None
        assert handle_of(42) is None

    def test_negative_stride_view_falls_back(self, arena):
        block = arena.zeros((16,))
        assert handle_of(block[::-1]) is None  # pickled instead: correct, slower

    def test_transposed_view_has_handle(self, arena):
        block = arena.zeros((8, 4))
        handle = handle_of(block.T)
        assert handle is not None
        assert handle.shape == (4, 8)
        assert np.array_equal(attach_handle(handle), block.T)

    def test_handle_pickles(self, arena):
        import pickle

        handle = handle_of(arena.zeros((4,)))
        assert pickle.loads(pickle.dumps(handle)) == handle


def _derive(value):
    """The uncached derivation — the loop ``handle_of`` was before it
    grew a memo and fast paths — kept as the reference."""

    if not isinstance(value, np.ndarray) or value.dtype.hasobject:
        return None
    if any(s < 0 for s in value.strides):
        return None
    span = 0 if 0 in value.shape else value.itemsize + sum(
        (n - 1) * s for n, s in zip(value.shape, value.strides))
    addr = value.__array_interface__["data"][0]
    for name, (base, size, _arena) in arena_module._SEGMENTS.items():
        if base <= addr and addr + span <= base + size:
            return ArenaHandle(name, addr - base, tuple(value.shape),
                               value.dtype.str, tuple(value.strides))
    return None


_index = st.one_of(
    st.integers(-5, 5),
    st.builds(slice, st.none() | st.integers(-7, 7),
              st.none() | st.integers(-7, 7),
              st.none() | st.sampled_from([-3, -2, -1, 1, 2, 3])),
)
#: A view recipe: index both axes, maybe transpose, maybe index again.
_recipe = st.tuples(_index, _index, st.booleans(), _index)


def _view(block, recipe):
    first, second, transpose, third = recipe
    try:
        view = block[first, second]
        if transpose:
            view = view.T
        return view[third] if view.ndim else view[...]
    except IndexError:
        return block[0:0]


class TestHandleMemo:
    @settings(max_examples=60, deadline=None)
    @given(recipes=st.lists(_recipe, min_size=1, max_size=12))
    def test_memoised_handle_equals_the_uncached_derivation(self, recipes):
        # Slices, transposes, zero-size and negative-stride views, of an
        # arena block and of a heap array; views die at once, so later
        # ones are built at the addresses (``id``) of earlier ones.
        with SharedArena(segment_bytes=1 << 16) as a:
            for block in (a.zeros((6, 6)), np.zeros((6, 6))):
                for recipe in recipes:
                    view = _view(block, recipe)
                    want = _derive(view)
                    assert handle_of(view) == want
                    assert handle_of(view) == want      # from the memo
            survivor = _view(block, recipes[0])
        assert handle_of(survivor) is None

    def test_memo_is_guarded_against_a_reused_id(self, arena):
        block = arena.zeros((8, 8))
        seen, reused = set(), 0
        for k in range(200):
            view = block[k % 8:, :1 + k % 7]
            reused += id(view) in seen
            seen.add(id(view))
            assert handle_of(view) == _derive(view)
            del view
        assert reused

    def test_memo_follows_an_in_place_change_of_layout(self, arena):
        view = arena.zeros((4, 6))
        assert handle_of(view).shape == (4, 6)
        view.shape = (6, 4)
        assert handle_of(view) == _derive(view)
        assert handle_of(view).shape == (6, 4)

    def test_handle_is_none_again_after_close(self):
        a = SharedArena()
        block = a.zeros((4, 4))
        tile = block[1:3]
        assert handle_of(block) is not None and handle_of(tile) is not None
        b = SharedArena()
        other = b.zeros((4,))
        a.close()
        assert handle_of(block) is None and handle_of(tile) is None
        assert handle_of(other) is not None     # another arena's memo lives
        b.close()
        assert handle_of(other) is None


class TestLifecycle:
    def test_close_unlinks_all_segments(self):
        a = SharedArena(segment_bytes=4096)
        a.zeros((1024,))
        a.zeros((1024,))
        names = a.segment_names
        assert names
        a.close()
        leaked = leaked_segment_files()
        assert not any(name in leaked for name in names)

    def test_close_is_idempotent(self):
        a = SharedArena()
        a.zeros((4,))
        a.close()
        a.close()

    def test_exit_with_pending_exception_still_unlinks(self):
        names = []
        with pytest.raises(RuntimeError, match="boom"):
            with SharedArena() as a:
                a.zeros((64,))
                names.extend(a.segment_names)
                raise RuntimeError("boom")
        leaked = leaked_segment_files()
        assert not any(name in leaked for name in names)

    def test_handle_dies_with_arena(self):
        a = SharedArena()
        handle = handle_of(a.zeros((4,)))
        a.close()
        assert handle_of(np.zeros(4)) is None
        with pytest.raises(FileNotFoundError):
            attach_handle(handle)

    def test_default_arena_is_reused_then_replaced_after_close(self):
        first = default_arena()
        assert default_arena() is first
        first.close()
        second = default_arena()
        assert second is not first
        second.close()

    def test_arena_array_shapes_and_adoption(self):
        block = arena_array((4, 4))
        assert handle_of(block) is not None
        assert (block == 0).all()
        ints = arena_array((8,), np.int32)
        assert ints.dtype == np.int32
        adopted = arena_array(np.full((3, 3), 7.0))
        assert handle_of(adopted) is not None
        assert (adopted == 7.0).all()
        default_arena().close()

"""Unit tests for the residency map and the dist wire encoding.

These pin down the master-side invariants the distributed backend's
correctness rests on: version-chain behaviour under WAR/WAW renaming
(a renamed datum must never resolve to a stale resident copy), the
key discipline (no ``id()`` aliasing), the lifetime rule (the map
never keeps a user's array alive; what the barrier evicts),
checksum-based invalidation of out-of-band mutation, and data-loss
detection when a node dies holding the only copy.  The frame tests
live in ``tests/test_net.py``.
"""

import gc
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro import css_task
from repro.core.backend import Link
from repro.core.invocation import plan_for
from repro.dist.encoding import alloc_from_meta, alloc_meta, content_checksum
from repro.dist.residency import ResidencyMap
from repro.mp.worker import task_record
from repro.net.codec import (
    SerializationError,
    apply_blob,
    decode_blob,
    encode_blob,
)

pytestmark = pytest.mark.dist


@css_task("inout(a)")
def _touch_t(a):
    pass


# ---------------------------------------------------------------------------
# residency map
# ---------------------------------------------------------------------------

class TestResidencyMap:
    def test_keys_are_stable_and_identity_checked(self):
        rmap = ResidencyMap("sid0")
        a = np.zeros(4)
        entry = rmap.ensure(a, is_base=True)
        assert entry.key == "sid0:1"
        assert rmap.ensure(a, True) is entry
        b = np.zeros(4)
        assert rmap.ensure(b, True) is not entry

    def test_id_reuse_cannot_alias_entries(self):
        # A user array is held weakly: once it is gone a new object
        # may reuse its id, and must still get an entry of its own (a
        # dead reference is identical to nothing).
        rmap = ResidencyMap("s")
        a = np.zeros(8)
        entry = rmap.ensure(a, True)
        del a  # the array dies here; its entry waits for the barrier
        b = np.zeros(8)
        other = rmap.ensure(b, True)
        assert other is not entry
        assert entry.obj is not b

    def test_commit_write_tracks_versions_and_holders(self):
        rmap = ResidencyMap("s")
        a = np.arange(4.0)
        entry = rmap.ensure(a, True)
        rmap.record_copy(entry, "n0")
        assert entry.copies == {"n0": 0}
        rmap.commit_write(entry, "n1", 1, master_too=False)
        assert entry.version == 1
        assert entry.holders() == ["n1"]          # n0's copy is stale
        # ...and still recorded, so eviction reaches n0's store too.
        assert rmap.evict([entry]) == {"n0": [entry.key], "n1": [entry.key]}
        entry = rmap.ensure(a, True)
        rmap.commit_write(entry, "n1", 1, master_too=False)
        assert not entry.master_current()          # lazy output
        rmap.mark_master_current(entry)
        assert entry.master_current()

    def test_war_waw_rename_gets_fresh_key(self):
        # WAR/WAW renaming allocates a NEW buffer master-side; the
        # residency map must key it separately so the renamed version
        # can never hit the stale resident copy of the old buffer.
        rmap = ResidencyMap("s")
        base = np.arange(4.0)
        old = rmap.ensure(base, True)
        rmap.commit_write(old, "n0", 1, master_too=False)
        renamed = np.empty_like(base)  # what fresh_like would allocate
        fresh = rmap.ensure(renamed, False)
        assert fresh.key != old.key
        assert fresh.version == 0
        assert fresh.copies == {}

    def test_checksum_verify_invalidates_mutated_master_copy(self):
        rmap = ResidencyMap("s")
        a = np.arange(4.0)
        entry = rmap.ensure(a, True)
        rmap.commit_write(entry, "n0", 1, master_too=True)
        rmap.generation += 1
        a[0] = 99.0  # out-of-band mutation between barriers
        assert rmap.verify(entry) is False
        assert entry.version == 2      # new content version
        assert entry.holders() == []   # remote copies invalidated...
        assert entry.copies == {"n0": 1}    # ...but still known, for evict
        # Re-verify in the same generation is a no-op (cached).
        assert rmap.verify(entry) is True

    def test_verify_trusts_unchanged_content(self):
        rmap = ResidencyMap("s")
        a = np.arange(4.0)
        entry = rmap.ensure(a, True)
        rmap.commit_write(entry, "n0", 1, master_too=True)
        rmap.generation += 1
        assert rmap.verify(entry) is True
        assert entry.version == 1

    def test_drop_node_marks_sole_copy_lost(self):
        rmap = ResidencyMap("s")
        a = np.zeros(4)
        b = np.zeros(4)
        ea = rmap.ensure(a, True)
        eb = rmap.ensure(b, True)
        rmap.commit_write(ea, "n0", 1, master_too=False)  # only on n0
        rmap.commit_write(eb, "n0", 1, master_too=True)   # master has it
        lost = rmap.drop_node("n0")
        assert lost == [ea] and ea.lost
        assert not eb.lost                 # master copy is current
        # Lost is a state, not a flag someone must clear: a fresh write
        # (the successor re-run elsewhere) or a fetch ends it.
        rmap.commit_write(ea, "n1", 2, master_too=False)
        assert not ea.lost and ea.holders() == ["n1"]

    def test_eviction_releases_entries_and_reports_holders(self):
        rmap = ResidencyMap("s")
        base = np.zeros(4)
        renamed = np.zeros(4)
        eb = rmap.ensure(base, True)
        er = rmap.ensure(renamed, False)
        rmap.record_copy(er, "n1")
        by_node = rmap.evict([er])
        assert by_node == {"n1": [er.key]}
        assert len(rmap) == 1
        assert rmap.get(renamed) is None
        assert rmap.get(base) is eb

    def test_node_bytes_counts_only_current_versions(self):
        rmap = ResidencyMap("s")
        a = np.zeros(16)   # 128 bytes
        b = np.zeros(4)    # 32 bytes
        ea = rmap.ensure(a, True)
        eb = rmap.ensure(b, True)
        rmap.commit_write(ea, "n0", 1, master_too=True)
        rmap.record_copy(eb, "n1")
        rmap.commit_write(eb, "n0", 1, master_too=True)  # n1 now stale
        totals = rmap.node_bytes([a, b])
        assert totals == {"n0": a.nbytes + b.nbytes}
        # No objects named: every entry (the per-node gauges); an object
        # the map never saw, or None, holds nothing anywhere.
        assert rmap.node_bytes() == totals
        assert rmap.node_bytes([a, None, np.zeros(2)]) == {"n0": a.nbytes}

    # -- lifetime: the map never keeps a user's array alive -------------

    def test_dropped_base_array_is_doomed_at_the_next_barrier(self):
        rmap = ResidencyMap("s")
        kept, dropped = np.zeros(4), np.zeros(4)
        ek = rmap.ensure(kept, True)
        ed = rmap.ensure(dropped, True)
        rmap.record_copy(ed, "n1")
        assert rmap.doomed() == []          # both alive: nothing to evict
        del dropped
        gc.collect()
        assert ed.obj is None and len(rmap) == 2   # queued, not yet reaped
        doomed = rmap.doomed()
        assert doomed == [ed]
        assert rmap.evict(doomed) == {"n1": [ed.key]}
        assert len(rmap) == 1 and rmap.get(kept) is ek
        assert rmap.doomed() == []          # the queue was drained

    def test_strongly_held_entries_are_doomed_at_every_barrier(self):
        # Renamed buffers die with the barrier; bytearray/list cannot
        # be weakly referenced, so they go the same way.
        rmap = ResidencyMap("s")
        base, renamed = np.zeros(4), np.zeros(4)
        blob, items = bytearray(8), [1, 2]
        rmap.ensure(base, True)
        strong = [rmap.ensure(renamed, False), rmap.ensure(blob, True),
                  rmap.ensure(items, True)]
        assert [e.weak for e in rmap.entries()] == [True, False, False, False]
        assert rmap.doomed() == strong
        del renamed
        gc.collect()
        assert strong[0].obj is not None    # pinned until evicted

    def test_reused_id_keeps_the_new_entry_when_the_dead_one_is_evicted(self):
        rmap = ResidencyMap("s")
        a = np.zeros(8)
        old = rmap.ensure(a, True)
        oid = id(a)
        del a
        gc.collect()
        # Force the aliasing case whatever the allocator does: a new
        # entry registered under the dead entry's id.
        b = np.zeros(8)
        new = rmap.ensure(b, True)
        rmap._by_id[oid] = new
        rmap.evict(rmap.doomed())
        assert rmap._by_id[oid] is new and old.key not in rmap._by_key

    def test_weakref_callback_under_the_map_lock_corrupts_nothing(self):
        # The collector may fire callbacks on any thread at any
        # allocation — here inside drop_node's iteration, map lock held.
        rmap = ResidencyMap("s")
        arrays = [np.zeros(4) for _ in range(64)]
        entries = [rmap.ensure(a, True) for a in arrays]
        for entry in entries:
            rmap.commit_write(entry, "n0", 1, master_too=False)

        class Collecting(dict):
            def values(self):
                for i, value in enumerate(super().values()):
                    if i == 8 and len(arrays) == 64:
                        del arrays[::2]     # 32 arrays die mid-iteration
                        gc.collect()
                    yield value

        rmap._by_key = Collecting(rmap._by_key)
        lost = rmap.drop_node("n0")
        assert len(arrays) == 32 and lost == entries and len(rmap) == 64
        doomed = rmap.doomed()
        assert doomed == entries[::2]
        rmap.evict(doomed)
        assert rmap.entries() == entries[1::2]
        assert all(rmap.get(a) is e for a, e in zip(arrays, entries[1::2]))

    def test_arrays_dying_on_many_threads_while_barriers_reap(self):
        # Weakref callbacks fire on whichever thread drops the last
        # reference; the barrier thread drains their queue meanwhile.
        # More threads than cores, a short switch interval, bounded.
        rmap = ResidencyMap("s")
        kept = [np.zeros(4) for _ in range(16)]
        for a in kept:
            rmap.ensure(a, True)
        stop = threading.Event()
        made, errors = [0] * 6, []

        def churn(slot):
            try:
                while not stop.is_set():
                    a = np.zeros(4)
                    rmap.record_copy(rmap.ensure(a, True), f"n{slot % 2}")
                    made[slot] += 1
                    del a               # dies here, on this thread
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            evicted = 0
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                evicted += sum(map(len, rmap.evict(rmap.doomed()).values()))
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for t in threads:
                t.join(10.0)
        assert not errors and not any(t.is_alive() for t in threads)
        evicted += sum(map(len, rmap.evict(rmap.doomed()).values()))
        # Every dropped array was reaped exactly once; the kept ones stay.
        assert evicted == sum(made) > 0
        assert all(rmap.get(a).obj is a for a in kept) and len(rmap) == 16
        assert len(rmap._by_id) == 16


# ---------------------------------------------------------------------------
# blob / spec encoding
# ---------------------------------------------------------------------------

class TestEncoding:
    def test_ndarray_blob_roundtrip_is_bitwise(self):
        arr = np.random.default_rng(0).random((7, 5)).astype(np.float32)
        meta, payload = encode_blob(arr[::2, ::2])  # non-contiguous view
        back = decode_blob(meta, payload)
        assert np.array_equal(back, arr[::2, ::2])
        assert back.flags.writeable

    def test_object_dtype_takes_pickle_path(self):
        arr = np.array([{"a": 1}, None], dtype=object)
        meta, payload = encode_blob(arr)
        assert meta["t"] == "pkl"
        back = decode_blob(meta, payload)
        assert back[0] == {"a": 1}

    def test_apply_blob_into_region(self):
        target = np.zeros((4, 4))
        src = np.ones((2, 4))
        meta, payload = encode_blob(src)
        apply_blob(target, meta, payload, (slice(1, 3), slice(None)))
        assert target[1:3].sum() == 8 and target[0].sum() == 0

    def test_alloc_meta_roundtrip(self):
        arr = np.empty((3, 2), dtype=np.int32)
        out = alloc_from_meta(alloc_meta(arr))
        assert out.shape == (3, 2) and out.dtype == np.int32
        assert not out.any()  # deterministic zeros
        assert alloc_from_meta(alloc_meta([1, 2, 3])) == [None] * 3
        assert alloc_from_meta(alloc_meta(bytearray(5))) == bytearray(5)
        with pytest.raises(SerializationError):
            alloc_meta(object())

    def test_record_slices_roundtrip_preserves_full_dims(self):
        slices = (slice(2, 7), slice(None), slice(0, 4, 2))
        task = plan_for(_touch_t.definition).instantiate((0,), {}, {})
        record = task_record(task, Link(1), 1, [], [(0, slices)])
        assert pickle.loads(record)[6] == [(0, slices)]

    def test_content_checksum_tracks_mutation(self):
        a = np.arange(10.0)
        c1 = content_checksum(a)
        a[3] = -1
        assert content_checksum(a) != c1
        assert content_checksum(np.array([object()], dtype=object)) is None
        assert content_checksum(bytearray(b"xy")) is not None

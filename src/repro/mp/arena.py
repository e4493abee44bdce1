"""Shared-memory arena: ndarray blocks with stable cross-process handles.

The process backend (:mod:`repro.mp.executor`) ships task arguments to
worker processes over pipes.  Pickling every ndarray would copy the
data twice per task — the exact overhead the paper's shared-address
runtime avoids — so the arena provides the shared-address half of the
design: blocks allocated here live in ``multiprocessing.shared_memory``
segments that every worker process maps, and an arena-backed array (or
any view into one) travels as a tiny :class:`ArenaHandle` instead of
bytes.  Reads and writes made by a worker land directly in the master's
memory, which is what lets renaming, write-back, and the paper's
"opaque flat matrix" idiom (:func:`repro.apps.tasks.put_block_t`) work
unchanged across process boundaries.  Any other ndarray is copied into
an arena the backend owns at its first dispatch
(:mod:`repro.mp.residency`); allocating here skips that copy.

Lifecycle: an arena owns its segments.  ``close()`` (also ``__exit__``,
``__del__``, and an ``atexit`` hook for the process-default arena)
closes and unlinks every segment, so no ``/dev/shm`` files outlive the
process even when a ``with`` block unwinds on an exception.
:func:`leaked_segment_files` supports leak checks in tests.

Allocation is first fit: each segment keeps a list of its free byte
ranges, a block no array references any more goes back to its
segment's list (merged with free neighbours), and a new segment is
mapped only when no range is large enough.  A long-lived arena whose
blocks are all dropped (the process backend's, after every barrier)
therefore reuses the same segments whatever sizes come next.
"""

from __future__ import annotations

import atexit
import bisect
import os
import threading
import uuid
import weakref
from collections import deque
from multiprocessing import shared_memory
from typing import Any, NamedTuple, Optional

import numpy as np

__all__ = [
    "ArenaHandle",
    "SharedArena",
    "arena_array",
    "default_arena",
    "handle_of",
    "attach_handle",
    "leaked_segment_files",
]

#: Prefix of every segment name this module creates; the leak check
#: scans ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro-mp"

#: Alignment of every block (bytes).  Cache-line aligned so tiles handed
#: to different workers never share a line.
_ALIGN = 64

#: Process-global segment registry: name -> (base address, size, arena).
#: :func:`segment_of` resolves any address against it, so adoption of
#: arena-backed arrays is transparent — apps pass views around and the
#: encoder recognises them wherever they came from.  Copy-on-write:
#: a writer binds a fresh dict under the lock and never mutates a
#: published one, so readers take no lock.
_SEGMENTS: dict[str, tuple[int, int, "SharedArena"]] = {}
_registry_lock = threading.Lock()


class ArenaHandle(NamedTuple):
    """A stable, picklable reference to an ndarray in a shared segment."""

    segment: str
    offset: int
    shape: tuple
    #: dtype string (``np.dtype.str``; endianness included).
    dtype: str
    strides: tuple


def _buffer_address(shm: shared_memory.SharedMemory) -> int:
    probe = np.ndarray((1,), dtype=np.uint8, buffer=shm.buf)
    return probe.__array_interface__["data"][0]


class SharedArena:
    """Allocator handing out ndarray blocks in shared memory.

    Usage::

        with SharedArena() as arena:
            a = arena.zeros((n, n), np.float64)
            ...  # run task programs over `a` and views of it

    or, for the common case, the module-level :func:`arena_array`
    against the process-default arena.
    """

    def __init__(self, segment_bytes: int = 16 << 20):
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        self.segment_bytes = int(segment_bytes)
        self._uid = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._segments: list[shared_memory.SharedMemory] = []
        #: Per segment, its free ``[start, end)`` byte ranges in order.
        self._holes: list[list[list[int]]] = []
        self._lock = threading.Lock()
        self._closed = False
        #: Freed ``(segment index, offset, size)``, queued by finalisers
        #: (any thread, even under ``_lock``) until the next allocation.
        self._freed: deque = deque()

    def _new_segment(self, at_least: int) -> shared_memory.SharedMemory:
        size = max(self.segment_bytes, at_least)
        name = f"{SEGMENT_PREFIX}-{self._uid}-{len(self._segments)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        self._segments.append(shm)
        self._holes.append([[0, shm.size]])
        global _SEGMENTS
        with _registry_lock:
            _SEGMENTS = {
                **_SEGMENTS, shm.name: (_buffer_address(shm), shm.size, self)}
        return shm

    def _take(self, size: int) -> Optional[tuple[int, int]]:
        """First fit: ``(segment index, offset)`` of *size* free bytes."""

        for index, holes in enumerate(self._holes):
            for hole in holes:
                if hole[1] - hole[0] >= size:
                    offset = hole[0]
                    hole[0] += size
                    if hole[0] == hole[1]:
                        holes.remove(hole)
                    return index, offset
        return None

    def _give_back(self, index: int, offset: int, size: int) -> None:
        holes, end = self._holes[index], offset + size
        at = bisect.bisect(holes, [offset])
        if at < len(holes) and holes[at][0] == end:
            end = holes.pop(at)[1]
        if at and holes[at - 1][1] == offset:
            holes[at - 1][1] = end
        else:
            holes.insert(at, [offset, end])

    def empty(self, shape, dtype=np.float64) -> np.ndarray:
        """Allocate an uninitialised C-contiguous block."""

        dtype = np.dtype(dtype)
        shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        size = (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)
        with self._lock:
            if self._closed:
                raise RuntimeError("arena is closed")
            while self._freed:
                self._give_back(*self._freed.popleft())
            found = self._take(size)
            if found is None:
                self._new_segment(size)
                found = self._take(size)
            index, offset = found
            shm = self._segments[index]
        block = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        if size:
            weakref.finalize(block, self._freed.append, (index, offset, size))
        return block

    def zeros(self, shape, dtype=np.float64) -> np.ndarray:
        block = self.empty(shape, dtype)
        block[...] = 0
        return block

    def array(self, source: np.ndarray) -> np.ndarray:
        """Copy *source* into the arena (the adoption path for apps)."""

        block = self.empty(source.shape, source.dtype)
        block[...] = source
        return block

    @property
    def segment_names(self) -> list[str]:
        return [shm.name for shm in self._segments]

    def close(self) -> None:
        """Close and unlink every segment.  Idempotent, never raises.

        Arrays previously handed out become invalid; touching one after
        close is use-after-free (numpy may still see the old mapping
        until the last reference drops, so misuse is not guaranteed to
        crash — don't rely on it).
        """

        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments, self._segments = self._segments, []
        global _SEGMENTS
        with _registry_lock:
            _SEGMENTS = {name: entry for name, entry in _SEGMENTS.items()
                         if entry[2] is not self}
        for shm in segments:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def span_of(value: np.ndarray) -> tuple[int, int]:
    """``[lo, hi)``: the byte addresses *value*'s elements occupy."""

    lo = hi = value.__array_interface__["data"][0]
    if value.size == 0:
        return lo, lo
    for n, stride in zip(value.shape, value.strides):
        if stride < 0:
            lo += (n - 1) * stride
        else:
            hi += (n - 1) * stride
    return lo, hi + value.itemsize


def segment_of(lo: int, hi: int) -> Optional[tuple[str, int]]:
    """``(name, offset of lo)`` of the registered segment holding the
    bytes ``[lo, hi)``, or ``None``."""

    for name, (start, size, _arena) in _SEGMENTS.items():
        if start <= lo and hi <= start + size:
            return name, lo - start
    return None


def handle_of(value: Any) -> Optional[ArenaHandle]:
    """The :class:`ArenaHandle` of *value* if it lives in a registered
    arena segment, else ``None``.

    Works for any view (slices, blocks, transposes) as long as every
    stride is non-negative and the view's extent fits inside one
    segment; reversed (negative-stride) views answer ``None`` (the
    process backend gives them a handle into the copy of the array they
    view, :mod:`repro.mp.residency`).
    """

    if (not isinstance(value, np.ndarray) or value.dtype.hasobject
            or min(value.strides, default=0) < 0):
        return None
    found = segment_of(*span_of(value))
    if found is None:
        return None
    return ArenaHandle(*found, value.shape, value.dtype.str, value.strides)


#: The segments this process has attached.  Entries MUST stay referenced
#: for as long as any array built on them is alive: ``SharedMemory.__del__``
#: unmaps the segment even while ndarrays still point into it (numpy's
#: ``base`` chain holds the mmap *object*, not a buffer export).
_ATTACH_CACHE: dict[str, shared_memory.SharedMemory] = {}


def attach_handle(handle: ArenaHandle) -> np.ndarray:
    """Map *handle* back to an ndarray (worker-process side).

    Ownership note (CPython's bpo-39959 behaviour): attaching registers
    the segment with the attacher's ``resource_tracker``, and a
    non-owner's registration would produce spurious unlinks/warnings —
    worker processes therefore suppress shared-memory registration
    wholesale (see ``repro.mp.worker``); only the creating arena ever
    unlinks.
    """

    shm = _ATTACH_CACHE.get(handle.segment)
    if shm is None:
        shm = shared_memory.SharedMemory(name=handle.segment)
        _ATTACH_CACHE[handle.segment] = shm
    return np.ndarray(
        handle.shape,
        dtype=np.dtype(handle.dtype),
        buffer=shm.buf,
        offset=handle.offset,
        strides=handle.strides,
    )


_default: Optional[SharedArena] = None
_default_lock = threading.Lock()


def default_arena() -> SharedArena:
    """The lazily created process-wide arena (unlinked at interpreter
    exit via ``atexit``; replaceable after an explicit ``close()``)."""

    global _default
    with _default_lock:
        if _default is None or _default._closed:
            _default = SharedArena()
        return _default


@atexit.register
def _close_default_arena() -> None:  # pragma: no cover - exit hook
    global _default
    if _default is not None:
        _default.close()
        _default = None


def arena_array(source_or_shape, dtype=np.float64, *, arena: Optional[SharedArena] = None) -> np.ndarray:
    """Allocate (or adopt) an ndarray in shared-arena memory.

    * ``arena_array((256, 256))`` — a zero-filled float64 block;
    * ``arena_array((64,), np.int32)`` — explicit dtype;
    * ``arena_array(existing_ndarray)`` — a shared copy of the data
      (the dtype is taken from the source).

    Uses the process-default arena unless *arena* is given.  The result
    is an ordinary ndarray usable under either backend; under
    ``backend="processes"`` it (and every view of it) travels to
    workers by handle, zero-copy.
    """

    arena = arena or default_arena()
    if isinstance(source_or_shape, np.ndarray):
        return arena.array(source_or_shape)
    return arena.zeros(source_or_shape, dtype)


def leaked_segment_files(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """``/dev/shm`` entries left behind by this module (should be none).

    On platforms without ``/dev/shm`` the check degrades to the live
    registry (segments not yet closed).
    """

    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        try:
            return sorted(
                name for name in os.listdir(shm_dir) if name.startswith(prefix)
            )
        except OSError:  # pragma: no cover - permission oddities
            pass
    return sorted(name for name in _SEGMENTS if name.startswith(prefix))

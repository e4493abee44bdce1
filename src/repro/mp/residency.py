"""Where an ndarray's bytes live while worker processes use them.

The first dispatch that names an array copies the memory of its *root*
(the end of its ``base`` chain, so all views of one buffer share one
copy) into the backend's private arena; every dispatch ships a handle
into the copy, and worker writes land there.  The master's bytes are
stale meanwhile, as the SMPSs contract allows: the program reads task
data only after a barrier or ``wait_on``.  :meth:`ArenaResidency.sync`
(every barrier) copies each root home and forgets its copy, since the
program may then change its arrays; :meth:`ArenaResidency.fetch`
(``wait_on``, and renaming before it clones) copies one view home, and
out again before the next dispatch touching those bytes.

A root already in an arena is not copied: its handle points at its own
block (a reversed view, which :func:`~repro.mp.arena.handle_of`
declines, still shares memory with the rest).  Copies hold their root
weakly; the copy of a root that died is freed at the next lookup.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .arena import SharedArena, handle_of, segment_of, span_of

__all__ = ["ArenaResidency"]


def _root(value: np.ndarray) -> np.ndarray:
    while isinstance(value.base, np.ndarray):
        value = value.base
    return value


def _window(lo: int, hi: int) -> np.ndarray:
    """The bytes ``[lo, hi)`` of this process as a uint8 array (through
    the array interface: a ctypes array would build a type per call)."""

    return np.asarray(SimpleNamespace(__array_interface__={
        "data": (lo, False), "shape": (hi - lo,), "typestr": "|u1", "version": 3}))


class _Copy:
    """A root's bytes ``[lo, hi)`` in an arena: master address ``start``
    is ``offset`` in ``segment``; ``block`` holds ``[start, hi)`` (``None``:
    the root is that arena's), ``pushes`` the fetched views to copy out,
    as ``(lo, hi, arena view, master address)``: nothing in a copy holds
    the root (or a view of it) alive."""

    __slots__ = ("root", "lo", "hi", "start", "block", "segment", "offset",
                 "pushes")

    def push(self, lo: int, hi: int) -> None:
        """Copy out the fetched views overlapping ``[lo, hi)``."""

        for pending in [p for p in self.pushes if p[0] < hi and lo < p[1]]:
            self.pushes.remove(pending)
            view = pending[2]
            view[...] = np.ndarray(
                view.shape, view.dtype, buffer=_window(self.lo, self.hi),
                offset=pending[3] - self.lo, strides=view.strides)


class ArenaResidency:
    """The arena copies of one process backend's ndarray roots."""

    def __init__(self):
        self._arena: Optional[SharedArena] = None
        self._lock = threading.Lock()
        self._copies: dict = {}  # id(root) -> _Copy
        #: ``id(value) -> (weakref, wire handle, _Copy)``: a graph names
        #: the same arrays again and again (``encode_values`` reads it).
        self.memo: dict = {}
        #: Keys of copies whose root died (weakref callbacks only queue).
        self._dead: deque = deque()

    def handle(self, value: np.ndarray) -> Optional[tuple]:
        """The wire form of an :class:`~repro.mp.arena.ArenaHandle` to
        *value*'s bytes in an arena (copying its root in on first use),
        memoised; ``None`` for dtypes whose bytes do not describe the
        data."""

        if value.dtype.hasobject or value.dtype.names is not None:
            return None
        root = _root(value)
        lo, hi = span_of(value)
        with self._lock:
            self._drain()
            copy = self._copies.get(id(root))
            if copy is None or copy.root() is not root:
                copy = self._copies[id(root)] = self._copy_in(root)
            copy.push(lo, hi)
            wire = (copy.segment, copy.offset - copy.start
                    + value.__array_interface__["data"][0],
                    value.shape, value.dtype.str, value.strides)
            self.memo[id(value)] = (weakref.ref(
                value, lambda _ref, key=id(value): self.memo.pop(key, None)),
                wire, copy)
            return wire

    def _copy_in(self, root: np.ndarray) -> _Copy:
        copy = _Copy()
        key = id(root)
        copy.root = weakref.ref(root, lambda _ref: self._dead.append(key))
        copy.lo, copy.hi = span_of(root)
        copy.pushes = []
        found = segment_of(copy.lo, copy.hi)
        if found is not None:
            copy.start, copy.block = copy.lo, None
            copy.segment, copy.offset = found
            return copy
        if self._arena is None:
            self._arena = SharedArena()
        # Aligned as the root is, so the copy's views are as aligned.
        pad = copy.lo % 64
        copy.start = copy.lo - pad
        copy.block = self._arena.empty(copy.hi - copy.start, np.uint8)
        copy.block[pad:] = _window(copy.lo, copy.hi)
        copy.segment, copy.offset = handle_of(copy.block)[:2]
        return copy

    def _drain(self) -> None:
        while self._dead:
            key = self._dead.popleft()
            copy = self._copies.get(key)
            if copy is not None and copy.root() is None:
                del self._copies[key]

    def fetch(self, value) -> None:
        """Make the master's bytes of *value* current."""

        if not isinstance(value, np.ndarray):
            return
        root = _root(value)
        with self._lock:
            copy = self._copies.get(id(root))
            if copy is None or copy.block is None or copy.root() is not root:
                return
            address = value.__array_interface__["data"][0]
            arena_view = np.ndarray(
                value.shape, value.dtype, buffer=copy.block,
                strides=value.strides, offset=address - copy.start)
            if value.flags.writeable:
                value[...] = arena_view
            copy.pushes.append((*span_of(value), arena_view, address))

    def sync(self, objs=None) -> None:
        """Copy every root (or the roots of *objs*) home and forget
        their copies."""

        with self._lock:
            self._drain()
            if objs is None:
                doomed, self._copies = list(self._copies.values()), {}
            else:
                keys = {id(_root(obj)) for obj in objs
                        if isinstance(obj, np.ndarray)}
                doomed = [self._copies.pop(key) for key in keys
                          if key in self._copies]
            self.memo = {}
            for copy in doomed:
                root = copy.root()
                if copy.block is not None and root is not None:
                    copy.push(copy.lo, copy.hi)
                    if root.flags.writeable:
                        _window(copy.lo, copy.hi)[...] = \
                            copy.block[copy.lo - copy.start:]

    def close(self) -> None:
        """Copy every root home and free the arena."""

        self.sync()
        with self._lock:
            if self._arena is not None:
                self._arena.close()
                self._arena = None

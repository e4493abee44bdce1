"""Renaming support: storage adapters and version storage management.

Section II: "In order to reduce dependencies, the SMPSs runtime is
capable of renaming the data, leaving only the true dependencies.  This
is the same technique used by superscalar processors and optimizing
compilers."

Renaming means a write to a datum may be redirected to a freshly
allocated buffer so that earlier readers (WAR) or an earlier writer
(WAW) of the old value are not serialised against the new writer.  In C
the runtime mallocs anonymous buffers; in this Python binding the
equivalent operations are provided per object type by a
:class:`DataAdapter`:

* ``fresh_like`` — allocate an uninitialised buffer of the same shape
  (used for renamed ``output`` parameters, whose old content is dead);
* ``clone`` — allocate a copy (used for renamed ``inout`` parameters,
  which read the previous value);
* ``write_back`` — copy the final version back into the user's object
  at a barrier, so the program observes sequential semantics.

The module also defines :class:`Version`: one immutable element of a
datum's version chain, with lazy storage materialisation.  Laziness
matters: a renamed buffer is only allocated when (and where) the
producing task actually runs, which is also what gives SMPSs its
"realigning data due to renamings" locality benefit noted in the
N Queens discussion (section VI.E).
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Optional

import numpy as np

from .task import TaskState

__all__ = [
    "DataAdapter",
    "AdapterRegistry",
    "default_registry",
    "Version",
    "StorageKind",
    "RenamingError",
]


class RenamingError(RuntimeError):
    """Raised when storage operations are applied to unsupported data."""


class DataAdapter:
    """Type-specific storage operations used by the renaming engine."""

    #: Whether the engine may rename objects of this type.  Types that
    #: cannot be re-created faithfully (or whose identity is load-bearing,
    #: like representants) keep ``False`` and get WAR/WAW edges instead.
    renamable = False

    def matches(self, obj: Any) -> bool:
        raise NotImplementedError

    def fresh_like(self, obj: Any) -> Any:
        raise RenamingError(f"{type(obj).__name__} objects cannot be renamed")

    def clone(self, obj: Any) -> Any:
        raise RenamingError(f"{type(obj).__name__} objects cannot be cloned")

    def write_back(self, base: Any, storage: Any) -> None:
        raise RenamingError(
            f"{type(base).__name__} objects cannot receive a write-back"
        )

    def shape_of(self, obj: Any) -> Optional[tuple]:
        return None

    def size_of(self, obj: Any) -> int:
        """Approximate storage footprint in bytes (memory accounting)."""

        return 64


class NdarrayAdapter(DataAdapter):
    """Adapter for numpy arrays — the workhorse for all paper codes.

    ``clone``/``fresh_like`` produce C-contiguous buffers regardless of
    the source layout; this is the "realigning" effect the paper credits
    for the 1-thread N Queens advantage.
    """

    renamable = True

    def matches(self, obj: Any) -> bool:
        return isinstance(obj, np.ndarray)

    def fresh_like(self, obj: np.ndarray) -> np.ndarray:
        return np.empty_like(obj, order="C", subok=False)

    def clone(self, obj: np.ndarray) -> np.ndarray:
        return np.array(obj, order="C", copy=True, subok=False)

    def write_back(self, base: np.ndarray, storage: np.ndarray) -> None:
        if base.shape != storage.shape:
            raise RenamingError(
                f"write-back shape mismatch: {base.shape} vs {storage.shape}"
            )
        base[...] = storage

    def shape_of(self, obj: np.ndarray) -> tuple:
        return obj.shape

    def size_of(self, obj: np.ndarray) -> int:
        return int(obj.nbytes)


class ListAdapter(DataAdapter):
    """Adapter for plain Python lists (1-D arrays of objects)."""

    renamable = True

    def matches(self, obj: Any) -> bool:
        return isinstance(obj, list)

    def fresh_like(self, obj: list) -> list:
        return [None] * len(obj)

    def clone(self, obj: list) -> list:
        return list(obj)

    def write_back(self, base: list, storage: list) -> None:
        base[:] = storage

    def shape_of(self, obj: list) -> tuple:
        return (len(obj),)


class BytearrayAdapter(DataAdapter):
    renamable = True

    def matches(self, obj: Any) -> bool:
        return isinstance(obj, bytearray)

    def fresh_like(self, obj: bytearray) -> bytearray:
        return bytearray(len(obj))

    def clone(self, obj: bytearray) -> bytearray:
        return bytearray(obj)

    def write_back(self, base: bytearray, storage: bytearray) -> None:
        base[:] = storage

    def shape_of(self, obj: bytearray) -> tuple:
        return (len(obj),)


class GenericObjectAdapter(DataAdapter):
    """Fallback: any mutable object is tracked by identity, never renamed.

    WAR/WAW hazards on such objects become graph edges — still correct,
    just with less parallelism, mirroring the paper's representants.
    """

    renamable = False

    def matches(self, obj: Any) -> bool:
        return True

    def shape_of(self, obj: Any) -> Optional[tuple]:
        return None


class AdapterRegistry:
    """Ordered adapter lookup, first match wins; extensible by users.

    Lookups are memoised per concrete type: ``matches`` implementations
    are ``isinstance`` checks, so every instance of a type resolves to
    the same adapter and the scan need only run once per type.  The
    memo is invalidated on :meth:`register`.
    """

    def __init__(self) -> None:
        self._adapters: list[DataAdapter] = []
        self._by_type: dict[type, DataAdapter] = {}

    def register(self, adapter: DataAdapter, *, prepend: bool = True) -> None:
        if prepend:
            self._adapters.insert(0, adapter)
        else:
            self._adapters.append(adapter)
        self._by_type.clear()

    def adapter_for(self, obj: Any) -> DataAdapter:
        adapter = self._by_type.get(type(obj))
        if adapter is not None:
            return adapter
        for adapter in self._adapters:
            if adapter.matches(obj):
                self._by_type[type(obj)] = adapter
                return adapter
        raise RenamingError(f"no adapter for {type(obj).__name__}")  # pragma: no cover


def default_registry() -> AdapterRegistry:
    registry = AdapterRegistry()
    registry.register(GenericObjectAdapter(), prepend=False)
    registry.register(BytearrayAdapter(), prepend=False)
    registry.register(ListAdapter(), prepend=False)
    registry.register(NdarrayAdapter(), prepend=False)
    # ndarray first:
    registry._adapters.reverse()
    return registry


# ---------------------------------------------------------------------------
# Versions
# ---------------------------------------------------------------------------


class StorageKind(enum.Enum):
    #: The user's own object: the initial version of every chain.
    INITIAL = "initial"
    #: Shares its predecessor's buffer (in-place update, no hazard).
    SAME = "same"
    #: Freshly allocated, content undefined (renamed ``output``).
    FRESH = "fresh"
    #: Copy of the predecessor's buffer (renamed ``inout``).
    CLONE = "clone"


class Version:
    """One version of a datum: a node in the renaming chain.

    ``resolve_storage`` materialises lazily and is safe to call from the
    worker that runs the producing task: by then every true dependency
    of the producer has finished, so a CLONE source is final.
    """

    __slots__ = (
        "datum", "index", "kind", "prev", "producer", "readers",
        "_storage", "_lock", "released", "_root", "_gone",
    )

    def __init__(
        self,
        datum: "Any",
        index: int,
        kind: StorageKind,
        prev: Optional["Version"] = None,
        producer=None,
    ) -> None:
        self.datum = datum
        self.index = index
        self.kind = kind
        self.prev = prev
        #: TaskInstance that produces this version (None: initial data).
        self.producer = producer
        #: TaskInstances that read this version; ``_gone`` of them have
        #: finished since the last prune (``TaskGraph.complete``).  The
        #: empty tuple until the first reader: most region versions and
        #: renamed outputs are never read before the chain rolls on.
        self.readers: list = ()
        self._gone = 0
        self._storage: Any = None
        #: Materialisation lock — only FRESH/CLONE versions ever
        #: materialise or drop storage, so INITIAL/SAME versions (the
        #: bulk of a fine-grained submission stream) carry None.  The
        #: lock itself is the owning datum's (one per user object, not
        #: one allocation per renamed version).
        self._lock = (
            datum.mat_lock
            if kind is StorageKind.FRESH or kind is StorageKind.CLONE
            else None
        )
        #: Set when the renamed buffer was garbage-collected (the
        #: runtime's memory-limit machinery); resolving it again would
        #: be a use-after-free bug, so it raises.
        self.released = False
        #: The version that actually owns this version's storage: SAME
        #: versions alias their predecessor's buffer, and long in-place
        #: chains (one per inout task) would otherwise make storage
        #: resolution O(chain length) / recursive.  Computed eagerly in
        #: O(1) because the predecessor's root is already flat.  ``None``
        #: for the owner itself (see :attr:`root`): no version is a cycle.
        if kind is StorageKind.SAME:
            assert prev is not None
            self._root = prev._root or prev
            # Collapse the prev pointer too: an in-place chain would
            # otherwise pin one Version object per task until the next
            # barrier.  The root is the only predecessor that matters
            # (it owns the storage the memory manager reasons about).
            self.prev = self._root
        else:
            self._root = None

    @property
    def root(self) -> "Version":
        return self._root or self

    def resolve_storage(self) -> Any:
        if self._root is not None:
            return self._root.resolve_storage()
        if self.kind is StorageKind.INITIAL:
            return self.datum.base
        # Materialised storage is final until released, so the common
        # re-resolve (every reader after the producer) skips the lock.
        # This also keeps the shared per-datum lock non-recursive: a
        # CLONE materialising under it resolves its predecessor — by
        # then always INITIAL or already materialised — lock-free.
        storage = self._storage
        if storage is not None:
            return storage
        with self._lock:
            if self.released:
                raise RenamingError(
                    f"version {self.index} of {self.datum!r} was released; "
                    f"this is a runtime lifetime bug"
                )
            if self._storage is None:
                adapter = self.datum.adapter
                if self.kind is StorageKind.FRESH:
                    self._storage = adapter.fresh_like(self.datum.base)
                else:  # CLONE
                    assert self.prev is not None
                    tracker = self.datum.tracker
                    if tracker is not None:
                        # A remote backend may hold the predecessor's
                        # current bytes elsewhere (a node, an arena
                        # copy): make the master copy current first.
                        tracker.residency_fetch(self.prev)
                    self._storage = adapter.clone(self.prev.resolve_storage())
                self.datum.on_rename_materialised(self)
            return self._storage

    @property
    def is_materialised(self) -> bool:
        root = self.root
        return root.kind is StorageKind.INITIAL or root._storage is not None

    def storage_is_base(self) -> bool:
        """True when this version's buffer is the user's own object."""

        return self.root.kind is StorageKind.INITIAL

    def drop_storage(self) -> int:
        """Free a materialised renamed buffer; returns bytes released."""

        if self._lock is None:  # INITIAL/SAME: nothing to free
            return 0
        with self._lock:
            if self._storage is None or self.released:
                return 0
            size = self.datum.adapter.size_of(self._storage)
            self._storage = None
            self.released = True
            return size

    def pending_readers(self) -> list:
        """Readers whose task has not finished yet; prunes the rest."""

        still = []
        finished = TaskState.FINISHED
        for task in self.readers:  # a loop, not a comprehension's call
            if task.state is not finished:
                still.append(task)
        self.readers = still
        self._gone = 0
        return still

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Version {self.index} of {self.datum!r} kind={self.kind.value} "
            f"producer={getattr(self.producer, 'task_id', None)}>"
        )

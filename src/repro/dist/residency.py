"""The master-side datum residency map.

The cluster backend's central data structure: for every tracked
storage buffer that has crossed to a node at least once, one
:class:`ResidencyEntry` records

* ``version`` — a monotonically increasing *content* version, bumped
  each time a task writes the buffer through the cluster backend;
* ``master_version`` — the version the master's own copy reflects
  (a version a later writer has superseded stays on its node in lazy
  mode, so the master can be stale between barriers);
* ``copies`` — ``{node_name: version}``, which nodes hold which
  content version.  A node whose recorded version equals ``version``
  holds the current bytes; dispatching there ships a reference instead
  of content (the ``dist.cache_hits`` path).

The map never keeps a user's array alive.  A user-owned ``ndarray``
is held by **weak reference**: while the user keeps it, its remote
copies give repeat submissions their bytes-moved win; once the user
drops it, the weakref callback queues the entry's key (and does nothing
else — the collector can fire it on any thread, even under this map's
own lock) and :meth:`ResidencyMap.doomed` hands the entry to the next
barrier for eviction here and on the agents.  Everything else — renamed
buffers, which die with the barrier anyway, and ``bytearray``/``list``
objects, which cannot be weakly referenced — is held strongly and
evicted at every barrier.  Either way Python recycling an ``id()`` can
never alias two objects onto one wire key: a strong entry pins its
object, and a dead weak reference is identical to nothing.

Surviving entries are re-verified once per barrier generation with an
adler32 content checksum (:func:`~repro.dist.encoding.content_checksum`):
code mutating an array between barriers — legal, it is the user's
object — invalidates the remote copies instead of silently reading
stale bytes.

Locking: one reentrant lock for the whole map.  The dispatch path
takes it once per task for all of the task's lookups
(:meth:`ResidencyMap.lookup`) and once per commit; the scheduler's
placement hook takes it under the scheduler lock (lock order is
always scheduler → residency, and network I/O never happens under
either).
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from itertools import repeat
from typing import Any, Iterable, Optional

import numpy as np

from .encoding import content_checksum

__all__ = ["ResidencyEntry", "ResidencyMap"]


class ResidencyEntry:
    """Residency state of one storage buffer (see module docstring)."""

    __slots__ = (
        "key", "oid", "weak", "_ref", "is_base", "version", "master_version",
        "copies", "last_writer", "nbytes", "checksum", "checked_gen",
    )

    def __init__(self, key: str, obj: Any, is_base: bool, nbytes: int,
                 dead: deque):
        self.key = key
        self.oid = id(obj)
        #: User-owned ndarrays are only *referenced*; when one dies its
        #: key is queued on *dead* and :attr:`obj` reads ``None``.
        self.weak = is_base and isinstance(obj, np.ndarray)
        self._ref = weakref.ref(obj, lambda _ref: dead.append(key)) \
            if self.weak else repeat(obj).__next__
        self.is_base = is_base
        self.version = 0
        self.master_version = 0
        self.copies: dict[str, int] = {}
        self.last_writer: Optional[str] = None
        self.nbytes = nbytes
        self.checksum: Optional[int] = None
        self.checked_gen = -1

    @property
    def obj(self) -> Any:
        return self._ref()

    def master_current(self) -> bool:
        return self.master_version == self.version

    def holders(self) -> list[str]:
        """Nodes recorded as holding the *current* content version."""

        return [n for n, v in self.copies.items() if v == self.version]

    @property
    def lost(self) -> bool:
        """Every copy of the current version died with its node and the
        master is stale: the content is unrecoverable."""

        return not (self.master_current() or self.holders())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResidencyEntry {self.key} v{self.version} "
            f"master=v{self.master_version} copies={self.copies}>"
        )


def _size_of(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytearray, bytes)):
        return len(obj)
    if isinstance(obj, list):
        return len(obj) * 8  # rough; lists ship by pickle anyway
    return 0


class ResidencyMap:
    """All residency entries of one cluster run."""

    def __init__(self, sid: str):
        self.sid = sid
        self._lock = threading.RLock()
        self._by_id: dict[int, ResidencyEntry] = {}
        self._by_key: dict[str, ResidencyEntry] = {}
        self._serial = 0
        #: Keys of weakly-held entries whose object died, appended by
        #: the weakref callbacks, drained by :meth:`doomed`.
        self._dead: deque = deque()
        #: Barrier generation; bumped by the barrier policy so entry
        #: checksums are re-verified at most once per generation.
        self.generation = 0

    def ensure(self, obj: Any, is_base: bool) -> ResidencyEntry:
        """*obj*'s entry, made at first use, verified once a generation."""

        with self._lock:
            entry = self._by_id.get(id(obj))
            if entry is not None and entry._ref() is obj:
                if entry.checked_gen != self.generation:
                    self.verify(entry)
                return entry
            self._serial += 1
            entry = ResidencyEntry(
                f"{self.sid}:{self._serial}", obj, is_base, _size_of(obj),
                self._dead,
            )
            entry.checked_gen = self.generation  # nothing to compare yet
            self._by_id[id(obj)] = entry
            self._by_key[entry.key] = entry
            return entry

    def lookup(self, storages: list, node: str) -> list:
        """``(entry, hit)`` for each ``(obj, is_base)`` of one task's
        tracked *storages*, in one lock section: :meth:`ensure`'s entry
        and whether *node* holds its current content."""

        with self._lock:
            found = []
            for obj, is_base in storages:
                entry = self.ensure(obj, is_base)
                found.append((entry, node in entry.holders()))
            return found

    def get(self, obj: Any) -> Optional[ResidencyEntry]:
        with self._lock:
            entry = self._by_id.get(id(obj))
            if entry is not None and entry._ref() is obj:
                return entry
            return None

    def entries(self) -> list[ResidencyEntry]:
        with self._lock:
            return list(self._by_key.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_key)

    def verify(self, entry: ResidencyEntry) -> bool:
        """Re-check a surviving entry's content once per generation.

        Returns ``True`` when the cached copies are still valid.  A
        checksum mismatch means the master object was mutated outside
        any task since the copies were recorded: the entry rolls to a
        new content version, which no node holds (the recorded copies
        are all older now), so the next dispatch re-ships current bytes.
        """

        with self._lock:
            if entry.checked_gen == self.generation:
                return True
            entry.checked_gen = self.generation
            if entry.checksum is None or not entry.master_current():
                return True  # nothing trustworthy to compare against
            current = content_checksum(entry._ref())
            if current == entry.checksum:
                return True
            entry.version += 1
            entry.master_version = entry.version
            entry.checksum = current
            return False

    def record_copy(self, entry: ResidencyEntry, node: str) -> None:
        with self._lock:
            entry.copies[node] = entry.version
            # First content ship from a current master copy: remember
            # its checksum, or verify() would have nothing to compare
            # against when a later generation re-checks this entry
            # (read-only cached arrays are exactly the ones users are
            # most tempted to mutate between submissions).
            if entry.checksum is None and entry.master_current():
                entry.checksum = content_checksum(entry._ref())
                entry.checked_gen = self.generation

    def commit_write(self, entry: ResidencyEntry, node: str,
                     v_after: int, *, master_too: bool) -> None:
        """A task on *node* produced content version *v_after*."""

        with self._lock:
            obj = entry._ref()
            entry.version = v_after
            # Older copies elsewhere stay recorded (as stale): eviction
            # must reach every node whose store still holds the key.
            entry.copies[node] = v_after
            entry.last_writer = node
            entry.nbytes = obj.nbytes if type(obj) is np.ndarray else _size_of(obj)
            if master_too:
                entry.master_version = v_after
                entry.checksum = content_checksum(obj)
                entry.checked_gen = self.generation
            else:
                entry.checksum = None

    def mark_master_current(self, entry: ResidencyEntry) -> None:
        """The master just obtained the current bytes (fetch/ship)."""

        with self._lock:
            entry.master_version = entry.version
            entry.checksum = content_checksum(entry._ref())
            entry.checked_gen = self.generation

    def drop_node(self, node: str) -> list[ResidencyEntry]:
        """Forget every copy on a dead *node*; returns entries whose
        current version is now unrecoverable (sole copy lost while the
        master was stale)."""

        lost: list[ResidencyEntry] = []
        with self._lock:
            for entry in self._by_key.values():
                if entry.copies.pop(node, None) is None:
                    continue
                if entry.lost:
                    lost.append(entry)
        return lost

    def doomed(self) -> list[ResidencyEntry]:
        """Entries whose lifetime ends at this barrier: every strongly
        held one, and the weakly held ones whose object has died since
        the last call (see module docstring)."""

        with self._lock:
            keys = [self._dead.popleft() for _ in range(len(self._dead))]
            gone = [self._by_key[k] for k in keys if k in self._by_key]
            return gone + [e for e in self._by_key.values() if not e.weak]

    def evict(self, entries: Iterable[ResidencyEntry]) -> dict[str, list[str]]:
        """Remove *entries*; returns ``{node: [keys...]}`` so the
        caller can tell each agent to drop its copies."""

        by_node: dict[str, list[str]] = {}
        with self._lock:
            for entry in entries:
                if self._by_key.pop(entry.key, None) is None:
                    continue
                if self._by_id.get(entry.oid) is entry:
                    del self._by_id[entry.oid]
                for node in entry.copies:
                    by_node.setdefault(node, []).append(entry.key)
        return by_node

    def node_bytes(self, objs: Optional[Iterable] = None) -> dict[str, int]:
        """Per-node current-version resident bytes across *objs* (the
        placement hook's question), or across every entry (telemetry)."""

        totals: dict[str, int] = {}
        with self._lock:
            for entry in (self._by_key.values() if objs is None
                          else filter(None, map(self.get, objs))):
                for node in entry.holders():
                    totals[node] = totals.get(node, 0) + entry.nbytes
        return totals

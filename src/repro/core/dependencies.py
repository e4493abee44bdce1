"""Run-time dependency analysis (sections II and V).

"The runtime takes the memory address, size and directionality of each
parameter at each task invocation and uses them to analyze the
dependencies between them."

The engine keeps, per tracked base object, a chain of
:class:`~repro.core.renaming.Version` objects.  Every task access is
matched against the chain:

* a read depends on the producer of the current version (RAW — the only
  dependency kind that survives renaming);
* a write would conflict with pending readers (WAR) and the pending
  producer (WAW); with renaming enabled these hazards are removed by
  rolling the chain to a new version with *fresh* (``output``) or
  *cloned* (``inout``) storage, with no edge added for the hazard;
* with renaming disabled — by configuration, for non-renamable types
  such as representants, or for array-region accesses — the hazards
  become explicit ANTI/OUTPUT edges instead, which is slower but equally
  correct.

Array regions (section V.A) are handled with per-region chains and
hyper-rectangle overlap tests; see :mod:`repro.core.regions`.  Each
datum indexes its region chains by dimension-0 lower bound, so finding
the chains an access overlaps costs O(log chains + candidates) rather
than a test against every chain.  A write to a region rolls every
overlapping chain so later readers of any overlapping region order
after the write (the write itself carries an OUTPUT edge to each
displaced producer, so transitivity preserves the full happens-before
relation).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Optional

from .graph import EdgeKind, TaskGraph
from .regions import FULL_DIM, Region
from .renaming import (
    AdapterRegistry,
    StorageKind,
    Version,
    default_registry,
)
from .task import NO_EDGES, Direction, TaskInstance, TaskState

__all__ = ["TrackerConfig", "DependencyTracker", "DependencyError", "TrackedDatum"]


class DependencyError(RuntimeError):
    """Raised on accesses the engine cannot give sequential semantics to."""


@dataclass
class TrackerConfig:
    """Tunables of the dependency engine.

    The default reproduces the paper's runtime; the switch exists for
    the ablation benchmarks (renaming off = SuperMatrix-style analysis,
    section VII.C notes "SuperMatrix does not support renaming").
    """

    #: Master renaming switch (section II).  With it on, an ``inout``
    #: parameter with pending readers is renamed too (copy-based: what
    #: makes the N Queens partial-solution array duplication automatic,
    #: section VI.E).
    enable_renaming: bool = True


#: Immutable types that are always by-value, never tracked.
_SCALAR_TYPES = (int, float, complex, bool, str, bytes, type(None), tuple, frozenset)


class _Chain:
    """The version chain of one (base, region) access key."""

    __slots__ = ("key", "current", "version_count")

    def __init__(self, key: Optional[Region], initial: Version):
        self.key = key
        self.current = initial
        self.version_count = 1


class TrackedDatum:
    """Per-base-object tracking state."""

    __slots__ = (
        "base", "adapter", "chains", "region_mode", "renamed_buffers",
        "tracker", "mat_lock", "_by_low", "_widest", "_unindexed",
    )

    def __init__(self, base: Any, adapter, tracker=None) -> None:
        self.base = base
        self.adapter = adapter
        self.tracker = tracker
        #: Guards lazy materialisation/release of this datum's renamed
        #: buffers.  One lock per datum (not per version): versions are
        #: allocated once per *submission*, data once per user object,
        #: and versions of distinct data never contend on it.
        self.mat_lock = threading.Lock()
        #: access-key -> chain; ``None`` key = whole-object accesses.
        self.chains: dict[Optional[Region], _Chain] = {}
        #: Interval index over the region chains: ``(dimension-0 lower
        #: bound, birth number, chain)`` sorted, and the widest
        #: dimension-0 extent among them.  Chains a lower bound cannot
        #: place (``FULL_DIM`` in dimension 0, a rank other than the
        #: indexed one) are few and checked on every lookup.  Both start
        #: as the empty tuple: most data never see a region access, and
        #: two GC-tracked lists per datum cost ``stream_whole`` 2%.
        self._by_low = self._unindexed = ()
        self._widest = 0
        #: Set on the first region access; once on, the datum uses
        #: edge-based analysis forever (renamed buffers would alias).
        self.region_mode = False
        self.renamed_buffers = 0

    def whole_chain(self) -> _Chain:
        chain = self.chains.get(None)
        if chain is None:
            chain = _Chain(None, Version(self, 0, StorageKind.INITIAL))
            self.chains[None] = chain
        return chain

    def chain_for(self, key: Region) -> _Chain:
        """*key*'s chain, made on first use (see :meth:`overlapping`)."""

        chain = self.chains.get(key)
        if chain is None:
            self.overlapping(key, True)
            chain = self.chains[key]
        return chain

    def window(self, low: tuple[int, int]) -> list:
        """The indexed ``(l, birth, chain)`` entries that can meet *low*
        ``= (lo, hi)`` in dimension 0: ``lo - widest < l <= hi``."""

        by_low = self._by_low
        return by_low[bisect_left(by_low, (low[0] - self._widest + 1,)):
                      bisect_left(by_low, (low[1] + 1,))]

    def overlapping(self, region: Region, make: bool = False) -> list:
        """Every chain whose key shares an element with *region*, in the
        order unindexed, indexed by (lower bound, birth), whole object;
        with *make*, *region*'s own chain is made first when missing, so
        it is among them.

        Only an indexable region's :meth:`window` is tested, and in one
        dimension the window settled ``l <= hi``, so ``u >= lo`` decides.
        One very wide chain widens every window (towards a scan of all
        chains, never a different answer).
        """

        chains, by_low = self.chains, self._by_low
        # The dimension-0 interval, when the index can order by it.
        low = region[0] if region else FULL_DIM
        if low == FULL_DIM or by_low and len(by_low[0][2].key) != len(region):
            low = None
        if make and region not in chains:
            chain = _Chain(region, Version(self, 0, StorageKind.INITIAL))
            if low is None:
                self._unindexed += (chain,)
            else:
                if not by_low:
                    by_low = self._by_low = []
                insort(by_low, (low[0], len(chains), chain))
                self._widest = max(self._widest, low[1] - low[0] + 1)
            chains[region] = chain
        hits = []
        for chain in self._unindexed:
            if chain.key.overlaps(region):
                hits.append(chain)
        if low is None:
            for _l, _birth, chain in by_low:
                if chain.key.overlaps(region):
                    hits.append(chain)
        elif len(region) == 1:
            lo = low[0]
            for _l, _birth, chain in self.window(low):
                if chain.key[0][1] >= lo:
                    hits.append(chain)
        else:
            for _l, _birth, chain in self.window(low):
                if chain.key.overlaps(region):
                    hits.append(chain)
        whole = chains.get(None)
        if whole is not None:  # the whole object overlaps everything
            hits.append(whole)
        return hits

    def on_rename_materialised(self, version: Version) -> None:
        self.renamed_buffers += 1
        if self.tracker is not None:
            self.tracker.note_materialised(version)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TrackedDatum {type(self.base).__name__}@{id(self.base):#x}>"


class DependencyTracker:
    """Builds the task graph from the stream of task invocations.

    Driven from a single submitting thread (the main thread, as in the
    paper); completion state of predecessor tasks is read without locks
    because the owning runtime serialises graph mutation.
    """

    def __init__(
        self,
        graph: TaskGraph,
        registry: Optional[AdapterRegistry] = None,
        config: Optional[TrackerConfig] = None,
        tracer=None,
    ) -> None:
        self.graph = graph
        self.registry = registry or default_registry()
        self.config = config or TrackerConfig()
        self.tracer = tracer
        self._data: dict[int, TrackedDatum] = {}
        #: Residency hook installed by a remote backend: ``fn(version)``
        #: makes the master-side storage of *version* current before it
        #: is read locally — fetching content resident on a node or in a
        #: process backend's arena.  By default master storage is current.
        self.residency_fetch = lambda version: None
        # Renamed-buffer memory accounting: materialisation happens on
        # worker threads, so the counter takes its own tiny lock.
        self._bytes_lock = threading.Lock()
        self._renamed_bytes = 0

    # ------------------------------------------------------------------
    # datum lookup
    # ------------------------------------------------------------------
    def datum_for(self, obj: Any) -> TrackedDatum:
        datum = self._data.get(id(obj))
        if datum is None:
            datum = TrackedDatum(obj, self.registry.adapter_for(obj), tracker=self)
            self._data[id(obj)] = datum
        return datum

    def is_tracked(self, obj: Any) -> bool:
        return id(obj) in self._data

    def current_version(self, obj: Any) -> Optional[Version]:
        """The whole-object chain's current version of *obj* — what
        every runtime's ``acquire`` (``wait_on``) waits for and reads —
        or ``None`` when *obj* has no whole-object chain (untracked, or
        only ever accessed by region)."""

        datum = self._data.get(id(obj))
        chain = None if datum is None else datum.chains.get(None)
        return None if chain is None else chain.current

    def current_versions(self, obj: Any) -> list[Version]:
        """The current version of every chain of *obj* (none when
        untracked): data accessed by region has one chain per region."""

        datum = self._data.get(id(obj))
        return [] if datum is None else [
            chain.current for chain in datum.chains.values()]

    @property
    def tracked_count(self) -> int:
        return len(self._data)

    @property
    def total_renamed_buffers(self) -> int:
        return sum(d.renamed_buffers for d in self._data.values())

    # ------------------------------------------------------------------
    # renamed-buffer memory management (section III's "memory limit"
    # blocking condition needs live accounting + garbage collection)
    # ------------------------------------------------------------------
    def note_materialised(self, version: Version) -> None:
        size = version.datum.adapter.size_of(version.datum.base)
        with self._bytes_lock:
            self._renamed_bytes += size

    @property
    def renamed_bytes(self) -> int:
        """Bytes currently held by live renamed buffers."""

        with self._bytes_lock:
            return self._renamed_bytes

    def release_after(self, task: TaskInstance) -> int:
        """Free renamed buffers made dead by *task* finishing.

        A version's buffer is dead once its producer has finished, no
        reader is pending, and a newer version has superseded it in the
        chain.  Called by the runtime after each task completion;
        returns the bytes released.
        """

        freed = 0
        for _name, version in task.reads:
            freed += self._maybe_release(version)
            if version.prev is not None:
                freed += self._maybe_release(version.prev)
        for _name, version in task.writes:
            if version.prev is not None:
                freed += self._maybe_release(version.prev)
        if freed:
            with self._bytes_lock:
                self._renamed_bytes -= freed
        return freed

    def _maybe_release(self, version: Version) -> int:
        if version.kind not in (StorageKind.FRESH, StorageKind.CLONE):
            return 0
        if not version.is_materialised or version.released:
            return 0
        if version.producer is not None:
            return 0
        if version.pending_readers():
            return 0
        datum = version.datum
        for chain in datum.chains.values():
            # The chain head (or anything aliasing its storage through
            # SAME links, i.e. sharing the storage root) must stay alive.
            if chain.current.root is version:
                return 0
        return version.drop_storage()

    # ------------------------------------------------------------------
    # analysis entry point
    # ------------------------------------------------------------------
    def analyze(self, task: TaskInstance) -> None:
        """Insert *task* into the graph with all its dependency edges."""

        self.graph.add_task(task)
        data = self._data
        # Accesses never materialised (no specifiers, nobody asked) are
        # the plan's ``(name, direction, position)`` specs read against
        # the call's values: no ParamAccess is allocated for them.
        accesses = task._accesses
        values = task.call_values
        for access in (task.definition._invocation_plan.access_specs
                       if accesses is None else accesses):
            if accesses is None:
                name, direction, pos = access
                value, region = values[pos], None
            else:
                name, direction, value, region, _pos = access
            if direction is Direction.OPAQUE:
                continue  # void *: passes through unaltered (section II)
            if isinstance(value, _SCALAR_TYPES):
                continue
            datum = data.get(id(value))
            if datum is None:
                datum = TrackedDatum(
                    value, self.registry.adapter_for(value), tracker=self
                )
                data[id(value)] = datum
            if region is None and datum.region_mode:
                shape = datum.adapter.shape_of(datum.base)
                region = Region.full(len(shape) if shape else 1)
            if region is not None:
                self._analyze_region(task, datum, region, direction, name)
            else:
                self._analyze_whole(task, datum, direction, name)

    # ------------------------------------------------------------------
    # whole-object path (renaming-capable)
    # ------------------------------------------------------------------
    def _analyze_whole(self, task, datum: TrackedDatum, direction, name) -> None:
        chain = datum.chains.get(None)
        if chain is None:
            chain = datum.whole_chain()
        cur = chain.current
        graph = self.graph

        # A whole-object version's producer is unfinished or None: the
        # producer leaves its versions when it retires.
        if direction is Direction.INPUT:
            producer = cur.producer
            if producer is not None:
                graph.add_dependency(producer, task, EdgeKind.TRUE)
            if cur.readers:
                cur.readers.append(task)
            else:
                cur.readers = [task]
            task.reads.append((name, cur))
            return

        # A write: an inout reads the previous value, always a RAW
        # dependency; its hazards are the pending readers, an output's
        # the producer too.  Renaming removes them, else explicit edges.
        inout = direction is Direction.INOUT
        producer = cur.producer
        if inout and producer is not None:
            graph.add_dependency(producer, task, EdgeKind.TRUE)
        pending_readers = [t for t in cur.pending_readers() if t is not task] \
            if cur.readers else []
        if (pending_readers or producer is not None and not inout) \
                and self.config.enable_renaming and datum.adapter.renamable:
            kind = StorageKind.CLONE if inout else StorageKind.FRESH
            newv = Version(datum, chain.version_count, kind,
                           prev=cur if inout else None)
            graph.stats.renames += 1
            if self.tracer:
                self.tracer.rename(task, datum, kind)
        else:
            if producer is not None and not inout:
                graph.add_dependency(producer, task, EdgeKind.OUTPUT)
            for reader in pending_readers:
                graph.add_dependency(reader, task, EdgeKind.ANTI)
            newv = Version(datum, chain.version_count, StorageKind.SAME, prev=cur)
        newv.producer = task
        chain.current = newv
        chain.version_count += 1
        if inout:
            # The task reads the previous value (and a CLONE resolves
            # from it at execution time): register as a reader so the
            # memory manager keeps the buffer alive until then.
            if cur.readers:
                cur.readers.append(task)
            else:
                cur.readers = [task]
            task.reads.append((name, cur))
        task.writes.append((name, newv))

    # ------------------------------------------------------------------
    # region path (edge-based, no renaming)
    # ------------------------------------------------------------------
    def _analyze_region(
        self, task, datum: TrackedDatum, region: Region, direction, name
    ) -> None:
        if not datum.region_mode:
            # Switching an object into region mode is only sound while
            # its live data still sits in the user's own buffer.
            whole = datum.chains.get(None)
            if whole is not None and not whole.current.storage_is_base():
                raise DependencyError(
                    f"task {task.name!r}: array-region access to an object "
                    f"whose current version lives in a renamed buffer; "
                    f"insert a barrier before mixing whole-object renaming "
                    f"with region accesses"
                )
            datum.region_mode = True

        # The target chain is made first, so it is one of the overlapping ones.
        hits = datum.overlapping(region, True)
        target = datum.chains[region]
        # The candidate edges in the order TaskGraph.add_dependency would
        # see them: TRUE from every producer, then per chain OUTPUT from
        # its producer (an inout took TRUE already) and ANTI from its
        # pending readers.  Every chain is rolled, not only the target,
        # so its future readers order after this write (transitively
        # after the displaced producer via the OUTPUT edge).
        edges = []
        finished = TaskState.FINISHED
        reads = direction is not Direction.OUTPUT
        if reads:
            for chain in hits:
                producer = chain.current.producer
                if producer is not None:
                    edges.append((producer, EdgeKind.TRUE))
            cur = target.current
            if cur.readers:
                cur.readers.append(task)
            else:
                cur.readers = [task]
            task.reads.append((name, cur))
        if direction is not Direction.INPUT:
            for chain in hits:
                cur = chain.current
                if not reads and cur.producer is not None:
                    edges.append((cur.producer, EdgeKind.OUTPUT))
                for reader in cur.readers:
                    if reader.state is not finished:
                        edges.append((reader, EdgeKind.ANTI))
                chain.current = Version(
                    datum, chain.version_count, StorageKind.SAME, cur, task)
                chain.version_count += 1
            task.writes.append((name, target.current))
        if not edges:
            return
        # TaskGraph.add_dependency, inline: a finished, repeated or self
        # predecessor adds no edge.
        graph = self.graph
        stats, tracer = graph.stats, graph.tracer
        kept = graph._edges if graph.keep_finished else None
        preds = task.predecessors
        for pred, kind in edges:
            if pred is task or pred.state is finished:
                continue
            successors = pred.successors
            if task in successors:
                continue
            if successors is NO_EDGES:
                successors = pred.successors = set()
            successors.add(task)
            if preds is NO_EDGES:
                preds = task.predecessors = set()
            preds.add(pred)
            task.num_pending_deps += 1
            stats.total_edges += 1
            stats.edges_by_kind[kind] += 1
            if kept is not None:
                kept[(pred.task_id, task.task_id)] = kind
            if tracer is not None:
                tracer.edge(pred, task, kind)

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------
    def write_back_all(self) -> int:
        """Copy final renamed versions back into the user objects.

        Called once every in-flight task has finished (a barrier).
        Returns the number of objects written back.
        """

        count = 0
        for datum in self._data.values():
            chain = datum.chains.get(None)
            if chain is None:
                continue
            cur = chain.current
            if not cur.storage_is_base():
                self.residency_fetch(cur)
                datum.adapter.write_back(datum.base, cur.resolve_storage())
                count += 1
        return count

    def reset(self) -> None:
        """Forget all version chains (used after a write-back barrier).

        Frees renamed buffers and the strong references pinning user
        objects; tracking restarts lazily at the next access.  Each datum
        lets go of its chains, whose versions point back at it.
        """

        for datum in self._data.values():
            datum.chains = {}
            datum._by_low = datum._unindexed = ()
        self._data.clear()

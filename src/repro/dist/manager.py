"""Master-side cluster backend: dispatch, residency, placement, recovery.

:class:`ClusterBackend` is the third execution backend, behind the same
contract (:mod:`repro.core.backend`) as
:class:`~repro.mp.executor.ProcessBackend`: the master keeps the
paper's whole task-graph machinery, and the worker loop's dispatcher
forwards task bodies to remote **node agents** (:mod:`repro.dist.agent`)
over one persistent socket per slot.  What is new is the **datum
residency** layer (:mod:`repro.dist.residency`, ``docs/distributed.md``):
a task's inputs ship only when the target node lacks their current
version; a whole-object output rides home on its task's reply while it
is its datum's newest version, and a superseded one stays put;
the scheduler's placement hook steers a ready task toward the node
holding most of its input bytes (§VI's locality argument across
address spaces).

Failures follow :class:`~repro.core.backend.RemoteBackend` (one
re-dispatch, then :class:`~repro.net.codec.WorkerLostError`).  A dead
agent is counted once however many of its slots notice; its slots remap
to surviving nodes (slot indices never change); resident data that died
with it is re-shipped from the master copy when current, and otherwise
raises :class:`~repro.dist.encoding.DistDataLossError` — run with
``dist_write_through=True`` when agents are expected to die.
"""

from __future__ import annotations

import pickle
import threading
import uuid
from typing import Any, Optional

import numpy as np

from ..core.backend import Link, RemoteBackend
from ..core.renaming import StorageKind
from ..mp.encoding import apply_writebacks
from ..mp.worker import task_record
from ..net.codec import (
    FRESH,
    INLINE,
    PARTS,
    RESIDENT,
    SHIP,
    SerializationError,
    WorkerLostError,
    apply_blob,
    encode_blob,
)
from ..net.frames import (
    STREAM_VERSION,
    MessageReader,
    RecordReader,
    recv_frame,
    send_frame,
    send_messages,
)
from ..net.protocol import connect, connect_retry, hang_up
from .encoding import DistDataLossError, SCALAR_TYPES, alloc_meta
from .residency import ResidencyMap

__all__ = ["ClusterBackend"]

#: Control round-trip read timeout (a fetch may move a large array).
#: Dispatch sockets have none: a task takes as long as it takes, and a
#: death shows as the socket dying, not as a clock running out.
_CONTROL_TIMEOUT = 120.0
#: Per-attempt dial + hello timeout (``connect_retry`` adds backoff).
_CONNECT_TIMEOUT = 10.0

_SHIPPABLE = (np.ndarray, list, bytearray)


class _Node:
    """One agent: control socket, advertised slots, death flag."""

    def __init__(self, index: int, address: str):
        self.index = index
        self.name = f"n{index}"
        self.address = address
        self.control = self.inbox = None  # socket, its buffered inbound half
        self.control_lock = threading.Lock()
        self.slots = 0
        self.slot_ids: list[int] = []
        self.pid: Optional[int] = None
        self.dead = False
        #: Round-robin cursor over slot_ids for the placement hook.
        self.rr = 0
        self.tasks_run = 0


def _master_storage(version):
    """The master-side object holding *version*'s content, or ``None``
    when it never materialised here (nor was it ever dispatched)."""

    root = version._root or version  # Version.root, inline
    if root.kind is StorageKind.INITIAL:
        return version.datum.base
    return root._storage


#: What a dead agent's socket raises, on whichever side notices (the
#: ``repro.net`` errors are all ``OSError`` s; a record stream's end is
#: an ``EOFError``).
_NET_ERRORS = (OSError, EOFError)


class ClusterBackend(RemoteBackend):
    """Executes task bodies on remote node agents (see module docstring)."""

    refusals = (SerializationError, DistDataLossError, WorkerLostError)
    link_errors = _NET_ERRORS
    max_batch = 8

    def __init__(self, nodes, write_through: bool = False, **wiring):
        super().__init__(
            "dist.agent_deaths", "dist.redispatched_tasks", **wiring)
        metrics = self._metrics
        self._addresses = list(nodes or ())
        self._write_through = bool(write_through)
        self.sid = uuid.uuid4().hex[:12]
        self._residency = ResidencyMap(self.sid)
        self._nodes: list[_Node] = []
        self._by_name: dict[str, _Node] = {}
        self._death_lock = threading.Lock()
        self._fetch_lock = threading.Lock()
        self._remap_rr = 0
        self._stopped = False
        self._m_bytes = metrics.counter("dist.bytes_moved")
        self._m_hits = metrics.counter("dist.cache_hits")
        self._m_misses = metrics.counter("dist.cache_misses")
        self._g_entries = metrics.gauge("dist.residency_entries")
        self._g_resident: dict[str, Any] = {}
        self._g_tasks: dict[str, Any] = {}
        self._g_alive: dict[str, Any] = {}

    def start(self) -> int:
        """Connect to every agent; the fleet's slot count."""

        if not self._addresses:
            raise TypeError("backend='cluster' needs at least one node")
        self._stopped = False
        metrics = self._metrics
        slot = 1
        for index, address in enumerate(self._addresses):
            node = _Node(index, address)
            node.control, node.inbox, reply = self._dial(
                node, connect_retry, "hello", role="control")
            node.control.settimeout(_CONTROL_TIMEOUT)
            node.slots = int(reply["slots"])
            node.pid = reply.get("pid")
            self._nodes.append(node)
            self._by_name[node.name] = node
            node.slot_ids = list(range(slot, slot + node.slots))
            slot += node.slots
            self._g_resident[node.name] = metrics.gauge(
                "dist.node_resident_bytes", node=node.name)
            self._g_tasks[node.name] = metrics.gauge(
                "dist.node_tasks", node=node.name)
            self._g_alive[node.name] = metrics.gauge(
                "dist.node_alive", node=node.name)
            self._g_alive[node.name].set(1)
        for node in self._nodes:
            for slot_id in node.slot_ids:
                # One dispatch socket per slot; after its node dies the
                # dispatcher remaps the link to a survivor.
                link = Link(slot_id)
                self._open_dispatch(link, node)
                self.links.append(link)
        return slot - 1

    def _dial(self, node: _Node, dial, want: str, **hello):
        """Connect to *node* and say hello; ``(socket, inbox, reply)``.
        Every later frame of the connection is read through the inbox,
        its buffered inbound half."""

        sock = dial(node.address, timeout=_CONNECT_TIMEOUT)
        inbox = RecordReader(sock)
        send_frame(sock, {"k": "hello", "sid": self.sid, **hello})
        reply, _ = recv_frame(inbox, timeout=_CONNECT_TIMEOUT)
        if reply.get("k") != want:
            sock.close()
            raise ConnectionError(
                f"{node.address!r} refused the {hello['role']} hello: "
                f"{reply['error']}" if reply.get("k") == "error" else
                f"{node.address!r} did not answer a {hello['role']} hello "
                f"like a repro dist agent (got {reply.get('k')!r})"
            )
        return sock, inbox, reply

    def _open_dispatch(self, link: Link, node: _Node) -> None:
        """*link*'s record stream to *node* (the agent writes nothing
        between its ok and the first reply: the inbox is left empty)."""

        link.conn, _, _ = self._dial(
            node, connect, "ok", role="dispatch", slot=link.slot,
            stream=STREAM_VERSION, trace=self._tracer is not None,
            ring=self._ring_capacity)
        link.conn.settimeout(None)  # tasks take as long as they take
        link.replies = MessageReader(link.conn.recv)
        link.node = node

    def stop(self) -> None:
        """Release this session on every agent (shared, long-lived: they
        only drop its resident data) and close all sockets.  Never
        raises."""

        if self._stopped:
            return
        self._stopped = True
        for link in self.links:
            hang_up(link.conn)  # the agent's slot ends at the hang-up
            link.conn = None
        for node in self._nodes:
            sock = node.control
            if sock is None:
                continue
            if not node.dead:
                try:
                    send_frame(sock, {"k": "release", "sid": self.sid})
                    recv_frame(node.inbox, timeout=5.0)
                    send_frame(sock, {"k": "bye"})
                except Exception:
                    pass
            hang_up(sock)
            node.control = None

    def _send(self, link: Link, records: list) -> None:
        send_messages(link.conn, records)

    def fds(self, thread: int) -> tuple:
        conn = self.links[thread - 1].conn
        return () if conn is None else (conn.fileno(),)

    def _read(self, link: Link, fd) -> list:
        return [pickle.loads(reply) for reply in link.replies.messages()]

    def _land(self, link: Link, values: list, landing, writebacks) -> None:
        commits, specs = landing
        if specs:
            apply_writebacks(specs, writebacks, values)
            for value in writebacks:  # CounterMetric.inc, inline
                self._m_bytes.value += (value.nbytes if isinstance(
                    value, np.ndarray) else len(encode_blob(value)[1]))
        node = link.node
        for entry, v_after, master_too in commits:
            self._residency.commit_write(
                entry, node.name, v_after, master_too=master_too)
        node.tasks_run += 1
        self._g_tasks[node.name].value = node.tasks_run

    def _link_died(self, link: Link, exc: BaseException) -> None:
        self._note_death(link.node, exc)

    def _describe(self, link: Link) -> str:
        return f"agent {link.node.name} ({link.node.address})"

    def _encode(self, task, values: list, link: Link, seq: int):
        """The task record for *link*'s node and its landing,
        ``(commits, writebacks)``; ``commits`` are the ``(entry,
        v_after, master_too)`` to apply once the agent reports
        success."""

        if link.node.dead:
            # Noticed by a sibling slot or a fetch while this link idled.
            self._revive(link)
        node = link.node
        residency = self._residency
        positions = task.definition.positions
        specs: list = [None] * len(values)
        writebacks, puts, commits = [], [], []
        # pos -> the version a whole-object position ships (a write's
        # over a read's), the written ones, the region-mode ones.
        region_positions, whole, whole_writes = set(), {}, set()
        read_positions = {positions[name] for name, _ in task.reads}
        for writing, accesses in ((False, task.reads), (True, task.writes)):
            for name, version in accesses:
                pos = positions[name]
                if version.datum.region_mode:
                    region_positions.add(pos)
                elif writing:
                    whole[pos] = version
                    whole_writes.add(pos)
                else:
                    whole.setdefault(pos, version)

        # -- region-mode positions: ship declared read slices, return
        #    declared write slices; never cached (disjoint regions of
        #    one array may be written concurrently on different nodes,
        #    so no node ever holds "the" current array).
        seen: set = set()
        for access in task.accesses if region_positions else ():
            pos = access.position
            if pos not in region_positions:
                continue
            value = values[pos]
            if not isinstance(value, np.ndarray):
                raise SerializationError(
                    f"task {task.name!r}: region-mode parameter "
                    f"{access.name!r} has type {type(value).__name__}; "
                    f"the cluster backend ships regions of ndarrays "
                    f"only (use backend='threads')"
                )
            slices = (access.region.to_slices() if access.region is not None
                      else (slice(None),) * value.ndim)
            key = (pos, access.region)
            if specs[pos] is None:
                specs[pos] = (PARTS, alloc_meta(value), [])
            parts = specs[pos][2]
            if access.direction.reads and (*key, "r") not in seen:
                seen.add((*key, "r"))
                meta, payload = encode_blob(value[slices])
                parts.append((slices, meta, payload))
                self._m_bytes.value += len(payload)
            if access.direction.writes and (*key, "w") not in seen:
                seen.add((*key, "w"))
                writebacks.append((pos, slices))

        # -- whole-object tracked data: residency-versioned, looked up
        #    in one section of the map's lock.
        tracked = []
        for pos, version in whole.items():
            if specs[pos] is not None:
                continue
            storage = values[pos]
            if not isinstance(storage, _SHIPPABLE):
                if pos in whole_writes:
                    raise SerializationError(
                        f"task {task.name!r}: written parameter "
                        f"{task.definition.param_names[pos]!r} has type "
                        f"{type(storage).__name__}, which the cluster "
                        f"backend cannot ship; use an ndarray/list/bytearray "
                        f"or backend='threads'"
                    )
                specs[pos] = (INLINE, storage)  # read-only copy is safe
                continue
            tracked.append((pos, version, storage))
        storages = []
        for pos, version, storage in tracked:
            root = version._root or version  # Version.storage_is_base
            storages.append((storage, root.kind is StorageKind.INITIAL))
        hits = 0
        for (pos, version, storage), (entry, hit) in zip(
                tracked, residency.lookup(storages, node.name)):
            if pos not in read_positions:
                # A renamed OUTPUT's content is junk and one overwritten
                # in place equally dead: ship the shape only.
                specs[pos] = (FRESH, alloc_meta(storage))
            elif hit:
                hits += 1  # current content on the node: a reference
                specs[pos] = (RESIDENT, entry.key, entry.version)
            else:
                specs[pos] = self._ship(entry, node)
            if pos in whole_writes:
                v_after = entry.version + 1
                puts.append((pos, entry.key, v_after))
                # Home with the reply while no later writer is submitted:
                # the barrier or a wait_on would fetch exactly these bytes.
                home = (self._write_through
                        or version.datum.chains[None].current is version)
                if home:
                    writebacks.append((pos, None))
                commits.append((entry, v_after, home))
        self._m_hits.value += hits  # CounterMetric.inc, inline

        # -- everything else ships inline.
        opaque = task.definition.opaque_positions
        for pos, value in enumerate(values):
            if specs[pos] is not None:
                continue
            if pos in opaque and not isinstance(value, SCALAR_TYPES):
                raise SerializationError(
                    f"task {task.name!r}: opaque parameter "
                    f"{task.definition.param_names[pos]!r} has type "
                    f"{type(value).__name__}; agent-side writes to a "
                    f"pickled copy would be lost silently — declare a "
                    f"direction for it or use backend='threads'"
                )
            specs[pos] = (INLINE, value)

        record = task_record(task, link, seq, specs, writebacks, puts)
        return record, (commits, writebacks)

    def _ship(self, entry, node: _Node):
        """A data ship of *entry*'s current content to *node*, which
        lacks it (fetched home first, if the master copy is stale)."""

        self._m_misses.inc()
        self._fetch_home(entry)
        meta, payload = encode_blob(entry.obj)
        self._m_bytes.inc(len(payload))
        self._residency.record_copy(entry, node.name)
        return (SHIP, entry.key, entry.version, meta, payload)

    def fetch_version(self, version) -> None:
        """Make the master copy of *version*'s storage current (the
        tracker's ``residency_fetch``: a renaming clone, ``acquire``,
        ``wait_for``), and checked again at its next dispatch: the
        program may write what it was handed.  No-op for region-mode
        data and versions never materialised (nor dispatched) here."""

        entry = self._residency.get(_master_storage(version))
        if entry is not None:
            self._fetch_home(entry)
            entry.checked_gen = -1

    def _control(self, name: str, request: dict,
                 reply: bool = True) -> tuple[dict, bytes]:
        """One request on node *name*'s control channel and, if it has
        one, its reply; empty when the node is or turns out to be dead."""

        node = self._by_name.get(name)
        try:
            if node is not None and not node.dead:
                with node.control_lock:
                    send_frame(node.control, request)
                    if reply:
                        return recv_frame(node.inbox)
        except _NET_ERRORS as exc:
            self._note_death(node, exc)
        return {}, b""

    def _fetch_home(self, entry) -> None:
        """Pull *entry*'s current bytes from a holder into the master
        copy, unless it has them (the dispatcher and the main thread
        after one stale datum: the second finds the first one's fetch
        done)."""

        with self._fetch_lock:
            obj = entry.obj
            if obj is None or entry.master_current():
                return  # current, or dropped: nobody is left to read it
            for name in entry.holders():
                header, payload = self._control(name, {
                    "k": "fetch", "key": entry.key, "version": entry.version,
                    "timeout": _CONTROL_TIMEOUT - 10.0,
                })
                if header.get("found"):
                    apply_blob(obj, header["meta"], payload)
                    self._m_bytes.inc(len(payload))
                    self._residency.mark_master_current(entry)
                    return
        raise DistDataLossError(
            f"datum {entry.key}: current version v{entry.version} is on no "
            f"reachable node and the master copy is stale (last writer "
            f"{entry.last_writer}); run with dist_write_through=True to "
            f"survive agent loss"
        )

    def barrier_sync(self) -> None:
        """Residency half of a barrier: fetch every master-stale datum
        home (the write-back pass then runs as under threads), then
        evict here and on the agents all but the user-owned arrays the
        user still holds (:meth:`ResidencyMap.doomed`) — the survivors
        make a *second* submission of the same graph cheap, unless
        :meth:`ResidencyMap.verify` catches a master-side mutation."""

        residency = self._residency
        for entry in residency.entries():
            if not entry.master_current():
                self._fetch_home(entry)
        for name, keys in residency.evict(residency.doomed()).items():
            self._control(name, {"k": "evict", "keys": keys}, reply=False)
        residency.generation += 1
        self._g_entries.set(len(residency))
        totals = residency.node_bytes()
        for node in self._nodes:
            self._g_resident[node.name].set(totals.get(node.name, 0))

    def _note_death(self, node: _Node, cause) -> None:
        """Record an agent death exactly once; drop its resident copies."""

        with self._death_lock:
            if node.dead:
                return
            node.dead = True
        self._m_deaths.inc()
        self._g_alive[node.name].set(0)
        self._residency.drop_node(node.name)
        hang_up(node.control)

    def _revive(self, link: Link) -> None:
        """Point a dead node's slot at a surviving agent (same slot id,
        fresh socket) so the dispatcher keeps draining its ready list."""

        hang_up(link.conn)
        link.conn = None
        link.renewed()
        survivors = [n for n in self._nodes if not n.dead]
        if not survivors:
            raise WorkerLostError(
                f"all {len(self._nodes)} agent(s) are gone; cannot re-home "
                f"slot {link.slot}")
        last_exc: Optional[Exception] = None
        for _ in range(len(survivors)):
            node = survivors[self._remap_rr % len(survivors)]
            self._remap_rr += 1
            try:
                self._open_dispatch(link, node)
            except _NET_ERRORS as exc:
                last_exc = exc
                self._note_death(node, exc)
                continue
            return
        raise WorkerLostError(
            f"no surviving agent would accept slot {link.slot}: {last_exc}")

    def placement(self, task) -> Optional[int]:
        """Scheduler hook: the slot of the node holding the most input
        bytes, or ``None``.  Called under the scheduler lock, so it only
        peeks at storages and the residency map (never the network)."""

        objs = [
            _master_storage(version) for _name, version in task.reads
            if not version.datum.region_mode
        ] + [
            version.datum.base for _name, version in task.writes
            if not version.datum.region_mode
            and version.root.kind is StorageKind.INITIAL
        ]
        totals = self._residency.node_bytes(objs)  # None holds nothing
        if not totals:
            return None
        name = max(totals, key=totals.get)
        if totals[name] <= 0:
            return None
        node = self._by_name.get(name)
        if node is None or node.dead or not node.slot_ids:
            return None
        node.rr += 1
        return node.slot_ids[node.rr % len(node.slot_ids)]

    def liveness(self) -> list[dict]:
        """Per-slot liveness, the mp backend's shape plus ``node``."""

        return [{"slot": link.slot, "pid": link.node.pid,
                 "alive": not link.node.dead, "generation": link.generation,
                 "node": link.node.name} for link in self.links]

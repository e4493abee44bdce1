"""Master-side cluster backend: dispatch, residency, placement, recovery.

:class:`ClusterBackend` is the third execution backend, behind the same
contract (:mod:`repro.core.backend`) as
:class:`~repro.mp.executor.ProcessBackend`: the master keeps the
paper's entire task-graph machinery — dependency tracker, renaming,
scheduler, memory limit — byte-identical, and each worker thread
becomes a proxy that forwards the task body to a remote **node agent**
(:mod:`repro.dist.agent`) over one persistent socket per slot, blocking
until the ``done`` frame.

What is genuinely new versus the process backend is the **datum
residency** layer (:mod:`repro.dist.residency`):

* a task's inputs ship only when the target node does not already hold
  their current version — repeat submissions over the same arrays move
  almost nothing (``dist.cache_hits``);
* a whole-object output rides home on its task's ``done`` frame while
  it is its datum's newest version (the barrier or a ``wait_on`` would
  fetch exactly those bytes) and the node keeps its copy; a version a
  later writer has superseded stays put, fetched only if its reader is
  dispatched elsewhere — the paper's section-VI locality argument,
  generalised across address spaces;
* the scheduler's placement hook steers each ready task toward the
  node already holding the most input bytes (cf. the Myrmics/COMPSs
  locality schedulers in PAPERS.md), falling back to normal stealing.

The failure policy is :class:`~repro.core.backend.RemoteBackend`'s (one
automatic re-dispatch, then :class:`~repro.dist.encoding.AgentLostError`);
this module's half: a dead agent is detected by its sockets dying and
counted once however many of its slots notice; a dead node's slots
remap to surviving nodes (so the proxy threads never change); resident
data that died with the node is re-fetched from the master copy when
current, and otherwise raises
:class:`~repro.dist.encoding.DistDataLossError` — run with
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
from ..mp.encoding import definition_payload
from ..net.client import NetClosed, NetTimeout
from ..net.codec import (
    PROTOCOL,
    apply_blob,
    encode_blob,
    slices_from_spec,
    slices_spec,
)
from ..net.frames import FrameError, RecordReader, recv_frame, send_frame
from ..net.protocol import connect, connect_retry, hang_up
from .encoding import (
    AgentLostError,
    DistDataLossError,
    DistSerializationError,
    RemoteTaskError,
    SCALAR_TYPES,
    alloc_meta,
)
from .residency import ResidencyMap

__all__ = ["ClusterBackend"]

#: Read timeout for control-channel round trips (fetch may move a large
#: array; dispatch channels have NO timeout — tasks take as long as
#: they take, and death is detected by the socket dying, not a clock).
_CONTROL_TIMEOUT = 120.0
#: Per-attempt dial + hello timeout for agent connections
#: (``connect_retry`` adds bounded backoff on top of this).
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

    root = version.root
    if root.kind is StorageKind.INITIAL:
        return version.datum.base
    return root._storage


#: What a dead agent's socket raises, on whichever side notices.
_NET_ERRORS = (NetClosed, NetTimeout, FrameError, ConnectionError, OSError,
               EOFError)


class ClusterBackend(RemoteBackend):
    """Executes task bodies on remote node agents (see module docstring)."""

    lost_error = AgentLostError
    remote_error = RemoteTaskError
    refusals = (DistSerializationError, DistDataLossError, AgentLostError)
    link_errors = _NET_ERRORS

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

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Connect to every agent; the fleet's slot count is the number
        of worker threads the runtime drives."""

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
                # driving thread remaps the link to a survivor.
                link = Link(slot_id)
                self._open_dispatch(link, node)
                self._links.append(link)
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
                f"{node.address!r} did not answer a {hello['role']} hello "
                f"like a repro dist agent (got {reply.get('k')!r})"
            )
        return sock, inbox, reply

    def _open_dispatch(self, link: Link, node: _Node) -> None:
        link.conn, link.inbox, _ = self._dial(
            node, connect, "ok", role="dispatch", slot=link.slot,
            trace=self._tracer is not None, ring=self._ring_capacity)
        link.conn.settimeout(None)  # tasks take as long as they take
        link.node = node

    def stop(self) -> None:
        """Release this session on every agent and close all sockets.

        Agents are long-lived daemons shared between runs; stop never
        kills them, it only drops this session's resident data.  Never
        raises — called from runtime shutdown paths.
        """

        if self._stopped:
            return
        self._stopped = True
        for link in self._links:
            if link.conn is None:
                continue
            try:
                send_frame(link.conn, {"k": "bye"})
            except Exception:
                pass
            hang_up(link.conn)
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

    # ------------------------------------------------------------------
    # the transport half of RemoteBackend's dispatch policy
    # ------------------------------------------------------------------
    def _send(self, link: Link, requests: list) -> None:
        for header, blob, _commits in requests:
            send_frame(link.conn, header, blob)

    def _recv(self, link: Link, seq: int):
        while True:
            header, rblob = recv_frame(link.inbox)
            if header.get("k") == "done" and header.get("seq") == seq:
                break
        reply = pickle.loads(rblob)
        return (reply.get("err"), reply.get("duration", 0.0),
                reply.get("events"), reply.get("ret", ()))

    def _land(self, link: Link, values: list, request, ret) -> None:
        for pos, sl_spec, meta, payload in ret:
            apply_blob(
                values[pos], meta, payload,
                None if sl_spec is None else slices_from_spec(sl_spec),
            )
            self._m_bytes.inc(len(payload))
        node = link.node
        residency = self._residency
        for entry, v_after, master_too in request[2]:
            residency.commit_write(
                entry, node.name, v_after, master_too=master_too)
        node.tasks_run += 1
        self._g_tasks[node.name].set(node.tasks_run)

    def _link_died(self, link: Link, exc: BaseException) -> None:
        self._note_death(link.node, exc)

    def _describe(self, link: Link) -> str:
        return f"agent {link.node.name} ({link.node.address})"

    # ------------------------------------------------------------------
    # encoding (the residency decisions happen here)
    # ------------------------------------------------------------------
    def _encode(self, task, values: list, link: Link, seq: int):
        """Build the task frame for *link*'s node; ``(header, blob,
        commits)``.

        ``commits`` is ``[(entry, v_after, master_too), ...]`` — the
        residency bookkeeping to apply once the agent reports success.
        """

        if link.node.dead:
            # Noticed by a sibling slot or a fetch while this link idled.
            self._revive(link)
        node = link.node
        residency = self._residency
        positions = task.definition.positions
        write_through = self._write_through
        specs: list = [None] * len(values)
        ret: list = []
        writes_specs: list = []
        out: list = []
        commits: list = []

        region_positions: set[int] = set()
        whole_writes: dict[int, Any] = {}
        read_positions: set[int] = set()
        for name, version in task.writes:
            pos = positions[name]
            if version.datum.region_mode:
                region_positions.add(pos)
            else:
                whole_writes[pos] = version
        whole_reads: dict[int, Any] = {}
        for name, version in task.reads:
            pos = positions[name]
            read_positions.add(pos)
            if version.datum.region_mode:
                region_positions.add(pos)
            else:
                whole_reads.setdefault(pos, version)

        # -- region-mode positions: ship declared read slices, return
        #    declared write slices; never cached (disjoint regions of
        #    one array may be written concurrently on different nodes,
        #    so no node ever holds "the" current array).
        parts_by_pos: dict[int, list] = {}
        seen: set = set()
        for access in task.accesses if region_positions else ():
            pos = access.position
            if pos not in region_positions:
                continue
            value = values[pos]
            if not isinstance(value, np.ndarray):
                raise DistSerializationError(
                    f"task {task.name!r}: region-mode parameter "
                    f"{access.name!r} has type {type(value).__name__}; "
                    f"the cluster backend ships regions of ndarrays "
                    f"only (use backend='threads')"
                )
            if access.region is not None:
                slices = access.region.to_slices()
            else:
                slices = (slice(None),) * value.ndim
            sl = slices_spec(slices)
            parts = parts_by_pos.setdefault(pos, [])
            if access.direction.reads and (pos, sl, "r") not in seen:
                seen.add((pos, sl, "r"))
                meta, payload = encode_blob(value[slices])
                parts.append((sl, meta, payload))
                self._m_bytes.inc(len(payload))
            if access.direction.writes and (pos, sl, "w") not in seen:
                seen.add((pos, sl, "w"))
                ret.append((pos, sl))
                writes_specs.append((pos, sl))
        for pos, parts in parts_by_pos.items():
            specs[pos] = ("g", alloc_meta(values[pos]), parts)

        # -- whole-object tracked data: residency-versioned.
        for pos, version in {**whole_reads, **whole_writes}.items():
            if specs[pos] is not None:
                continue
            storage = values[pos]
            written = pos in whole_writes
            if not isinstance(storage, _SHIPPABLE):
                if written:
                    raise DistSerializationError(
                        f"task {task.name!r}: written parameter "
                        f"{task.definition.param_names[pos]!r} has type "
                        f"{type(storage).__name__}, which the cluster "
                        f"backend cannot ship; use an ndarray/list/bytearray "
                        f"or backend='threads'"
                    )
                specs[pos] = ("s", storage)  # read-only copy is safe
                continue
            entry = residency.ensure(storage, version.storage_is_base())
            residency.verify(entry)
            if pos in read_positions:
                specs[pos] = self._content_spec(entry, node)
            else:
                # A renamed OUTPUT's content is junk and one overwritten
                # in place equally dead: ship the shape only.
                specs[pos] = ("f", entry.key, alloc_meta(storage))
            if written:
                v_after = entry.version + 1
                out.append((pos, entry.key, v_after))
                writes_specs.append((pos, None))
                # Home with the reply while no later writer is submitted:
                # the barrier or a wait_on would fetch exactly these bytes.
                home = (write_through
                        or version.datum.chains[None].current is version)
                if home:
                    ret.append((pos, None))
                commits.append((entry, v_after, home))

        # -- everything else ships inline.
        opaque = task.definition.opaque_positions
        for pos in range(len(values)):
            if specs[pos] is not None:
                continue
            value = values[pos]
            if pos in opaque and not isinstance(value, SCALAR_TYPES):
                raise DistSerializationError(
                    f"task {task.name!r}: opaque parameter "
                    f"{task.definition.param_names[pos]!r} has type "
                    f"{type(value).__name__}; agent-side writes to a "
                    f"pickled copy would be lost silently — declare a "
                    f"direction for it or use backend='threads'"
                )
            specs[pos] = ("s", value)

        key = id(task.definition)  # stable for the master's lifetime
        try:
            payload = (None if key in link.sent_defs
                       else definition_payload(task.definition))
        except Exception as exc:
            raise DistSerializationError(
                f"task {task.name!r}: definition cannot cross "
                f"to an agent ({exc})"
            ) from exc
        msg = {"values": specs, "writes": writes_specs, "ret": ret,
               "out": out, "def_key": key, "def_payload": payload,
               "task_id": task.task_id, "name": task.name}
        try:
            blob = pickle.dumps(msg, protocol=PROTOCOL)
        except Exception as exc:
            raise DistSerializationError(
                f"task {task.name!r}: arguments are not picklable "
                f"({exc!r}); use ndarray/list/bytearray data or "
                f"backend='threads'"
            ) from exc
        return {"k": "task", "seq": seq}, blob, commits

    def _content_spec(self, entry, node: _Node):
        """``("r", ...)`` when *node* holds current content, else ship."""

        if entry.copies.get(node.name) == entry.version:
            self._m_hits.inc()
            return ("r", entry.key, entry.version)
        self._m_misses.inc()
        self._fetch_home(entry)
        meta, payload = encode_blob(entry.obj)
        self._m_bytes.inc(len(payload))
        self._residency.record_copy(entry, node.name)
        return ("d", entry.key, entry.version, meta, payload)

    # ------------------------------------------------------------------
    # residency plumbing (fetch home, barrier, death)
    # ------------------------------------------------------------------
    def fetch_version(self, version) -> None:
        """Make the master copy of *version*'s storage current.

        Installed as ``tracker.residency_fetch`` (the renaming engine
        calls it before cloning a predecessor) and used by
        ``runtime.acquire`` / the barrier.  No-op for region-mode data
        (written home eagerly) and for versions that never materialised
        master-side (they were never dispatched either).
        """

        entry = self._residency.get(_master_storage(version))
        if entry is not None:
            self._fetch_home(entry)

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
        copy, unless it has them (two readers of one stale datum on two
        proxy threads: the second finds the first one's fetch done)."""

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
        """Residency half of a barrier: all data home, caches pruned.

        Fetches every master-stale datum home (the barrier's write-back
        pass then copies renamed storage into user objects exactly as
        under the threads backend), then evicts, here and on the agents,
        everything except the user-owned arrays the user still holds
        (:meth:`ResidencyMap.doomed`) — renamed buffers die with the
        barrier, arrays the user dropped died before it, and the
        surviving entries are what makes a *second* submission of the
        same graph cheap (their remote copies are still valid unless
        :meth:`ResidencyMap.verify` catches a master-side mutation).
        """

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
        fresh socket) so its proxy thread keeps draining the scheduler."""

        survivors = [n for n in self._nodes if not n.dead]
        if not survivors:
            raise AgentLostError(
                f"all {len(self._nodes)} agent(s) are gone; cannot re-home "
                f"slot {link.slot}"
            )
        hang_up(link.conn)
        link.conn = None
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
            link.renewed()
            return
        raise AgentLostError(
            f"no surviving agent would accept slot {link.slot}: {last_exc}"
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def placement(self, task) -> Optional[int]:
        """Scheduler hook: the slot of the node holding the most input
        bytes, or ``None`` for default placement.

        Called under the scheduler lock — it only peeks at already-
        materialised storages and the residency map (lock order is
        scheduler → residency, network never happens here).
        """

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

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def liveness(self) -> list[dict]:
        """Per-slot liveness, the mp backend's shape plus ``node``."""

        return [
            {
                "slot": link.slot,
                "pid": link.node.pid,
                "alive": not link.node.dead,
                "generation": link.generation,
                "node": link.node.name,
            }
            for link in self._links
        ]

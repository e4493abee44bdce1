"""Timing hooks around each layer's public functions (traced runs only).

The untraced path never imports this module.  :func:`install` replaces
every target of :data:`HOOKS` with a wrapper that records one span per
call — row name, start, duration, self time (duration minus the part
its child spans cover) on the wall clock and on the thread's CPU clock,
span and parent ids, an optional value (bytes, a hit flag, a remote
duration) and the task or graph id it belongs to — into a per-thread
list.  Nothing is written until the run is over.

Two clocks because the host gives one CPU to all threads: while a span
is open on one thread the other may hold the interpreter, so wall self
time counts a layer's waiting (what the ``*_wait_*`` rows want) and CPU
self time its own work (what every other row wants).

A target that no longer exists is listed in ``Tracer.missing`` and its
rows report no data; installing never raises.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter, thread_time
from typing import Callable, NamedTuple, Optional


class Hook(NamedTuple):
    row: str
    module: str
    attr: str
    #: (args, result) -> number recorded with the span, or None
    value: Optional[Callable] = None
    #: (args, result) -> task or graph id, or None (inherit the parent's)
    ident: Optional[Callable] = None


def _task_arg(index: int) -> Callable:
    return lambda args, result: args[index].task_id


def _result_task(args, result):
    return getattr(result, "task_id", None)


def _frame_bytes(args, result):
    """Wire size of one frame: 8-byte prefix, JSON header, payload."""

    if result is None:  # send_frame(sock, header, payload=b"")
        header = json.dumps(args[1], separators=(",", ":"))
        return 8 + len(header) + (len(args[2]) if len(args) > 2 else 0)
    header = json.dumps(result[0], separators=(",", ":"))
    return 8 + len(header) + len(result[1])


HOOKS = (
    Hook("core.invocation.instantiate", "repro.core.invocation",
         "InvocationPlan.instantiate", ident=_result_task),
    Hook("core.invocation.resolve", "repro.core.invocation",
         "resolve_call_values", ident=_task_arg(0)),
    Hook("core.dependencies.analyze", "repro.core.dependencies",
         "DependencyTracker.analyze",
         value=lambda args, result: args[0].renamed_bytes, ident=_task_arg(1)),
    Hook("core.dependencies.write_back", "repro.core.dependencies",
         "DependencyTracker.write_back_all"),
    Hook("core.graph.complete", "repro.core.graph", "TaskGraph.complete",
         ident=_task_arg(1)),
    Hook("core.scheduler.push", "repro.core.scheduler",
         "SmpssScheduler.push_new", ident=_task_arg(1)),
    Hook("core.scheduler.push", "repro.core.scheduler",
         "SmpssScheduler.push_ready_batch"),
    Hook("core.scheduler.pop", "repro.core.scheduler", "SmpssScheduler.pop",
         ident=_result_task),
    Hook("core.runtime.submit", "repro.core.runtime", "SmpssRuntime.submit",
         ident=_result_task),
    Hook("core.runtime.barrier", "repro.core.runtime", "SmpssRuntime.barrier"),
    Hook("mp.executor.start", "repro.mp.executor", "ProcessBackend.start"),
    Hook("mp.executor.run", "repro.mp.executor", "ProcessBackend.run",
         value=lambda args, result: result[1], ident=_task_arg(1)),
    Hook("mp.encoding.encode", "repro.mp.encoding", "encode_values"),
    Hook("mp.encoding.encode", "repro.mp.encoding", "writeback_specs"),
    Hook("mp.encoding.apply_writebacks", "repro.mp.encoding",
         "apply_writebacks"),
    Hook("mp.arena.handle_of", "repro.mp.arena", "handle_of",
         value=lambda args, result: result is not None),
    Hook("mp.pipe.send", "multiprocessing.connection", "Connection.send_bytes",
         value=lambda args, result: len(args[1])),
    Hook("mp.pipe.recv_wait", "multiprocessing.connection", "wait"),
    Hook("mp.pipe.recv_wait", "multiprocessing.connection",
         "Connection.recv_bytes", value=lambda args, result: len(result)),
    Hook("net.frames.send", "repro.net.frames", "send_frame",
         value=_frame_bytes),
    Hook("net.frames.recv_wait", "repro.net.frames", "recv_frame",
         value=_frame_bytes),
    Hook("dist.encoding.encode", "repro.dist.encoding", "encode_blob"),
    Hook("dist.encoding.decode", "repro.dist.encoding", "decode_blob"),
    Hook("dist.encoding.decode", "repro.dist.encoding", "apply_blob"),
    Hook("dist.residency.lookup", "repro.dist.residency", "ResidencyMap.ensure"),
    Hook("dist.residency.lookup", "repro.dist.residency",
         "ResidencyMap.node_bytes"),
    Hook("dist.residency.lookup", "repro.dist.residency",
         "ResidencyMap.record_copy"),
    Hook("dist.residency.lookup", "repro.dist.residency",
         "ResidencyMap.commit_write"),
    Hook("dist.manager.start", "repro.dist.manager", "ClusterBackend.start"),
    Hook("dist.manager.run", "repro.dist.manager", "ClusterBackend.run",
         value=lambda args, result: result[1], ident=_task_arg(1)),
    Hook("dist.manager.placement", "repro.dist.manager",
         "ClusterBackend.placement", ident=_task_arg(1)),
    Hook("dist.manager.barrier_sync", "repro.dist.manager",
         "ClusterBackend.barrier_sync"),
    Hook("serve.session.submit", "repro.serve.session", "ServeSession.submit",
         ident=lambda args, result: args[0].graphs_submitted),
    Hook("serve.session.flush", "repro.serve.session", "ServeSession.flush",
         ident=lambda args, result: args[0].graphs_submitted - 1),
    Hook("serve.session.rpc_wait", "repro.serve.session", "_Transport.rpc"),
    Hook("serve.protocol.encode", "repro.serve.protocol", "encode_datum"),
    Hook("serve.protocol.encode", "repro.serve.protocol", "encode_value"),
    Hook("serve.protocol.encode", "repro.serve.protocol", "definition_ref"),
    Hook("serve.protocol.write_back", "repro.serve.protocol",
         "write_back_into"),
    Hook("serve.wire.out", "repro.net.protocol", "encode",
         value=lambda args, result: len(result)),
    Hook("serve.wire.in", "repro.net.protocol", "decode",
         value=lambda args, result: len(args[0])),
)

#: Row of the benchmark's own task bodies (wrapped by :meth:`Tracer.wrap_bodies`).
BODY_ROW = "body"


class Tracer:
    """Per-thread span lists plus the bookkeeping to read them back."""

    def __init__(self):
        self.missing: list[dict] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: (thread name, spans, table) of every thread that recorded a span
        self._threads: list[tuple[str, list, dict]] = []
        self._ids = itertools.count(1)

    # -- recording ---------------------------------------------------------
    def _state(self):
        try:
            return self._tls.state
        except AttributeError:
            state = self._tls.state = ([], [], {})
            with self._lock:
                self._threads.append(
                    (threading.current_thread().name, state[1], state[2]))
            return state

    def wrap(self, row: str, fn: Callable, value=None, ident=None) -> Callable:
        state_of = self._state
        ids = self._ids

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            stack, spans, table = state_of()
            # [wall covered by children, CPU covered by children, span id]
            frame = [0.0, 0.0, next(ids)]
            parent = stack[-1] if stack else None
            stack.append(frame)
            result = None
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                try:
                    v = value(args, result) if value is not None else None
                    i = ident(args, result) if ident is not None else None
                except Exception:  # noqa: BLE001 - the call itself failed
                    v = i = None
                dur = t1 - t0
                wait_s = dur - frame[0]
                self_s = c1 - c0 - frame[1]
                spans.append((
                    row, t0, dur, self_s, frame[2],
                    parent[2] if parent is not None else 0, v, i,
                ))
                # calls, total_s, wait_s, self_s, value_sum, value_max
                entry = table.get(row)
                if entry is None:
                    entry = table[row] = [0, 0.0, 0.0, 0.0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += wait_s
                entry[3] += self_s
                if v is not None:
                    entry[4] += v
                    if v > entry[5]:
                        entry[5] = v
                if parent is not None:
                    # Charge the parent for the bookkeeping above too,
                    # so hook cost does not pose as the parent's own.
                    parent[0] += perf_counter() - t0
                    parent[1] += thread_time() - c0

        return hooked

    def install(self) -> "Tracer":
        for hook in HOOKS:
            try:
                owner = importlib.import_module(hook.module)
                *path, name = hook.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(
                    {"row": hook.row, "target": f"{hook.module}.{hook.attr}"})
                continue
            wrapper = self.wrap(hook.row, original, hook.value, hook.ident)
            setattr(owner, name, wrapper)
            if path:
                continue
            # A module-level function: loaded modules that bound it with
            # ``from ... import`` (under any alias) hold the old object.
            # Modules imported later bind the wrapper by themselves.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace or not getattr(module, "__name__", "").startswith("repro."):
                    continue
                for alias, obj in list(namespace.items()):
                    if obj is original:
                        setattr(module, alias, wrapper)
        return self

    def wrap_bodies(self, tasks) -> None:
        """Time the benchmark's own kernels where they run in-process."""

        for task in tasks:
            definition = task.definition
            definition.func = self.wrap(BODY_ROW, definition.func)

    def drop_spans(self) -> None:
        """Forget the spans (not the table): only the last round's are
        written out, and a million tuples would slow what they time."""

        with self._lock:
            for _, spans, _ in self._threads:
                del spans[:]

    def reset(self) -> None:
        with self._lock:
            for _, spans, table in self._threads:
                del spans[:]
                table.clear()

    # -- reading -----------------------------------------------------------
    def rows(self) -> dict:
        """Per row: calls, inclusive wall time (``total_s``), wall and CPU
        self time (``wait_s``, ``self_s``), sum and maximum of the values."""

        fields = ("calls", "total_s", "wait_s", "self_s", "value_sum", "value_max")
        merged: dict = {}
        with self._lock:
            tables = [dict(table) for _, _, table in self._threads]
        for table in tables:
            for row, entry in table.items():
                into = merged.setdefault(row, [0, 0.0, 0.0, 0.0, 0.0, 0.0])
                for index in range(5):
                    into[index] += entry[index]
                into[5] = max(into[5], entry[5])
        return {row: dict(zip(fields, entry)) for row, entry in merged.items()}

    def write_chrome_trace(self, path: str, since: float) -> int:
        """Spans that started at or after *since*, as a Chrome/Perfetto
        trace (``ph: X`` events nest by time within a thread)."""

        events = []
        with self._lock:
            threads = list(self._threads)
        for tid, (name, spans, _) in enumerate(threads, start=1):
            kept = [span for span in spans if span[1] >= since]
            if not kept:
                continue
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": tid, "args": {"name": name}})
            idents = {span[4]: span[7] for span in kept}
            parents = {span[4]: span[5] for span in kept}
            for row, t0, dur, self_s, sid, parent, value, ident in kept:
                walk = sid
                while ident is None and walk:
                    walk = parents.get(walk, 0)
                    ident = idents.get(walk)
                args = {"self_cpu_us": round(self_s * 1e6, 3), "span": sid,
                        "parent": parent}
                if ident is not None:
                    args["id"] = ident
                if value is not None:
                    args["value"] = value
                events.append({
                    "name": row, "ph": "X", "pid": 1, "tid": tid,
                    "ts": round((t0 - since) * 1e6, 3),
                    "dur": round(dur * 1e6, 3), "args": args,
                })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)
        return len(events)

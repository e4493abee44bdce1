"""Whole-program static task-graph extraction (``repro.check.flow``).

:mod:`repro.check.astlint` checks each task *body* against its own
pragma.  This module checks the *driver program*: it abstractly
interprets the module that submits the tasks — loops boundedly
unrolled, block indices and region bounds evaluated over the
:mod:`~repro.check.intervals` domain, datum identities tracked through
containers and hyper-matrices — and hands every abstract submission to
:class:`repro.core.dependencies.DependencyTracker` itself: the data are
abstract, a region is the hull of its symbolic bounds, and the analysis
is the runtime's.  A barrier retires the tasks in flight and forgets
the chains exactly as the runtime's does.

Two things come out:

* a **static task-graph skeleton** — a
  :class:`~repro.core.recorder.RecordedProgram` of the tracker's graph
  and the task/barrier/wait stream: the same ``repro.recording``
  document the eager recorder saves for the same driver (a tested
  property; ``python -m repro obs diff`` compares the two, and
  ``python -m repro live replay`` steps through either), and
* **whole-program findings** no per-task check can see, because they
  live *between* submissions: overlapping-region write hazards, opaque
  sharing races, direct data access without an intervening barrier,
  barriers that synchronise nothing, serialization bottlenecks and
  renaming pressure.

The analysis is deliberately one-sided, like the rest of
``repro.check``: *error*-severity findings are only emitted for facts
the interpreter can prove on every modelled path (concrete indices,
unconditional code); anything unknown stays silent.  Conditionally
executed or loop-summarized submissions still contribute to the
skeleton, flagged as such, but never to error findings.
"""

from __future__ import annotations

import ast
import importlib.util
import math
import re
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Optional

from ..compiler.translate import CompileError, translate_source
from ..core.dependencies import DependencyError, DependencyTracker
from ..core.graph import TaskGraph
from ..core.pragma import PragmaError, parse_pragma
from ..core.recorder import RecordedProgram
from ..core.regions import Region
from ..core.renaming import StorageKind
from ..core.task import Direction, ParamAccess, TaskInstance, TaskState
from .astlint import _METADATA_ATTRS as _ARRAY_METADATA_ATTRS
from .astlint import _MUTATOR_METHODS, _PURE_METHODS, _decorator_pragma
from .effects import Access, TaskEffect
from .findings import Finding
from .intervals import Interval
from .suppress import SuppressionIndex

__all__ = [
    "FlowOptions",
    "FlowResult",
    "StaticTask",
    "flow_source",
    "flow_file",
    "flow_paths",
]

_PRAGMA_MARK_RE = re.compile(r"^\s*#\s*pragma\s+css\b", re.MULTILINE)

# Tuning knobs for the advisory rules; deliberately conservative so the
# shipped apps/examples stay clean (see tests/test_check_flow.py).
_SERIAL_MIN_CHAIN = 4       # RAW chain length worth flagging
_SERIAL_DOMINANCE = 0.75    # ...covering at least this share of the epoch
_RENAME_PRESSURE_MIN = 8    # renamed versions per (datum, loop)

# Interpreter budgets past which the skeleton is marked truncated.
_MAX_TASKS = 60000          # abstract submissions
_MAX_STEPS = 400000         # executed statements
_MAX_DEPTH = 40             # interprocedural inlining depth


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------

class _Unknown:
    """The single 'no information' value (never a finding source)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unknown>"


UNKNOWN = _Unknown()


class _Intrinsic:
    """A named non-data handle: modules, runtime API, numpy, markers."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def attr(self, attr: str) -> "_Intrinsic":
        return _Intrinsic(f"{self.name}.{attr}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<intrinsic {self.name}>"


class _RuntimeHandle:
    """Abstract ``SmpssRuntime`` / ``RecordingRuntime`` instance."""

    __slots__ = ()


class _RangeValue:
    __slots__ = ("start", "stop", "step")

    def __init__(self, start, stop, step):
        self.start, self.stop, self.step = start, stop, step

    def concrete(self) -> Optional[range]:
        if all(isinstance(v, int) and not isinstance(v, bool)
               for v in (self.start, self.stop, self.step)) and self.step != 0:
            return range(self.start, self.stop, self.step)
        return None

    def hull(self) -> Optional[Interval]:
        """Interval hull when only some bounds are known."""

        conc = self.concrete()
        if conc is not None:
            if len(conc) == 0:
                return None
            return Interval.from_range(self.start, self.stop, self.step)
        lo = self.start if isinstance(self.start, int) else None
        if isinstance(self.start, Interval):
            lo = self.start.lo
        return Interval(lo, None)


class _BoundMethod:
    __slots__ = ("obj", "method")

    def __init__(self, obj, method: str):
        self.obj, self.method = obj, method


class Datum:
    """One runtime object identity (array, hyper-matrix, list, ...)."""

    __slots__ = (
        "uid", "label", "kind", "shape", "renamable", "maybe_absent",
        "children", "attrs", "opaque_uses", "tracked_uses", "tainted",
    )

    def __init__(self, uid: int, label: str, kind: str = "array",
                 shape=None, renamable: bool = True,
                 maybe_absent: bool = False):
        self.uid = uid
        self.label = label
        self.kind = kind            # array | hyper | row | list | dict | object
        self.shape = shape          # tuple of ints when concretely known
        self.renamable = renamable
        self.maybe_absent = maybe_absent
        self.children: dict = {}    # container slots, concrete key -> value
        self.attrs: dict = {}       # known metadata (hyper: n, m)
        self.opaque_uses: list = []     # StaticTask
        self.tracked_uses: list = []    # (StaticTask, Direction)
        self.tainted = False        # an unknown-index store happened

    @property
    def is_container(self) -> bool:
        return self.kind in ("hyper", "row", "list", "dict")

    def descendants(self) -> Iterable["Datum"]:
        yield self
        for child in self.children.values():
            if isinstance(child, Datum):
                yield from child.descendants()


# ---------------------------------------------------------------------------
# The skeleton: abstract submissions in the runtime's own task graph
# ---------------------------------------------------------------------------

class StaticTask(TaskInstance):
    """One abstract submission, ids counted exactly like the runtime's.

    A real graph node: :mod:`repro.core.dependencies` analyses it and
    :class:`~repro.core.graph.TaskGraph` holds its edges; its
    ``definition`` is the :class:`TaskEffect` and its accesses carry
    abstract :class:`Datum` values over region hulls.
    """

    __slots__ = ("file", "line", "conditional", "summarized", "epoch", "loops")

    def __init__(self, effect: TaskEffect, task_id: int, file: str,
                 line: int, conditional: bool, summarized: bool,
                 epoch: int, loops: tuple):
        super().__init__(effect, [], None, task_id, effect.high_priority)
        self.file = file
        self.line = line
        self.conditional = conditional  # submitted under an unknown branch
        self.summarized = summarized    # submitted from a folded loop iteration
        self.epoch = epoch
        self.loops = loops              # enclosing loop lines, innermost last

    @property
    def finished(self) -> bool:
        return self.state is TaskState.FINISHED

    @property
    def certain(self) -> bool:
        return not (self.conditional or self.summarized)


#: The tracker's adapter registry over abstract data: while analysing
#: it asks an adapter only for ``renamable`` and ``shape_of``.
_ADAPTERS = {
    flag: SimpleNamespace(renamable=flag, shape_of=attrgetter("shape"))
    for flag in (True, False)
}
_REGISTRY = SimpleNamespace(
    adapter_for=lambda datum: _ADAPTERS[datum.renamable])


# ---------------------------------------------------------------------------
# Options / result
# ---------------------------------------------------------------------------

@dataclass
class FlowOptions:
    """The abstract interpreter's one budget a caller sets."""

    max_unroll: int = 128       # full-unroll budget per loop


@dataclass
class FlowResult:
    findings: list[Finding]
    #: The skeleton: :class:`StaticTask` nodes in a kept graph, and the
    #: task/barrier/wait stream.
    program: RecordedProgram


# ---------------------------------------------------------------------------
# Control-flow signals and module records
# ---------------------------------------------------------------------------

class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _OutOfBudget(Exception):
    pass


class _Env:
    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["_Env"] = None):
        self.vars: dict = {}
        self.parent = parent

    def lookup(self, name: str):
        env: Optional[_Env] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise KeyError(name)

    def assign(self, name: str, value) -> None:
        self.vars[name] = value


@dataclass
class _Module:
    name: str               # dotted name ("" for the root file)
    path: str               # reported in findings
    env: _Env
    line_offset: int        # 1 for translated pragma sources


@dataclass
class _TaskDef:
    effect: Optional[TaskEffect]    # None when the pragma failed to parse
    node: ast.FunctionDef
    module: _Module


@dataclass
class _Func:
    node: object            # FunctionDef | Lambda
    module: _Module
    env: _Env               # defining scope (for closures)


# Names importable from anywhere in the ``repro`` package that the
# interpreter models natively instead of loading source for.
_API_INTRINSICS = frozenset({
    "SmpssRuntime", "RecordingRuntime", "record_program",
    "simulate_program", "css_task", "barrier", "wait_on",
    "current_runtime", "SharedArena", "arena_array", "HyperMatrix",
    "Representant", "RepresentantTable",
})

_NP_CONSTRUCTORS = frozenset({
    "zeros", "ones", "empty", "full", "eye", "identity", "arange",
    "linspace", "array", "asarray", "ascontiguousarray", "copy",
    "zeros_like", "ones_like", "empty_like", "full_like",
})

_RNG_METHODS = frozenset({
    "standard_normal", "random", "normal", "uniform", "integers",
    "permutation", "choice",
})

_READER_BUILTINS = frozenset({
    "print", "sum", "min", "max", "abs", "any", "all", "sorted",
    "float", "int", "str", "repr", "bool", "round",
})

_PASSTHROUGH_BUILTINS = frozenset({
    "isinstance", "hasattr", "getattr", "setattr", "id", "type",
    "divmod", "map", "filter", "next", "iter", "format", "vars",
    "globals", "callable", "hash", "pow", "ord", "chr",
})

_LIST_METHODS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "reverse",
    "index", "count",
})
# astlint's metadata attributes plus the hyper-matrix / handle ones a
# driver reads.
_METADATA_ATTRS = _ARRAY_METADATA_ATTRS | {"n", "m", "name", "task_id", "block"}


def _concrete_int(value) -> Optional[int]:
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


def _concrete_key(value):
    """A usable container key: int, str, or tuple of those."""

    if isinstance(value, bool):
        return None
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, tuple):
        parts = tuple(_concrete_key(v) for v in value)
        if any(p is None for p in parts):
            return None
        return parts
    return None


def _is_scalarish(value) -> bool:
    """Would the runtime pass this argument by value (untracked)?"""

    return (
        value is None
        or isinstance(value, (bool, int, float, complex, str, bytes,
                              tuple, frozenset, Interval))
    )


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

class _Interp:
    def __init__(self, options: FlowOptions):
        self.opt = options
        self.graph = TaskGraph(keep_finished=True)
        self.program = RecordedProgram(self.graph)
        # The runtime's own dependency analysis, over abstract data.
        self.tracker = DependencyTracker(self.graph, _REGISTRY)
        self.findings: list[Finding] = []

        self._datum_ids = 0
        self._steps = 0
        self._depth = 0
        self.runtime_depth = 0
        self.cond_depth = 0
        self.summarized_depth = 0
        self.loop_stack: list[int] = []     # source lines of open loops

        self.epoch = 0
        self._live: list[StaticTask] = []     # submitted since the last sync
        self._certain_since_sync = 0
        self._maybe_since_sync = 0

        # (datum uid, region) of every live chain key whose bounds were
        # constants — what a partial-overlap *error* may be proved from
        self._exact: set = set()
        # serialization runs: datum uid -> current RAW chain of tasks
        self._runs: dict[int, list[StaticTask]] = {}
        self._best_runs: dict[int, list[StaticTask]] = {}
        # rename events: (datum, task) pairs
        self._renames: list[tuple[Datum, StaticTask]] = []

        self._modules: dict[str, _Module] = {}      # by resolved path
        self._loading: set[str] = set()
        self._module_stack: list[_Module] = []
        self._reported: set = set()

    # -- small helpers --------------------------------------------------

    @property
    def module(self) -> _Module:
        return self._module_stack[-1]

    def _new_datum(self, label: str, **kw) -> Datum:
        self._datum_ids += 1
        return Datum(self._datum_ids, label, **kw)

    def _line(self, node) -> int:
        return getattr(node, "lineno", 1) - self.module.line_offset

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > _MAX_STEPS:
            self.program.truncated = True
            raise _OutOfBudget

    def _report(self, rule: str, node, message: str, *,
                dedup_key=None, task: str = "", param: str = "") -> None:
        line = self._line(node)
        key = dedup_key if dedup_key is not None else (rule, line)
        key = (self.module.path, rule) + (key if isinstance(key, tuple)
                                          else (key,))
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(Finding(
            self.module.path, line, getattr(node, "col_offset", 0) + 1,
            rule, message, task=task, param=param,
        ))

    # -- module loading -------------------------------------------------

    def load_root(self, source: str, path: str, module_name: str) -> _Module:
        module = self._make_module(source, path, module_name)
        self._exec_module(module, source)
        return module

    def _make_module(self, source: str, path: str, name: str) -> _Module:
        offset = 0
        if _PRAGMA_MARK_RE.search(source):
            # Looks like an annotated program: analyze the translated
            # form.  Docstrings quoting pragmas can false-trigger the
            # cheap regex, so an untranslatable file is analyzed as-is.
            try:
                source = translate_source(source, path)
                offset = 1
            except (CompileError, SyntaxError):
                pass
        env = _Env()
        env.assign("__name__", name)
        env.assign("__file__", path)
        module = _Module(name=name, path=path, env=env, line_offset=offset)
        module._translated_source = source  # type: ignore[attr-defined]
        return module

    def _exec_module(self, module: _Module, original_source: str) -> None:
        source = getattr(module, "_translated_source", original_source)
        tree = ast.parse(source, filename=module.path)
        self._module_stack.append(module)
        try:
            self._exec_block(tree.body, module.env)
        except (_OutOfBudget, _Return):
            pass
        finally:
            self._module_stack.pop()

    def _load_module(self, dotted: str):
        """Import by dotted name: intrinsic namespaces or repro source."""

        top = dotted.split(".", 1)[0]
        if top == "numpy":
            return _Intrinsic("numpy" + dotted[len("numpy"):])
        if top != "repro":
            return _Intrinsic(dotted)
        try:
            spec = importlib.util.find_spec(dotted)
        except (ImportError, ValueError, ModuleNotFoundError):
            spec = None
        if spec is None or not spec.origin or not spec.origin.endswith(".py"):
            return _Intrinsic(dotted)
        path = spec.origin
        if path in self._modules:
            return self._modules[path]
        if dotted in self._loading:
            return _Intrinsic(dotted)   # import cycle: degrade gracefully
        self._loading.add(dotted)
        try:
            source = Path(path).read_text(encoding="utf-8")
        except OSError:
            self._loading.discard(dotted)
            return _Intrinsic(dotted)
        module = self._make_module(source, path, dotted)
        self._modules[path] = module
        try:
            self._exec_module(module, source)
        finally:
            self._loading.discard(dotted)
        return module

    def _resolve_import_base(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        pkg = self.module.name
        if pkg and not self.module.path.endswith("__init__.py"):
            pkg = pkg.rsplit(".", 1)[0] if "." in pkg else ""
        try:
            return importlib.util.resolve_name(
                "." * node.level + (node.module or ""), pkg or "repro"
            )
        except (ImportError, ValueError):
            return node.module or ""

    # -- synchronisation ------------------------------------------------

    def _sync(self, node=None, explicit: bool = False) -> None:
        if explicit and self.runtime_depth > 0 and self.cond_depth == 0 \
                and self.summarized_depth == 0 \
                and self._certain_since_sync == 0 \
                and self._maybe_since_sync == 0:
            self._report(
                "flow-dead-barrier", node,
                "barrier synchronises zero tasks: no submission can have "
                "happened since the previous synchronisation point",
            )
        if explicit and self.runtime_depth > 0:
            self.program.events.append(("barrier",))
        self._flush_serialization()
        # The runtime's barrier: everything in flight retires and the
        # tracker forgets its chains (write_back_all() + reset()).
        for t in self._live:
            if not t.finished:
                self.graph.complete(t)
        self._live.clear()
        self.tracker.reset()
        self._exact.clear()
        self._runs.clear()
        self._certain_since_sync = 0
        # A sync reached under an unknown branch (or in a folded loop
        # body) may not happen on every real execution: a later barrier
        # can no longer be *proved* dead.
        self._maybe_since_sync = (
            1 if (self.cond_depth > 0 or self.summarized_depth > 0) else 0
        )
        self.epoch += 1

    def _finish_transitive(self, task: StaticTask) -> None:
        stack = [task]
        while stack:
            t = stack.pop()
            if t.finished:
                continue
            self.graph.complete(t)
            stack.extend(t.predecessors)  # any order: all of them finish

    def _chains(self, datum: Datum):
        """``(datum, chain)`` for every live chain the tracker holds on
        *datum* or anything it contains."""

        for d in datum.descendants():
            if self.tracker.is_tracked(d):
                for chain in self.tracker.datum_for(d).chains.values():
                    yield d, chain

    def _wait_on(self, value, node) -> None:
        if self.runtime_depth == 0 or not isinstance(value, Datum):
            return
        producers = [
            c.current.producer for _d, c in self._chains(value)
            if c.current.producer is not None
            and not c.current.producer.finished
        ]
        if not producers:
            return
        latest = max(producers, key=lambda t: t.task_id)
        self.program.events.append(("wait", latest))
        for p in producers:
            self._finish_transitive(p)

    # -- rules that read the tracker's state before it analyses a task --

    def _before_analysis(self, task: StaticTask, datum: Datum,
                         access: Access, hull: Optional[Region],
                         node) -> None:
        tracked = self.tracker.datum_for(datum)
        if hull is None and not tracked.region_mode:
            # serialization runs follow whole-object RAW chains
            cur = self.tracker.current_version(datum)
            if access.direction is Direction.OUTPUT:
                self._runs.pop(datum.uid, None)
            elif access.direction is Direction.INOUT and cur is not None \
                    and cur.producer is not None \
                    and not cur.producer.finished:
                self._note_run(datum, cur.producer, task)
        if hull is None or access.region.to_region() is None:
            return      # symbolic bounds: cannot prove, stay silent
        self._exact.add((datum.uid, hull))
        if not access.direction.writes:
            return
        for chain in tracked.overlapping(hull):
            other, written = chain.current.producer, chain.key
            if (datum.uid, written) in self._exact and other is not None \
                    and task.certain and other.certain \
                    and hull.overlaps(written) \
                    and not hull.contains(written) \
                    and not written.contains(hull):
                self._report(
                    "flow-overlapping-writes", node,
                    f"task '{task.name}' writes {hull} of '{datum.label}' "
                    f"while task '{other.name}' (line {other.line}) wrote "
                    f"{written}: the regions overlap but neither contains "
                    "the other, a partial-overlap write hazard renaming "
                    "cannot resolve",
                    dedup_key=(datum.uid, task.line, other.line),
                    task=task.name,
                )

    def _note_opaque(self, task: StaticTask, datum: Datum, node) -> None:
        datum.opaque_uses.append(task)
        for other, direction in datum.tracked_uses:
            self._opaque_pair(task, other, direction, datum, node)

    def _note_tracked(self, task: StaticTask, datum: Datum,
                      direction: Direction, node) -> None:
        datum.tracked_uses.append((task, direction))
        for other in datum.opaque_uses:
            self._opaque_pair(other, task, direction, datum, node)

    def _opaque_pair(self, opaque_task: StaticTask, tracked_task: StaticTask,
                     direction: Direction, datum: Datum, node) -> None:
        if opaque_task is tracked_task:
            return
        if not direction.writes:
            return
        if opaque_task.epoch != tracked_task.epoch:
            return      # a barrier orders the two submissions
        if not (opaque_task.certain and tracked_task.certain):
            return
        self._report(
            "flow-opaque-race", node,
            f"'{datum.label}' is passed opaque to task "
            f"'{opaque_task.name}' (line {opaque_task.line}) and written "
            f"through a tracked parameter by task '{tracked_task.name}' "
            f"(line {tracked_task.line}) in the same synchronisation "
            "epoch; the runtime cannot order the opaque access against "
            "that write",
            dedup_key=(datum.uid, opaque_task.line, tracked_task.line),
            task=tracked_task.name,
        )

    def _note_run(self, datum: Datum, producer: StaticTask,
                  task: StaticTask) -> None:
        """Track consecutive RAW chains for the serialization rule."""

        run = self._runs.get(datum.uid)
        if run and run[-1] is producer:
            run.append(task)
        else:
            run = self._runs[datum.uid] = [producer, task]
        best = self._best_runs.setdefault(datum.uid, run)
        if len(run) > len(best):
            self._best_runs[datum.uid] = list(run)

    def _flush_serialization(self) -> None:
        total = len(self._live)
        if total == 0:
            self._best_runs.clear()
            return
        for uid, run in self._best_runs.items():
            chained = [t for t in run if t.certain]
            if len(chained) < _SERIAL_MIN_CHAIN:
                continue
            if len(chained) < math.ceil(_SERIAL_DOMINANCE * total):
                continue
            first = chained[0]
            label = next(
                (d.label for d, _t in self._renames if d.uid == uid), None
            )
            self.findings.append(Finding(
                first.file, first.line, 1, "flow-serialization",
                f"{len(chained)} of {total} tasks in this synchronisation "
                "epoch form a single read-after-write chain through one "
                f"datum{' (' + label + ')' if label else ''}; the epoch is "
                "effectively serial — privatise the accumulator or "
                "restructure into a reduction",
                task=first.name,
            ))
        self._best_runs.clear()

    def _flush_renaming_pressure(self) -> None:
        groups: dict[tuple, list[tuple[Datum, StaticTask]]] = {}
        for datum, task in self._renames:
            if not task.certain or not task.loops:
                continue
            groups.setdefault((datum.uid, task.loops[-1]), []).append(
                (datum, task)
            )
        for (uid, loop_line), events in groups.items():
            if len(events) < _RENAME_PRESSURE_MIN:
                continue
            datum, first = events[0]
            self.findings.append(Finding(
                first.file, first.line, 1, "flow-renaming-pressure",
                f"{len(events)} renamed versions of '{datum.label}' are "
                f"created by the loop at line {loop_line}; each rename "
                "allocates a private buffer (paper section III) — bound "
                "the live versions with a barrier or restructure the "
                "update",
                task=first.name,
            ))

    # -- driver-level data access ---------------------------------------

    def _driver_access(self, datum: Datum, node, *, writes: bool,
                       what: str) -> None:
        if self.runtime_depth == 0 or self.cond_depth > 0 \
                or self.summarized_depth > 0:
            return
        for d, chain in self._chains(datum):
            p = chain.current.producer
            if p is not None and not p.finished and p.certain:
                self._report(
                    "flow-missing-barrier", node,
                    f"driver code {what} '{d.label}' while task "
                    f"'{p.name}' (line {p.line}) may still be writing "
                    "it; insert barrier() or wait_on(...) first",
                    dedup_key=(d.uid, "w"),
                )
                return
            if writes:
                for r in chain.current.pending_readers():
                    if r.certain:
                        self._report(
                            "flow-missing-barrier", node,
                            f"driver code {what} '{d.label}' while "
                            f"task '{r.name}' (line {r.line}) may "
                            "still be reading it; insert barrier() "
                            "or wait_on(...) first",
                            dedup_key=(d.uid, "r"),
                        )
                        return

    def _read_datums(self, values, node, what: str = "reads") -> None:
        for v in values:
            if isinstance(v, Datum):
                self._driver_access(v, node, writes=False, what=what)

    # -- submission -----------------------------------------------------

    def _submit(self, taskdef: _TaskDef, args: list, kwargs: dict,
                node) -> None:
        effect = taskdef.effect
        if effect is None:
            return
        if len(self.graph) >= _MAX_TASKS:
            self.program.truncated = True
            raise _OutOfBudget

        arg_map: dict = {}
        params = list(effect.param_names)
        for name, value in zip(params, args):
            arg_map[name] = value
        for name, value in kwargs.items():
            if name in params:
                arg_map[name] = value
        defaults = taskdef.node.args.defaults
        if defaults:
            tail = params[len(params) - len(defaults):]
            for name, dnode in zip(tail, defaults):
                if name not in arg_map:
                    arg_map[name] = self._eval(dnode, taskdef.module.env)

        shapes = {
            n: v.shape for n, v in arg_map.items()
            if isinstance(v, Datum) and isinstance(v.shape, tuple)
            and all(isinstance(s, int) for s in v.shape)
        }
        task = StaticTask(
            effect,
            task_id=len(self.graph) + 1,
            file=self.module.path,
            line=self._line(node),
            conditional=self.cond_depth > 0,
            summarized=self.summarized_depth > 0,
            epoch=self.epoch,
            loops=tuple(self.loop_stack),
        )
        self.program.events.append(("task", task))
        self._live.append(task)
        if task.certain:
            self._certain_since_sync += 1
        else:
            self._maybe_since_sync += 1

        for access in effect.footprint(arg_map, shapes):
            value = arg_map.get(access.param, UNKNOWN)
            if not isinstance(value, Datum) or _is_scalarish(value):
                continue
            if access.direction is Direction.OPAQUE:
                self._note_opaque(task, value, node)
                continue
            self._note_tracked(task, value, access.direction, node)
            hull = None if access.region is None else access.region.hull()
            self._before_analysis(task, value, access, hull, node)
            task.accesses.append(
                ParamAccess(access.param, access.direction, value, hull))
        try:
            self.tracker.analyze(task)
        except DependencyError:
            # Raised before the offending access (or any later one of
            # this task) touched a chain; the skeleton past this point
            # is the graph of a program the runtime refuses to run.
            datum = next(a.value for a in task.accesses
                         if a.region is not None
                         and not self.tracker.datum_for(a.value).region_mode)
            self._report(
                "flow-overlapping-writes", node,
                f"region access to '{datum.label}' whose current "
                "version lives in a renamed buffer; the runtime "
                "raises DependencyError here — barrier before mixing "
                "whole-object renaming with array regions",
                dedup_key=(datum.uid, "region-after-rename"),
                task=task.name,
            )
        self._renames += [
            (version.datum.base, task) for _param, version in task.writes
            if version.kind in (StorageKind.FRESH, StorageKind.CLONE)
        ]

    # -- statement execution --------------------------------------------

    def _exec_block(self, stmts, env: _Env) -> None:
        for stmt in stmts:
            self._exec(stmt, env)

    def _exec(self, node, env: _Env) -> None:
        self._tick()
        method = getattr(self, "_exec_" + type(node).__name__, None)
        if method is not None:
            method(node, env)

    def _exec_Expr(self, node, env):
        self._eval(node.value, env)

    def _exec_Assign(self, node, env):
        value = self._eval(node.value, env)
        for target in node.targets:
            self._assign(target, value, env)

    def _exec_AnnAssign(self, node, env):
        if node.value is not None:
            self._assign(node.target, self._eval(node.value, env), env)

    def _exec_AugAssign(self, node, env):
        target = node.target
        if isinstance(target, ast.Name):
            try:
                old = env.lookup(target.id)
            except KeyError:
                old = UNKNOWN
            value = self._binop(old, self._eval(node.value, env),
                                node.op, node)
            env.assign(target.id, value)
            return
        if isinstance(target, ast.Subscript):
            obj = self._eval(target.value, env)
            self._eval(node.value, env)
            if isinstance(obj, Datum) and obj.kind == "array":
                self._driver_access(obj, node, writes=True,
                                    what="updates an element of")
            return
        self._eval(node.value, env)

    def _exec_Return(self, node, env):
        value = None if node.value is None else self._eval(node.value, env)
        raise _Return(value)

    def _exec_Break(self, node, env):
        raise _Break

    def _exec_Continue(self, node, env):
        raise _Continue

    def _exec_Assert(self, node, env):
        self._eval(node.test, env)
        if node.msg is not None:
            self._eval(node.msg, env)

    def _exec_Raise(self, node, env):
        if node.exc is not None:
            self._eval(node.exc, env)

    def _exec_Import(self, node, env):
        for alias in node.names:
            value = self._load_module(alias.name)
            if alias.asname:
                env.assign(alias.asname, value)
            else:
                env.assign(alias.name.split(".", 1)[0],
                           self._load_module(alias.name.split(".", 1)[0]))

    def _exec_ImportFrom(self, node, env):
        base = self._resolve_import_base(node)
        loaded = None
        for alias in node.names:
            bind = alias.asname or alias.name
            if alias.name == "*":
                continue
            if base.split(".", 1)[0] == "repro" \
                    and alias.name in _API_INTRINSICS:
                env.assign(bind, _Intrinsic(alias.name))
                continue
            if loaded is None:
                loaded = self._load_module(base) if base else UNKNOWN
            if isinstance(loaded, _Module):
                try:
                    env.assign(bind, loaded.env.lookup(alias.name))
                    continue
                except KeyError:
                    pass
            if isinstance(loaded, _Intrinsic):
                env.assign(bind, loaded.attr(alias.name))
            else:
                env.assign(bind, UNKNOWN)

    def _exec_FunctionDef(self, node, env):
        taskdef = self._make_taskdef(node, env)
        env.assign(node.name, taskdef if taskdef is not None
                   else _Func(node, self.module, env))

    _exec_AsyncFunctionDef = _exec_FunctionDef

    def _exec_ClassDef(self, node, env):
        env.assign(node.name, UNKNOWN)

    def _make_taskdef(self, node, env) -> Optional[_TaskDef]:
        for dec in node.decorator_list:
            parsed = _decorator_pragma(dec)
            if parsed is None:
                continue
            text, _names = parsed
            constants = self._decorator_constants(dec, env)
            try:
                pragma = parse_pragma(text)
            except PragmaError:
                return _TaskDef(None, node, self.module)
            params = [a.arg for a in node.args.args]
            effect = TaskEffect.from_pragma(node.name, pragma, params,
                                            constants)
            return _TaskDef(effect, node, self.module)
        return None

    def _decorator_constants(self, dec: ast.Call, env) -> dict:
        for kw in dec.keywords:
            if kw.arg != "constants":
                continue
            if isinstance(kw.value, ast.Dict):
                out = {}
                for k, v in zip(kw.value.keys, kw.value.values):
                    if isinstance(k, ast.Constant) and isinstance(k.value, str):
                        value = self._eval(v, env)
                        ival = _concrete_int(value)
                        if ival is not None:
                            out[k.value] = ival
                return out
            value = self._eval(kw.value, env)
            return value if isinstance(value, dict) else {}
        return {}

    def _exec_If(self, node, env):
        test = self._eval_condition(node.test, env)
        if test is True:
            self._exec_block(node.body, env)
            return
        if test is False:
            self._exec_block(node.orelse, env)
            return
        self._exec_both_branches(node.body, node.orelse, env)

    def _exec_both_branches(self, body, orelse, env):
        names = self._assigned_names(body) | self._assigned_names(orelse)
        before = {}
        for name in names:
            try:
                before[name] = env.lookup(name)
            except KeyError:
                pass
        self.cond_depth += 1
        try:
            self._exec_block(body, env)
            self._exec_block(orelse, env)
        finally:
            self.cond_depth -= 1
        for name in names:
            try:
                after = env.lookup(name)
            except KeyError:
                continue
            prior = before.get(name, UNKNOWN)
            if after is prior:
                continue
            if isinstance(after, (int, float, str, bool)) \
                    and type(after) is type(prior) and after == prior:
                continue
            env.assign(name, UNKNOWN)

    def _exec_While(self, node, env):
        iterations = 0
        while iterations < self.opt.max_unroll:
            test = self._eval_condition(node.test, env)
            if test is False:
                self._exec_block(node.orelse, env)
                return
            if test is not True:
                break
            iterations += 1
            try:
                self._exec_block(node.body, env)
            except _Break:
                return
            except _Continue:
                continue
        # unknown condition (or unroll budget): one summarized pass
        self._exec_summarized_body(node.body, env)
        self._invalidate_assigned(node.body, env)

    def _exec_For(self, node, env):
        iterable = self._eval(node.iter, env)
        items = self._concrete_items(iterable)
        if items is not None and len(items) <= self.opt.max_unroll:
            line = getattr(node, "lineno", 0) - self.module.line_offset
            self.loop_stack.append(line)
            try:
                for item in items:
                    self._assign(node.target, item, env)
                    try:
                        self._exec_block(node.body, env)
                    except _Break:
                        break
                    except _Continue:
                        continue
                else:
                    self._exec_block(node.orelse, env)
            finally:
                self.loop_stack.pop()
            return
        # summarized: induction variable becomes an interval (or unknown)
        self.program.truncated = self.program.truncated or items is not None
        summary = UNKNOWN
        if isinstance(iterable, _RangeValue):
            hull = iterable.hull()
            if hull is None:
                self._exec_block(node.orelse, env)
                return      # provably empty range
            summary = hull
        elif items:
            ints = [v for v in items if _concrete_int(v) is not None]
            if len(ints) == len(items) and ints:
                summary = Interval(min(ints), max(ints))
        line = getattr(node, "lineno", 0) - self.module.line_offset
        self.loop_stack.append(line)
        try:
            self._assign(node.target, summary, env)
            self._exec_summarized_body(node.body, env)
        finally:
            self.loop_stack.pop()
        self._invalidate_assigned(node.body, env, keep=node.target)
        self._assign(node.target, summary, env)

    _exec_AsyncFor = _exec_For

    def _exec_summarized_body(self, body, env) -> None:
        self.summarized_depth += 1
        self.cond_depth += 1
        try:
            self._exec_block(body, env)
        except (_Break, _Continue):
            pass
        finally:
            self.cond_depth -= 1
            self.summarized_depth -= 1

    def _assigned_names(self, stmts) -> set[str]:
        names: set[str] = set()
        for stmt in stmts:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) \
                        and isinstance(sub.ctx, ast.Store):
                    names.add(sub.id)
                elif isinstance(sub, ast.NamedExpr) \
                        and isinstance(sub.target, ast.Name):
                    names.add(sub.target.id)
        return names

    def _invalidate_assigned(self, body, env, keep=None) -> None:
        kept = set()
        if keep is not None:
            kept = {n.id for n in ast.walk(keep)
                    if isinstance(n, ast.Name)}
        for name in self._assigned_names(body) - kept:
            env.assign(name, UNKNOWN)

    def _exec_With(self, node, env):
        handles = []
        for item in node.items:
            ctx = self._eval(item.context_expr, env)
            if item.optional_vars is not None:
                self._assign(item.optional_vars, ctx, env)
            if isinstance(ctx, _RuntimeHandle):
                handles.append(ctx)
        for _h in handles:
            self._sync()
            self.runtime_depth += 1
        try:
            self._exec_block(node.body, env)
        finally:
            for _h in handles:
                self.runtime_depth -= 1
                self._sync()    # __exit__ -> shutdown() -> barrier()

    _exec_AsyncWith = _exec_With

    def _exec_Try(self, node, env):
        try:
            self._exec_block(node.body, env)
        finally:
            self._exec_block(node.orelse, env)
            self._exec_block(node.finalbody, env)

    _exec_TryStar = _exec_Try

    # -- assignment targets ---------------------------------------------

    def _assign(self, target, value, env: _Env) -> None:
        if isinstance(target, ast.Name):
            if isinstance(value, Datum) and value.label.startswith("<"):
                value.label = target.id
            env.assign(target.id, value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = None
            if isinstance(value, tuple):
                elements = list(value)
            elif isinstance(value, list):
                elements = value
            elif isinstance(value, Datum) and value.kind == "list" \
                    and not value.tainted:
                elements = [value.children[k]
                            for k in sorted(value.children)]
            if elements is not None and len(elements) == len(target.elts) \
                    and not any(isinstance(t, ast.Starred)
                                for t in target.elts):
                for t, v in zip(target.elts, elements):
                    self._assign(t, v, env)
            else:
                for t in target.elts:
                    inner = t.value if isinstance(t, ast.Starred) else t
                    self._assign(inner, UNKNOWN, env)
            return
        if isinstance(target, ast.Subscript):
            obj = self._eval(target.value, env)
            idx = self._eval_index(target.slice, env)
            self._store_item(obj, idx, value, target)
            return
        if isinstance(target, ast.Attribute):
            obj = self._eval(target.value, env)
            if isinstance(obj, Datum) and obj.kind == "array" \
                    and target.attr not in _METADATA_ATTRS:
                self._driver_access(obj, target, writes=True,
                                    what="writes an attribute of")
            return
        if isinstance(target, ast.Starred):
            self._assign(target.value, UNKNOWN, env)

    # -- container / array element access -------------------------------

    def _eval_index(self, node, env):
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part, env)
            return UNKNOWN
        if isinstance(node, ast.Tuple):
            return tuple(self._eval_index(e, env) for e in node.elts)
        return self._eval(node, env)

    def _container_path(self, obj: Datum, key) -> Optional[tuple[Datum, object]]:
        """Walk nested container keys; returns (leaf container, leaf key)."""

        keys = key if isinstance(key, tuple) else (key,)
        cur = obj
        for k in keys[:-1]:
            child = cur.children.get(k)
            if not isinstance(child, Datum) or not child.is_container:
                child = self._new_datum(
                    f"{cur.label}[{k}]",
                    kind="row" if cur.kind in ("hyper", "row") else "list",
                )
                child.attrs.update(obj.attrs)
                cur.children[k] = child
            cur = child
        return cur, keys[-1]

    def _load_item(self, obj, idx, node):
        if isinstance(obj, Datum) and obj.is_container:
            key = _concrete_key(idx)
            if key is None:
                return UNKNOWN
            leaf, k = self._container_path(obj, key)
            value = leaf.children.get(k)
            if value is not None:
                return value
            if obj.tainted or leaf.tainted:
                return UNKNOWN
            if obj.kind in ("hyper", "row") or leaf.kind in ("hyper", "row"):
                m = obj.attrs.get("m")
                shape = (m, m) if isinstance(m, int) else None
                block = self._new_datum(
                    f"{obj.label}[{','.join(str(p) for p in (key if isinstance(key, tuple) else (key,)))}]",
                    shape=shape, maybe_absent=True,
                )
                leaf.children[k] = block
                return block
            return UNKNOWN
        if isinstance(obj, Datum) and obj.kind == "array":
            self._driver_access(obj, node, writes=False,
                                what="reads an element of")
            return UNKNOWN
        if isinstance(obj, dict):
            key = _concrete_key(idx)
            if key is not None and key in obj:
                return obj[key]
            return UNKNOWN
        if isinstance(obj, (tuple, list)):
            i = _concrete_int(idx)
            if i is not None and -len(obj) <= i < len(obj):
                return obj[i]
            return UNKNOWN
        return UNKNOWN

    def _store_item(self, obj, idx, value, node) -> None:
        if isinstance(obj, Datum) and obj.is_container:
            key = _concrete_key(idx)
            if key is None:
                obj.tainted = True
                return
            leaf, k = self._container_path(obj, key)
            if isinstance(value, Datum):
                if value.label.startswith("<"):
                    parts = key if isinstance(key, tuple) else (key,)
                    value.label = (
                        f"{obj.label}[{','.join(str(p) for p in parts)}]"
                    )
                if self.cond_depth > 0:
                    value.maybe_absent = True
            leaf.children[k] = value
            return
        if isinstance(obj, Datum) and obj.kind == "array":
            self._driver_access(obj, node, writes=True,
                                what="writes an element of")
            return
        if isinstance(obj, dict):
            key = _concrete_key(idx)
            if key is not None:
                obj[key] = value

    # -- expression evaluation ------------------------------------------

    def _eval(self, node, env: _Env):
        self._tick()
        method = getattr(self, "_eval_" + type(node).__name__, None)
        if method is None:
            return UNKNOWN
        return method(node, env)

    def _eval_Constant(self, node, env):
        return node.value

    def _eval_Name(self, node, env):
        try:
            return env.lookup(node.id)
        except KeyError:
            pass
        if node.id in _READER_BUILTINS or node.id in _PASSTHROUGH_BUILTINS \
                or node.id in ("range", "len", "enumerate", "zip", "list",
                               "tuple", "dict", "set", "reversed"):
            return _Intrinsic("builtins." + node.id)
        return UNKNOWN

    def _eval_Tuple(self, node, env):
        if any(isinstance(e, ast.Starred) for e in node.elts):
            return UNKNOWN
        return tuple(self._eval(e, env) for e in node.elts)

    def _eval_List(self, node, env):
        datum = self._new_datum("<list>", kind="list")
        for i, e in enumerate(node.elts):
            if isinstance(e, ast.Starred):
                datum.tainted = True
                self._eval(e.value, env)
                continue
            datum.children[i] = self._eval(e, env)
        return datum

    def _eval_Dict(self, node, env):
        out: dict = {}
        for k, v in zip(node.keys, node.values):
            value = self._eval(v, env)
            if k is None:
                continue
            key = _concrete_key(self._eval(k, env))
            if key is not None:
                out[key] = value
        return out

    def _eval_Set(self, node, env):
        for e in node.elts:
            self._eval(e, env)
        return UNKNOWN

    def _eval_JoinedStr(self, node, env):
        for v in node.values:
            self._eval(v, env)
        return UNKNOWN

    def _eval_FormattedValue(self, node, env):
        value = self._eval(node.value, env)
        if isinstance(value, Datum) and value.kind == "array":
            self._driver_access(value, node, writes=False,
                                what="formats the contents of")
        return UNKNOWN

    def _eval_Lambda(self, node, env):
        return _Func(node, self.module, env)

    def _eval_IfExp(self, node, env):
        test = self._eval_condition(node.test, env)
        if test is True:
            return self._eval(node.body, env)
        if test is False:
            return self._eval(node.orelse, env)
        self.cond_depth += 1
        try:
            self._eval(node.body, env)
            self._eval(node.orelse, env)
        finally:
            self.cond_depth -= 1
        return UNKNOWN

    def _eval_Subscript(self, node, env):
        obj = self._eval(node.value, env)
        idx = self._eval_index(node.slice, env)
        return self._load_item(obj, idx, node)

    def _eval_Attribute(self, node, env):
        obj = self._eval(node.value, env)
        attr = node.attr
        if isinstance(obj, _Intrinsic):
            return obj.attr(attr)
        if isinstance(obj, _Module):
            try:
                return obj.env.lookup(attr)
            except KeyError:
                return UNKNOWN
        if isinstance(obj, _RuntimeHandle):
            if attr == "barrier":
                return _BoundMethod(obj, "barrier")
            return _Intrinsic("runtime." + attr)
        if isinstance(obj, Datum):
            if attr in obj.attrs:
                return obj.attrs[attr]
            if attr == "shape" and obj.shape is not None:
                return tuple(obj.shape)
            if attr in _METADATA_ATTRS:
                return UNKNOWN
            return _BoundMethod(obj, attr)
        return UNKNOWN

    def _eval_UnaryOp(self, node, env):
        value = self._eval(node.operand, env)
        if isinstance(node.op, ast.Not):
            cond = self._truthiness(value)
            return (not cond) if isinstance(cond, bool) else UNKNOWN
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            try:
                if isinstance(node.op, ast.USub):
                    return -value
                if isinstance(node.op, ast.UAdd):
                    return +value
                if isinstance(node.op, ast.Invert) \
                        and isinstance(value, int):
                    return ~value
            except Exception:
                return UNKNOWN
        if isinstance(value, Interval) and isinstance(node.op, ast.USub):
            return -value
        if isinstance(value, Datum):
            self._read_datums([value], node)
        return UNKNOWN

    def _eval_BinOp(self, node, env):
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        return self._binop(left, right, node.op, node)

    def _binop(self, left, right, op, node):
        for v in (left, right):
            if isinstance(v, Datum) and v.kind == "array":
                self._driver_access(v, node, writes=False,
                                    what="computes with")
        if isinstance(left, bool):
            left = int(left)
        if isinstance(right, bool):
            right = int(right)
        numeric = (int, float)
        if isinstance(left, numeric) and isinstance(right, numeric):
            try:
                return {
                    ast.Add: lambda: left + right,
                    ast.Sub: lambda: left - right,
                    ast.Mult: lambda: left * right,
                    ast.Div: lambda: left / right,
                    ast.FloorDiv: lambda: left // right,
                    ast.Mod: lambda: left % right,
                    ast.Pow: lambda: left ** right,
                    ast.LShift: lambda: left << right,
                    ast.RShift: lambda: left >> right,
                    ast.BitOr: lambda: left | right,
                    ast.BitAnd: lambda: left & right,
                    ast.BitXor: lambda: left ^ right,
                }[type(op)]()
            except Exception:
                return UNKNOWN
        if isinstance(left, str) and isinstance(right, str) \
                and isinstance(op, ast.Add):
            return left + right
        if isinstance(left, tuple) and isinstance(right, tuple) \
                and isinstance(op, ast.Add):
            return left + right
        ab = {Interval, int}
        if type(left) in ab and type(right) in ab \
                and (isinstance(left, Interval)
                     or isinstance(right, Interval)):
            li, ri = Interval.of(left), Interval.of(right)
            try:
                return {
                    ast.Add: lambda: li + ri,
                    ast.Sub: lambda: li - ri,
                    ast.Mult: lambda: li * ri,
                    ast.FloorDiv: lambda: li // ri,
                    ast.Mod: lambda: li % ri,
                }[type(op)]()
            except (KeyError, ValueError):
                return UNKNOWN
        return UNKNOWN

    def _eval_BoolOp(self, node, env):
        results = [self._truthiness(self._eval(v, env))
                   for v in node.values]
        if all(isinstance(r, bool) for r in results):
            if isinstance(node.op, ast.And):
                return all(results)
            return any(results)
        return UNKNOWN

    def _eval_Compare(self, node, env):
        values = [self._eval(node.left, env)]
        values.extend(self._eval(c, env) for c in node.comparators)
        for v in values:
            if isinstance(v, Datum) and v.kind == "array" \
                    and not any(isinstance(op, (ast.Is, ast.IsNot))
                                for op in node.ops):
                self._driver_access(v, node, writes=False,
                                    what="compares the contents of")
        result: object = True
        for (left, right), op in zip(zip(values, values[1:]), node.ops):
            step = self._compare_one(left, right, op)
            if step is False:
                return False
            if not isinstance(step, bool):
                result = UNKNOWN
        return result

    def _compare_one(self, left, right, op):
        if isinstance(op, (ast.Is, ast.IsNot)):
            negate = isinstance(op, ast.IsNot)
            if right is None or left is None:
                other = left if right is None else right
                if other is None:
                    same = True
                elif isinstance(other, Datum):
                    if other.maybe_absent:
                        return UNKNOWN
                    same = False
                elif isinstance(other, (_RuntimeHandle, _Intrinsic,
                                        _Func, _TaskDef, _Module)):
                    same = False
                elif _is_scalarish(other):
                    same = other is None
                else:
                    return UNKNOWN
                return (not same) if negate else same
            return UNKNOWN
        plain = (int, float, str, bool)
        if isinstance(left, plain) and isinstance(right, plain):
            try:
                return {
                    ast.Eq: lambda: left == right,
                    ast.NotEq: lambda: left != right,
                    ast.Lt: lambda: left < right,
                    ast.LtE: lambda: left <= right,
                    ast.Gt: lambda: left > right,
                    ast.GtE: lambda: left >= right,
                }[type(op)]()
            except (KeyError, TypeError):
                return UNKNOWN
        iv = (int, Interval)
        if isinstance(left, iv) and isinstance(right, iv) \
                and not isinstance(left, bool) \
                and not isinstance(right, bool):
            li, ri = Interval.of(left), Interval.of(right)
            if isinstance(op, ast.Lt) and li.must_precede(ri):
                return True
            if isinstance(op, ast.Gt) and ri.must_precede(li):
                return True
            if isinstance(op, (ast.Eq,)) and li.must_disjoint(ri):
                return False
        return UNKNOWN

    def _truthiness(self, value):
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float, str)):
            return bool(value)
        if value is None:
            return False
        if isinstance(value, tuple):
            return bool(value)
        return UNKNOWN

    def _eval_condition(self, node, env):
        value = self._eval(node, env)
        return self._truthiness(value)

    # -- comprehensions --------------------------------------------------

    def _eval_ListComp(self, node, env):
        items = self._comp_items(node, env)
        if items is None:
            return UNKNOWN
        datum = self._new_datum("<list>", kind="list")
        datum.children.update(enumerate(items))
        return datum

    def _eval_SetComp(self, node, env):
        self._comp_items(node, env)
        return UNKNOWN

    _eval_GeneratorExp = _eval_ListComp

    def _eval_DictComp(self, node, env):
        scope = _Env(parent=env)
        out = self._comp_iterate(node.generators, 0, scope, None)
        result: dict = {}
        if out is None:
            self.cond_depth += 1
            try:
                self._eval(node.key, scope)
                self._eval(node.value, scope)
            finally:
                self.cond_depth -= 1
            return UNKNOWN
        for _ in out:
            key = _concrete_key(self._eval(node.key, scope))
            value = self._eval(node.value, scope)
            if key is not None:
                result[key] = value
        return result

    def _comp_items(self, node, env) -> Optional[list]:
        scope = _Env(parent=env)
        bindings = self._comp_iterate(node.generators, 0, scope, None)
        if bindings is None:
            self.cond_depth += 1
            try:
                self._eval(node.elt, scope)
            finally:
                self.cond_depth -= 1
            return None
        return [self._eval(node.elt, scope) for _ in bindings]

    def _comp_iterate(self, generators, index, scope, _unused):
        """Yield one sentinel per concrete binding combination (with the
        bindings applied in *scope*), or None when not concretely
        iterable."""

        if index >= len(generators):
            return [object()]
        gen = generators[index]
        iterable = self._eval(gen.iter, scope)
        items = self._concrete_items(iterable)
        if items is None or len(items) > self.opt.max_unroll:
            self._assign(gen.target, UNKNOWN, scope)
            for cond in gen.ifs:
                self._eval(cond, scope)
            return None
        out = []
        for item in items:
            self._assign(gen.target, item, scope)
            keep = True
            for cond in gen.ifs:
                test = self._eval_condition(cond, scope)
                if test is False:
                    keep = False
                    break
                if test is not True:
                    return None
            if not keep:
                continue
            inner = self._comp_iterate(generators, index + 1, scope, None)
            if inner is None:
                return None
            out.extend(inner)
        return out

    def _concrete_items(self, iterable) -> Optional[list]:
        if isinstance(iterable, _RangeValue):
            conc = iterable.concrete()
            if conc is None:
                return None
            if len(conc) > max(self.opt.max_unroll * 16, 4096):
                return None
            return list(conc)
        if isinstance(iterable, tuple):
            return list(iterable)
        if isinstance(iterable, list):
            return iterable
        if isinstance(iterable, dict):
            return list(iterable.keys())
        if isinstance(iterable, Datum) and iterable.kind == "list" \
                and not iterable.tainted:
            keys = sorted(k for k in iterable.children
                          if isinstance(k, int))
            if len(keys) == len(iterable.children):
                return [iterable.children[k] for k in keys]
        return None

    # -- calls -----------------------------------------------------------

    def _eval_Call(self, node, env):
        func = self._eval(node.func, env)
        args = []
        for a in node.args:
            if isinstance(a, ast.Starred):
                spread = self._eval(a.value, env)
                if isinstance(spread, tuple):
                    args.extend(spread)
                else:
                    items = self._concrete_items(spread)
                    if items is None:
                        args.append(UNKNOWN)
                    else:
                        args.extend(items)
            else:
                args.append(self._eval(a, env))
        kwargs = {}
        for kw in node.keywords:
            value = self._eval(kw.value, env)
            if kw.arg is not None:
                kwargs[kw.arg] = value

        if isinstance(func, _TaskDef):
            if self.runtime_depth > 0:
                self._submit(func, args, kwargs, node)
            return None
        if isinstance(func, _Func):
            return self._call_func(func, args, kwargs, node)
        if isinstance(func, _BoundMethod):
            return self._call_method(func, args, kwargs, node)
        if isinstance(func, _Intrinsic):
            return self._call_intrinsic(func.name, args, kwargs, node)
        return UNKNOWN

    def _call_func(self, fn: _Func, args, kwargs, node):
        if self._depth >= _MAX_DEPTH:
            return UNKNOWN
        fnode = fn.node
        frame = _Env(parent=fn.env)
        spec = fnode.args
        params = [a.arg for a in spec.args]
        for name, value in zip(params, args):
            frame.assign(name, value)
        if spec.vararg is not None:
            frame.assign(spec.vararg.arg, tuple(args[len(params):]))
        for name, value in kwargs.items():
            if name in params or any(a.arg == name for a in spec.kwonlyargs):
                frame.assign(name, value)
        defaults = spec.defaults
        if defaults:
            tail = params[len(params) - len(defaults):]
            for name, dnode in zip(tail, defaults):
                if name not in frame.vars:
                    frame.assign(name, self._eval(dnode, fn.env))
        for a, d in zip(spec.kwonlyargs, spec.kw_defaults):
            if a.arg not in frame.vars and d is not None:
                frame.assign(a.arg, self._eval(d, fn.env))
        for name in params:
            frame.vars.setdefault(name, UNKNOWN)
        if spec.kwarg is not None:
            frame.assign(spec.kwarg.arg, dict(kwargs))

        self._depth += 1
        cross = fn.module is not self.module
        if cross:
            self._module_stack.append(fn.module)
        try:
            if isinstance(fnode, ast.Lambda):
                return self._eval(fnode.body, frame)
            self._exec_block(fnode.body, frame)
            return None
        except _Return as ret:
            return ret.value
        finally:
            if cross:
                self._module_stack.pop()
            self._depth -= 1

    def _call_method(self, bound: _BoundMethod, args, kwargs, node):
        obj, name = bound.obj, bound.method
        if isinstance(obj, _RuntimeHandle):
            if name == "barrier":
                self._sync(node, explicit=True)
            return None
        if not isinstance(obj, Datum):
            return UNKNOWN
        self._read_datums(args, node)
        if obj.kind in ("list", "dict"):
            if name == "append":
                keys = [k for k in obj.children if isinstance(k, int)]
                obj.children[(max(keys) + 1) if keys else 0] = \
                    args[0] if args else UNKNOWN
            elif name in _LIST_METHODS or name in ("get", "keys",
                                                   "values", "items",
                                                   "setdefault", "update"):
                if name not in ("index", "count", "get", "keys",
                                "values", "items"):
                    obj.tainted = True
            return UNKNOWN
        if name in _PURE_METHODS:
            self._driver_access(obj, node, writes=False,
                                what=f"calls .{name}() on")
            if obj.kind == "array" and name in ("copy", "astype"):
                return self._new_datum(f"<{name} of {obj.label}>",
                                       shape=obj.shape)
            if obj.kind == "array" and name in ("ravel", "flatten",
                                                "reshape", "transpose",
                                                "view", "conj"):
                return self._new_datum(f"<{name} of {obj.label}>")
            return UNKNOWN
        if name in _MUTATOR_METHODS:
            self._driver_access(obj, node, writes=True,
                                what=f"calls mutating .{name}() on")
            return UNKNOWN
        # unknown method: may read and write the object
        self._driver_access(obj, node, writes=True,
                            what=f"calls .{name}() on")
        return UNKNOWN

    def _shape_from(self, value) -> Optional[tuple]:
        i = _concrete_int(value)
        if i is not None:
            return (i,)
        if isinstance(value, tuple):
            dims = tuple(_concrete_int(v) for v in value)
            if all(d is not None for d in dims):
                return dims
        return None

    def _call_intrinsic(self, name, args, kwargs, node):
        last = name.rsplit(".", 1)[-1]
        top = name.split(".", 1)[0]

        if name in ("SmpssRuntime", "RecordingRuntime"):
            return _RuntimeHandle()
        if name in ("record_program", "simulate_program"):
            return self._run_recorded(args, kwargs, node)
        if name == "barrier" or last == "__css_barrier__":
            if self.runtime_depth > 0:
                self._sync(node, explicit=True)
            return None
        if name == "wait_on" or last == "__css_wait_on__":
            if args:
                self._wait_on(args[0], node)
            return None
        if name == "current_runtime" or last == "__css_runtime__":
            return _RuntimeHandle() if self.runtime_depth > 0 else None
        if name == "SharedArena":
            return _Intrinsic("arena")
        if name == "arena_array" or (top == "arena"
                                     and last in ("zeros", "ones", "empty",
                                                  "array", "full")):
            return self._new_array("<arena array>", args, node)
        if name in ("HyperMatrix", "HyperMatrix.random_spd"):
            datum = self._new_datum("<hypermatrix>", kind="hyper")
            for attr, arg in zip("nm", args):
                if (value := _concrete_int(arg)) is not None:
                    datum.attrs[attr] = value
            return datum
        if name == "Representant":
            self._read_datums(args, node)
            return self._new_datum("<representant>", kind="object",
                                   renamable=False)
        if name == "RepresentantTable":
            return _Intrinsic("reptable")

        if top == "numpy":
            return self._call_numpy(name, last, args, kwargs, node)
        if top == "math":
            fn = getattr(math, last, None)
            conc = [a for a in args if isinstance(a, (int, float))
                    and not isinstance(a, bool)]
            if fn is not None and len(conc) == len(args):
                try:
                    return fn(*conc)
                except Exception:
                    return UNKNOWN
            return UNKNOWN
        if top == "builtins":
            return self._call_builtin(last, args, kwargs, node)
        return UNKNOWN

    def _run_recorded(self, args, kwargs, node):
        """Model record_program / simulate_program: a fresh recording
        runtime wrapping one driver call.  Tasks either ran eagerly by
        the time it returns or were never executed at all, so data is
        consistent afterwards: an implicit sync on both sides."""

        if not args:
            return _Intrinsic("recording")
        fn, rest = args[0], list(args[1:])
        self._sync()
        self.runtime_depth += 1
        try:
            if isinstance(fn, _Func):
                self._call_func(fn, rest, {}, node)
            elif isinstance(fn, _TaskDef):
                self._submit(fn, rest, {}, node)
        finally:
            self.runtime_depth -= 1
            self._sync()
        return _Intrinsic("recording")

    def _new_array(self, label, args, node):
        """An array constructor's result: shaped by its first argument
        (a shape, or an array to copy), which it reads."""

        self._read_datums(args, node)
        shape = self._shape_from(args[0]) if args else None
        if shape is None and args and isinstance(args[0], Datum):
            shape = args[0].shape
        return self._new_datum(label, shape=shape)

    def _call_numpy(self, name, last, args, kwargs, node):
        if last in _NP_CONSTRUCTORS:
            return self._new_array("<ndarray>", args, node)
        if last == "default_rng":
            return _Intrinsic("numpy.rng")
        if ".rng." in name + "." and last in _RNG_METHODS \
                or last in _RNG_METHODS:
            shape = self._shape_from(args[0]) if args else None
            if shape is None:
                shape = self._shape_from(kwargs.get("size"))
            return self._new_datum("<ndarray>", shape=shape)
        # every other numpy function reads its array arguments
        self._read_datums(list(args) + list(kwargs.values()), node)
        return UNKNOWN

    def _call_builtin(self, last, args, kwargs, node):
        arg0 = args[0] if args else UNKNOWN
        if last == "range":
            vals = [a if isinstance(a, (int, Interval))
                    and not isinstance(a, bool) else UNKNOWN for a in args]
            while len(vals) < 3:
                vals.append(UNKNOWN)
            if len(args) == 1:
                return _RangeValue(0, vals[0], 1)
            step = vals[2] if len(args) > 2 else 1
            return _RangeValue(vals[0], vals[1], step)
        if last == "len":
            if isinstance(arg0, Datum):
                if arg0.kind == "list" and not arg0.tainted:
                    return len(arg0.children)
                if arg0.shape:
                    return arg0.shape[0]
                n = arg0.attrs.get("n")
                return n if isinstance(n, int) else UNKNOWN
            if isinstance(arg0, (tuple, dict, str)):
                return len(arg0)
            return UNKNOWN
        if last == "enumerate":
            items = self._concrete_items(arg0)
            if items is None:
                return UNKNOWN
            start = _concrete_int(args[1]) if len(args) > 1 else 0
            if start is None:
                return UNKNOWN
            return [(start + i, v) for i, v in enumerate(items)]
        if last == "zip":
            columns = [self._concrete_items(a) for a in args]
            if any(c is None for c in columns):
                return UNKNOWN
            return [tuple(vs) for vs in zip(*columns)]
        if last in ("list", "tuple", "sorted", "reversed"):
            items = self._concrete_items(arg0)
            if items is None:
                self._read_datums(args, node)
                return UNKNOWN
            if last == "tuple":
                return tuple(items)
            if last == "reversed":
                items = list(reversed(items))
            if last == "sorted":
                try:
                    items = sorted(items)
                except TypeError:
                    pass
            datum = self._new_datum("<list>", kind="list")
            datum.children.update(enumerate(items))
            return datum
        if last in _READER_BUILTINS:
            self._read_datums(list(args) + list(kwargs.values()), node)
            if last in ("int", "float", "abs", "round") \
                    and isinstance(arg0, (int, float)) \
                    and not isinstance(arg0, bool):
                try:
                    return {"int": int, "float": float, "abs": abs,
                            "round": round}[last](arg0)
                except Exception:
                    return UNKNOWN
            if last in ("min", "max", "sum") \
                    and args and all(
                        isinstance(a, (int, float))
                        and not isinstance(a, bool) for a in args):
                try:
                    return {"min": min, "max": max,
                            "sum": sum}[last](*args)
                except Exception:
                    return UNKNOWN
            return UNKNOWN
        return UNKNOWN

    # -- finalisation ----------------------------------------------------

    def finalize(self) -> None:
        self._sync()
        self._flush_renaming_pressure()


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def _suppression_filter(findings: list[Finding],
                        indices: dict[str, SuppressionIndex]) -> list[Finding]:
    kept = []
    for f in findings:
        index = indices.get(f.file)
        if index is None:
            try:
                index = SuppressionIndex.from_source(
                    Path(f.file).read_text(encoding="utf-8")
                )
            except (OSError, SyntaxError):
                index = SuppressionIndex.from_source("")
            indices[f.file] = index
        if not index.is_suppressed(f.rule, f.line):
            kept.append(f)
    return kept


def flow_source(
    source: str,
    filename: str = "<flow>",
    *,
    entry: Optional[str] = None,
    options: Optional[FlowOptions] = None,
) -> FlowResult:
    """Analyze one driver program; returns findings plus the skeleton.

    With *entry* the module body runs under its own name (``__main__``
    guards stay cold) and then ``entry()`` is interpreted; without it
    the module is analyzed as the main program.
    """

    options = options or FlowOptions()
    interp = _Interp(options)
    name = "__main__" if entry is None else Path(filename).stem
    module = interp.load_root(source, filename, name)
    if entry is not None:
        try:
            fn = module.env.lookup(entry)
        except KeyError:
            raise ValueError(
                f"entry point {entry!r} not found in {filename}"
            ) from None
        interp._module_stack.append(module)
        try:
            if isinstance(fn, _Func):
                interp._call_func(fn, [], {}, module_node_stub(fn))
            elif isinstance(fn, _TaskDef):
                interp._run_recorded([fn], {}, module_node_stub(fn))
            else:
                raise ValueError(f"entry point {entry!r} is not a function")
        except (_OutOfBudget, _Return):
            pass
        finally:
            interp._module_stack.pop()
    interp.finalize()

    indices = {filename: SuppressionIndex.from_source(source)}
    findings = _suppression_filter(interp.findings, indices)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return FlowResult(findings=findings, program=interp.program)


def module_node_stub(fn) -> ast.AST:
    """A location-bearing node for calls synthesised by the driver."""

    node = getattr(fn, "node", None)
    if node is not None:
        return node
    stub = ast.Pass()
    stub.lineno, stub.col_offset = 1, 0
    return stub


def flow_file(
    path: str | Path,
    *,
    entry: Optional[str] = None,
    options: Optional[FlowOptions] = None,
) -> FlowResult:
    path = Path(path)
    return flow_source(
        path.read_text(encoding="utf-8"), str(path),
        entry=entry, options=options,
    )


def flow_paths(
    paths: Iterable[str | Path],
    *,
    options: Optional[FlowOptions] = None,
) -> list[Finding]:
    """Analyze files/directories; returns all surviving findings."""

    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py" or p.is_file():
            files.append(p)
        else:
            raise OSError(f"no such file or directory: {p}")
    findings: list[Finding] = []
    for f in files:
        findings.extend(flow_file(f, options=options).findings)
    return findings


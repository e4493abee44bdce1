"""Task model for the SMPSs runtime.

This module defines the static side of the programming model: a
:class:`TaskDefinition` is created for every function annotated with a
``#pragma css task`` construct (section II of the paper), and a
:class:`TaskInstance` is created for every *invocation* of such a
function while a runtime is active.

Terminology follows the paper:

* *directionality clauses* — ``input`` / ``output`` / ``inout`` declare
  whether each parameter is read, written, or both (section II);
* *dimension specifiers* — ``a[M][M]`` give the shape of an array
  parameter so the runtime knows its size;
* *array region specifiers* — ``data{i..j}`` restrict the access to a
  sub-region (section V.A, the language extension);
* *opaque parameters* — ``void *`` pointers in the paper; they "pass
  through the runtime unaltered and are not considered in the task
  dependency analysis".
"""

from __future__ import annotations

import enum
import inspect
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence

__all__ = [
    "Direction",
    "TaskState",
    "ParamAccess",
    "TaskDefinition",
    "TaskInstance",
    "InvocationError",
]


class Direction(enum.Enum):
    """Directionality of a task parameter (section II)."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"
    #: ``void *`` analogue: skipped by the dependency analysis.
    OPAQUE = "opaque"

    @property
    def reads(self) -> bool:
        return self in (Direction.INPUT, Direction.INOUT)

    @property
    def writes(self) -> bool:
        return self in (Direction.OUTPUT, Direction.INOUT)


class TaskState(enum.Enum):
    """Lifecycle of a task instance inside the runtime."""

    #: Created, dependency analysis done, still has unsatisfied inputs.
    BLOCKED = "blocked"
    #: All input dependencies satisfied; sitting in some ready list.
    READY = "ready"
    #: Currently executing on a worker (or the main thread).
    RUNNING = "running"
    #: Finished; its successors may have become ready.
    FINISHED = "finished"


class ParamAccess(NamedTuple):
    """One concrete (datum, region, direction) access of a task instance.

    The dependency engine consumes a flat list of these.  A parameter
    that appears in several directionality clauses with different
    regions (allowed by section V.A: "a single parameter may appear
    several times in the directionality clauses") contributes one
    :class:`ParamAccess` per appearance.

    A ``NamedTuple`` rather than a (frozen) dataclass: construction is a
    single C-level tuple build, and one to two of these are created per
    task submission — the paper's per-``task_add`` overhead.
    """

    name: str
    direction: Direction
    #: The user-visible object passed at the call site.
    value: Any
    #: Resolved region (a ``Region``; ``None`` means the whole object).
    region: Any = None
    #: Index of the parameter in the function signature.
    position: int = -1


class InvocationError(TypeError):
    """Raised when a call site does not match the task declaration."""


#: A task's edge sets until its first edge: most never get one.
NO_EDGES: frozenset = frozenset()

_task_counter = itertools.count(1)
_counter_lock = threading.Lock()


def reset_task_ids() -> None:
    """Restart instance numbering (used by tests and the recorder).

    Figure 5 of the paper numbers tasks by invocation order starting at
    1; runtimes call this so that freshly built graphs match.
    """

    global _task_counter
    with _counter_lock:
        _task_counter = itertools.count(1)


@dataclass
class TaskDefinition:
    """Static description of a task: the parsed pragma + the function.

    One per annotated function, shared by all its invocations.
    """

    func: Callable[..., Any]
    #: ``pragma.ParamSpec`` objects in declaration order.
    params: Sequence[Any]
    high_priority: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = getattr(self.func, "__name__", "<task>")
        self._signature = inspect.signature(self.func)
        #: ordered parameter names, for the zero-overhead bind fast path
        self.param_names: tuple[str, ...] = tuple(self._signature.parameters)
        #: parameter name -> position, cached for access building
        self.positions: dict[str, int] = {
            name: idx for idx, name in enumerate(self.param_names)
        }
        #: True when any declared parameter carries dimension or region
        #: specifiers (bounds the invocation plan resolves per call).
        self.needs_expressions: bool = any(
            getattr(p, "dims", ()) or getattr(p, "regions", ()) for p in self.params
        )
        #: parameter name -> set of declared directions.  A parameter
        #: may appear in several clauses with different regions, so this
        #: is a set union (used by the repro.check sanitizer).  Undeclared
        #: parameters are by-value scalars, like the paper's.
        self.directions_by_name: dict[str, set[Direction]] = {}
        for p in self.params:
            self.directions_by_name.setdefault(p.name, set()).add(p.direction)
        #: Call positions of the OPAQUE parameters (the ones the tracker
        #: ignores, so a remote write through them is never copied home).
        self.opaque_positions = frozenset(
            self.positions[p.name] for p in self.params
            if p.direction is Direction.OPAQUE and p.name in self.positions)
        #: Precompiled invocation plan, attached lazily by
        #: :func:`repro.core.invocation.plan_for` (kept off this module
        #: to avoid a task -> invocation import cycle).
        self._invocation_plan = None

    @property
    def signature(self) -> inspect.Signature:
        return self._signature

    def bind_dict(self, args: tuple, kwargs: dict) -> dict:
        """Bind a call site to parameter names, applying defaults (the
        invocation plan binds positional calls without it)."""

        try:
            bound = self._signature.bind(*args, **kwargs)
        except TypeError as exc:  # surface the task name in the error
            raise InvocationError(f"task {self.name!r}: {exc}") from exc
        bound.apply_defaults()
        return dict(bound.arguments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        clauses = ", ".join(f"{p.direction.value}({p.name})" for p in self.params)
        return f"TaskDefinition({self.name}: {clauses})"


class TaskInstance:
    """One dynamic invocation of a task (a node of the task graph).

    A plain ``__slots__`` class with a hand-written ``__init__``: one of
    these is allocated per submission, so the generated-dataclass
    machinery (per-field defaults resolution, ``__set_name__`` walks)
    is measurable overhead on the fast path.  Equality and hashing are
    ``object``'s (identity, in C): an edge set's iteration order is
    therefore arbitrary, and whoever needs an order sorts by
    ``task_id``.
    """

    __slots__ = (
        "definition",
        "_accesses",
        "_arguments",
        "call_values",
        "task_id",
        "high_priority",
        "state",
        "num_pending_deps",
        "predecessors",
        "successors",
        "executed_by",
        "domain",
        "reads",
        "writes",
        "sanitizer_state",
    )

    def __init__(
        self,
        definition: TaskDefinition,
        accesses: Optional[list],
        arguments: Optional[dict],
        task_id: Optional[int] = None,
        high_priority: bool = False,
        call_values: Optional[tuple] = None,
    ) -> None:
        self.definition = definition
        self._accesses = accesses
        self._arguments = arguments
        #: Bound argument values in positional (signature) order, set by
        #: the invocation plan for every call.  ``arguments`` and, for a
        #: task without specifiers, ``accesses`` derive lazily from it —
        #: the dependency engine reads the plan's access specs + this
        #: tuple directly, so such a submission allocates neither.
        self.call_values = call_values
        self.task_id = next(_task_counter) if task_id is None else task_id
        self.high_priority = high_priority
        self.state = TaskState.BLOCKED
        # --- graph bookkeeping (maintained by core.graph.TaskGraph) ---
        #: number of incomplete true-dependency predecessors
        self.num_pending_deps = 0
        self.predecessors: set = NO_EDGES
        self.successors: set = NO_EDGES
        # --- runtime bookkeeping --------------------------------------
        #: worker index that executed the task (-1: not yet / main 0)
        self.executed_by = -1
        #: the GraphDomain that analysed this instance (where the worker
        #: loop completes it); None for runtimes with a graph of their own
        self.domain = None
        #: versions this instance reads / writes (dependency engine)
        self.reads: list = []
        self.writes: list = []
        #: snapshots taken by the access sanitizer (None: sanitize off)
        self.sanitizer_state: Any = None

    @property
    def accesses(self) -> list:
        """One :class:`ParamAccess` per clause appearance (lazy)."""

        acc = self._accesses
        if acc is None:
            values = self.call_values
            acc = self._accesses = [
                ParamAccess(name, direction, values[pos], None, pos)
                for name, direction, pos
                in self.definition._invocation_plan.access_specs
            ]
        return acc

    def written(self):
        """``(position, region)`` of each clause appearance that writes.
        Accesses never materialised carry no region, and stay that way."""

        if self._accesses is None:
            return self.definition._invocation_plan.written
        return [(a.position, a.region) for a in self._accesses
                if a.direction.writes]

    @property
    def arguments(self) -> dict:
        """Values for every parameter as bound at the call site (lazy)."""

        args = self._arguments
        if args is None:
            args = self._arguments = dict(
                zip(self.definition.param_names, self.call_values)
            )
        return args

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def is_ready(self) -> bool:
        return self.num_pending_deps == 0 and self.state is TaskState.BLOCKED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Task #{self.task_id} {self.name} {self.state.value}>"

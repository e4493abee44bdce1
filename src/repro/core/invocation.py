"""Binding a call site to a task declaration.

Turns ``(TaskDefinition, args, kwargs)`` into the
:class:`~repro.core.task.TaskInstance` the dependency engine consumes —
evaluating dimension and array-region bounds against the actual
argument values, exactly when the paper's runtime would ("the runtime
takes the memory address, size and directionality of each parameter at
each task invocation").

:func:`plan_for` precompiles, once per :class:`TaskDefinition`, an
:class:`InvocationPlan` of everything that does not depend on argument
*values*: parameter order, per-clause direction/position tuples, the
defaults tail, and every bound as data one resolver reads (a parameter
position, a constant, or an expression over the names it references).
Every call shape binds to that one tuple, so a task without specifiers
allocates nothing else and a region task one ``Region`` and one
``ParamAccess`` per region access, both built as C-level tuples: the
paper's per-``task_add`` overhead, which caps fine-grained submission.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .pragma import Expr, PragmaError
from .regions import FULL_DIM, Region, RegionError, check_intervals
from .renaming import StorageKind
from .task import InvocationError, ParamAccess, TaskDefinition, TaskInstance

__all__ = ["InvocationPlan", "instantiate", "plan_for"]

_INTS = (int, np.integer)
_new = tuple.__new__


def _bound(expr: Expr, positions: dict) -> tuple:
    """One bound or dimension as data the resolver reads:
    ``(position, None)`` for a bare parameter name, ``(None, value)``
    for an integer literal, and ``(None, (expr, slots))`` for any other
    expression, over the ``(name, position)`` slots it references."""

    source = expr.source.strip()
    if source.isdecimal():
        return None, int(source)
    pos = positions.get(source)
    if pos is not None:
        return pos, None
    return None, (expr, tuple(
        (name, positions.get(name)) for name in sorted(expr.names())))


def _value(pos, value, values: tuple, constants, clause: tuple) -> int:
    """A bound that is not a plain ``int`` already: an ``np.integer``
    argument (never a ``bool``), or an expression evaluated over the
    names it references.  Any other argument raises."""

    if pos is None:
        expr, slots = value
        return expr.evaluate(_env(slots, values, constants, clause))
    if isinstance(value, _INTS) and not isinstance(value, bool):
        return int(value)
    raise InvocationError(
        f"task {clause[0]!r}: parameter {clause[6][pos]!r} bounds {clause[2]}:"
        f" bounds take int or np.integer, got {type(value).__name__} {value!r}")


def _env(slots: tuple, values: tuple, constants: Optional[dict],
         clause: tuple) -> dict:
    """The environment of one expression for one call: each referenced
    parameter is its integer argument, any other name the constant of
    that name, else absent."""

    env = {}
    for name, pos in slots:
        if pos is not None:
            env[name] = _value(pos, values[pos], values, constants, clause)
        elif constants and name in constants:
            env[name] = constants[name]
    return env


def _clause(definition: TaskDefinition, spec, positions: dict) -> tuple:
    """The resolver's data for one clause appearance with specifiers:
    ``(task, param, label, dims, regions, computed, param names)``."""

    regions = tuple(None if r.full else (_bound(r.lower, positions), _bound(
        r.upper, positions), r.is_length) for r in spec.regions)
    return (definition.name, spec.name, str(spec),
            tuple(_bound(dim, positions) for dim in spec.dims), regions,
            tuple(r is not None for r in regions), definition.param_names)


def _resolve(clause: tuple, value, values: tuple, constants):
    """The region of one clause appearance for one call (``None`` when
    it declares dimensions only), after checking an ndarray argument
    against the evaluable dimensions."""

    task, param, label, dims, regions, computed, _names = clause
    if isinstance(value, np.ndarray):
        shape = value.shape
    else:
        try:
            shape = (len(value),)
        except TypeError:
            shape = ()
    declared = ()
    if dims and (regions or isinstance(value, np.ndarray)):
        declared = []
        for pos, extent in dims:
            extent = extent if pos is None else values[pos]
            if extent.__class__ is not int:
                try:
                    extent = _value(pos, extent, values, constants, clause)
                except PragmaError:
                    extent = None  # an unknown constant: skip
            declared.append(extent)
        if isinstance(value, np.ndarray) and None not in declared \
                and tuple(declared) != shape:
            raise InvocationError(
                f"task {task!r}: parameter {param!r} declared as {label} "
                f"(shape {tuple(declared)}) but the argument has shape "
                f"{shape}"
            )
    if not regions:
        return None
    intervals = []
    bad = False
    for d, bounds in enumerate(regions):
        extent = declared[d] if d < len(declared) else None
        if extent is None and d < len(shape):
            extent = shape[d]
        if bounds is None:  # {}: the whole dimension
            intervals.append(FULL_DIM if extent is None else (0, extent - 1))
            bad = bad or extent is not None and extent < 0
            continue
        (lpos, lo), (hpos, hi), is_length = bounds
        lo = lo if lpos is None else values[lpos]
        hi = hi if hpos is None else values[hpos]
        try:
            if lo.__class__ is not int:
                lo = _value(lpos, lo, values, constants, clause)
            if hi.__class__ is not int:
                hi = _value(hpos, hi, values, constants, clause)
            if is_length:
                if hi < 0:
                    raise PragmaError(f"negative region length {hi}")
                hi += lo - 1
        except PragmaError as exc:
            raise InvocationError(
                f"task {task!r}: cannot resolve region of parameter "
                f"{param!r}: {exc}"
            ) from exc
        if extent is not None and hi >= extent:
            raise InvocationError(
                f"task {task!r}: region {{{lo}..{hi}}} of parameter "
                f"{param!r} exceeds its extent {extent}"
            )
        bad = bad or lo < 0 or hi < lo
        intervals.append((lo, hi))
    if bad:  # a computed (0, -1) is empty too, not FULL_DIM
        try:
            check_intervals(tuple(intervals), computed)
        except RegionError as exc:
            raise InvocationError(
                f"task {task!r}: invalid region for parameter {param!r}: "
                f"{exc}"
            ) from exc
    return _new(Region, intervals)


class InvocationPlan:
    """Precompiled call-site binding for one :class:`TaskDefinition`:
    ordered parameter names, the ``(name, direction, position)`` triple
    of every clause appearance, the defaults tail, and — when any clause
    has dimension/region specifiers — that triple plus the resolver's
    data of every clause appearance (``None`` for one without)."""

    __slots__ = (
        "definition",
        "param_names",
        "n_params",
        "n_required",
        "defaults_tail",
        "access_specs",
        "clauses",
        "written",
        "high_priority",
        "own_constants",
    )

    def __init__(self, definition: TaskDefinition):
        self.definition = definition
        self.param_names = definition.param_names
        self.n_params = len(definition.param_names)
        positions = definition.positions
        # Defaults tail: positional calls that omit trailing defaulted
        # parameters bind without touching inspect.Signature.bind.
        defaults: list = []
        for name, param in definition.signature.parameters.items():
            if param.default is not param.empty:
                defaults.append(param.default)
            elif defaults:
                defaults.clear()  # non-default after default: signature
                break             # error at def time; stay conservative
        self.defaults_tail = tuple(defaults)
        self.n_required = self.n_params - len(self.defaults_tail)
        for spec in definition.params:
            if spec.name not in positions:
                raise InvocationError(
                    f"task {definition.name!r}: declared parameter "
                    f"{spec.name!r} missing from the call"
                )
        self.access_specs = tuple(
            (spec.name, spec.direction, positions[spec.name])
            for spec in definition.params
        )
        self.clauses = tuple(
            (*specs, _clause(definition, spec, positions)
             if spec.dims or spec.regions else None)
            for specs, spec in zip(self.access_specs, definition.params)
        ) if definition.needs_expressions else None
        #: :meth:`TaskInstance.written` of an instance without regions.
        self.written = tuple(
            (pos, None) for _n, d, pos in self.access_specs if d.writes)
        self.high_priority = definition.high_priority
        self.own_constants = getattr(definition, "constants", None) or None

    def instantiate(
        self, args: tuple, kwargs: dict, constants: Optional[dict] = None
    ) -> TaskInstance:
        """Bind + build accesses + create the dynamic task instance."""

        n = len(args)
        arguments = None
        if not kwargs and self.n_required <= n <= self.n_params:
            if n < self.n_params:
                args = args + self.defaults_tail[n - self.n_required:]
        else:
            arguments = self.definition.bind_dict(args, kwargs)
            args = tuple(arguments.values())
        # Every shape is now the positional value tuple: accesses and
        # arguments of a task without specifiers derive from it lazily
        # (TaskInstance.call_values); nothing else is allocated.
        accesses = None
        clauses = self.clauses
        if clauses is not None:
            # Dimension/region specifiers: resolve them against the
            # actual argument values (the paper's section V.A).
            if self.own_constants:
                constants = {**constants, **self.own_constants} \
                    if constants else self.own_constants
            accesses = []
            for name, direction, pos, clause in clauses:
                value = args[pos]
                accesses.append(_new(ParamAccess, (name, direction, value, (
                    clause and _resolve(clause, value, args, constants)), pos)))
        return TaskInstance(self.definition, accesses, arguments, None,
                            self.high_priority, args)


def plan_for(definition: TaskDefinition) -> InvocationPlan:
    """The (cached) precompiled invocation plan of *definition*."""

    plan = definition._invocation_plan
    if plan is None:
        # Benign race: two threads building the same plan produce
        # equivalent objects; last store wins.
        plan = definition._invocation_plan = InvocationPlan(definition)
    return plan


def instantiate(
    definition: TaskDefinition,
    args: tuple,
    kwargs: dict,
    constants: Optional[dict] = None,
) -> TaskInstance:
    """Bind + build accesses + create the dynamic task instance.

    Thin wrapper over the definition's precompiled
    :class:`InvocationPlan`; every runtime front-end funnels through
    the same plan, so they all share the fast path.
    """

    return plan_for(definition).instantiate(args, kwargs, constants)


def resolve_call_values(task: TaskInstance, sanitizer=None) -> list:
    """Concrete argument values for executing *task*.

    Whole-object tracked parameters resolve to their version's storage
    (which is where renaming redirects reads and writes); everything
    else (scalars, opaque values, region-mode objects whose storage is
    always the user's buffer) resolves to the captured value.  When a
    *sanitizer* is active, the resolved values pass through its
    :meth:`~repro.check.sanitize.Sanitizer.wrap` (read-only guards on
    non-written parameters, write tracking on the rest).
    """

    values = list(task.call_values)
    positions = task.definition.positions
    for name, version in (*task.reads, *task.writes):
        datum = version.datum
        if not datum.region_mode:
            # resolve_storage, flat: read the storage owner (root) once.
            root = version._root or version
            storage = (datum.base if root.kind is StorageKind.INITIAL
                       else root._storage)
            values[positions[name]] = (
                root.resolve_storage() if storage is None else storage)
    if sanitizer is not None:
        values = sanitizer.wrap(task, values)
    return values

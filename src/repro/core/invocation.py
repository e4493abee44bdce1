"""Binding a call site to a task declaration.

Turns ``(TaskDefinition, args, kwargs)`` into the flat list of
:class:`~repro.core.task.ParamAccess` records the dependency engine
consumes — evaluating dimension specifiers and array-region bounds
against the actual argument values, exactly when the paper's runtime
would ("the runtime takes the memory address, size and directionality
of each parameter at each task invocation").

The per-call work is precompiled: :func:`plan_for` builds (once per
:class:`TaskDefinition`) an :class:`InvocationPlan` holding everything
that does not depend on argument *values* — parameter order, per-clause
direction/position tuples, the defaults tail for short positional
calls, and whether any clause needs expression evaluation at all.  The
common task shape (plain positional call, no dimension or region
specifiers) then instantiates with two dict builds and zero ``inspect``
machinery — this is the paper's per-``task_add`` overhead, the cost
that caps submission throughput for fine-grained applications.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .pragma import PragmaError
from .regions import FULL_DIM, Region, RegionError
from .task import InvocationError, ParamAccess, TaskDefinition, TaskInstance

__all__ = ["InvocationPlan", "build_accesses", "instantiate", "plan_for"]


def _expression_env(arguments: dict, constants: Optional[dict]) -> dict:
    env = dict(constants) if constants else {}
    for name, value in arguments.items():
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            env[name] = int(value)
    return env


def _evaluate_dims(spec, env: dict) -> list[Optional[int]]:
    extents: list[Optional[int]] = []
    for dim in spec.dims:
        try:
            extents.append(dim.evaluate(env))
        except PragmaError:
            extents.append(None)  # references an unknown constant: skip
    return extents


def _shape_extents(value: Any) -> tuple:
    if isinstance(value, np.ndarray):
        return value.shape
    try:
        return (len(value),)
    except TypeError:
        return ()


def build_accesses(
    definition: TaskDefinition,
    arguments: dict,
    constants: Optional[dict] = None,
) -> list[ParamAccess]:
    """Produce one :class:`ParamAccess` per clause appearance."""

    # Expression evaluation (dimension/region bounds) is only needed
    # when the pragma actually uses it — the common tile tasks skip it.
    env = (
        _expression_env(arguments, constants)
        if definition.needs_expressions
        else None
    )
    positions = definition.positions
    accesses: list[ParamAccess] = []
    for spec in definition.params:
        if spec.name not in arguments:
            raise InvocationError(
                f"task {definition.name!r}: declared parameter {spec.name!r} "
                f"missing from the call"
            )
        value = arguments[spec.name]
        if spec.dims and isinstance(value, np.ndarray):
            _check_dims(definition, spec, value, env)
        region = None
        if spec.regions:
            region = _resolve_region(definition, spec, value, env)
        accesses.append(
            ParamAccess(
                name=spec.name,
                direction=spec.direction,
                value=value,
                region=region,
                position=positions.get(spec.name, -1),
            )
        )
    return accesses


def _check_dims(definition, spec, value: np.ndarray, env: Optional[dict]) -> None:
    """Validate declared dimension specifiers against the real array.

    The paper's runtime "requires its size for proper operation";
    evaluable mismatched dimensions are programming errors we can catch
    at invocation time.  Dimensions referencing unknown constants are
    skipped.
    """

    declared = _evaluate_dims(spec, env or {})
    if any(d is None for d in declared):
        return
    if len(declared) != value.ndim or tuple(declared) != value.shape:
        raise InvocationError(
            f"task {definition.name!r}: parameter {spec.name!r} declared "
            f"as {spec} (shape {tuple(declared)}) but the argument has "
            f"shape {value.shape}"
        )


def _resolve_region(definition, spec, value, env) -> Region:
    if env is None:
        env = {}
    declared = _evaluate_dims(spec, env)
    shape = _shape_extents(value)
    intervals = []
    for d, rspec in enumerate(spec.regions):
        extent: Optional[int] = None
        if d < len(declared) and declared[d] is not None:
            extent = declared[d]
        elif d < len(shape):
            extent = int(shape[d])
        try:
            lo, hi = rspec.bounds(env, extent)
        except PragmaError as exc:
            raise InvocationError(
                f"task {definition.name!r}: cannot resolve region of "
                f"parameter {spec.name!r}: {exc}"
            ) from exc
        if (lo, hi) != FULL_DIM and extent is not None and hi >= extent:
            raise InvocationError(
                f"task {definition.name!r}: region {{{lo}..{hi}}} of "
                f"parameter {spec.name!r} exceeds its extent {extent}"
            )
        intervals.append((lo, hi))
    try:
        return Region(tuple(intervals))
    except RegionError as exc:
        raise InvocationError(
            f"task {definition.name!r}: invalid region for parameter "
            f"{spec.name!r}: {exc}"
        ) from exc


class InvocationPlan:
    """Precompiled call-site binding for one :class:`TaskDefinition`.

    Everything derivable from the declaration alone is computed here,
    once: ordered parameter names, the ``(name, direction, position)``
    triple of every clause appearance, the defaults tail, and whether
    any clause carries dimension/region specifiers (the only case that
    needs expression evaluation against argument values).
    """

    __slots__ = (
        "definition",
        "param_names",
        "n_params",
        "n_required",
        "defaults_tail",
        "access_specs",
        "written",
        "simple",
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
        self.access_specs = tuple(
            (spec.name, spec.direction, positions.get(spec.name, -1))
            for spec in definition.params
        )
        #: :meth:`TaskInstance.written` of an instance without regions.
        self.written = tuple(
            (pos, None) for _n, d, pos in self.access_specs if d.writes)
        self.simple = not definition.needs_expressions
        self.high_priority = definition.high_priority
        self.own_constants = getattr(definition, "constants", None) or None

    def instantiate(
        self, args: tuple, kwargs: dict, constants: Optional[dict] = None
    ) -> TaskInstance:
        """Bind + build accesses + create the dynamic task instance."""

        n = len(args)
        if not kwargs and self.n_required <= n <= self.n_params:
            if n < self.n_params:
                args = args + self.defaults_tail[n - self.n_required:]
            if self.simple:
                # The hot shape: accesses/arguments derive lazily from
                # the positional value tuple (TaskInstance.call_values);
                # nothing else is allocated per submission.
                return TaskInstance(
                    definition=self.definition,
                    accesses=None,
                    arguments=None,
                    high_priority=self.high_priority,
                    call_values=args,
                )
            arguments = dict(zip(self.param_names, args))
        else:
            arguments = self.definition.bind_dict(args, kwargs)
            if self.simple:
                return TaskInstance(
                    definition=self.definition,
                    accesses=None,
                    arguments=arguments,
                    high_priority=self.high_priority,
                    call_values=tuple(
                        arguments[name] for name in self.param_names
                    ),
                )
        # Dimension/region specifiers present: evaluate expressions
        # against the actual argument values (the paper's section V.A).
        if constants or self.own_constants:
            merged = dict(constants) if constants else {}
            if self.own_constants:
                merged.update(self.own_constants)
        else:
            merged = None
        accesses = build_accesses(self.definition, arguments, merged)
        return TaskInstance(
            definition=self.definition,
            accesses=accesses,
            arguments=arguments,
            high_priority=self.high_priority,
        )


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

    definition = task.definition
    call_values = task.call_values
    if call_values is not None:
        values = list(call_values)
    else:
        arguments = task.arguments
        values = [arguments[name] for name in definition.param_names]
    positions = definition.positions
    for name, version in task.reads:
        if not version.datum.region_mode:
            values[positions[name]] = version.resolve_storage()
    for name, version in task.writes:
        if not version.datum.region_mode:
            values[positions[name]] = version.resolve_storage()
    if sanitizer is not None:
        values = sanitizer.wrap(task, values)
    return values

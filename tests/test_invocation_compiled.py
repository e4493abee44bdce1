"""The compiled invocation plan resolves exactly what the pragma says.

``InvocationPlan`` compiles every dimension and region bound once per
task definition.  This property test holds it against a reference
written here from the definitions alone: build the environment of
every ``int``/``np.integer`` argument (never a ``bool``) over the
merged constants, and evaluate each clause with ``Expr.evaluate`` and
``RegionSpec.bounds`` once every parameter a bound names holds such an
integer (a ``float`` or ``bool`` there is an error, not an absent
name).  Pragmas, argument values and call shapes are
generated; accesses must match field for field, and a call the
reference rejects must raise the same exception with the same message.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import css_task
from repro.core.invocation import instantiate
from repro.core.pragma import PragmaError
from repro.core.regions import FULL_DIM, Region, RegionError
from repro.core.task import InvocationError

PARAMS = ("data", "grid", "lo", "hi", "n", "k")


def _task(data, grid, lo, hi, n=4, k=2):  # noqa: ARG001
    pass


# -- the reference: evaluate the parsed pragma against the bound call -----

def _checked(definition, spec, expr, arguments):
    """*expr*, once every parameter it names (in name order) holds an
    ``int``/``np.integer`` that is not a ``bool``."""

    for name in sorted(expr.names()):
        value = arguments.get(name, 0)
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise InvocationError(
                f"task {definition.name!r}: parameter {name!r} bounds "
                f"{spec}: bounds take int or np.integer, got "
                f"{type(value).__name__} {value!r}"
            )
    return expr


def _reference_region(definition, spec, value, env, arguments):
    declared = []
    for dim in spec.dims:
        try:
            declared.append(
                _checked(definition, spec, dim, arguments).evaluate(env))
        except PragmaError:
            declared.append(None)
    if spec.dims and isinstance(value, np.ndarray) and None not in declared \
            and tuple(declared) != value.shape:
        raise InvocationError(
            f"task {definition.name!r}: parameter {spec.name!r} declared "
            f"as {spec} (shape {tuple(declared)}) but the argument has "
            f"shape {value.shape}"
        )
    if not spec.regions:
        return None
    shape = value.shape if isinstance(value, np.ndarray) else (len(value),)
    intervals = []
    for d, rspec in enumerate(spec.regions):
        extent = declared[d] if d < len(declared) else None
        if extent is None and d < len(shape):
            extent = shape[d]
        try:
            if rspec.full:
                lo, hi = rspec.bounds(env, extent)
            else:
                lo = _checked(definition, spec, rspec.lower,
                              arguments).evaluate(env)
                hi = _checked(definition, spec, rspec.upper,
                              arguments).evaluate(env)
                if rspec.is_length:
                    if hi < 0:
                        raise PragmaError(f"negative region length {hi}")
                    hi += lo - 1
        except PragmaError as exc:
            raise InvocationError(
                f"task {definition.name!r}: cannot resolve region of "
                f"parameter {spec.name!r}: {exc}"
            ) from exc
        if not rspec.full and extent is not None and hi >= extent:
            raise InvocationError(
                f"task {definition.name!r}: region {{{lo}..{hi}}} of "
                f"parameter {spec.name!r} exceeds its extent {extent}"
            )
        intervals.append((lo, hi))
    intervals = tuple(intervals)
    # Only ``{}`` means the whole dimension: a computed (0, -1) is empty.
    for rspec, (lo, hi) in zip(spec.regions, intervals):
        if rspec.full and (lo, hi) == FULL_DIM:
            continue
        problem = (f"negative lower bound in region {intervals}" if lo < 0
                   else f"empty interval ({lo}, {hi}) in region "
                   f"{intervals}; upper bound must be >= lower bound"
                   if hi < lo else None)
        if problem:
            raise InvocationError(
                f"task {definition.name!r}: invalid region for parameter "
                f"{spec.name!r}: {problem}"
            )
    return intervals


def _reference(definition, arguments, constants):
    env = dict(constants)
    for name, value in arguments.items():
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            env[name] = int(value)
    return [
        (spec.name, spec.direction, id(arguments[spec.name]),
         _reference_region(definition, spec, arguments[spec.name], env,
                           arguments),
         PARAMS.index(spec.name))
        for spec in definition.params
    ]


# -- generators -------------------------------------------------------------

names = st.sampled_from(("lo", "hi", "n", "k"))
atom = st.one_of(
    names, names, names, names, names,
    st.sampled_from(("C", "D", "U")),  # own / runtime / unknown constants
    st.integers(0, 9).map(str),
)
expr = st.one_of(
    atom, atom, atom,
    st.tuples(atom, st.sampled_from("+-*/%"), atom).map(" ".join),
    st.tuples(atom, st.sampled_from("+-*"), atom, atom).map(
        lambda t: f"({t[0]} {t[1]} {t[2]}) - {t[3]}"),
)
region = st.one_of(
    st.just("{}"),
    st.sampled_from(("{lo..hi}", "{lo:n}", "{k..hi}")),
    st.tuples(expr, expr).map(lambda t: "{%s..%s}" % t),
    st.tuples(expr, expr).map(lambda t: "{%s:%s}" % t),
)
direction = st.sampled_from(("input", "output", "inout"))


@st.composite
def pragmas(draw):
    clauses = []
    for _ in range(draw(st.integers(1, 2))):  # data{...}, maybe twice
        rank = draw(st.sampled_from((1, 1, 1, 2)))
        dims = "".join(
            f"[{draw(st.one_of(st.just('16'), expr))}]" for _ in range(rank)
        ) if draw(st.booleans()) else ""
        regions = "".join(draw(region) for _ in range(rank))
        clauses.append(f"{draw(direction)}(data{dims}{regions})")
    grid = draw(st.sampled_from(("", "{}{}", "dims", "regions")))
    if grid == "dims":
        clauses.append(f"input(grid[{draw(expr)}][{draw(expr)}])")
    elif grid:
        regions = grid if grid == "{}{}" else draw(region) + draw(region)
        clauses.append(f"{draw(direction)}(grid{regions})")
    if draw(st.booleans()):
        clauses.append("input(lo, hi)")
    return " ".join(clauses)


small = st.integers(0, 15)
number = st.one_of(
    small, small, small, small, small, small, small, small,
    st.integers(-3, 20),                      # negative, past the extent
    st.integers(-3, 20).map(np.int64),
    st.booleans(),
    st.floats(-2.0, 20.0, allow_nan=False),
    st.just(0),                               # zero-length regions
)


@st.composite
def calls(draw):
    data, grid = np.zeros(16), np.zeros((6, 5))
    values = [data, grid] + [draw(number) for _ in range(4)]
    shape = draw(st.sampled_from(("positional", "short", "keyword")))
    if shape == "positional":
        return tuple(values), {}
    if shape == "short":
        return tuple(values[:4]), {}
    split = draw(st.integers(0, 4))
    return tuple(values[:split]), dict(zip(PARAMS[split:], values[split:]))


own_constants = st.one_of(st.just({}), st.integers(-2, 12).map(
    lambda c: {"C": c}))
runtime_constants = st.one_of(st.just({}), st.tuples(
    st.integers(-2, 12), st.integers(-2, 12)).map(
    lambda t: {"C": t[0], "D": t[1]}))


@settings(max_examples=600, deadline=None)
@given(pragmas(), calls(), own_constants, runtime_constants)
@example(  # {} under a declared extent below zero: an empty interval
    "input(data[C][lo + D]{}{}) input(grid[lo][lo])",
    ((np.zeros(16), np.zeros((6, 5)), 0, 0, 0, 0), {}), {"C": -1}, {})
def test_compiled_plan_matches_the_reference(pragma, call, own, runtime):
    task = css_task(pragma, constants=own)(_task)
    args, kwargs = call
    bound = inspect.signature(_task).bind(*args, **kwargs)
    bound.apply_defaults()
    try:
        expected = _reference(task.definition, bound.arguments,
                              {**runtime, **own})
    except (InvocationError, RegionError) as exc:
        expected = exc
    try:
        inst = instantiate(task.definition, args, kwargs, runtime)
        got = [(a.name, a.direction, id(a.value), a.region, a.position)
               for a in inst.accesses]
    except Exception as exc:  # noqa: BLE001 - compared below
        got = exc
    if isinstance(expected, Exception):
        assert type(got) is type(expected), (pragma, got)
        assert str(got) == str(expected)
        return
    assert got == expected, pragma
    for _name, _direction, _value, resolved, _position in got:
        assert resolved is None or (
            type(resolved) is Region
            and all(type(b) is int for iv in resolved for b in iv))
    assert inst.arguments == dict(bound.arguments)


# -- a bound's parameter holds an integer, or the call is refused -----------

@css_task("inout(a[n])")
def _shaped(a, n):  # noqa: ARG001
    pass


@css_task("inout(data{lo..hi})")
def _ranged(data, lo, hi):  # noqa: ARG001
    pass


@css_task("inout(a[N])")
def _constant_shaped(a):  # noqa: ARG001
    pass


def _refusal(task, *args) -> str:
    try:
        instantiate(task.definition, args, {})
    except InvocationError as exc:
        return str(exc)
    raise AssertionError(f"{task.definition.name} accepted {args[1:]}")


def test_a_dimension_parameter_that_is_not_an_integer_is_refused():
    a = np.zeros(8)
    assert _refusal(_shaped, a, 9.0) == (
        "task '_shaped': parameter 'n' bounds a[n]: bounds take int or "
        "np.integer, got float 9.0")
    assert _refusal(_shaped, a, True) == (
        "task '_shaped': parameter 'n' bounds a[n]: bounds take int or "
        "np.integer, got bool True")
    assert "but the argument has shape (8,)" in _refusal(_shaped, a, 9)
    assert instantiate(_shaped.definition, (a, np.int64(8)), {}).accesses


def test_a_region_parameter_that_is_not_an_integer_is_refused():
    assert _refusal(_ranged, np.zeros(8), 1.0, 3) == (
        "task '_ranged': parameter 'lo' bounds data{lo..hi}: bounds take "
        "int or np.integer, got float 1.0")
    assert _refusal(_ranged, np.zeros(8), 1, None) == (
        "task '_ranged': parameter 'hi' bounds data{lo..hi}: bounds take "
        "int or np.integer, got NoneType None")


def test_a_name_that_is_neither_parameter_nor_constant_is_skipped():
    (access,) = instantiate(_constant_shaped.definition, (np.zeros(8),), {}
                            ).accesses
    assert access.region is None  # no N: the shape check is skipped
    with pytest.raises(InvocationError, match=r"\(shape \(9,\)\)"):
        instantiate(_constant_shaped.definition, (np.zeros(8),), {},
                    {"N": 9})

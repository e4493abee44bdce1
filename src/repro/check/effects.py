"""Per-task effect footprints for the whole-program analyzer.

A task's pragma is a complete statement of its side effects on its
arguments — that is the SMPSs contract (sections II and V.A of the
paper).  This module turns a parsed pragma into a reusable
:class:`TaskEffect` and evaluates it at an abstract submission site
into a list of :class:`Access` records: *which parameter positions are
read/written, over which array region*, with region bounds resolved
over the mixed concrete/interval environment the abstract interpreter
maintains.

Regions are uniformly represented as :class:`SymRegion` — a box of
per-dimension ``(lo, hi)`` :class:`~repro.check.intervals.Interval`
pairs.  A fully concrete box converts to the runtime's exact
:class:`~repro.core.regions.Region`; any box has a hull
(:meth:`SymRegion.hull`), the ``Region`` the runtime's dependency
tracker is handed in its place — it overlaps another hull unless the
two boxes were provably disjoint, which is all the conservative rules
need.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.pragma import ParsedPragma, PragmaError
from ..core.regions import FULL_DIM, Region, RegionError
from ..core.task import Direction
from .intervals import TOP, Interval

__all__ = ["Access", "SymRegion", "TaskEffect"]


@dataclass(frozen=True)
class SymRegion:
    """A hyper-rectangle with interval-valued bounds."""

    #: per-dimension inclusive (lo, hi); TOP bounds mean "unknown".
    dims: tuple[tuple[Interval, Interval], ...]

    def to_region(self) -> Optional[Region]:
        """The exact runtime region, or ``None`` when any bound is
        symbolic (an unknown upper bound maps to the FULL sentinel)."""

        out = []
        for lo, hi in self.dims:
            if lo.is_constant and lo.constant == 0 and hi.is_top:
                out.append(FULL_DIM)
                continue
            if not (lo.is_constant and hi.is_constant):
                return None
            out.append((lo.constant, hi.constant))
        try:
            return Region(tuple(out))
        except RegionError:
            return None

    def hull(self) -> Region:
        """The smallest runtime region holding every box these bounds
        admit: per dimension ``lo.lo .. hi.hi``, unbounded above as
        ``sys.maxsize`` and ``0..unknown`` as the FULL sentinel.  Two
        hulls are disjoint exactly when the boxes were provably so, and
        a box of constants is its own hull (:meth:`to_region`)."""

        out = []
        for lo, hi in self.dims:
            low = max(lo.lo or 0, 0)
            if low == 0 and hi.hi is None:
                out.append(FULL_DIM)
            else:
                out.append((low, max(low, sys.maxsize if hi.hi is None
                                     else hi.hi)))
        return Region(tuple(out))

    def __str__(self) -> str:
        region = self.to_region()
        if region is not None:
            return str(region)
        return "".join("{%s..%s}" % (lo, hi) for lo, hi in self.dims)


@dataclass(frozen=True)
class Access:
    """One parameter's effect at one abstract submission site."""

    param: str
    direction: Direction
    #: ``None`` = the whole object (no region specifier).
    region: Optional[SymRegion] = None


def _as_abstract_int(value):
    """Map an abstract argument value into the expression domain."""

    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, Interval):
        return value
    return None


@dataclass(frozen=True)
class TaskEffect:
    """The reusable effect summary of one task definition."""

    name: str
    param_names: tuple[str, ...]
    pragma: ParsedPragma
    constants: dict
    high_priority: bool = False

    @classmethod
    def from_pragma(
        cls,
        name: str,
        pragma: ParsedPragma,
        param_names: Sequence[str],
        constants: Optional[dict] = None,
    ) -> "TaskEffect":
        return cls(
            name=name,
            param_names=tuple(param_names),
            pragma=pragma,
            constants=dict(constants or {}),
            high_priority=pragma.high_priority,
        )

    def footprint(
        self,
        arg_values: dict,
        shapes: Optional[dict] = None,
    ) -> list[Access]:
        """Evaluate every parameter appearance at one submission site.

        *arg_values* maps parameter names to abstract values (ints and
        :class:`Interval` objects participate in bound expressions;
        everything else is opaque to them).  *shapes* optionally maps
        parameter names to known concrete array shapes, used to resolve
        ``{}`` region specifiers and missing extents.
        """

        env = {}
        for pname, value in arg_values.items():
            abstract = _as_abstract_int(value)
            if abstract is not None:
                env[pname] = abstract
        for cname, cvalue in self.constants.items():
            env.setdefault(cname, cvalue)

        accesses: list[Access] = []
        for spec in self.pragma.params:
            if not spec.regions:
                accesses.append(Access(spec.name, spec.direction))
                continue
            shape = (shapes or {}).get(spec.name)
            dims: list[tuple[Interval, Interval]] = []
            for axis, rspec in enumerate(spec.regions):
                extent = None
                if axis < len(spec.dims):
                    try:
                        extent = spec.dims[axis].evaluate_symbolic(env)
                    except PragmaError:
                        extent = None
                if extent is None and shape is not None and axis < len(shape):
                    extent = shape[axis]
                try:
                    bounds = rspec.symbolic_bounds(env, extent)
                except PragmaError:
                    bounds = (TOP, TOP)
                if bounds is None:
                    dims.append((Interval.const(0), TOP))
                else:
                    lo, hi = (Interval.of(b) if isinstance(b, (int, Interval))
                              else TOP for b in bounds)
                    dims.append((lo, hi))
            accesses.append(
                Access(spec.name, spec.direction, SymRegion(tuple(dims)))
            )
        return accesses

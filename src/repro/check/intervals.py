"""Symbolic interval domain for the whole-program analyzer.

``repro.check.flow`` abstractly executes driver programs: loop bounds,
block indices and region bounds that are concrete integers stay
concrete, but a loop the interpreter cannot (or chooses not to) unroll
binds its induction variable to an :class:`Interval` — the convex hull
of every value it would take.  Region specifiers are then evaluated
over this domain via :meth:`repro.core.pragma.RegionSpec.symbolic_bounds`,
which works because :class:`Interval` implements ordinary Python
arithmetic.

The domain is the classic one:

* ``[lo, hi]`` with ``None`` meaning unbounded on that side;
* all operations are *over*-approximations (the result interval
  contains every concrete result), so anything the flow analyzer
  **proves** over intervals (e.g. two regions are disjoint, or two
  regions must partially overlap because both are singletons) holds for
  every concrete execution — the zero-false-positive direction the
  static layer promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["Interval", "TOP"]


def _neg(v: Optional[int]) -> Optional[int]:
    return None if v is None else -v


def _min(*values: Optional[int]) -> Optional[int]:
    if any(v is None for v in values):
        return None
    return min(values)  # type: ignore[type-var]


def _max(*values: Optional[int]) -> Optional[int]:
    if any(v is None for v in values):
        return None
    return max(values)  # type: ignore[type-var]


@dataclass(frozen=True)
class Interval:
    """Inclusive integer interval; ``None`` bounds are +-infinity."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors --------------------------------------------------
    @classmethod
    def const(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def of(cls, value: Union[int, "Interval"]) -> "Interval":
        if isinstance(value, Interval):
            return value
        return cls.const(int(value))

    @classmethod
    def from_range(cls, start: int, stop: int, step: int = 1) -> "Interval":
        """Hull of ``range(start, stop, step)`` (must be non-empty)."""

        if step == 0:
            raise ValueError("zero step")
        count = (stop - start + (step - (1 if step > 0 else -1))) // step
        if count <= 0:
            raise ValueError("empty range")
        last = start + (count - 1) * step
        return cls(min(start, last), max(start, last))

    # -- predicates ----------------------------------------------------
    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def is_constant(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def constant(self) -> int:
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        assert self.lo is not None
        return self.lo

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def must_precede(self, other: "Interval") -> bool:
        """Every value of self < every value of *other*."""

        return (
            self.hi is not None and other.lo is not None and self.hi < other.lo
        )

    def must_disjoint(self, other: "Interval") -> bool:
        return self.must_precede(other) or other.must_precede(self)

    def join(self, other: "Interval") -> "Interval":
        """Convex hull of both intervals."""

        return Interval(_min(self.lo, other.lo), _max(self.hi, other.hi))

    # -- arithmetic (over-approximating) -------------------------------
    def __neg__(self) -> "Interval":
        return Interval(_neg(self.hi), _neg(self.lo))

    def __pos__(self) -> "Interval":
        return self

    def __add__(self, other) -> "Interval":
        other = Interval.of(other)
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + (-Interval.of(other))

    def __rsub__(self, other) -> "Interval":
        return Interval.of(other) + (-self)

    def _corners(self, other: "Interval", op) -> "Interval":
        if None in (self.lo, self.hi, other.lo, other.hi):
            return TOP
        values = [
            op(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(min(values), max(values))

    def __mul__(self, other) -> "Interval":
        return self._corners(Interval.of(other), lambda a, b: a * b)

    __rmul__ = __mul__

    def __floordiv__(self, other) -> "Interval":
        other = Interval.of(other)
        if other.contains(0):
            return TOP
        if None in (self.lo, self.hi, other.lo, other.hi):
            return TOP
        # Cover both C99 truncation and Python flooring so the result
        # is safe whichever integer-division convention produced it.
        values = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                values.append(a // b)
                q = abs(a) // abs(b)
                values.append(q if (a >= 0) == (b >= 0) else -q)
        return Interval(min(values), max(values))

    __truediv__ = __floordiv__

    def __mod__(self, other) -> "Interval":
        other = Interval.of(other)
        if not other.is_constant or other.constant == 0:
            return TOP
        bound = abs(other.constant) - 1
        if self.lo is not None and self.lo >= 0:
            return Interval(0, bound)
        return Interval(-bound, bound)

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)


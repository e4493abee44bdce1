"""Array regions: the section V.A language extension, fully implemented.

The paper defines: given an N-dimensional array ``A`` with dimensions
``d1..dN``, an array region ``R`` is a list of pairs ``(lj, uj)`` of
inclusive lower/upper bounds, selecting all elements whose index in
every dimension j satisfies ``lj <= ij <= uj``.

The paper *proposes* the syntax but notes its runtime "does not yet
include support for array regions"; this module provides the missing
implementation used by our dependency engine: exact hyper-rectangle
intersection tests decide whether two accesses to the same base object
conflict.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = ["Region", "RegionError", "FULL_DIM"]


class RegionError(ValueError):
    """Raised on an invalid region (e.g. lower bound above upper)."""


#: Sentinel inclusive interval meaning "the whole dimension" when the
#: extent is unknown at declaration time.
FULL_DIM: Tuple[int, int] = (0, -1)


def check_intervals(intervals: tuple, computed: Sequence[bool] = ()) -> None:
    """Raise :class:`RegionError` at the first interval selecting nothing;
    ``FULL_DIM`` passes unless *computed* marks its dimension as evaluated
    from bounds (only a ``{}`` specifier means "the whole dimension")."""

    for d, (lo, hi) in enumerate(intervals):
        if lo >= 0 and hi >= lo:
            continue
        if (lo, hi) == FULL_DIM and not (d < len(computed) and computed[d]):
            continue
        intervals = tuple(intervals)
        if lo < 0:
            raise RegionError(f"negative lower bound in region {intervals}")
        raise RegionError(
            f"empty interval ({lo}, {hi}) in region {intervals}; "
            f"upper bound must be >= lower bound"
        )


class Region(tuple):
    """An N-dimensional hyper-rectangle of inclusive index intervals.

    A tuple of ``(lo, hi)`` pairs, so it is immutable, picklable, and
    hashed and compared in C: the dependency engine keys every region
    chain on one, so a lookup costs what a tuple-keyed lookup costs.
    """

    __slots__ = ()

    def __new__(cls, intervals: Sequence[Tuple[int, int]]) -> "Region":
        region = tuple.__new__(cls, intervals)
        check_intervals(region)
        return region

    @property
    def intervals(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self)

    # -- constructors ---------------------------------------------------
    @classmethod
    def full(cls, ndim: int = 1) -> "Region":
        """A region covering every element of an *ndim*-dimensional array."""

        return cls(tuple(FULL_DIM for _ in range(ndim)))

    @classmethod
    def from_slice(cls, start: int, stop: int) -> "Region":
        """1-D region from a half-open Python slice ``[start, stop)``."""

        if stop <= start:
            raise RegionError(f"empty slice [{start}, {stop})")
        return cls(((start, stop - 1),))

    # -- predicates -------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self)

    @property
    def is_full(self) -> bool:
        return all(iv == FULL_DIM for iv in self)

    def overlaps(self, other: "Region") -> bool:
        """True if the two hyper-rectangles share at least one element.

        Regions of different rank refer to different views of the same
        base object; we conservatively report a conflict (the paper's
        runtime would have keyed on raw byte ranges, where any rank
        mismatch still aliases).
        """

        if len(self) != len(other):
            return True
        for (alo, ahi), (blo, bhi) in zip(self, other):
            # FULL_DIM's upper bound is below every lower bound, so the
            # sentinel only needs ruling out once the bounds look disjoint.
            if (ahi < blo or bhi < alo) and (
                (alo, ahi) != FULL_DIM and (blo, bhi) != FULL_DIM
            ):
                return False
        return True

    def contains(self, other: "Region") -> bool:
        """True if *other* is entirely inside *self*."""

        if self.ndim != other.ndim:
            return False
        for (alo, ahi), (blo, bhi) in zip(self, other):
            if (alo, ahi) == FULL_DIM:
                continue
            if (blo, bhi) == FULL_DIM:
                return False
            if blo < alo or bhi > ahi:
                return False
        return True

    def intersection(self, other: "Region") -> Optional["Region"]:
        """The overlapping sub-region, or ``None`` when disjoint."""

        if self.ndim != other.ndim:
            return None
        out = []
        for (alo, ahi), (blo, bhi) in zip(self, other):
            if (alo, ahi) == FULL_DIM:
                out.append((blo, bhi))
                continue
            if (blo, bhi) == FULL_DIM:
                out.append((alo, ahi))
                continue
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi < lo:
                return None
            out.append((lo, hi))
        return Region(tuple(out))

    def element_count(self) -> Optional[int]:
        """Number of selected elements; ``None`` if any dim is FULL."""

        total = 1
        for lo, hi in self:
            if (lo, hi) == FULL_DIM:
                return None
            total *= hi - lo + 1
        return total

    # -- conversions ------------------------------------------------------
    def to_slices(self) -> Tuple[slice, ...]:
        """Convert to numpy-style slices (FULL dims become ``slice(None)``)."""

        return tuple(
            slice(None) if (lo, hi) == FULL_DIM else slice(lo, hi + 1)
            for lo, hi in self
        )

    def resolved_against(self, shape: Sequence[int]) -> "Region":
        """Replace FULL sentinels with the concrete extents of *shape*."""

        if len(shape) < self.ndim:
            raise RegionError(
                f"region of rank {self.ndim} cannot be resolved against "
                f"shape {tuple(shape)}"
            )
        out = []
        for (lo, hi), extent in zip(self, shape):
            if (lo, hi) == FULL_DIM:
                out.append((0, extent - 1))
            else:
                if hi >= extent:
                    raise RegionError(
                        f"region interval ({lo}, {hi}) exceeds extent {extent}"
                    )
                out.append((lo, hi))
        return Region(tuple(out))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Region(intervals={tuple(self)!r})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "".join(
            "{}" if iv == FULL_DIM else "{%d..%d}" % iv for iv in self)

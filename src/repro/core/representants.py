"""Representants (section V.B).

"A representant is a memory address that represents a possibly
non-contiguous collection of memory addresses.  Each representant is
normally associated to an opaque pointer that is used by the tasks to
access the actual data."

In this binding a :class:`Representant` is a small token object.  It is
trackable by identity (so passing it through ``input``/``output``/
``inout`` clauses introduces exactly the dependency the projected region
access would have) but never renamable — the paper notes that
"representants cannot be reliably used if there are false dependencies
between the represented data", and renaming one would silently detach
it from the data it stands for.  The dependency engine therefore falls
back to explicit WAR/WAW edges for representants.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Representant", "RepresentantTable"]


class Representant:
    """A token address standing in for a collection of real addresses."""

    __slots__ = ("label", "payload")

    def __init__(self, label: str = "", payload: Any = None) -> None:
        self.label = label
        #: Optional reference to the represented data (for debugging /
        #: examples only; the runtime never touches it).
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Representant {self.label or hex(id(self))}>"


class RepresentantTable:
    """Convenience container: one representant per (non-overlapping) key.

    Mirrors the paper's usage: "if the array regions are non-overlapping,
    it is sufficient to have one representant per array region and an
    opaque pointer to the array".  Keys are typically region tuples or
    block coordinates.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._table: dict = {}

    def for_key(self, key) -> Representant:
        rep = self._table.get(key)
        if rep is None:
            rep = Representant(label=f"{self.label}[{key!r}]")
            self._table[key] = rep
        return rep

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key) -> Optional[Representant]:
        return self._table.get(key)

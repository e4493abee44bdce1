"""Result containers and text rendering for the figure benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Series", "FigureResult"]


@dataclass
class Series:
    """One line of a figure: a label and y-values over the shared x axis."""

    label: str
    values: list[float]

    def at(self, x_axis: Sequence, x) -> float:
        return self.values[list(x_axis).index(x)]


@dataclass
class FigureResult:
    """One regenerated figure: axes, series, and provenance notes."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    x: list
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: free-form extras (task counts, utilisations, ...) — not
    #: serialised (keys may be tuples)
    extras: dict = field(default_factory=dict)
    #: run provenance (git sha, host, versions, scale, seed) — see
    #: :func:`repro.bench.provenance.collect_provenance`
    provenance: dict = field(default_factory=dict)

    def add(self, label: str, values: Sequence[float]) -> Series:
        if len(values) != len(self.x):
            raise ValueError(
                f"series {label!r} has {len(values)} points for "
                f"{len(self.x)} x values"
            )
        s = Series(label, [float(v) for v in values])
        self.series.append(s)
        return s

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.figure_id}")

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def table(self) -> str:
        """Aligned text table: x column + one column per series."""

        headers = [self.xlabel] + [s.label for s in self.series]
        rows = []
        for i, x in enumerate(self.x):
            row = [_fmt(x)] + [_fmt(s.values[i]) for s in self.series]
            rows.append(row)
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
            for c in range(len(headers))
        ]
        lines = [
            f"{self.figure_id}: {self.title}",
            f"  [{self.ylabel}]",
            "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
            "  " + "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  " + "  ".join(v.rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def ascii_chart(self, height: int = 16, width: int = 60) -> str:
        """A rough terminal plot of every series (one glyph each)."""

        if not self.series or not self.x:
            return "(empty figure)"
        ys = [v for s in self.series for v in s.values]
        y_min, y_max = min(ys + [0.0]), max(ys)
        if y_max <= y_min:
            y_max = y_min + 1.0
        grid = [[" "] * width for _ in range(height)]
        glyphs = "*o+x#@%&"
        for si, s in enumerate(self.series):
            glyph = glyphs[si % len(glyphs)]
            for xi, v in enumerate(s.values):
                col = int(xi / max(len(self.x) - 1, 1) * (width - 1))
                row = height - 1 - int(
                    (v - y_min) / (y_max - y_min) * (height - 1)
                )
                grid[row][col] = glyph
        lines = [f"{self.figure_id}: {self.title}  ({self.ylabel})"]
        lines += ["  |" + "".join(row) for row in grid]
        lines.append("  +" + "-" * width)
        legend = "   ".join(
            f"{glyphs[i % len(glyphs)]}={s.label}" for i, s in enumerate(self.series)
        )
        lines.append("   " + legend)
        return "\n".join(lines)


    def to_csv(self) -> str:
        """Comma-separated values: header row + one row per x value."""

        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow([self.xlabel] + [s.label for s in self.series])
        for i, x in enumerate(self.x):
            writer.writerow([x] + [s.values[i] for s in self.series])
        return buffer.getvalue()

    def to_json(self) -> str:
        """JSON document with axes, series, notes, provenance."""

        import json

        doc = {
            "figure_id": self.figure_id,
            "title": self.title,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "x": list(self.x),
            "series": {s.label: s.values for s in self.series},
            "notes": list(self.notes),
        }
        if self.provenance:
            doc["provenance"] = self.provenance
        return json.dumps(doc, indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "FigureResult":
        """Rebuild a figure from its :meth:`to_json` document."""

        fig = cls(
            doc["figure_id"],
            doc.get("title", ""),
            doc.get("xlabel", "x"),
            doc.get("ylabel", "y"),
            list(doc.get("x", [])),
            notes=list(doc.get("notes", [])),
            provenance=dict(doc.get("provenance", {})),
        )
        for label, values in doc.get("series", {}).items():
            fig.add(label, values)
        return fig

    @classmethod
    def load(cls, path: str) -> "FigureResult":
        """Load a figure saved as JSON (the inverse of ``save``)."""

        import json

        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path: str) -> None:
        """Write the figure to *path* (.csv or .json by extension)."""

        if path.endswith(".json"):
            payload = self.to_json()
        elif path.endswith(".csv"):
            payload = self.to_csv()
        else:
            payload = self.table() + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 100:
            return f"{v:.0f}"
        if abs(v) >= 1:
            return f"{v:.2f}"
        return f"{v:.3g}"
    return str(v)

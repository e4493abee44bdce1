"""The one suppression resolver shared by ``astlint`` and ``flow``.

Suppression grammar (documented in ``docs/static_analysis.md``)::

    # css: ignore[rule, rule]     silence those rules
    # css: ignore                 silence everything

Placement decides scope:

* **line** — on the offending line: that line only;
* **task** — on the ``def`` line, a decorator line, the pragma line, or
  (for ``#pragma css task`` constructs) any line of the pragma block
  between the pragma and its ``def``, continuation lines included:
  every finding of that task;
* **file** — in the module header (the leading block of comments and
  blank lines) or inside the module docstring: every finding in the
  file.

Both static layers build one :class:`SuppressionIndex` per source file
and ask it :meth:`~SuppressionIndex.is_suppressed` per finding, so the
two analyses can never disagree about what a suppression means.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional, Sequence

__all__ = ["ALL_RULES", "IGNORE_RE", "SuppressionIndex"]

IGNORE_RE = re.compile(r"#\s*css:\s*ignore(?:\[(?P<rules>[^\]]*)\])?")

#: sentinel meaning "every rule" (bare ``# css: ignore``).
ALL_RULES = "*"


def _parse_rules(match: re.Match) -> set[str]:
    rules = match.group("rules")
    if rules is None:
        return {ALL_RULES}
    return {r.strip() for r in rules.split(",") if r.strip()}


def _header_end(lines: Sequence[str], tree: Optional[ast.Module]) -> int:
    """1-based last line of the module header (0 = no header).

    The header is the leading run of blank/comment lines plus, when the
    first statement is a docstring, the docstring itself.
    """

    end = 0
    for idx, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            break
        end = idx
    if tree is not None and tree.body:
        first = tree.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            end = max(end, first.end_lineno or first.lineno)
    return end


class SuppressionIndex:
    """Resolved ``# css: ignore`` comments of one source file."""

    def __init__(
        self,
        line_rules: dict[int, set[str]],
        file_rules: set[str],
    ):
        self._line_rules = line_rules
        self._file_rules = file_rules

    @classmethod
    def from_source(
        cls, source: str, tree: Optional[ast.Module] = None
    ) -> "SuppressionIndex":
        lines = source.split("\n")
        line_rules: dict[int, set[str]] = {}
        for idx, line in enumerate(lines, start=1):
            match = IGNORE_RE.search(line)
            if match is not None:
                line_rules[idx] = _parse_rules(match)
        if tree is None:
            try:
                tree = ast.parse(source)
            except SyntaxError:
                tree = None
        file_rules: set[str] = set()
        header_end = _header_end(lines, tree)
        for idx in range(1, header_end + 1):
            file_rules |= line_rules.get(idx, set())
        return cls(line_rules, file_rules)

    def rules_for_line(self, line: int) -> frozenset[str]:
        return frozenset(self._line_rules.get(line, ()))

    def is_suppressed(
        self, rule: str, line: int, scope_lines: Iterable[int] = ()
    ) -> bool:
        """True when *rule* at *line* is silenced.

        *scope_lines* are the extra lines whose suppressions apply to
        the whole construct the finding belongs to (def/decorator/
        pragma-block lines of its task).
        """

        if ALL_RULES in self._file_rules or rule in self._file_rules:
            return True
        for candidate in (line, *scope_lines):
            rules = self._line_rules.get(candidate)
            if rules and (ALL_RULES in rules or rule in rules):
                return True
        return False

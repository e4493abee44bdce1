"""Finding records and the rule catalogue of ``repro.check``.

The whole SMPSs model rests on directionality clauses being truthful:
the runtime builds the task graph from ``input``/``output``/``inout``
declarations (section II of the paper), so a task body that contradicts
its own pragma silently races past renaming and dependency analysis.
Each rule below names one way an annotation can lie.

Severities:

* ``error`` — the annotation is provably wrong (or unparseable); the
  program can produce racy or incorrect results under the runtime.
* ``warning`` — the annotation is suspicious (over- or under-declared)
  but static analysis cannot prove a race; typically a performance or
  latent-correctness problem.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "RULES", "ERROR", "WARNING", "rule_severity"]

ERROR = "error"
WARNING = "warning"

#: rule code -> (severity, one-line description).  Codes are stable;
#: they are the names used by ``# css: ignore[...]`` suppressions and
#: the ``--select`` / ``--ignore`` CLI filters.
RULES: dict[str, tuple[str, str]] = {
    "input-write": (
        ERROR,
        "task body writes (assignment, augmented assignment, or mutating "
        "method call) to a parameter declared input-only",
    ),
    "undeclared-mutation": (
        ERROR,
        "task body mutates a parameter that appears in no directionality "
        "clause (undeclared parameters are by-value scalars to the runtime)",
    ),
    "unwritten-output": (
        WARNING,
        "parameter declared output/inout is never written by the task body "
        "(and never escapes into a call that could write it)",
    ),
    "read-before-write": (
        WARNING,
        "task body reads an output-only parameter before its first write "
        "(output storage may be a fresh renamed buffer with undefined "
        "contents)",
    ),
    "global-mutation": (
        WARNING,
        "task body mutates a global or closure object; such accesses are "
        "invisible to the dependency analysis and race across workers",
    ),
    "unknown-region-name": (
        ERROR,
        "a dimension or array-region bound expression references a name "
        "that is neither a parameter nor a known constant",
    ),
    "opaque-leak": (
        WARNING,
        "task body passes an opaque parameter to another task's "
        "dependency-carrying (input/output/inout) parameter; the inner "
        "call runs inline and the opaque object bypasses all analysis",
    ),
    "bad-pragma": (
        ERROR,
        "the pragma does not parse, or declares a parameter that is not "
        "in the function signature",
    ),
    # -- whole-program rules (repro.check.flow) -------------------------
    "flow-overlapping-writes": (
        ERROR,
        "two task submissions write overlapping array regions of the same "
        "datum where neither region contains the other; partial-overlap "
        "writes defeat renaming and the runtime's region chains",
    ),
    "flow-opaque-race": (
        ERROR,
        "a datum is passed opaque to one task and written through a "
        "tracked (input/output/inout) parameter of another in the same "
        "synchronisation epoch; the opaque access is invisible to the "
        "dependency analysis and races against the write",
    ),
    "flow-missing-barrier": (
        ERROR,
        "driver code directly reads or writes a datum that a pending "
        "task may still be writing (or reading, for driver writes) "
        "without an intervening barrier() or wait_on()",
    ),
    "flow-dead-barrier": (
        WARNING,
        "a barrier is reached with provably zero tasks submitted since "
        "the previous synchronisation point; it only costs latency",
    ),
    "flow-serialization": (
        WARNING,
        "nearly every task between two synchronisation points sits on a "
        "single read-after-write chain through one datum; the region is "
        "effectively serial",
    ),
    "flow-renaming-pressure": (
        WARNING,
        "a loop forces the runtime to rename the same datum many times; "
        "every rename allocates a private buffer (paper section III)",
    ),
}


def rule_severity(rule: str) -> str:
    return RULES.get(rule, (ERROR, ""))[0]


@dataclass(frozen=True)
class Finding:
    """One linter (or sanitizer) diagnostic."""

    file: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = ""
    #: task the finding belongs to ("" for file-level findings).
    task: str = ""
    #: offending parameter, when there is one.
    param: str = ""

    def __post_init__(self) -> None:
        if not self.severity:
            object.__setattr__(self, "severity", rule_severity(self.rule))

    def location(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"

    def render(self) -> str:
        task = f" [{self.task}]" if self.task else ""
        return (
            f"{self.location()}: {self.severity} {self.rule}: "
            f"{self.message}{task}"
        )

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "task": self.task,
            "param": self.param,
        }

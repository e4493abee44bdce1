"""repro.check — annotation-correctness tooling for the SMPSs model.

Three layers (see ``docs/static_analysis.md``):

* **static, per task** — an AST linter cross-checking each task's
  directionality clauses against its body (:func:`lint_source`,
  :func:`lint_file`, :func:`lint_paths`; ``python -m repro lint``);
* **static, whole program** — an abstract interpreter over the driver
  that extracts the task-graph skeleton and reports cross-submission
  hazards (:func:`flow_source`, :func:`flow_file`, :func:`flow_paths`;
  ``python -m repro flow``);
* **dynamic** — a runtime sanitizer (``SmpssRuntime(sanitize=True)``)
  wrapping numpy arguments in access-guarded views so undeclared writes
  fail fast with the task and parameter named, and unwritten outputs
  are reported at task completion.
"""

from .astlint import lint_file, lint_paths, lint_source
from .findings import ERROR, RULES, WARNING, Finding
from .flow import FlowOptions, FlowResult, flow_file, flow_paths, flow_source
from .report import filter_findings, render_json, render_text
from .sanitize import AccessViolation, Sanitizer, SanitizerFinding
from .suppress import SuppressionIndex

__all__ = [
    "AccessViolation",
    "ERROR",
    "Finding",
    "FlowOptions",
    "FlowResult",
    "RULES",
    "Sanitizer",
    "SanitizerFinding",
    "SuppressionIndex",
    "WARNING",
    "filter_findings",
    "flow_file",
    "flow_paths",
    "flow_source",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]

"""Runtime access sanitizer (the dynamic layer of ``repro.check``).

``SmpssRuntime(sanitize=True)`` routes every task execution through a
:class:`Sanitizer`:

* numpy arguments whose declared direction never writes (``input``
  clauses, and undeclared array parameters — by-value scalars to the
  runtime) are replaced by **access-guarded views**: read-only
  (``writeable=False``) subclass views that raise
  :class:`AccessViolation` naming the task, the parameter and the
  operation on any write attempt.  Writes that bypass Python-level
  operators (BLAS ``out=`` targets, buffer-protocol consumers) are
  stopped by the read-only flag itself and translated into an
  :class:`AccessViolation` at task-failure time.
* ``output``/``inout`` numpy arguments are **write-tracked**: the
  declared write region is snapshotted before the body runs and
  compared at completion; a task that left its declared output
  unchanged produces an ``unwritten-output`` finding (a warning — the
  body may legitimately have written identical bytes, so this never
  raises).

Violations are appended to :attr:`Sanitizer.findings` and, when the
runtime traces, emitted as ``violation`` events so they land in
exported traces next to the task that caused them.  When the runtime
collects metrics, every raising violation also increments the
``check.violations`` counter (and each finding a per-rule
``check.findings{rule=...}`` counter), so a ``repro.obs.health``
scrape of a misbehaving run shows the sanitizer firing without
needing the trace.

Cost: one guarded view per read-only argument (cheap) plus one copy of
each declared write region (can be large).  The sanitizer is a
debugging mode, off by default; see ``docs/static_analysis.md`` for the
overhead discussion.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.regions import FULL_DIM
from ..core.task import Direction, TaskInstance

__all__ = ["AccessViolation", "Sanitizer", "SanitizerFinding", "guard_readonly"]


class AccessViolation(RuntimeError):
    """A task body wrote through a parameter its pragma never declared
    writable.  Raised inside the task body (the write is blocked), so
    it surfaces at the barrier wrapped in ``TaskExecutionError``."""

    def __init__(self, task: str, param: str, op: str, declared: bool = True):
        clause = (
            "declared input-only" if declared
            else "not declared in any directionality clause"
        )
        super().__init__(
            f"sanitizer: task '{task}' attempted {op} on parameter "
            f"'{param}', which is {clause}"
        )
        self.task = task
        self.param = param
        self.op = op
        self.rule = "input-write" if declared else "undeclared-mutation"


class _GuardedView(np.ndarray):
    """Read-only ndarray view that names its parameter on write attempts.

    The read-only flag is the enforcement mechanism (it also stops
    writes we cannot intercept at the Python level); the subclass
    exists to turn numpy's anonymous ``read-only`` ValueError into an
    :class:`AccessViolation` carrying task + parameter for the common
    write idioms.  Derived arrays (ufunc results) are fresh writable
    buffers, so the ``flags.writeable`` test keeps them unaffected;
    *views* of a guard inherit the read-only flag and stay guarded.
    """

    def __array_finalize__(self, obj):
        if obj is not None:
            self._css_param = getattr(obj, "_css_param", None)
            self._css_task = getattr(obj, "_css_task", None)
            self._css_declared = getattr(obj, "_css_declared", True)

    def _violate(self, op: str):
        raise AccessViolation(
            self._css_task or "<task>", self._css_param or "<param>",
            op, getattr(self, "_css_declared", True),
        )

    def __setitem__(self, key, value):
        if not self.flags.writeable and self._css_param is not None:
            self._violate("item assignment")
        super().__setitem__(key, value)


def _guarded(name: str, what: str):
    """``np.ndarray.<name>``, refused (as *what*) on a read-only view."""

    base = getattr(np.ndarray, name)

    def method(self, *args, **kwargs):
        if not self.flags.writeable and self._css_param is not None:
            self._violate(what)
        return base(self, *args, **kwargs)

    method.__name__ = name
    return method


for _name, _sym in [
    ("__iadd__", "+="), ("__isub__", "-="), ("__imul__", "*="),
    ("__itruediv__", "/="), ("__ifloordiv__", "//="), ("__imod__", "%="),
    ("__ipow__", "**="), ("__imatmul__", "@="), ("__iand__", "&="),
    ("__ior__", "|="), ("__ixor__", "^="), ("__ilshift__", "<<="),
    ("__irshift__", ">>="),
]:
    setattr(_GuardedView, _name,
            _guarded(_name, f"augmented assignment ({_sym})"))
for _name in ("sort", "fill", "put", "partition", "resize"):
    setattr(_GuardedView, _name, _guarded(_name, f"mutating method {_name}()"))


def guard_readonly(
    value: np.ndarray, task: str, param: str, declared: bool = True
) -> np.ndarray:
    """A read-only guarded view of *value* (the underlying buffer is
    untouched; other tasks' writable views are unaffected)."""

    view = value.view(_GuardedView)
    view._css_param = param
    view._css_task = task
    view._css_declared = declared
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SanitizerFinding:
    """One dynamic-layer diagnostic (mirrors the linter's rule codes)."""

    rule: str
    task: str
    task_id: int
    param: str
    message: str

    def render(self) -> str:
        return f"task #{self.task_id} {self.task!r}: {self.rule}: {self.message}"


class Sanitizer:
    """Per-runtime access sanitizer; thread-safe (workers call it)."""

    def __init__(self, tracer=None, metrics=None):
        self._tracer = tracer
        self._metrics = metrics
        self._lock = threading.Lock()
        self.findings: list[SanitizerFinding] = []
        #: violations that raised (also recorded in findings)
        self.violations = 0

    # ------------------------------------------------------------------
    def wrap(self, task: TaskInstance, values: list) -> list:
        """Guard/track *values* (resolved call values, signature order)."""

        definition = task.definition
        directions = definition.directions_by_name
        snapshots: list[tuple[str, np.ndarray, list, list]] = []
        out = list(values)
        for idx, name in enumerate(definition.param_names):
            value = out[idx]
            if not isinstance(value, np.ndarray):
                continue
            dirs = directions.get(name)
            if dirs is not None and Direction.OPAQUE in dirs:
                continue  # opaque: passes through the runtime unaltered
            writes = dirs is not None and any(d.writes for d in dirs)
            if not writes:
                out[idx] = guard_readonly(
                    value, task.name, name, declared=dirs is not None
                )
            else:
                slices = self._write_slices(task, name, value.ndim)
                snapshots.append(
                    (name, value, slices, [value[s].copy() for s in slices])
                )
        task.sanitizer_state = snapshots
        return out

    @staticmethod
    def _write_slices(task: TaskInstance, name: str, ndim: int) -> list:
        """Index tuples covering the declared write regions of *name*."""

        slices = []
        for access in task.accesses:
            if access.name != name or not access.direction.writes:
                continue
            if access.region is None:
                slices.append((Ellipsis,))
            else:
                slices.append(tuple(
                    slice(None) if (lo, hi) == FULL_DIM else slice(lo, hi + 1)
                    for lo, hi in access.region.intervals
                ))
        return slices or [(Ellipsis,)]

    # ------------------------------------------------------------------
    def finish(self, task: TaskInstance, thread: int = -1) -> None:
        """Post-execution check: report declared writes that never
        happened (content-compare of the snapshotted write regions)."""

        state = getattr(task, "sanitizer_state", None)
        task.sanitizer_state = None
        if not state:
            return
        for name, storage, slices, copies in state:
            written = any(
                not np.array_equal(storage[s], before)
                for s, before in zip(slices, copies)
            )
            if written:
                continue
            dirs = task.definition.directions_by_name.get(name, ())
            declared = "/".join(sorted(d.value for d in dirs))
            self._record(
                task, thread, "unwritten-output", name,
                f"parameter '{name}' is declared {declared} but the task "
                f"left its declared write region unchanged",
            )

    def record_violation(
        self, task: TaskInstance, exc: AccessViolation, thread: int = -1
    ) -> None:
        with self._lock:
            self.violations += 1
        if self._metrics is not None:
            self._metrics.counter("check.violations").inc()
        self._record(task, thread, exc.rule, exc.param, str(exc))

    def translate(
        self, task: TaskInstance, exc: BaseException, thread: int = -1
    ) -> Optional[AccessViolation]:
        """Attribute a failure to the sanitizer where possible.

        :class:`AccessViolation` is recorded as-is.  A bare
        ``ValueError: ... read-only ...`` from a write path we could
        not intercept (BLAS ``out=``, buffer protocol) is rewritten
        into an :class:`AccessViolation` naming the guarded candidates.
        """

        if isinstance(exc, AccessViolation):
            self.record_violation(task, exc, thread)
            return None
        if isinstance(exc, ValueError) and "read-only" in str(exc):
            guarded = [
                name for name in task.definition.param_names
                if self._is_guarded(task, name)
            ]
            if not guarded:
                return None
            param = guarded[0] if len(guarded) == 1 else f"one of {guarded}"
            violation = AccessViolation(
                task.name, param, "a write (through a read-only guard)"
            )
            violation.__cause__ = exc
            self.record_violation(task, violation, thread)
            return violation
        return None

    @staticmethod
    def _is_guarded(task: TaskInstance, name: str) -> bool:
        dirs = task.definition.directions_by_name.get(name)
        if dirs is not None and (
            Direction.OPAQUE in dirs or any(d.writes for d in dirs)
        ):
            return False
        return isinstance(task.arguments.get(name), np.ndarray)

    # ------------------------------------------------------------------
    def _record(
        self, task: TaskInstance, thread: int, rule: str, param: str,
        message: str,
    ) -> None:
        finding = SanitizerFinding(
            rule=rule, task=task.name, task_id=task.task_id, param=param,
            message=message,
        )
        with self._lock:
            self.findings.append(finding)
        if self._metrics is not None:
            self._metrics.counter("check.findings", rule=rule).inc()
        if self._tracer:
            self._tracer.violation(task, thread, rule, param)

    def report(self) -> str:
        with self._lock:
            findings = list(self.findings)
        if not findings:
            return "sanitizer: no violations"
        lines = [f.render() for f in findings]
        lines.append(f"sanitizer: {len(findings)} finding(s)")
        return "\n".join(lines)

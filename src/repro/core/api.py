"""User-facing programming model: the ``@css_task`` decorator.

The Python binding of the paper's annotation::

    #pragma css task input(a, b) inout(c)
    void sgemm_t(float a[M][M], float b[M][M], float c[M][M]);

becomes::

    @css_task("input(a, b) inout(c)")
    def sgemm_t(a, b, c):
        c += a @ b

A decorated function behaves exactly like the paper's dual-compilation
model: with no active runtime it *is* the plain sequential function
("the same C sequential code can be compiled with a regular compiler
and run sequentially"); inside an :class:`~repro.core.runtime.SmpssRuntime`
(or recording runtime) context, calls become asynchronous task
submissions with run-time dependency analysis.
"""

from __future__ import annotations

import functools
import inspect
import threading
from typing import Callable, Optional

from .pragma import parse_pragma
from .task import TaskDefinition

__all__ = [
    "css_task",
    "current_runtime",
    "push_runtime",
    "pop_runtime",
    "discard_runtime",
    "barrier",
    "wait_on",
]


# The active-runtime stack, kept PER THREAD.  The programming model is
# single-main-thread (the paper's main program) — and with per-thread
# stacks every thread that enters a runtime is the main program of its
# own submission stream, which is what lets many served sessions
# (:mod:`repro.serve`) run concurrently in one process.  A css_task
# call on a thread with no active runtime simply runs sequentially,
# exactly as before.
#
# Runtimes that own process-global resources (SmpssRuntime and the
# recorder share one task-id counter; the mp backend forks a worker
# fleet) additionally hold the process-wide *exclusive* slot below, so
# the historical guard — one in-process runtime at a time, entered and
# driven from one thread — still fires for them.  A runtime opts out
# by setting class attribute ``exclusive = False`` (served sessions:
# they keep no process-global state, all their ids live server-side).
_tls = threading.local()
_exclusive_lock = threading.Lock()
_exclusive_owner: Optional[int] = None
_exclusive_depth = 0


def _thread_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current_runtime():
    """The innermost runtime active on *this thread*, or ``None``
    (sequential mode)."""

    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


def push_runtime(runtime) -> None:
    global _exclusive_owner, _exclusive_depth
    if getattr(runtime, "exclusive", True):
        with _exclusive_lock:
            owner = threading.get_ident()
            if _exclusive_depth and _exclusive_owner != owner:
                raise RuntimeError(
                    "a runtime is already active on another thread; the "
                    "SMPSs main program is single-threaded"
                )
            _exclusive_owner = owner
            _exclusive_depth += 1
    _thread_stack().append(runtime)


def _release_exclusive(runtime) -> None:
    global _exclusive_owner, _exclusive_depth
    if getattr(runtime, "exclusive", True):
        with _exclusive_lock:
            _exclusive_depth -= 1
            if _exclusive_depth <= 0:
                _exclusive_depth = 0
                _exclusive_owner = None


def pop_runtime(runtime) -> None:
    stack = getattr(_tls, "stack", None)
    if not stack or stack[-1] is not runtime:
        raise RuntimeError("runtime stack corruption: mismatched pop")
    stack.pop()
    _release_exclusive(runtime)


def discard_runtime(runtime) -> None:
    """Remove *runtime* from this thread's stack wherever it sits;
    never raises.

    The defensive complement of :func:`pop_runtime`: runtimes call it
    from ``__exit__`` so that an exception unwinding mid-``with`` (or a
    shutdown that died before its own pop) cannot leave a dead stack
    entry — and with it a stale exclusive slot that would wedge every
    later runtime behind the single-main-thread guard.  A no-op when
    the runtime is not on the stack.
    """

    stack = getattr(_tls, "stack", None)
    if not stack:
        return
    while runtime in stack:
        stack.remove(runtime)
        _release_exclusive(runtime)


def _neutralise_stack() -> None:
    """Forked-child disarm: drop every inherited runtime activation.

    Called by the mp worker entry point right after ``fork`` — the
    child must look sequential regardless of what the master's forking
    thread had active, and the exclusive slot must be free.
    """

    global _exclusive_owner, _exclusive_depth, _tls, _exclusive_lock
    _tls = threading.local()
    # Rebound, not acquired: another master thread could have held the
    # lock at fork time, and a copied held lock never unlocks.
    _exclusive_lock = threading.Lock()
    _exclusive_owner = None
    _exclusive_depth = 0


def barrier() -> None:
    """``#pragma css barrier``: wait for all tasks (no-op sequentially)."""

    runtime = current_runtime()
    if runtime is not None:
        runtime.barrier()


def wait_on(obj):
    """``#pragma css wait on(obj)``: a partial barrier on one datum.

    Waits until the last already-submitted writer of *obj* has finished
    and returns the up-to-date storage (the renamed buffer when
    renaming redirected the writes, *obj* itself otherwise) — so the
    main program can read one result, e.g. a pivot index in LU, while
    every other task keeps running.

    Sequential semantics are preserved in every mode: with no active
    runtime the call is a no-op returning *obj*; inside a task body
    (where task calls run inline and data is already up to date) it is
    likewise a no-op.
    """

    runtime = current_runtime()
    if runtime is None:
        return obj
    in_body = getattr(runtime, "in_task_body", None)
    if in_body is not None and in_body():
        return obj
    return runtime.acquire(obj)


def css_task(pragma: str = "", constants: Optional[dict] = None) -> Callable:
    """Declare a function as an SMPSs task.

    *pragma* is the clause list of the ``#pragma css task`` construct
    (see :mod:`repro.core.pragma`).  *constants* supplies values for
    names used in dimension/region expressions that are not parameters
    (the paper's compile-time constants such as ``N`` and ``M``).

    The returned wrapper exposes:

    * ``.definition`` — the :class:`TaskDefinition`;
    * ``.pragma`` — the parsed pragma;
    * ``.sequential(*args)`` — always call the plain function.
    """

    parsed = parse_pragma(pragma)

    def decorate(func: Callable) -> Callable:
        signature = inspect.signature(func)
        _validate_signature(func, signature, parsed)
        definition = TaskDefinition(
            func=func, params=parsed.params, high_priority=parsed.high_priority
        )

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            # current_runtime(), inline: a submission pays no call for it.
            stack = getattr(_tls, "stack", None)
            if not stack:
                return func(*args, **kwargs)
            runtime = stack[-1]
            # "SMPSs treats task calls inside tasks as normal function
            # calls" (sections VII.B/D): a call made from within an
            # executing task body runs inline, it does not nest.  The
            # try/except is free when the runtime has the method (all
            # bundled runtimes do) — cheaper per call than getattr.
            try:
                inline = runtime.in_task_body()
            except AttributeError:
                inline = False
            if inline:
                return func(*args, **kwargs)
            return runtime.submit(definition, args, kwargs)

        wrapper.definition = definition  # type: ignore[attr-defined]
        wrapper.pragma = parsed  # type: ignore[attr-defined]
        wrapper.sequential = func  # type: ignore[attr-defined]
        wrapper.constants = constants or {}  # type: ignore[attr-defined]
        if constants:
            # Constants ride on the definition so every runtime sees them.
            definition.constants = dict(constants)  # type: ignore[attr-defined]
        return wrapper

    return decorate


def _validate_signature(func, signature: inspect.Signature, parsed) -> None:
    bad_kinds = {
        inspect.Parameter.VAR_POSITIONAL: "*args",
        inspect.Parameter.VAR_KEYWORD: "**kwargs",
        inspect.Parameter.KEYWORD_ONLY: "keyword-only parameters",
    }
    for param in signature.parameters.values():
        if param.kind in bad_kinds:
            raise TypeError(
                f"task {func.__name__!r}: {bad_kinds[param.kind]} are not "
                f"supported in task signatures (tasks mirror C functions "
                f"with plain positional parameters)"
            )
    names = set(signature.parameters)
    for spec in parsed.params:
        if spec.name not in names:
            raise TypeError(
                f"task {func.__name__!r}: pragma declares parameter "
                f"{spec.name!r} which is not in the function signature"
            )

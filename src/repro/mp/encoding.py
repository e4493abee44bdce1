"""Wire format between the master and worker processes.

A task crosses the pipe as ``(definition key, definition payload,
encoded call values, write-back specs)``:

* the **definition key** is stable per :class:`TaskDefinition`; each
  worker caches resolved definitions so the payload (how to find the
  task function) is sent once per worker, not once per task;
* each **call value** ships either as an :class:`~repro.mp.arena.ArenaHandle`
  (when the resolved value is an ndarray living in a shared-memory
  arena — zero copy, and worker writes land directly in master memory)
  or by pickle (scalars, small objects, non-arena arrays);
* the **write-back specs** say which pickled values the worker must
  send back because the master's dependency semantics treat them as
  written — whole renamed buffers, lists/bytearrays, or the declared
  region slice of a region-mode access.  Arena-backed values never
  need write-back; the rest land in the master's storage by the shared
  rule (:func:`repro.net.codec.land`).

Everything here runs master-side except :func:`decode_values` /
:func:`collect_writebacks`, which the worker calls; keeping both ends
of the format in one module keeps them from drifting apart.
"""

from __future__ import annotations

import pickle

import numpy as np

from ..core.task import TaskInstance
from ..net.codec import (
    PROTOCOL,
    definition_address,
    land,
    resolve_address,
)
from .arena import handle_of

__all__ = [
    "MpSerializationError",
    "WorkerLostError",
    "RemoteTaskError",
    "definition_payload",
    "resolve_definition_func",
    "encode_values",
    "decode_values",
    "writeback_specs",
    "collect_writebacks",
    "apply_writebacks",
]

#: Value tags on the wire.
_ARENA = "a"
_PICKLE = "v"


class MpSerializationError(TypeError):
    """A task's arguments cannot cross the process boundary safely."""


class WorkerLostError(RuntimeError):
    """A worker process died and the task could not be recovered."""


class RemoteTaskError(RuntimeError):
    """A task body raised inside a worker process.

    Carries the remote exception's type name, message, and formatted
    traceback (the original object may not be picklable, so it never
    crosses the pipe).
    """

    def __init__(self, exc_type: str, message: str, remote_traceback: str):
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback

    def __str__(self) -> str:
        base = super().__str__()
        if self.remote_traceback:
            return f"{base}\n--- remote traceback ---\n{self.remote_traceback}"
        return base


# ---------------------------------------------------------------------------
# task definitions
# ---------------------------------------------------------------------------

def definition_payload(definition) -> tuple:
    """How a worker locates the task function.

    Preferred form is ``("n", module, qualname)``: the worker imports
    the module and walks the qualname.  The attribute it finds is
    usually the ``@css_task`` wrapper, whose ``.sequential`` is the
    plain function — exactly what the worker must call (with no runtime
    on the worker's stack, calling the wrapper would also work, but
    resolving to the raw function keeps nested task calls trivially
    inline).  Functions that are not reachable by name (closures,
    ``<locals>``) fall back to pickling the function object itself;
    when neither works the task cannot run on the process backend.
    """

    address = definition_address(definition.func)
    if address is not None:
        return ("n", *address)
    try:
        return ("p", pickle.dumps(definition.func, protocol=PROTOCOL))
    except Exception as exc:
        raise MpSerializationError(
            f"task {definition.name!r}: function is not reachable by "
            f"module/qualname and not picklable ({exc!r}); the process "
            f"backend cannot ship it — define the task at module level "
            f"or use backend='threads'"
        ) from exc


def resolve_definition_func(payload: tuple):
    """Worker-side inverse of :func:`definition_payload`."""

    if payload[0] == "p":
        return pickle.loads(payload[1])
    _tag, module_name, qualname = payload
    obj = resolve_address(module_name, qualname)
    for inner in (getattr(obj, "sequential", None),
                  getattr(obj, "__wrapped__", None), obj):
        if callable(inner):
            return inner
    raise MpSerializationError(
        f"{module_name}.{qualname} resolved to a non-callable {obj!r}"
    )


# ---------------------------------------------------------------------------
# call values
# ---------------------------------------------------------------------------

def encode_values(task: TaskInstance, values: list) -> list:
    """Encode resolved call *values* for the wire.

    Arena-backed ndarrays (and any non-negative-stride view into one)
    become handles; everything else is embedded for pickling.  Opaque
    ndarray parameters are *required* to be arena-backed: the tracker
    ignores them, so a worker writing into a pickled copy (the paper's
    ``put_block``-through-``void*`` idiom) would be silently lost —
    exactly the failure mode this check turns into an error.
    """

    encoded: list = []
    opaque = task.definition.opaque_positions
    for pos, value in enumerate(values):
        handle = handle_of(value)
        if handle is not None:
            # As a plain tuple: it pickles ~4x faster than the class.
            encoded.append((_ARENA, tuple(handle)))
            continue
        if pos in opaque and isinstance(value, np.ndarray):
            raise MpSerializationError(
                f"task {task.name!r}: opaque ndarray parameter "
                f"{task.definition.param_names[pos]!r} is not arena-backed; "
                f"worker writes to a pickled copy would be lost silently. "
                f"Allocate it with repro.arena_array(...) or run with "
                f"backend='threads'."
            )
        encoded.append((_PICKLE, value))
    return encoded


def decode_values(encoded: list, attach) -> list:
    """Worker-side: materialise the argument list; *attach* maps the
    wire form of a handle to its array."""

    return [
        attach(payload) if tag == _ARENA else payload
        for tag, payload in encoded
    ]


# ---------------------------------------------------------------------------
# write-back
# ---------------------------------------------------------------------------

def writeback_specs(task: TaskInstance, values: list, encoded: list) -> list:
    """Which positions the worker must return, as ``(pos, slices)``;
    *encoded* is :func:`encode_values`' answer for the same *values*.

    ``slices`` is ``None`` for whole-object write-back and a tuple of
    :class:`slice` objects for region-mode accesses (two workers
    writing disjoint regions of one array must each copy back only
    their own region, or the later copy would clobber the earlier one).
    Arena-backed values are skipped — worker writes already landed in
    shared memory.
    """

    specs: list = []
    for pos, region in task.written():
        if encoded[pos][0] == _ARENA:
            continue
        value = values[pos]
        slices = None if region is None else region.to_slices()
        if not isinstance(value, np.ndarray) and (
                slices is not None
                or not isinstance(value, (list, bytearray))):
            raise MpSerializationError(
                f"task {task.name!r}: written parameter "
                f"{task.definition.param_names[pos]!r} has type "
                f"{type(value).__name__}, which "
                f"the process backend cannot copy back from a worker; "
                f"use an ndarray/list/bytearray, an arena-backed array, "
                f"or backend='threads'"
            )
        specs.append((pos, slices))
    return specs


def collect_writebacks(specs: list, values: list) -> list:
    """Worker-side: the values (or region slices) to send home."""

    return [
        values[pos] if slices is None
        else np.ascontiguousarray(values[pos][slices])
        for pos, slices in specs
    ]


def apply_writebacks(specs: list, payloads: list, values: list) -> None:
    """Master-side: land returned data in the task's resolved storage.

    Runs on the proxy thread *before* the task is marked complete, so
    successors (and the barrier's write-back pass) observe the data
    exactly as if the task had executed locally.
    """

    for (pos, slices), payload in zip(specs, payloads):
        land(values[pos], payload, slices)

"""The process backend's choices in the one task record
(:mod:`repro.net.codec`): a plain ndarray (any view) rides as an
**arena handle** — its own arena block, or the copy
:mod:`repro.mp.residency` keeps of it — so worker writes land in shared
memory; everything else rides **inline**.  The **write-back specs**
``(pos, slices)`` name the inline values a task writes (lists and
bytearrays whole, a region access's declared slice only), sent home
with the reply and landed by :func:`repro.net.codec.land`; the
**definition payload** says how a remote end finds the task function.
:func:`collect_writebacks` is the remote half, called by the one runner
(:func:`repro.mp.worker.run_record`) on worker processes and agents.
"""

from __future__ import annotations

import pickle

import numpy as np

from ..core.task import TaskInstance
from ..net.codec import (
    HANDLE,
    INLINE,
    PROTOCOL,
    SerializationError,
    definition_address,
    land,
    resolve_address,
)

__all__ = [
    "definition_payload",
    "resolve_definition_func",
    "encode_values",
    "writeback_specs",
    "collect_writebacks",
    "apply_writebacks",
]


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
        raise SerializationError(
            f"task {definition.name!r}: function is not reachable by "
            f"module/qualname and not picklable ({exc!r}); it cannot be "
            f"shipped to a worker — define the task at module level "
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
    raise SerializationError(
        f"{module_name}.{qualname} resolved to a non-callable {obj!r}"
    )


def encode_values(values: list, residency) -> list:
    """Encode resolved call *values* for the wire.

    A plain ndarray (any view included) becomes a handle into its own
    arena block or into the copy *residency* (an
    :class:`~repro.mp.residency.ArenaResidency`) keeps of it, as a
    plain tuple: it pickles ~4x faster than the class.  Everything else
    is embedded for pickling.  An opaque ndarray parameter therefore
    writes through shared memory like any other array (the paper's
    ``put_block``-through-``void*`` idiom).
    """

    return [
        (HANDLE, handle) if type(value) is np.ndarray
        and (handle := residency.handle(value)) is not None
        else (INLINE, value)
        for value in values
    ]


def writeback_specs(task: TaskInstance, values: list, encoded: list) -> list:
    """Which positions the worker must return, as ``(pos, slices)``;
    *encoded* is :func:`encode_values`' answer for the same *values*.

    ``slices`` is ``None`` for whole-object write-back and a tuple of
    :class:`slice` objects for region-mode accesses (two workers
    writing disjoint regions of one array must each copy back only
    their own region, or the later copy would clobber the earlier one).
    Values shipped by handle are skipped — worker writes already landed
    in shared memory.
    """

    specs: list = []
    for pos, region in task.written():
        if encoded[pos][0] == HANDLE:
            continue
        value = values[pos]
        slices = None if region is None else region.to_slices()
        if not isinstance(value, np.ndarray) and (
                slices is not None
                or not isinstance(value, (list, bytearray))):
            raise SerializationError(
                f"task {task.name!r}: written parameter "
                f"{task.definition.param_names[pos]!r} has type "
                f"{type(value).__name__}, which "
                f"the process backend cannot copy back from a worker; "
                f"use an ndarray/list/bytearray or backend='threads'"
            )
        specs.append((pos, slices))
    return specs


def collect_writebacks(specs: list, values: list) -> list:
    """Remote-side: the values (or region slices) to send home."""

    return [
        values[pos] if slices is None
        else np.ascontiguousarray(values[pos][slices])
        for pos, slices in specs
    ]


def apply_writebacks(specs: list, payloads: list, values: list) -> None:
    """Master-side: land a reply's write-backs in the task's resolved
    storage.

    Runs on the dispatcher *before* the task is marked complete, so
    successors (and the barrier's write-back pass) observe the data
    exactly as if the task had executed locally.
    """

    for (pos, slices), payload in zip(specs, payloads):
        land(values[pos], payload, slices)

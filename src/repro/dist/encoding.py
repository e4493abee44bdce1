"""What the cluster backend adds to the one task record.

A task crosses to a node agent as the same positional record a process
worker gets (:func:`repro.mp.worker.task_record`, its value specs in
:mod:`repro.net.codec`), one message of a record stream.  The cluster's part is
**datum residency**: content already resident on the target node rides
as a reference, not as bytes, and the record's puts tell the agent which
written values its store keeps.  Here: which values may ride inline,
how an agent allocates fresh storage from a shape alone, the checksum
that catches master-side mutation between barriers, and the one
cluster-only error, :class:`DistDataLossError`.

Everything crosses as pickles between trusted processes, the same
security model as :mod:`repro.mp`'s pipes — never expose an agent port
to an untrusted network (see ``docs/distributed.md``).
"""

from __future__ import annotations

import zlib
from typing import Any, Optional

import numpy as np

# The blob half of the format is repro.net.codec's.  Its three functions
# stay reachable here because benchmarks/e2e/e2e_trace.py times them
# under this module's name.
from ..net.codec import (  # noqa: F401
    SerializationError,
    apply_blob,
    decode_blob,
    encode_blob,
)

__all__ = [
    "DistDataLossError",
    "alloc_from_meta",
    "alloc_meta",
    "content_checksum",
]

#: Types that may ship inline through an OPAQUE parameter.  Anything
#: richer (an ndarray, a HyperMatrix) would be pickled into a *copy*
#: on the agent, and writes through it silently lost.
SCALAR_TYPES = (
    int, float, complex, bool, str, bytes, type(None), tuple, frozenset,
)


class DistDataLossError(RuntimeError):
    """The only copy of a datum's current version died with its node.

    Only possible in the default lazy-residency mode, for a version a
    later writer has superseded and whose successor has not run yet; run
    with ``dist_write_through=True`` when agents are expected to die.
    """


def alloc_meta(obj: Any) -> dict:
    """How an agent allocates storage shaped like *obj* locally."""

    if isinstance(obj, np.ndarray):
        return {"t": "nd", "dtype": obj.dtype.str, "shape": list(obj.shape)}
    if isinstance(obj, list):
        return {"t": "list", "n": len(obj)}
    if isinstance(obj, bytearray):
        return {"t": "ba", "n": len(obj)}
    raise SerializationError(
        f"cannot describe a fresh {type(obj).__name__} for remote "
        f"allocation"
    )


def alloc_from_meta(meta: dict) -> Any:
    """Agent-side inverse of :func:`alloc_meta`.

    ndarrays allocate zeroed — deterministic across nodes, and the
    declared-region write-back discipline means uninitialised bytes
    are never shipped home anyway.
    """

    if meta["t"] == "nd":
        return np.zeros(tuple(meta["shape"]), dtype=np.dtype(meta["dtype"]))
    if meta["t"] == "list":
        return [None] * meta["n"]
    return bytearray(meta["n"])


def content_checksum(obj: Any) -> Optional[int]:
    """Cheap adler32 over a value's current content.

    The residency map re-verifies surviving cache entries once per
    barrier generation with this: a user mutating an array *between*
    barriers (outside any task) would otherwise leave remote copies
    silently stale.  ``None`` for types we do not checksum (those are
    never barrier-survivors).
    """

    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            return None
        return zlib.adler32(np.ascontiguousarray(obj).tobytes())
    if isinstance(obj, bytearray):
        return zlib.adler32(bytes(obj))
    return None

"""Wire format between the master and node agents.

A task crosses the network as ONE frame (:mod:`repro.net.frames`)
whose payload is a pickled message; the interesting part is how each
call value is encoded.  Unlike the process backend — whose arena copy
of a heap array lasts only until the barrier — the cluster backend is
built around
**datum residency**: content already resident on the target node ships
as a tiny reference, not as bytes.  Five value-spec forms:

``("s", value)``
    Inline: scalars, small untracked objects.  Pickled in place.
``("r", key, version)``
    Resident reference: use the agent-store object under *key*, once
    its content version is at least *version* (a condition wait covers
    the rare case where the producing dispatch is still in flight on a
    sibling slot).
``("d", key, version, meta, payload)``
    Data ship: store ``decode_blob(meta, payload)`` under *key* at
    *version*, then use it (the ``(meta, payload)`` blob and how it
    lands are :mod:`repro.net.codec`'s).  This is the
    cache-miss path the ``dist.bytes_moved`` counter measures.
``("f", key, meta)``
    Fresh output: allocate storage agent-side from *meta* alone —
    renamed OUTPUT buffers have no content worth moving.
``("g", meta, parts)``
    Region-mode buffer: allocate the full shape, fill only the
    declared read slices from *parts* (``[(slices_spec, meta,
    payload), ...]``).  Region data is never cached (disjoint regions
    of one array may be written concurrently on different nodes, so no
    single node ever holds "the" current array).

Keys are ``"{sid}:{serial}"`` strings — the session id namespaces
multiple masters sharing one agent, and the serial pins the entry even
if Python reuses the object id master-side.

Everything crosses as pickles between trusted processes, the same
security model as :mod:`repro.mp`'s pipes — never expose an agent port
to an untrusted network (see ``docs/distributed.md``).
"""

from __future__ import annotations

import zlib
from typing import Any, Optional

import numpy as np

from ..mp.encoding import RemoteTaskError
# The blob half of the format is repro.net.codec's.  Its three functions
# stay reachable here because benchmarks/e2e/e2e_trace.py times them
# under this module's name.
from ..net.codec import apply_blob, decode_blob, encode_blob  # noqa: F401

__all__ = [
    "AgentLostError",
    "DistDataLossError",
    "DistSerializationError",
    "RemoteTaskError",
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


class DistSerializationError(TypeError):
    """A task's arguments cannot cross to a node agent safely."""


class AgentLostError(RuntimeError):
    """A node agent died and the task could not be recovered."""


class DistDataLossError(RuntimeError):
    """The only copy of a datum's current version died with its node.

    Only possible in the default lazy-residency mode, for a version a
    later writer has superseded and whose successor has not run yet; run
    with ``dist_write_through=True`` when agents are expected to die.
    """


# ---------------------------------------------------------------------------
# remote allocation
# ---------------------------------------------------------------------------

def alloc_meta(obj: Any) -> dict:
    """How an agent allocates storage shaped like *obj* locally."""

    if isinstance(obj, np.ndarray):
        return {"t": "nd", "dtype": obj.dtype.str, "shape": list(obj.shape)}
    if isinstance(obj, list):
        return {"t": "list", "n": len(obj)}
    if isinstance(obj, bytearray):
        return {"t": "ba", "n": len(obj)}
    raise DistSerializationError(
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


# ---------------------------------------------------------------------------
# content checksums (survivor-cache verification)
# ---------------------------------------------------------------------------

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

"""Wire codecs for task-graph submissions.

Rides the same JSON-lines transport as every other repro surface
(:mod:`repro.net`); this module only defines the payload shapes.

A ``run`` command ships one whole graph::

    {"cmd": "run", "seq": N,
     "data":  {datum_id: datum_payload, ...},
     "tasks": [{"def": [module, qualname], "args": [argspec, ...]}, ...]}

and its ack returns every datum's post-barrier bytes::

    {"results": {datum_id: datum_payload, ...},
     "tasks": N, "seconds": s}

A datum payload is the shared blob of :mod:`repro.net.codec` — its
meta dict (``"t": "nd"`` with dtype/shape for plain ndarrays,
``"t": "pkl"`` for containers and structured/object arrays) with the
payload bytes base64'd onto the JSON line under ``"b64"`` — so a round
trip is bitwise and results land in place by the same rule as on every
other backend.  Task *definitions* are referenced
by module/qualname — the same registration rule as the mp backend —
and resolved server-side to the ``@css_task`` wrapper, whose
``.definition`` carries the full pragma (directions, regions,
priorities) the server's dependency analysis needs.  Scalar arguments
whose JSON rendering round-trips exactly (int/float/bool/str/None) go
inline; every other by-value type (tuple, complex, numpy scalars, ...)
ships pickled.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any

import numpy as np

from ..net.codec import (
    PROTOCOL,
    apply_blob,
    decode_blob,
    definition_address,
    encode_blob,
    resolve_address,
)
from .errors import ServeError

__all__ = [
    "SERVE_PROTOCOL_VERSION",
    "encode_datum",
    "decode_datum",
    "write_back_into",
    "encode_value",
    "decode_value",
    "definition_ref",
    "resolve_definition",
    "is_datum",
]

#: Checked at ``open``: 2 = datum payloads tagged by the shared blob
#: meta (``"t"``), where 1 had serve's own ``"k"`` tags.
SERVE_PROTOCOL_VERSION = 2

#: Tracked (shipped-by-reference) container types the session can
#: write results back into in place.  Mirrors the tracker's by-value
#: scalar set from the other side: anything the tracker would track
#: must be one of these to cross the wire.
_DATUM_TYPES = (np.ndarray, list, bytearray, dict)

#: Scalars whose JSON rendering round-trips exactly.
_JSON_EXACT = (bool, int, float, str, type(None))


def is_datum(value: Any) -> bool:
    """Would the dependency tracker track *value* (ship by reference)?"""

    from ..core.dependencies import _SCALAR_TYPES

    return not isinstance(value, _SCALAR_TYPES)


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def encode_datum(obj: Any) -> dict:
    """Exact payload for one tracked datum."""

    if not isinstance(obj, _DATUM_TYPES):
        raise ServeError(
            f"cannot ship tracked datum of type {type(obj).__name__}: the "
            f"serve surface supports ndarray, list, bytearray, and dict "
            f"(results must be writable back in place)"
        )
    payload, raw = encode_blob(obj)
    payload["b64"] = _b64(raw)
    return payload


def decode_datum(payload: dict) -> Any:
    return decode_blob(payload, base64.b64decode(payload["b64"]))


def write_back_into(target: Any, payload: dict) -> None:
    """Apply a result payload into the client's original object."""

    apply_blob(target, payload, base64.b64decode(payload["b64"]))


def encode_value(value: Any) -> dict:
    """Argspec for one by-value argument."""

    if isinstance(value, _JSON_EXACT):
        # Python's json renders floats with repr (and accepts the
        # NaN/Infinity extensions), so the round trip is exact.
        return {"v": value}
    try:
        return {"p": _b64(pickle.dumps(value, protocol=PROTOCOL))}
    except Exception as exc:  # noqa: BLE001 - reported to the caller
        raise ServeError(
            f"argument of type {type(value).__name__} is not "
            f"serialisable: {exc}"
        ) from exc


def decode_value(spec: dict) -> Any:
    if "v" in spec:
        return spec["v"]
    if "p" in spec:
        return pickle.loads(base64.b64decode(spec["p"]))
    raise ServeError(f"unknown value spec {spec!r}")


def definition_ref(definition) -> list:
    """``[module, qualname]`` for a task importable on the server.

    Same registration rule as the mp backend: the ``@css_task`` must
    live at module scope under its own name, so both sides resolve the
    identical pragma.
    """

    address = definition_address(definition.func)
    if address is None:
        raise ServeError(
            f"task {definition.name!r} is not addressable by "
            f"module/qualname (defined inside a function?); served "
            f"execution requires module-level @css_task definitions"
        )
    return list(address)


def resolve_definition(ref) -> Any:
    """Resolve ``[module, qualname]`` to the full TaskDefinition."""

    module_name, qualname = ref
    try:
        obj = resolve_address(module_name, qualname)
    except (ImportError, AttributeError) as exc:
        raise ServeError(
            f"cannot resolve task {module_name}.{qualname}: {exc}"
        ) from exc
    definition = getattr(obj, "definition", None)
    if definition is None:
        raise ServeError(
            f"{module_name}.{qualname} is not a @css_task (no "
            f".definition attribute)"
        )
    return definition

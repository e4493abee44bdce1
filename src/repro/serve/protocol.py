"""Wire codecs for task-graph submissions.

Rides the same transport as every other repro surface
(:mod:`repro.net`); this module only defines the payload shapes.

A ``run`` command ships one whole graph: a small JSON line, then its
bulk data as binary frames (:mod:`repro.net.frames`)::

    {"cmd": "run", "seq": N, "frames": K,
     "data":  {datum_id: attachment_index, ...},
     "tasks": [{"def": [module, qualname], "args": [argspec, ...]}, ...]}
    <K frames>

and its ack (``"frames": K`` again, K frames behind it; each record is
one gather write) returns the post-barrier content of every datum some
task may write — one only ever passed to an ``input`` parameter stays out::

    {"results": {datum_id: attachment_index, ...}, "tasks": N, "seconds": s}

An attachment is the shared blob of :mod:`repro.net.codec`: the frame's
header is the meta dict (``"t": "nd"`` with dtype/shape for plain
ndarrays, ``"t": "pkl"`` for containers and structured/object arrays),
its payload the raw bytes — a round trip is bitwise, nothing is
text-encoded, and results land in place by the same rule as on every
other backend.  In memory a record's ``frames`` is the list of blobs the
line's indices point into.  Task *definitions* are referenced by
module/qualname — the mp backend's registration rule — and resolved
server-side to the ``@css_task`` wrapper, whose ``.definition`` carries
the full pragma the server's dependency analysis needs.  Scalar
arguments whose JSON rendering round-trips exactly
(int/float/bool/str/None) go inline; every other by-value type (tuple,
complex, numpy scalars, ...) ships pickled, as one more attachment.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.dependencies import _SCALAR_TYPES
from ..net.codec import (
    apply_blob,
    decode_blob,
    definition_address,
    encode_blob,
    resolve_address,
)
from .errors import ServeError

__all__ = [
    "SERVE_PROTOCOL_VERSION",
    "attach",
    "attachment",
    "encode_datum",
    "decode_datum",
    "write_back_into",
    "encode_value",
    "decode_value",
    "definition_ref",
    "resolve_definition",
    "is_datum",
]

#: Checked at ``open``: 3 = datum content follows the line as binary
#: frames, where 2 spelled it into the line as text.
SERVE_PROTOCOL_VERSION = 3

#: Tracked (shipped-by-reference) container types the session can
#: write results back into in place.  Mirrors the tracker's by-value
#: scalar set from the other side: anything the tracker would track
#: must be one of these to cross the wire.
_DATUM_TYPES = (np.ndarray, list, bytearray, dict)

#: Scalars whose JSON rendering round-trips exactly.
_JSON_EXACT = (bool, int, float, str, type(None))


def is_datum(value: Any) -> bool:
    """Would the dependency tracker track *value* (ship by reference)?"""

    return not isinstance(value, _SCALAR_TYPES)


def attach(frames: list, blob: tuple) -> int:
    """Append *blob* to a record's attachments; its index on the line."""

    frames.append(blob)
    return len(frames) - 1


def attachment(frames, index) -> tuple:
    """The blob a line's *index* refers to."""

    if type(index) is not int or not 0 <= index < len(frames):
        raise ServeError(
            f"record refers to attachment {index!r} but carries "
            f"{len(frames)}", code="bad_attachment",
        )
    return frames[index]


def encode_datum(obj: Any) -> tuple[dict, bytes]:
    """Exact ``(meta, payload)`` blob for one tracked datum."""

    if not isinstance(obj, _DATUM_TYPES):
        raise ServeError(
            f"cannot ship tracked datum of type {type(obj).__name__}: the "
            f"serve surface supports ndarray, list, bytearray, and dict "
            f"(results must be writable back in place)"
        )
    return encode_blob(obj)


def decode_datum(blob: tuple) -> Any:
    meta, payload = blob
    try:
        return decode_blob(meta, payload)
    except (KeyError, TypeError, ValueError) as exc:
        # A payload length that disagrees with the declared dtype/shape,
        # or a meta that declares neither.
        raise ServeError(
            f"attachment of {len(payload)} bytes is not the datum its "
            f"header {meta!r} declares: {exc}", code="bad_attachment",
        ) from exc


def write_back_into(target: Any, blob: tuple) -> None:
    """Apply a result blob into the client's original object."""

    apply_blob(target, *blob)


def encode_value(value: Any, frames: list) -> dict:
    """Argspec for one by-value argument; what is not JSON-exact joins
    *frames* pickled."""

    if isinstance(value, _JSON_EXACT):
        # Python's json renders floats with repr (and accepts the
        # NaN/Infinity extensions), so the round trip is exact.
        return {"v": value}
    try:
        return {"p": attach(frames, encode_blob(value))}
    except Exception as exc:  # noqa: BLE001 - reported to the caller
        raise ServeError(
            f"argument of type {type(value).__name__} is not "
            f"serialisable: {exc}"
        ) from exc


def decode_value(spec: dict, frames) -> Any:
    if "v" in spec:
        return spec["v"]
    if "p" in spec:
        return decode_datum(attachment(frames, spec["p"]))
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

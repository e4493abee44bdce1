"""The one datum codec: how a value's content becomes bytes, comes
back, and lands in the caller's storage.

A **blob** is exactly a frame's ``(header-meta, payload)`` pair
(:mod:`repro.net.frames`): the cluster backend ships it as a frame, the
serve wire attaches it as a frame to a JSON line, and the process
backend lands pickled write-backs through the same in-place rule.
Every boundary a datum crosses decides these five things here and
nowhere else:

* the **content format** — plain ndarrays as raw C-order bytes plus
  dtype/shape, everything else pickled.  Structured and object dtypes
  take the pickle path: ``dtype.str`` cannot round-trip the former and
  the latter's raw bytes are pointers;
* the **landing rule** — how returned content overwrites the caller's
  original object in place (:func:`land`);
* the wire form of **region slices**;
* **definition addressing** — a task function as ``(module, qualname)``
  and the import-and-walk inverse;
* the **remote-error triple** a failed body crosses as.

Pickles cross only between trusted processes — the security model of
:mod:`repro.mp`'s pipes (see ``docs/distributed.md``).
"""

from __future__ import annotations

import importlib
import pickle
import traceback
from typing import Any, Optional

import numpy as np

__all__ = [
    "PROTOCOL",
    "apply_blob",
    "decode_blob",
    "definition_address",
    "encode_blob",
    "format_remote_error",
    "land",
    "resolve_address",
    "slices_from_spec",
    "slices_spec",
]

PROTOCOL = pickle.HIGHEST_PROTOCOL


def encode_blob(obj: Any) -> tuple[dict, bytes]:
    """``(meta, payload)`` for one value's content."""

    if isinstance(obj, np.ndarray) and obj.dtype.names is None \
            and not obj.dtype.hasobject:
        # tobytes() walks any view in C order, so neither a strided
        # view nor a 0-d array needs a contiguous copy made first.
        meta = {"t": "nd", "dtype": obj.dtype.str, "shape": list(obj.shape)}
        return meta, obj.tobytes()
    return {"t": "pkl"}, pickle.dumps(obj, protocol=PROTOCOL)


def _content(meta: dict, payload: bytes) -> Any:
    """The decoded value; an ndarray is a read-only view over *payload*."""

    kind = meta.get("t")
    if kind == "nd":
        flat = np.frombuffer(payload, dtype=np.dtype(meta["dtype"]))
        return flat.reshape(tuple(meta["shape"]))
    if kind == "pkl":
        return pickle.loads(payload)
    raise ValueError(f"unknown blob kind {kind!r}")


def decode_blob(meta: dict, payload: bytes) -> Any:
    """Inverse of :func:`encode_blob`; ndarrays come back writable."""

    value = _content(meta, payload)
    # Task bodies write into their arrays: a private copy, not the view.
    return value.copy() if meta["t"] == "nd" else value


def land(target: Any, value: Any, slices: Optional[tuple] = None) -> None:
    """Overwrite *target* (or the region *slices* of it) with *value*,
    in place — the caller's object keeps its identity."""

    if slices is not None:
        target[slices] = value
    elif isinstance(target, np.ndarray):
        target[...] = value
    elif isinstance(target, (list, bytearray)):
        target[:] = value
    elif isinstance(target, dict):
        target.clear()
        target.update(value)
    else:
        raise TypeError(
            f"cannot write a result back into {type(target).__name__}"
        )


def apply_blob(target: Any, meta: dict, payload: bytes,
               slices: Optional[tuple] = None) -> None:
    """Land a blob's content in *target*, straight from the payload
    view (no intermediate copy of array content)."""

    land(target, _content(meta, payload), slices)


def slices_spec(slices: tuple) -> tuple:
    """JSON/pickle-stable form of a tuple of :class:`slice` objects."""

    return tuple((s.start, s.stop, s.step) for s in slices)


def slices_from_spec(spec) -> tuple:
    return tuple(slice(a, b, c) for a, b, c in spec)


def definition_address(func) -> Optional[tuple[str, str]]:
    """``(module, qualname)`` when *func* is reachable by name from an
    importable module; ``None`` for closures and other ``<locals>``."""

    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if module and qualname and "<locals>" not in qualname:
        return module, qualname
    return None


def resolve_address(module_name: str, qualname: str) -> Any:
    """Import *module_name* and walk *qualname*; raises ``ImportError``
    or ``AttributeError`` when either step fails."""

    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def format_remote_error(exc: BaseException) -> tuple[str, str, str]:
    """``(type name, message, formatted traceback)`` — the exception
    object itself may not be picklable, so it never crosses."""

    return (
        type(exc).__name__,
        str(exc),
        "".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
    )

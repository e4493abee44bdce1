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
* **definition addressing** — a task function as ``(module, qualname)``
  and the import-and-walk inverse;
* the **value specs** of a task record (below);
* the **remote-error triple** a failed body crosses as, and the two
  structured errors of a remote end: :class:`SerializationError` and
  :class:`WorkerLostError`.

A task leaves the master as one positional record
(:func:`repro.mp.worker.task_record`) whether a worker process or a
node agent runs it, and each call value rides in it as one of six
value specs; the remote end's resolver turns a spec into the object
the body gets, and refuses a tag it does not serve:

``("v", value)``
    Inline: pickled in place (scalars, small objects, read-only
    copies).  Every resolver serves it.
``("a", handle)``
    Arena handle: a block of a shared-memory arena
    (:mod:`repro.mp.arena`); worker writes land in place.  Process
    workers only.
``("r", key, version)``
    Resident reference: the node store's object under *key*, once its
    content version is at least *version*.
``("d", key, version, meta, payload)``
    Data ship: the blob stored under *key* at *version*, then used —
    the cache miss ``dist.bytes_moved`` counts.
``("f", meta)``
    Fresh allocation from *meta* alone: a renamed output's content is
    junk, so only its shape crosses.
``("g", meta, parts)``
    Region parts: allocated from *meta*, then only the declared read
    slices filled from ``parts = [(slices, meta, payload), ...]``.
    Never cached: disjoint regions of one array may be written on
    different nodes at once.

The last four are a node agent's (its store keys are ``"{sid}:{serial}"``
strings: the session id namespaces masters sharing one agent).

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
    "FRESH",
    "HANDLE",
    "INLINE",
    "PARTS",
    "PROTOCOL",
    "RESIDENT",
    "RemoteTaskError",
    "SHIP",
    "SerializationError",
    "WorkerLostError",
    "apply_blob",
    "decode_blob",
    "definition_address",
    "encode_blob",
    "format_remote_error",
    "land",
    "resolve_address",
    "unserved",
]

PROTOCOL = pickle.HIGHEST_PROTOCOL

#: The value-spec tags (module docstring).
INLINE, HANDLE, RESIDENT, SHIP, FRESH, PARTS = "v", "a", "r", "d", "f", "g"


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


class SerializationError(TypeError):
    """A task cannot cross to its remote end safely: an argument the
    wire cannot carry (or carry back), a function that cannot be found
    there, or a value spec the receiving resolver does not serve.
    ``slot`` (the worker thread index) and ``node`` (the cluster node,
    ``None`` for a process worker) name the remote end, stamped by the
    dispatching backend unless the raiser knew them."""

    slot: Optional[int] = None
    node: Optional[str] = None


class WorkerLostError(RuntimeError):
    """A worker process or node agent died and the task could not be
    recovered; ``slot`` and ``node`` as for :class:`SerializationError`."""

    slot: Optional[int] = None
    node: Optional[str] = None


class RemoteTaskError(RuntimeError):
    """A task body raised on a remote end.

    Carries the remote exception's type name, message and formatted
    traceback (the original object may not be picklable, so it never
    crosses).
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


def unserved(spec, who: str):
    """Raise the structured refusal of a resolver given *spec*."""

    raise SerializationError(
        f"{who} does not serve value spec {spec[0]!r}; the master and "
        f"its remote end disagree on the task record"
    )

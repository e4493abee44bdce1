"""A runtime's one observation endpoint, and the Prometheus rendering.

:func:`open_endpoint` binds the single :class:`repro.net.Server` a
runtime owns (``address=...``, or ``live=True``) and answers on it:

* the live plane's commands and trace-record stream (:mod:`repro.live`);
* ``metrics`` (the Prometheus page in the ack — what :func:`scrape`
  and ``python -m repro obs scrape`` use), ``health``, ``dump`` and
  ``ping`` over JSON lines;
* plain HTTP: the server sniffs the first bytes of a connection, so
  ``curl http://host:port/metrics`` (or a Prometheus scrape target) and
  ``GET /health`` work against the same port.

:func:`http_response` is the one HTTP router; the task-graph daemon
serves its ``/metrics/<tenant>`` pages through it too.

Naming: series are prefixed ``repro_`` with dots/invalid characters
mapped to underscores (``scheduler.pops_high`` →
``repro_scheduler_pops_high``).  Counters and gauges map directly;
histograms are rendered as Prometheus *summaries* — p50/p95/p99 via
:meth:`HistogramMetric.quantile` plus ``_sum``/``_count`` — because
the power-of-two bucket layout has no fixed ``le`` schema worth
promising to dashboards.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import Callable, Optional

from ..net.client import Client
from ..net.protocol import PROTOCOL_VERSION, build_http_response
from ..net.server import Server
from .metrics import CounterMetric, GaugeMetric, HistogramMetric, MetricsRegistry

__all__ = [
    "CONTENT_TYPE",
    "EndpointError",
    "http_response",
    "open_endpoint",
    "render_registry",
    "scrape",
]

#: The Prometheus text-format content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Quantiles published for every histogram series.
QUANTILES = (0.5, 0.95, 0.99)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, prefix: str) -> str:
    out = prefix + _NAME_RE.sub("_", name)
    if out[0].isdigit():
        out = "_" + out
    return out


def _label_str(labels, extra: Optional[dict] = None) -> str:
    pairs = [(k, v) for k, v in labels]
    if extra:
        pairs.extend(extra.items())
    if not pairs:
        return ""
    rendered = []
    for key, value in pairs:
        key = _LABEL_RE.sub("_", str(key))
        value = str(value).replace("\\", "\\\\").replace('"', '\\"')
        value = value.replace("\n", "\\n")
        rendered.append(f'{key}="{value}"')
    return "{" + ",".join(rendered) + "}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    try:
        return repr(float(value))
    except (TypeError, ValueError):
        return "0"


def render_registry(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Prometheus text for every series in *registry*.

    Reads metric objects without folding or mutating them, so a scrape
    concurrent with a running workload never corrupts the tallies; a
    series that races a writer mid-read is skipped for this scrape
    rather than poisoning the whole page.
    """

    groups: dict[str, list] = {}
    for metric in registry:
        groups.setdefault(metric.name, []).append(metric)
    lines: list[str] = []
    for name in sorted(groups):
        metrics = groups[name]
        pname = _metric_name(name, prefix)
        first = metrics[0]
        if isinstance(first, CounterMetric):
            ptype = "counter"
        elif isinstance(first, GaugeMetric):
            ptype = "gauge"
        else:
            ptype = "summary"
        lines.append(f"# HELP {pname} repro series {name}")
        lines.append(f"# TYPE {pname} {ptype}")
        for metric in sorted(metrics, key=lambda m: m.labels):
            try:
                if isinstance(metric, HistogramMetric):
                    # Non-mutating reads: quantile() never folds, and
                    # count/sum are recomposed from the tallies plus the
                    # pending buffer directly.
                    raw = list(metric._raw)
                    count = metric._count + len(raw)
                    total = metric._sum + sum(raw)
                    for q in QUANTILES:
                        value = metric.quantile(q)
                        if value is None:
                            continue
                        labels = _label_str(
                            metric.labels, {"quantile": q}
                        )
                        lines.append(f"{pname}{labels} {_fmt(value)}")
                    labels = _label_str(metric.labels)
                    lines.append(f"{pname}_sum{labels} {_fmt(total)}")
                    lines.append(f"{pname}_count{labels} {count}")
                else:
                    labels = _label_str(metric.labels)
                    lines.append(
                        f"{pname}{labels} {_fmt(metric.snapshot())}"
                    )
            except Exception:  # noqa: BLE001 - skip racing series
                continue
    return "\n".join(lines) + "\n"


def http_response(path: str, metrics_page: Callable[[str], str],
                  health: Callable[[], dict]) -> bytes:
    """The one HTTP ``GET`` router: ``/health`` answers *health()* as
    JSON, ``/metrics`` and ``/metrics/<tenant>`` answer
    *metrics_page(tenant)* (``""`` for every series), anything else a
    404 naming the routes."""

    if path.startswith("/health"):
        body = json.dumps(health(), default=str).encode("utf-8")
        return build_http_response("200 OK", "application/json", body)
    if path.startswith("/metrics"):
        rest = path[len("/metrics"):].strip("/")
        text = metrics_page(rest.split("/", 1)[0])
        return build_http_response(
            "200 OK", CONTENT_TYPE, text.encode("utf-8")
        )
    return build_http_response(
        "404 Not Found", "text/plain",
        b"routes: /metrics, /metrics/<tenant>, /health",
    )


class EndpointError(ValueError):
    """A command this endpoint is not set up to answer; crosses the
    wire as ``{"code", "message"}``."""

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code

    def to_wire(self) -> dict:
        return {"code": self.code, "message": str(self)}


def open_endpoint(runtime, address: Optional[str]) -> Server:
    """Bind *runtime*'s observation endpoint (see the module docstring).

    *address* ``None`` binds a unix socket in a fresh temp directory.
    A live command on a runtime without ``live=True`` is answered with
    an :class:`EndpointError` (code ``live_off``); without a health
    monitor, ``health`` is ``{"findings": [], "sample": {}}``.  A
    runtime has no tenants, so every ``/metrics/<tenant>`` is its
    whole page.
    """

    # Imported here, not at module level: a scrape or a serve daemon
    # need not load the live package.
    from ..live.protocol import COMMANDS as LIVE_COMMANDS

    if address is None:
        address = os.path.join(
            tempfile.mkdtemp(prefix="repro-live-"), "live.sock")

    def metrics_page(_tenant: str = "") -> str:
        try:
            if runtime._metrics_on:
                runtime._sync_metrics()
        except Exception:  # noqa: BLE001 - racy mirror, best effort
            pass
        if runtime.health is not None:
            runtime.health.note_scrape()
        return render_registry(runtime.metrics)

    def health() -> dict:
        if runtime.health is None:
            return {"findings": [], "sample": {}}
        return runtime.health.state()

    def handle(command: dict, conn) -> dict:
        cmd = command.get("cmd")
        if cmd == "metrics":
            return {"content_type": CONTENT_TYPE, "text": metrics_page()}
        if cmd == "health":
            return health()
        if cmd == "ping":
            return {"service": "repro.obs.health"}
        if cmd == "dump":
            if runtime.health is None:
                raise EndpointError(
                    "no health monitor attached (health=True)", "health_off")
            return runtime.health.dump(reason="remote")
        if cmd not in LIVE_COMMANDS:
            raise ValueError(f"unknown command {cmd!r}")
        if runtime.live is None:
            raise EndpointError(
                f"{cmd!r} is a live command; this runtime was started "
                f"without live=True", "live_off")
        return runtime.live.command(command)

    return Server(
        address,
        handle,
        http_responder=lambda path: http_response(path, metrics_page, health),
        hello={
            "service": "repro.obs.health",
            "version": PROTOCOL_VERSION,
            "threads": runtime.num_threads,
            "backend": runtime.config.backend,
            "pid": os.getpid(),
        },
        name="repro-runtime",
    )


def scrape(address: str, timeout: float = 5.0, command: str = "metrics"):
    """One-shot scrape of an exposition endpoint; returns the ack data.

    For ``command="metrics"`` the interesting field is ``data["text"]``
    (the Prometheus page); ``"health"`` returns the findings/state
    dict.  Speaks the JSON-lines protocol — for plain HTTP use any
    HTTP client against the same address.
    """

    with Client(address, timeout=timeout) as client:
        return client.command(command)

"""Live task-graph inspection, scheduler control, and replay.

The runtime records everything post mortem (:mod:`repro.obs`); this
package is the *in flight* counterpart — TEMANEJO-style (PAPERS.md)
attachable debugging for the SMPSs runtime:

* ``SmpssRuntime(live=True)`` installs a dispatch gate (pause /
  resume / step(n) / task-boundary breakpoints) and serves the run as
  a JSON-lines stream of its trace — each event the Chrome trace
  record the post-mortem export writes — over a unix or TCP socket;
* ``python -m repro live attach <addr>`` renders the terminal
  dashboard and drives the gate;
* ``python -m repro live replay <recording>`` runs a saved
  :class:`~repro.core.recorder.RecordedProgram` on the simulator under
  the section III policy, one virtual unit per task, and feeds its
  trace to the very same dashboard, with ``step``/``back`` time travel.

See ``docs/observability.md`` ("Live inspection & replay").
"""

from ..net.protocol import PROTOCOL_VERSION, parse_address
from .client import LiveClient, LiveClosed, LiveTimeout
from .dashboard import DashboardState, render
from .replay import ReplayEngine
from .session import LiveSession

__all__ = [
    "LiveClient",
    "LiveClosed",
    "LiveTimeout",
    "LiveSession",
    "DashboardState",
    "render",
    "ReplayEngine",
    "PROTOCOL_VERSION",
    "parse_address",
]

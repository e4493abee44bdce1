"""repro.dist — multi-node distributed execution backend.

``SmpssRuntime(backend="cluster", nodes=["tcp:host:port", ...])`` keeps
the paper's master — dependency tracker, renaming, scheduler — exactly
as-is and runs task *bodies* on remote node agents, each started with
``python -m repro dist agent ADDR``.  The interesting machinery is the
datum **residency** layer: inputs ship only when the target node does
not already hold their current version, an output rides home on its
task's reply while it is its datum's newest version, and the scheduler
places each task on the node holding the most of its input bytes.  See
``docs/distributed.md`` for the topology, the wire protocol, and the
failure semantics.  A task reaches an agent as the same record, and
fails with the same errors, as on the process backend.
"""

from ..net.codec import RemoteTaskError, SerializationError, WorkerLostError
from .agent import AgentServer
from .encoding import DistDataLossError
from .manager import ClusterBackend
from .residency import ResidencyEntry, ResidencyMap

__all__ = [
    "AgentServer",
    "ClusterBackend",
    "DistDataLossError",
    "RemoteTaskError",
    "ResidencyEntry",
    "ResidencyMap",
    "SerializationError",
    "WorkerLostError",
]

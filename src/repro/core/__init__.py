"""SMPSs core: programming model, dependency engine, scheduler, runtimes.

This package is the paper's primary contribution — see DESIGN.md for the
full inventory.  The stable public surface is re-exported here.
"""

from . import analysis
from .api import barrier, css_task, current_runtime, wait_on
from .config import RuntimeConfig
from .dependencies import DependencyError, DependencyTracker, TrackerConfig
from .graph import EdgeKind, TaskGraph
from .pragma import ParsedPragma, PragmaError, parse_expression, parse_pragma
from .recorder import RecordedProgram, RecordingRuntime, record_program
from .regions import Region, RegionError
from .renaming import AdapterRegistry, DataAdapter, Version, default_registry
from .representants import Representant, RepresentantTable
from .runtime import SmpssRuntime, TaskExecutionError
from .scheduler import CentralQueueScheduler, HotStealScheduler, SmpssScheduler
from .task import (
    Direction,
    InvocationError,
    ParamAccess,
    TaskDefinition,
    TaskInstance,
    TaskState,
)
from .tracing import EventKind, TraceEvent, Tracer

__all__ = [
    "analysis",
    "barrier",
    "css_task",
    "current_runtime",
    "wait_on",
    "DependencyError",
    "DependencyTracker",
    "TrackerConfig",
    "EdgeKind",
    "TaskGraph",
    "ParsedPragma",
    "PragmaError",
    "parse_expression",
    "parse_pragma",
    "RecordedProgram",
    "RecordingRuntime",
    "record_program",
    "Region",
    "RegionError",
    "AdapterRegistry",
    "DataAdapter",
    "Version",
    "default_registry",
    "Representant",
    "RepresentantTable",
    "RuntimeConfig",
    "SmpssRuntime",
    "TaskExecutionError",
    "CentralQueueScheduler",
    "HotStealScheduler",
    "SmpssScheduler",
    "Direction",
    "InvocationError",
    "ParamAccess",
    "TaskDefinition",
    "TaskInstance",
    "TaskState",
    "EventKind",
    "TraceEvent",
    "Tracer",
]

"""The redesigned public surface: snapshot, config knobs, wait_on, structure.

PR 4 unified the API around the fast-path submission engine:
``wait_on`` became first-class, all three runtimes construct through
one validated :class:`~repro.core.config.RuntimeConfig` path, and the
``repro`` top-level namespace froze.  These tests pin each of those
contracts, plus the structural rules that the runtime reaches execution
backends only through ``repro.core.backend``, that one worker loop
(``repro.core.execution``) executes every task, and that
``repro.bench`` measures virtual time only.
"""

import ast
import dataclasses
import inspect
import pathlib
import re
import time

import numpy as np
import pytest

import repro
import repro.core
from repro import (
    RecordingRuntime,
    RuntimeConfig,
    SmpssRuntime,
    TaskExecutionError,
    barrier,
    css_task,
    wait_on,
)
from repro.sim import SimulatedRuntime


# ---------------------------------------------------------------------------
# API snapshot: additions are deliberate, removals are breaking
# ---------------------------------------------------------------------------

TOP_LEVEL_ALL = [
    "CentralQueueScheduler",
    "DependencyError",
    "Direction",
    "EdgeKind",
    "InvocationError",
    "PragmaError",
    "RecordingRuntime",
    "Region",
    "RegionError",
    "Representant",
    "RepresentantTable",
    "RuntimeConfig",
    "SharedArena",
    "SmpssRuntime",
    "SmpssScheduler",
    "TaskExecutionError",
    "TaskGraph",
    "Tracer",
    "__version__",
    "arena_array",
    "barrier",
    "css_task",
    "current_runtime",
    "parse_pragma",
    "record_program",
    "wait_on",
]

CORE_ALL = [
    "AdapterRegistry",
    "CentralQueueScheduler",
    "DataAdapter",
    "DependencyError",
    "DependencyTracker",
    "Direction",
    "EdgeKind",
    "EventKind",
    "HotStealScheduler",
    "InvocationError",
    "ParamAccess",
    "ParsedPragma",
    "PragmaError",
    "RecordedProgram",
    "RecordingRuntime",
    "Region",
    "RegionError",
    "Representant",
    "RepresentantTable",
    "RuntimeConfig",
    "SmpssRuntime",
    "SmpssScheduler",
    "TaskDefinition",
    "TaskExecutionError",
    "TaskGraph",
    "TaskInstance",
    "TaskState",
    "TraceEvent",
    "Tracer",
    "TrackerConfig",
    "Version",
    "analysis",
    "barrier",
    "css_task",
    "current_runtime",
    "default_registry",
    "parse_expression",
    "parse_pragma",
    "record_program",
    "wait_on",
]


class TestSurfaceSnapshot:
    def test_top_level_all_is_pinned(self):
        assert sorted(repro.__all__) == TOP_LEVEL_ALL

    def test_core_all_is_pinned(self):
        assert sorted(repro.core.__all__) == CORE_ALL

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in repro.core.__all__:
            assert getattr(repro.core, name) is not None

    def test_key_signatures(self):
        assert list(inspect.signature(wait_on).parameters) == ["obj"]
        assert list(inspect.signature(barrier).parameters) == []
        assert list(inspect.signature(css_task).parameters) == [
            "pragma",
            "constants",
        ]
        for runtime_cls in (SmpssRuntime, RecordingRuntime, SimulatedRuntime):
            params = inspect.signature(runtime_cls).parameters
            assert "config" in params, runtime_cls
            assert any(
                p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
            ), runtime_cls

    def test_top_level_and_core_agree(self):
        for name in ("SmpssRuntime", "RuntimeConfig", "wait_on", "barrier"):
            assert getattr(repro, name) is getattr(repro.core, name)


# ---------------------------------------------------------------------------
# Frozen top-level namespace
# ---------------------------------------------------------------------------

class TestFrozenNamespace:
    def test_unknown_attribute_fails_fast(self):
        with pytest.raises(AttributeError, match="repro.core"):
            repro.bogus_name

    def test_typo_gets_did_you_mean(self):
        with pytest.raises(AttributeError, match="did you mean 'wait_on'"):
            repro.wait_onn


# ---------------------------------------------------------------------------
# One validated construction path for every runtime
# ---------------------------------------------------------------------------

class TestConfigConstruction:
    @pytest.mark.parametrize(
        "runtime_cls", [SmpssRuntime, RecordingRuntime, SimulatedRuntime]
    )
    def test_unknown_knob_rejected_with_hint(self, runtime_cls):
        with pytest.raises(TypeError, match="keep_graph"):
            runtime_cls(keep_grap=True)

    @pytest.mark.parametrize(
        "runtime_cls", [SmpssRuntime, RecordingRuntime, SimulatedRuntime]
    )
    def test_config_plus_knob_conflict_rejected(self, runtime_cls):
        cfg = RuntimeConfig(keep_graph=True)
        with pytest.raises(TypeError, match="config"):
            runtime_cls(config=cfg, keep_graph=False)

    def test_config_object_is_honoured(self):
        cfg = RuntimeConfig(num_workers=1, keep_graph=True)
        with SmpssRuntime(config=cfg) as rt:
            assert rt.config.keep_graph is True
            assert rt.config.num_workers == 1

    def test_config_is_copied_not_shared(self):
        cfg = RuntimeConfig(num_workers=1)
        with SmpssRuntime(config=cfg) as rt:
            assert rt.config is not cfg


# ---------------------------------------------------------------------------
# Structure: the runtime knows no execution backend by name
# ---------------------------------------------------------------------------

def _backend_imports(module, inside=None):
    """Line numbers where *module* imports repro.mp / repro.dist,
    optionally only those outside the function named *inside*."""

    tree = ast.parse(inspect.getsource(module))
    allowed = set()
    if inside is not None:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == inside:
                allowed = {id(n) for n in ast.walk(node)}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if id(node) not in allowed and any(
            part in ("mp", "dist") for name in names for part in name.split(".")
        ):
            hits.append(node.lineno)
    return hits


class TestRuntimeKnowsNoBackend:
    def test_runtime_source_has_no_backend_literal(self):
        import repro.core.runtime as runtime_mod

        tree = ast.parse(inspect.getsource(runtime_mod))
        strings = {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert not strings & {"threads", "processes", "cluster"}

    def test_backends_are_imported_only_by_the_factory_table(self):
        import repro.core.backend as backend_mod
        import repro.core.runtime as runtime_mod
        import repro.serve.engine as engine_mod

        assert _backend_imports(runtime_mod) == []
        assert _backend_imports(engine_mod) == []
        assert _backend_imports(backend_mod, inside="make_backend") == []
        assert _backend_imports(backend_mod) != []  # the table itself

    def test_config_field_count_is_pinned(self):
        # Every field doubles the configurations tests must cover:
        # adding one is a deliberate act that updates this number.
        assert len(dataclasses.fields(RuntimeConfig)) == 20

    def test_unknown_name_in_runtime_module_still_fails(self):
        import repro.core.runtime as runtime_mod

        with pytest.raises(AttributeError):
            runtime_mod.never_existed


SRC = pathlib.Path(repro.__file__).parent


def _imported_modules(path):
    """Top-level names of every module *path* imports."""

    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add((node.module or "").split(".")[0])
    return names


def _modules_containing(text, *packages):
    return sorted(
        str(path.relative_to(SRC))
        for package in packages
        for path in (SRC / package).glob("*.py")
        if text in path.read_text()
    )


class TestOneServerOneCodec:
    """One concurrency model, one socket server, one datum codec."""

    def test_nothing_imports_asyncio(self):
        assert [
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if "asyncio" in _imported_modules(path)
        ] == []

    def test_serve_daemon_owns_no_socket(self):
        path = SRC / "serve" / "daemon.py"
        assert not _imported_modules(path) & {"socket", "asyncio"}
        called = {
            node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
        }
        assert not called & {"bind", "accept", "listen"}

    def test_content_decode_and_landing_rule_have_one_home(self):
        wire = ("net", "mp", "dist", "serve")
        assert _modules_containing("np.frombuffer", *wire) == ["net/codec.py"]
        assert _modules_containing(
            "isinstance(target, np.ndarray)", *wire
        ) == ["net/codec.py"]


    def test_bulk_data_crosses_as_bytes_through_one_gather_write(self):
        """No text encoding of content anywhere, and the partial-send
        trim loop (frames, and the attachments of a served record) is
        written once."""

        assert [
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if "base64" in _imported_modules(path)
            or "base64" in path.read_text()
        ] == []
        assert [
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if ".sendmsg(" in path.read_text()
        ] == ["net/frames.py"]

    def test_one_record_reader(self):
        """Client and server read lines and attachments through
        ``RecordReader``, master and agent their control frames; none
        splits a buffer of its own.  A record stream — a worker pipe, a
        cluster dispatch socket — is read through ``MessageReader``
        alone: the length prefix is parsed once, in ``net/frames.py``."""

        packages = ("net", "serve", "live", "obs", "dist", "mp", "core")
        assert _modules_containing("RecordReader(", *packages) == [
            "dist/agent.py", "dist/manager.py",
            "net/client.py", "net/server.py"]
        assert _modules_containing("MessageReader(", *packages) == [
            "dist/agent.py", "dist/manager.py", "mp/executor.py"]
        for parse in ('split(b"\\n"', '"!i"', '"!Q"', "unpack_from("):
            assert _modules_containing(parse, *packages) == (
                [] if "split" in parse else ["net/frames.py"]), parse
        assert _modules_containing("recv(65536)", *packages) == [
            "net/frames.py"]


    def test_one_observation_endpoint(self):
        """A runtime's live plane, metrics, health and HTTP share one
        server: the classes, knobs and modes that split them stay gone,
        and one router builds every HTTP answer but the transport's
        500."""

        for gone in ("ExpositionServer", "LiveServer", "render_snapshot",
                     "health_address", "live_address", "expect_hello",
                     "_run_serve"):
            assert [
                str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                if gone in path.read_text()
            ] == [], gone
        builders = sorted({
            f"{path.relative_to(SRC)}:{func.name}"
            for path in SRC.rglob("*.py")
            for func in ast.walk(ast.parse(path.read_text()))
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "build_http_response"
        })
        assert builders == ["net/server.py:_answer_http",
                            "obs/exposition.py:http_response"]


class TestOneWorkerLoop:
    """Section III's execution rule is written once, in repro.core,
    and both the runtime and the serve engine run on it."""

    def _backend_run_callers(self):
        """``path:function`` of every ``<...backend>.run(...)``,
        ``.send(...)`` or ``.receive(...)`` call."""

        hits = set()
        for path in SRC.rglob("*.py"):
            for func in ast.walk(ast.parse(path.read_text())):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if not (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("run", "send", "receive")):
                        continue
                    receiver = node.func.value
                    name = getattr(receiver, "attr", None) or getattr(
                        receiver, "id", "")
                    if "backend" in name:
                        hits.add(f"{path.relative_to(SRC)}:{func.name}")
        return sorted(hits)

    def test_one_worker_loop_under_src(self):
        assert [
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if "def _worker_loop" in path.read_text()
        ] == ["core/execution.py"]

    def test_backend_run_is_invoked_from_one_place(self):
        """A local body runs from ``_execute``; a remote worker is fed
        and read only by the one dispatcher loop."""

        assert self._backend_run_callers() == [
            "core/execution.py:_dispatch_loop", "core/execution.py:_execute",
            "core/execution.py:_turn"]
        source = (SRC / "core" / "execution.py").read_text()
        assert source.count("backend.run(") == 1
        assert source.count("backend.send(") == 1
        assert source.count("backend.receive(") == 1
        from repro.core.backend import ExecutionBackend, RemoteBackend

        # No per-worker blocking path beside the dispatcher.
        assert RemoteBackend.run is ExecutionBackend.run
        for gone in ("run_frame", "_dispatch", "_recv"):
            assert not hasattr(RemoteBackend, gone), gone

    def test_one_dispatch_path_ships_frames(self):
        """No one-task exchange left beside the frame, and nothing a
        user sets selects or sizes it."""

        for gone in ("MSG_TASK", "task_message", "def request(",
                     "def _exchange(", "connection.wait", "_mpc.wait"):
            assert _modules_containing(gone, "core", "mp", "dist") == [], gone
        from repro.core.backend import ExecutionBackend
        from repro.dist.manager import ClusterBackend
        from repro.mp.executor import ProcessBackend

        assert (ExecutionBackend.max_batch, ProcessBackend.max_batch,
                ClusterBackend.max_batch) == (1, 8, 8)
        assert len(dataclasses.fields(RuntimeConfig)) == 20

    def test_runtime_and_engine_both_reach_that_loop(self):
        from repro.core.execution import WorkerLoop
        from repro.serve import ServeEngine

        # One shape: each owner composes a loop; neither inherits its
        # start/stop/release surface.
        assert not issubclass(SmpssRuntime, WorkerLoop)
        assert not hasattr(SmpssRuntime, "release")
        with SmpssRuntime(num_workers=1) as rt:
            assert type(rt._loop) is WorkerLoop
            assert rt.scheduler is rt._loop.scheduler
        engine = ServeEngine(workers=1)
        try:
            assert type(engine._loop) is WorkerLoop
            assert engine._loop.scheduler.num_threads == 2
        finally:
            engine.shutdown()

    def test_serve_engine_owns_no_thread_queue_or_condition(self):
        path = SRC / "serve" / "engine.py"
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        imported = {
            alias.name for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom)) for alias in n.names
        }
        assert not (names | attrs | imported) & {"Thread", "deque", "Condition"}

    def test_no_tracker_lock_stripes_anywhere(self):
        assert [
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if "shard" in path.read_text().lower()
            or "shard" in path.name.lower()
        ] == []


class TestOneOfEach:
    """PR 20's sweep: each mechanism below is written once.  These
    guards fail the moment a second copy comes back."""

    @staticmethod
    def _source(relative):
        return (SRC / relative).read_text()

    @staticmethod
    def _calls_max_inside_a_for(relative):
        tree = ast.parse((SRC / relative).read_text())
        return any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "max"
            for loop in ast.walk(tree) if isinstance(loop, ast.For)
            for call in ast.walk(loop)
        )

    def test_one_ready_list_implementation(self):
        source = self._source("core/scheduler.py")
        assert source.count("gate.admit()") == 1
        assert source.count("gate.should_hold(") == 1
        assert source.count("for offset in range(1, self.num_threads)") == 1
        tree = ast.parse(source)
        bodies = [
            [s for s in func.body
             if not (isinstance(s, ast.Expr)
                     and isinstance(s.value, ast.Constant))]
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            and func.name == "push_unlocked"
        ]
        assert len(bodies) == 1         # defined once, for all three lists
        (only,) = bodies[0]             # ... as nothing but a delegation
        assert ast.unparse(only) == "self.push_ready_batch((task,), thread)"
        from repro.core.scheduler import (
            CentralQueueScheduler, HotStealScheduler, SmpssScheduler)

        for ablation in (HotStealScheduler, CentralQueueScheduler):
            assert issubclass(ablation, SmpssScheduler)
            for shared in ("push_new", "push_ready_batch", "pop"):
                assert shared not in vars(ablation)

    def test_one_bound_expression_evaluator(self):
        offenders = [
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if any(name in path.read_text() for name in
                   ("_eval_ast", "_eval_symbolic", "eval_expr_ast"))
        ]
        assert offenders == []

    def test_one_longest_path_pass(self):
        for relative in ("live/dashboard.py", "sim/baselines.py",
                         "obs/analyze.py"):
            assert "longest_path" in {
                alias.name
                for node in ast.walk(ast.parse(self._source(relative)))
                if isinstance(node, ast.ImportFrom) for alias in node.names
            }, relative
            # No predecessor-max recurrence of their own.
            assert not self._calls_max_inside_a_for(relative), relative
        graph = self._source("core/graph.py")
        assert graph.count("finish.get(") == 1
        assert "fillcolor" not in graph     # DOT is obs.export's job

    def test_one_critical_path_from_the_trace(self):
        """The trace's critical path is ``analyze_events``'s one pass
        over the traced edges: no releasing-thread guess, no kept-graph
        work/span branch, no dashboard estimate of its own."""

        offenders = [
            (str(path.relative_to(SRC)), name)
            for path in SRC.rglob("*.py")
            for name in ("critical_chain", "ChainLink", "work_and_span",
                         "critical_path_seconds", "bisect_right")
            if name in path.read_text()
        ]
        assert offenders == []

    def test_one_figure_differ_and_one_jsonlines_client(self):
        assert not [
            name for name in ("diff_figures", "render_figure_diff",
                              "FigurePointDelta")
            if name in self._source("obs/diff.py")
        ]
        assert "compare_figures" in self._source("obs/cli.py")
        assert _modules_containing(
            "sock.sendall(encode(", "net", "obs", "live", "serve", "dist"
        ) == ["net/client.py"]
        assert "HTTP/1.1" not in self._source("net/server.py")

    def test_one_remote_body_runner(self):
        assert _modules_containing(
            "EventKind.TASK_START", "mp", "dist") == ["mp/worker.py"]

    def test_one_remote_task_record(self):
        """Process workers and agent slots get one record, run it through
        one runner and answer one reply; the value-spec tags are written
        in ``net.codec`` only, and no dict record or reply is left."""

        remote = ("mp", "dist", "net")
        assert _modules_containing("def run_record(", *remote) == [
            "mp/worker.py"]
        assert _modules_containing("run_record(", *remote) == [
            "dist/agent.py", "mp/worker.py"]
        assert _modules_containing("def task_record(", *remote) == [
            "mp/worker.py"]
        for gone in ("_resolve_values", "_resolve_func", '"ret"', '"out"',
                     "MSG_DONE", "slices_spec"):
            assert _modules_containing(gone, *remote) == [], gone
        for tag in "vardfgs":  # the spec forms are spelled by name there
            assert _modules_containing(f'("{tag}", ', "mp", "dist") == [], tag
        assert _modules_containing('= "v", "a", "r", "d", "f", "g"',
                                   *remote) == ["net/codec.py"]

    def test_one_acquire_lookup(self):
        assert _modules_containing("chains.get(None)", "core", "sim") == [
            "core/dependencies.py"]

    def test_one_active_runtime_front_end(self):
        """``barrier``, ``wait_for``, ``acquire`` (``wait_on``), the
        body flag and the session's exit are written once for threads,
        the recorder and the simulator; ``acquire`` waits on every
        chain, never on the whole-object chain alone."""

        files = ("core/runtime.py", "core/recorder.py",
                 "sim/simruntime.py", "core/frontend.py")
        sources = [self._source(relative) for relative in files]
        for name in ("acquire", "wait_for", "barrier", "in_task_body",
                     "__exit__"):
            assert sum(s.count(f"def {name}(") for s in sources) == 1, name
        assert [f for f, s in zip(files, sources)
                if "current_version(" in s] == []

    def test_one_task_graph_document(self):
        """The flow skeleton is a ``RecordedProgram``: one holder, one
        ``repro.recording`` writer, and no second format or reader."""

        sources = {str(path.relative_to(SRC)): path.read_text()
                   for path in SRC.rglob("*.py")}
        assert [name for name, text in sources.items() if re.search(
            r"staticgraph|class StaticGraph\b|class LoadedRecording\b",
            text)] == []
        assert [name for name, text in sources.items()
                if '"format": "repro.recording"' in text] \
            == ["core/recorder.py"]
        assert sources["core/recorder.py"].count(
            '"format": "repro.recording"') == 1

    def test_one_dependency_tracker(self):
        """``check.flow`` drives the real tracker over abstract data; no
        second statement of versions, chains or edge rules exists."""

        from repro.check.flow import FlowOptions
        from repro.core.dependencies import TrackerConfig

        offenders = [
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if path.parent.name != "core"
            and any(mark in path.read_text() for mark in
                    ("class _Chain", "class _Version", "def _track_",
                     "def _edge(", "def _rename("))
        ]
        assert offenders == []
        assert "DependencyTracker" in {
            alias.name
            for node in ast.walk(ast.parse(self._source("check/flow.py")))
            if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        assert len(dataclasses.fields(FlowOptions)) == 1
        assert len(dataclasses.fields(TrackerConfig)) == 1

    def test_one_interval_pairing(self):
        """Only ``core.tracing.task_intervals`` matches a ``TASK_END``
        to its ``TASK_START``; the analyses consume it."""

        for relative in ("core/analysis.py", "obs/analyze.py"):
            source = self._source(relative)
            assert "task_intervals" in source, relative
            # no start table, no test for either end of an interval
            assert not re.search(
                r"\bstarts\b|== EventKind\.TASK_(START|END)", source), relative
        assert self._source("core/tracing.py").count("starts.pop(") == 1

    def test_one_tracer(self):
        """One recorder (the per-thread rings), every trace consumer
        takes an event list, and ``analyze_events`` alone turns
        intervals into busy time, makespan and per-type statistics."""

        import repro.core.tracing as tracing

        emitters = [
            node.name
            for node in ast.parse(self._source("core/tracing.py")).body
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef) and f.name == "_emit"
                for f in node.body)
        ]
        assert emitters == ["Tracer"]
        assert [name for name in dir(tracing) if name.endswith("Tracer")] \
            == ["Tracer"]
        assert [
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if any(mark in path.read_text() for mark in (
                "_EventHolder", "SimpleNamespace(events",
                "busy_time_by_thread", "task_type_summary",
                "TaskTypeSummary"))
        ] == []

    def test_one_replay_scheduler(self):
        """``live replay`` runs the recording on the simulator: ``live/``
        keeps no ready list, successor map or dependency countdown of
        its own, and makes no task or edge record by hand."""

        offenders = [
            (str(path.relative_to(SRC)), mark)
            for path in (SRC / "live").rglob("*.py")
            for mark in (r"-= 1", r"\b_pending_deps", r"\b_succs", r"\b_ready",
                         r"successors", r"heapq")
            if re.search(mark, path.read_text())
        ]
        assert offenders == []
        replay = self._source("live/replay.py")
        assert "VirtualMachine(" in replay and "SmpssScheduler(" in replay
        assert "apply_event(" in replay
        assert not re.search(r'"ev": "(task|edge|mark|trace)"', replay)

    def test_one_trace_event_record(self):
        """The live stream, the replay and the file export carry one
        event record, the Chrome trace one: no second dialect, and no
        event rebuilt by hand on the way to the report."""

        def containing(text, root=SRC):
            return sorted(str(path.relative_to(SRC))
                          for path in root.rglob("*.py")
                          if text in path.read_text())

        assert containing("event_to_delta") == []
        assert containing("def to_events") == []
        assert containing('"cat": "task"') == ["obs/export.py"]
        assert containing("TraceEvent(", SRC / "live") == []

    def test_one_cli_front_door(self):
        assert [str(p.relative_to(SRC)) for p in SRC.rglob("__main__.py")] \
            == ["__main__.py"]
        assert not [
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if "deprecation_note" in path.read_text()
        ]

    def test_line_budget_ratchet(self):
        """``find src/repro -name '*.py' | xargs cat | wc -l`` may only
        go down (ROADMAP aim 2 (d) wants < 25 000); a PR that needs
        more must delete its own weight elsewhere, not raise this."""

        total = sum(
            path.read_text().count("\n") for path in SRC.rglob("*.py"))
        assert total <= LINE_BUDGET, total


#: The ``src/repro`` total once the remote dispatcher's per-task path
#: was fused (its growth paid for by merging duplicate code paths in
#: ``check``, ``obs.health``, ``core.pragma`` and ``bench.experiments``).
LINE_BUDGET = 24543


class TestOneMeasurementSystem:
    """``repro.bench`` holds the virtual-time paper figures and nothing
    that reads a clock; wall-clock numbers for the real execution paths
    belong to ``benchmarks/e2e``."""

    def test_experiments_touch_no_clock_and_no_real_backend(self):
        source = (SRC / "bench" / "experiments.py").read_text()
        assert "SmpssRuntime" not in source
        tree = ast.parse(source)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules.add("." * node.level + (node.module or ""))
        assert "time" not in modules
        assert not [
            m for m in modules
            if m.lstrip(".").removeprefix("repro.").split(".")[0]
            in ("serve", "dist", "mp")
        ]

    def test_every_registered_figure_has_a_baseline_and_no_other_exists(self):
        from repro.bench.registry import FIGURES, baseline_filename

        baselines = SRC.parents[1] / "benchmarks" / "baselines"
        assert {p.name for p in baselines.glob("BENCH_*.json")} == {
            baseline_filename(key) for key in FIGURES
        }

    def test_bench_has_no_stats_module(self):
        import importlib.util

        import repro.bench

        assert not hasattr(repro.bench, "stats")
        assert importlib.util.find_spec("repro.bench.stats") is None


# ---------------------------------------------------------------------------
# wait_on semantics
# ---------------------------------------------------------------------------

@css_task("inout(a)")
def _bump(a):
    a += 1.0


@css_task("input(src) output(dst)")
def _copy_into(src, dst):
    dst[...] = src


class TestWaitOn:
    def test_sequential_noop_returns_object(self):
        a = np.zeros(4)
        assert wait_on(a) is a

    def test_waits_for_last_submitted_writer(self):
        a = np.zeros(8)
        with SmpssRuntime(num_workers=2):
            for _ in range(5):
                _bump(a)
            latest = wait_on(a)
            # All five inout writers submitted before the wait must be
            # visible in the storage wait_on hands back.
            assert (np.asarray(latest) == 5.0).all()

    def test_partial_barrier_does_not_wait_for_other_data(self):
        a = np.zeros(4)
        b = np.zeros(4)
        with SmpssRuntime(num_workers=1) as rt:
            _bump(a)
            _bump(b)
            wait_on(a)
            # wait_on(a) alone must not imply a full barrier: the graph
            # may still hold b's writer.  (It may have run already on a
            # fast worker, so only assert the barrier-side contract.)
            rt.barrier()
            assert (b == 1.0).all()

    def test_untracked_object_passes_through(self):
        with SmpssRuntime(num_workers=1):
            obj = np.zeros(2)
            assert wait_on(obj) is obj

    def test_renamed_storage_is_returned(self):
        src = np.arange(4, dtype=np.float64)
        dst = np.zeros(4)
        with SmpssRuntime(num_workers=2):
            _copy_into(src, dst)
            _copy_into(src, dst)  # WAW: second write renames dst
            latest = wait_on(dst)
            assert (np.asarray(latest) == src).all()

    @pytest.mark.parametrize("make_runtime", [
        lambda: RecordingRuntime(execute="eager"),
        lambda: SimulatedRuntime(execute_bodies=True),
    ], ids=["recording-eager", "simulated-bodies"])
    def test_under_the_recording_and_simulated_runtimes(self, make_runtime):
        """The other two runtimes' ``acquire`` share the tracker-side
        lookup: latest (renamed) storage back, untracked passes."""

        src = np.arange(4, dtype=np.float64)
        dst = np.zeros(4)
        other = np.zeros(2)
        with make_runtime() as rt:
            _copy_into(src, dst)
            _copy_into(src, dst)        # WAW: the second write renames
            assert wait_on(other) is other
            latest = wait_on(dst)
            assert latest is not dst    # the renamed buffer, pre-barrier
            assert (np.asarray(latest) == src).all()
            if isinstance(rt, RecordingRuntime):
                # The replayer must block the main thread here.
                assert rt.events[-1] == ("wait", rt.graph.get(2))
        assert (dst == src).all()       # write-back at exit

    def test_skipped_bodies_hand_back_the_object(self):
        dst = np.zeros(4)
        for rt in (RecordingRuntime(execute="skip"), SimulatedRuntime()):
            with rt:
                _copy_into(np.ones(4), dst)
                assert wait_on(dst) is dst

    def test_after_a_failure_never_returns_unproduced_data(self):
        """A failed graph's queued tasks are retired unrun; wait_on a
        datum whose producer was among them must raise, not hand back
        whatever was in the buffer."""

        @css_task("inout(a)")
        def boom(a):
            raise ValueError("boom")

        a = np.zeros(2)
        b = np.zeros(2)
        with pytest.raises(TaskExecutionError, match="boom"):
            with SmpssRuntime(num_workers=1):
                boom(a)
                _bump(b)
                time.sleep(0.3)  # the worker fails a, then retires b's writer
                wait_on(b)
                pytest.fail("wait_on returned data that was never produced")
        assert (b == 0.0).all()

    def test_inside_task_body_is_noop(self):
        seen = []

        @css_task("inout(a)")
        def nested_wait(a):
            seen.append(wait_on(a) is a)

        a = np.zeros(2)
        with SmpssRuntime(num_workers=1) as rt:
            nested_wait(a)
            rt.barrier()
        assert seen == [True]


# ---------------------------------------------------------------------------
# Defensive __exit__: no stale _stack_owner after mid-with exceptions
# ---------------------------------------------------------------------------

class TestDefensiveExit:
    @pytest.mark.parametrize(
        "make_runtime",
        [
            lambda: SmpssRuntime(num_workers=1),
            lambda: RecordingRuntime(execute="eager"),
            lambda: SimulatedRuntime(),
        ],
        ids=["smpss", "recording", "simulated"],
    )
    def test_exception_mid_with_leaves_no_stale_owner(self, make_runtime):
        from repro.core import api as _api

        with pytest.raises(RuntimeError, match="boom"):
            with make_runtime():
                raise RuntimeError("boom")
        assert _api.current_runtime() is None
        assert _api._thread_stack() == []
        assert _api._exclusive_depth == 0
        assert _api._exclusive_owner is None
        # The regression this guards: a stale owner wedged every later
        # runtime behind the single-main-thread guard.  A fresh runtime
        # must enter cleanly.
        a = np.zeros(2)
        with SmpssRuntime(num_workers=1) as rt:
            _bump(a)
            rt.barrier()
        assert (a == 1.0).all()

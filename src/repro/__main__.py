"""The unified command line: ``python -m repro <command>``.

One front door for every tool in the package::

    python -m repro lint src/repro/apps          # annotation linter
    python -m repro flow driver.py --format json # whole-program flow
    python -m repro obs report trace.json        # trace analysis
    python -m repro bench --help                 # figure harness
    python -m repro live attach tcp:...          # live inspection
    python -m repro serve tcp:127.0.0.1:7070     # task-graph service
    python -m repro compile annotated.py --run   # pragma translator

Conventions shared by every command: machine output via ``--json`` /
``--format json`` where the command produces findings, exit 0 on
success, 1 on findings/failure, 2 on usage errors.
"""

from __future__ import annotations

import sys

_USAGE = """\
usage: python -m repro <command> [args...]

commands:
  lint     check task bodies against their pragmas (repro.check lint)
  flow     whole-program dependency-flow analysis (repro.check flow)
  obs      trace reports, diffs, metrics exposition (repro.obs)
  bench    the figure/benchmark harness (repro.bench)
  live     live task-graph inspection and replay (repro.live)
  serve    the multi-tenant task-graph service daemon (repro.serve)
  dist     node agents for the distributed backend (repro.dist)
  compile  translate `#pragma css` annotated source (repro.compiler)

`python -m repro <command> --help` shows that command's options.
"""

#: command -> (module with a ``main(argv) -> int``, argv prefix)
COMMANDS = {
    "lint": ("repro.check.cli", ["lint"]),
    "flow": ("repro.check.cli", ["flow"]),
    "check": ("repro.check.cli", []),
    "obs": ("repro.obs.cli", []),
    "bench": ("repro.bench.cli", []),
    "live": ("repro.live.cli", []),
    "serve": ("repro.serve.cli", []),
    "dist": ("repro.dist.cli", []),
    "compile": ("repro.compiler.cli", []),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_USAGE, end="")
        return 0 if argv else 2
    if argv[0] == "--version":
        import repro

        print(f"repro {repro.__version__}")
        return 0
    command, rest = argv[0], argv[1:]
    entry = COMMANDS.get(command)
    if entry is None:
        print(f"unknown command {command!r}\n\n{_USAGE}", file=sys.stderr, end="")
        return 2
    module_name, prefix = entry
    import importlib

    module = importlib.import_module(module_name)
    return module.main(prefix + rest)


if __name__ == "__main__":
    raise SystemExit(main())

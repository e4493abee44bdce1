"""Annotation-correctness tooling, from the command line.

Usage::

    python -m repro lint src/repro/apps examples
    python -m repro lint prog.py --format json
    python -m repro lint prog.py --select input-write,bad-pragma
    python -m repro lint prog.py --ignore unwritten-output
    python -m repro lint prog.py --constants N,M
    python -m repro flow src/repro/apps examples
    python -m repro flow driver.py --entry main --format dot
    python -m repro flow driver.py --format json
    python -m repro check rules

``lint`` checks each task body against its pragma; ``flow`` abstractly
interprets the whole driver program, reporting cross-submission
hazards (``flow-*`` rules) and — for a single file — emitting the
static task-graph skeleton as JSON (a ``repro.recording`` document
with the skeleton's ``source``, ``entry`` and per-task ``details``) or
GraphViz.  Both exit 0 when
clean, 1 when any finding survives filtering, and 2 on usage errors
(unreadable path, unknown rule name).  Directories are searched
recursively for ``*.py``.  ``--constants`` declares extra names (the
paper's compile-time constants) legal in dimension/region bound
expressions.
"""

from __future__ import annotations

import argparse
import json
import sys

from .astlint import lint_paths
from .findings import RULES
from .flow import FlowOptions, flow_file, flow_paths
from .report import filter_findings, render_json, render_text


def _split_rules(raw: str, parser: argparse.ArgumentParser) -> list[str]:
    rules = [r.strip() for r in raw.split(",") if r.strip()]
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        parser.error(
            f"unknown rule(s): {', '.join(unknown)} "
            f"(see 'python -m repro check rules')"
        )
    return rules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Directionality-annotation correctness tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="lint task annotations in files/dirs")
    lint.add_argument("paths", nargs="+", help="files or directories")
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--select", default="", metavar="RULES",
        help="comma-separated rule codes to report (default: all)",
    )
    lint.add_argument(
        "--ignore", default="", metavar="RULES",
        help="comma-separated rule codes to drop",
    )
    lint.add_argument(
        "--constants", default="", metavar="NAMES",
        help="comma-separated names usable in bound expressions",
    )

    flow = sub.add_parser(
        "flow", help="whole-program analysis of driver files/dirs"
    )
    flow.add_argument("paths", nargs="+", help="files or directories")
    flow.add_argument(
        "--entry", default=None, metavar="NAME",
        help="analyze NAME() instead of the module main path "
             "(single file only)",
    )
    flow.add_argument(
        "--format", choices=("text", "json", "dot"), default="text",
        help="output format (default: text; dot needs a single file)",
    )
    flow.add_argument(
        "--select", default="", metavar="RULES",
        help="comma-separated rule codes to report (default: all)",
    )
    flow.add_argument(
        "--ignore", default="", metavar="RULES",
        help="comma-separated rule codes to drop",
    )
    flow.add_argument(
        "--max-unroll", type=int, default=None, metavar="N",
        help="full-unroll budget per loop (default: 128)",
    )

    sub.add_parser("rules", help="print the rule catalogue")

    args = parser.parse_args(argv)

    if args.command == "rules":
        width = max(len(r) for r in RULES)
        for rule, (severity, description) in RULES.items():
            print(f"{rule:<{width}}  {severity:<7}  {description}")
        return 0

    select = _split_rules(args.select, parser) if args.select else []
    ignore = _split_rules(args.ignore, parser) if args.ignore else []

    if args.command == "flow":
        return _run_flow(args, parser, select, ignore)

    constants = [c.strip() for c in args.constants.split(",") if c.strip()]
    try:
        findings = lint_paths(args.paths, constants=constants)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = filter_findings(findings, select=select, ignore=ignore)
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def _run_flow(args, parser, select, ignore) -> int:
    options = FlowOptions()
    if args.max_unroll is not None:
        options.max_unroll = args.max_unroll
    single = len(args.paths) == 1 and args.paths[0].endswith(".py")
    if (args.entry or args.format == "dot") and not single:
        parser.error("--entry and --format dot require a single .py file")
    try:
        if single:
            result = flow_file(args.paths[0], entry=args.entry,
                               options=options)
            findings = result.findings
        else:
            result = None
            findings = flow_paths(args.paths, options=options)
    except (OSError, ValueError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = filter_findings(findings, select=select, ignore=ignore)
    program = result.program if result is not None else None
    if args.format == "dot":
        print(program.to_dot())
        for f in findings:
            print(f"// {f.render()}", file=sys.stderr)
    elif args.format == "json":
        doc = {"findings": [f.to_dict() for f in findings]}
        if program is not None:
            # The recording document plus what only a skeleton knows.
            details = [
                {"id": t.task_id, "file": t.file, "line": t.line,
                 "conditional": t.conditional, "summarized": t.summarized}
                for t in program.graph
            ]
            doc["graph"] = dict(program.to_json_dict(), source=args.paths[0],
                                entry=args.entry, details=details)
        print(json.dumps(doc, indent=2))
    else:
        print(render_text(findings))
        if program is not None:
            graph = program.to_json_dict()
            trunc = " (truncated)" if graph["truncated"] else ""
            print(
                f"static skeleton: {len(graph['tasks'])} tasks, "
                f"{len(graph['edges'])} edges, {graph['renames']} "
                f"renames{trunc}",
                file=sys.stderr,
            )
    return 1 if findings else 0


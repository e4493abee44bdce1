#!/usr/bin/env python3
"""List the functions of ``src/repro`` that a command never enters.

Usage::

    python tools/unreached.py -- python -m pytest -x -q
    python tools/unreached.py -- python -m repro bench all --quick

Stdlib only.  The tool writes a ``sitecustomize`` shim to a temporary
directory, puts that directory (and ``src``) on ``PYTHONPATH`` and runs
the command given after ``--``.  The shim installs a ``sys.setprofile``
/ ``threading.setprofile`` hook in *every* python process the command
starts — forked ``repro.mp`` workers and spawned CLIs included — that
appends the first-seen ``(file, first line)`` of each ``src/repro``
code object to a per-pid file.  Afterwards every ``def`` of ``src/repro``
(found with :mod:`ast`) that no process entered is printed with its
line count, and a total.

Report-only: the exit status is the command's own.  "Never entered"
is a measurement of *this* command, not proof of dead code — run it
over every entry point (tests, benchmarks, examples, the CLIs) and
grep for the name before deleting anything.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: Environment variables the shim reads (set only for the child command).
ENV_OUT = "REPRO_UNREACHED_OUT"
ENV_ROOT = "REPRO_UNREACHED_ROOT"

SHIM = '''\
import os, sys, threading

_root = os.environ.get("%(root)s")
_out = os.environ.get("%(out)s")
if _root and _out:
    _seen = {}

    def _profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if id(code) in _seen:
            return
        _seen[id(code)] = code  # kept alive so the id is never reused
        filename = code.co_filename
        if filename.startswith(_root):
            # Named by the *current* pid so a forked worker (which
            # inherits this hook and the seen-set) gets its own file.
            with open(os.path.join(_out, "%%d.txt" %% os.getpid()), "a") as fh:
                fh.write("%%s\\t%%d\\n" %% (filename, code.co_firstlineno))

    threading.setprofile(_profile)
    sys.setprofile(_profile)
''' % {"root": ENV_ROOT, "out": ENV_OUT}


def defined_functions(package: Path):
    """Yield ``(file, first_line, qualname, n_lines, outer_key)`` for
    every ``def`` under *package*; ``first_line`` is the line
    ``co_firstlineno`` reports (the first decorator, if any) and
    ``outer_key`` the ``(file, first_line)`` of the enclosing ``def``."""

    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def walk(node, prefix, outer):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    key = (str(path), first)
                    yield (*key, qualname, child.end_lineno - first + 1, outer)
                    yield from walk(child, qualname + ".<locals>.", key)
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + child.name + ".", outer)
                else:
                    yield from walk(child, prefix, outer)

        yield from walk(tree, "", None)


def entered(out_dir: Path) -> set:
    seen = set()
    for record in out_dir.glob("*.txt"):
        for line in record.read_text().splitlines():
            filename, _, first = line.rpartition("\t")
            seen.add((filename, int(first)))
    return seen


def main(argv) -> int:
    if "--" not in argv or not argv[argv.index("--") + 1:]:
        print(__doc__.split("Stdlib only.")[0].strip(), file=sys.stderr)
        return 2
    command = argv[argv.index("--") + 1:]
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        shim_dir = Path(tmp, "shim")
        out_dir = Path(tmp, "out")
        shim_dir.mkdir()
        out_dir.mkdir()
        (shim_dir / "sitecustomize.py").write_text(SHIM)
        env = dict(os.environ)
        env[ENV_OUT] = str(out_dir)
        env[ENV_ROOT] = str(PACKAGE) + os.sep
        env["PYTHONPATH"] = os.pathsep.join(
            [str(shim_dir), str(REPO / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        status = subprocess.call(command, env=env, cwd=REPO)
        seen = entered(out_dir)

    missed = {
        (filename, first): (qualname, n_lines, outer)
        for filename, first, qualname, n_lines, outer in defined_functions(PACKAGE)
        if (filename, first) not in seen
    }
    total = 0
    print(f"\nfunctions of src/repro never entered by: {' '.join(command)}")
    for (filename, first), (qualname, n_lines, outer) in sorted(missed.items()):
        if outer in missed:
            continue  # its lines are already counted in the enclosing def
        total += n_lines
        print(f"  {Path(filename).relative_to(REPO)}:{first}  {qualname}  ({n_lines} lines)")
    print(f"total: {total} lines in never-entered functions (command exit status {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

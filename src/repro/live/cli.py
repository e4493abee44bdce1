"""Live inspection from the command line.

Usage::

    python -m repro live attach /tmp/repro-live-x/live.sock
    python -m repro live attach tcp:127.0.0.1:4242 \\
        --script "state; break spotrf_t; step 5; clear; resume; wait-done"
    python -m repro live replay cholesky.recording.json
    python -m repro live replay cholesky.recording.json \\
        --script "step 10; render; back 3; run"

``attach`` connects to a runtime started with ``live=True`` (its bound
address is on ``runtime.address``) and folds its trace-record stream
into the shared dashboard; ``replay`` drives the *same* dashboard from
a recording saved with ``RecordedProgram.save`` or a static skeleton
from ``python -m repro flow --format json``.

Commands (interactive prompt or ``--script``, ``;``-separated):

    state                 refresh the control snapshot (attach only)
    render                print the dashboard (an empty prompt line too)
    pause | resume        gate control
    step [N]              dispatch N tasks; replay: advance N units
    back [N]              rewind N units (replay only)
    break NAME | break #ID    set a breakpoint (task type / task id)
    clear                 drop every breakpoint
    run                   replay: execute to the end
    wait-done             attach: block until every task is done
    report                the post-mortem analysis (obs.analyze) so far
    quit                  detach / exit
"""

from __future__ import annotations

import argparse
import sys

from ..obs.analyze import render_report
from .client import LiveClient, LiveClosed, LiveTimeout
from .dashboard import DashboardState, render
from .replay import ReplayEngine

__all__ = ["main"]


def _parse_break(arg: str) -> dict:
    if arg.startswith("#"):
        return {"task_id": int(arg[1:])}
    try:
        return {"task_id": int(arg)}
    except ValueError:
        return {"name": arg}


def _pump(client: LiveClient, state: DashboardState,
          idle: float = 0.2) -> int:
    """Apply everything currently on the wire; returns record count."""

    records = client.drain(idle=idle)
    for record in records:
        state.apply(record)
    return len(records)


def _attach_command(client, state, verb, arg, out) -> bool:
    """One attach-mode command; returns False to exit."""

    if verb in ("quit", "exit", "detach"):
        return False
    if verb == "render":
        _pump(client, state, idle=0.1)
        print(render(state), file=out)
    elif verb == "state":
        snapshot = dict(client.state())
        snapshot["ev"] = "snapshot"
        state.apply(snapshot)
        print(render(state), file=out)
    elif verb == "pause":
        client.pause()
    elif verb == "resume":
        client.resume()
    elif verb == "step":
        client.step(int(arg) if arg else 1)
    elif verb == "break":
        if not arg:
            raise ValueError("break needs a task-type name or #id")
        client.set_break(**_parse_break(arg))
    elif verb == "clear":
        client.clear_breaks()
    elif verb == "wait-done":
        total = len(state.tasks)

        def _done(record):
            state.apply(record)
            counts = state.counts()
            done = counts.get("done", 0)
            return len(state.tasks) >= max(total, 1) \
                and done == len(state.tasks)

        try:
            client.wait_for(_done, timeout=120.0)
        except LiveClosed:
            pass  # stream ended: the run is over
    elif verb == "report":
        print(render_report(state.report(), title="live report"), file=out)
    elif verb == "ping":
        client.ping()
    else:
        raise ValueError(f"unknown command {verb!r}")
    return True


def _prompt_lines(prompt: str):
    while True:
        try:
            yield input(prompt)
        except EOFError:
            return


def _command_loop(script, prompt, help_text, state, run, settle, out) -> int:
    """The one command loop behind ``attach`` and ``replay``.

    Commands come from *script* split on ``;`` or, without one, from
    ``input(prompt)`` until end of input, where an empty line means
    ``render``.  ``run(verb, arg)`` executes one and returns False to
    quit; ``settle()`` follows each.  A failing command ends a script
    with exit status 1 (message on stderr) and is only reported at the
    prompt; a closed live stream ends either.  The dashboard is printed
    when a prompt opens and when a script ends.
    """

    scripted = script is not None
    if scripted:
        lines = script.split(";")
    else:
        print(render(state), file=out)
        print(help_text, file=out)
        lines = _prompt_lines(prompt)
    code = 0
    for line in lines:
        parts = line.split(None, 1) or ([] if scripted else ["render"])
        if not parts:
            continue
        verb, arg = parts[0], parts[1] if len(parts) > 1 else ""
        try:
            if not run(verb, arg):
                break
        except LiveClosed:
            if not scripted:
                print("(stream ended)", file=out)
            break
        except (LiveTimeout, ValueError, RuntimeError) as exc:
            print(f"{verb}: {exc}", file=sys.stderr if scripted else out)
            if scripted:
                code = 1
                break
        settle()
    if scripted:
        print(render(state), file=out)
    return code


def _run_attach(args) -> int:
    out = sys.stdout
    try:
        client = LiveClient(args.address, timeout=args.timeout)
    except (OSError, LiveClosed) as exc:
        print(f"cannot attach to {args.address!r}: {exc}", file=sys.stderr)
        return 1
    state = DashboardState()
    state.apply(dict(client.hello))
    try:
        _pump(client, state, idle=args.settle)
        return _command_loop(
            args.script, "live> ",
            "commands: state render pause resume step [n] "
            "break <name|#id> clear wait-done report quit",
            state,
            lambda verb, arg: _attach_command(client, state, verb, arg, out),
            lambda: _pump(client, state, idle=0.1),
            out,
        )
    finally:
        client.detach()


def _run_replay(args) -> int:
    out = sys.stdout
    try:
        engine = ReplayEngine(args.recording, num_threads=args.threads)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot replay {args.recording!r}: {exc}", file=sys.stderr)
        return 1
    state = engine.dashboard

    def one(verb: str, arg: str) -> bool:
        if verb in ("quit", "exit"):
            return False
        if verb == "render":
            print(render(state), file=out)
        elif verb == "step":
            engine.step(int(arg) if arg else 1)
        elif verb == "back":
            engine.back(int(arg) if arg else 1)
        elif verb == "run":
            engine.run()
        elif verb == "report":
            print(render_report(state.report(), title="replay report"),
                  file=out)
        elif verb == "state":
            pass  # snapshots are synthesised on every step
        else:
            raise ValueError(f"unknown command {verb!r}")
        return True

    return _command_loop(
        args.script, "replay> ",
        "commands: step [n] back [n] run render report quit",
        state, one, lambda: None, out,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro live",
        description="Attach to a live run, or replay a recording.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    attach = sub.add_parser("attach", help="attach to a live runtime")
    attach.add_argument("address", help="unix-socket path or tcp:HOST:PORT")
    attach.add_argument(
        "--script", default=None,
        help=";-separated commands to run instead of the prompt",
    )
    attach.add_argument("--timeout", type=float, default=10.0,
                        help="per-read socket timeout (seconds)")
    # Must stay below the server's live.session.SNAPSHOT_INTERVAL
    # (0.25 s): a wider window never sees the stream go quiet.
    attach.add_argument("--settle", type=float, default=0.2,
                        help="initial stream drain window (seconds)")
    replay = sub.add_parser("replay", help="replay a saved recording")
    replay.add_argument("recording",
                        help="JSON from RecordedProgram.save(path) or "
                             "`repro flow --format json`")
    replay.add_argument("--script", default=None,
                        help=";-separated commands (see attach)")
    replay.add_argument("--threads", type=int, default=4,
                        help="virtual thread count for the replay")
    args = parser.parse_args(argv)
    if args.command == "attach":
        return _run_attach(args)
    return _run_replay(args)


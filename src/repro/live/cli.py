"""Live inspection from the command line.

Usage::

    python -m repro live attach /tmp/repro-live-x/live.sock
    python -m repro live attach tcp:127.0.0.1:4242 \\
        --script "state; break spotrf_t; step 5; clear; resume; wait-done"
    python -m repro live replay cholesky.recording.json
    python -m repro live replay cholesky.recording.json \\
        --script "step 10; render; back 3; run"

``attach`` connects to a runtime started with ``live=True`` (its bound
address is on ``runtime.live.address``) and mirrors the delta stream
into the shared dashboard; ``replay`` drives the *same* dashboard from
a recording saved with ``RecordedProgram.save``.

Commands (interactive prompt or ``--script``, ``;``-separated):

    state                 refresh the control snapshot (attach only)
    render                print the dashboard
    pause | resume        gate control
    step [N]              dispatch N tasks (default 1)
    back [N]              rewind N units (replay only)
    break NAME | break #ID    set a breakpoint (task type / task id)
    clear                 drop every breakpoint
    run                   replay: execute to the end
    wait-done             attach: block until every task is done
    report                analysis over completed work (obs.analyze)
    quit                  detach / exit
"""

from __future__ import annotations

import argparse
import sys

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
        print(state.report(), file=out)
    elif verb == "ping":
        client.ping()
    else:
        raise ValueError(f"unknown command {verb!r}")
    return True


def _run_attach(args, out=sys.stdout) -> int:
    try:
        client = LiveClient(args.address, timeout=args.timeout)
    except (OSError, LiveClosed) as exc:
        print(f"cannot attach to {args.address!r}: {exc}", file=sys.stderr)
        return 1
    state = DashboardState()
    state.apply(dict(client.hello))
    exit_code = 0
    try:
        _pump(client, state, idle=args.settle)
        if args.script is not None:
            for raw in args.script.split(";"):
                word = raw.strip()
                if not word:
                    continue
                parts = word.split(None, 1)
                verb, arg = parts[0], parts[1] if len(parts) > 1 else ""
                try:
                    keep_going = _attach_command(
                        client, state, verb, arg, out
                    )
                except (LiveTimeout, ValueError, RuntimeError) as exc:
                    print(f"{verb}: {exc}", file=sys.stderr)
                    exit_code = 1
                    break
                except LiveClosed:
                    break
                _pump(client, state, idle=0.1)
                if not keep_going:
                    break
            print(render(state), file=out)
        else:
            _interactive_attach(client, state, out)
    finally:
        client.detach()
    return exit_code


def _interactive_attach(client, state, out) -> None:
    print(render(state), file=out)
    print("commands: state render pause resume step [n] "
          "break <name|#id> clear wait-done report quit", file=out)
    while True:
        try:
            line = input("live> ").strip()
        except EOFError:
            return
        if not line:
            _pump(client, state, idle=0.1)
            print(render(state), file=out)
            continue
        parts = line.split(None, 1)
        verb, arg = parts[0], parts[1] if len(parts) > 1 else ""
        try:
            if not _attach_command(client, state, verb, arg, out):
                return
        except (LiveTimeout, ValueError, RuntimeError) as exc:
            print(f"{verb}: {exc}", file=out)
        except LiveClosed:
            print("(stream ended)", file=out)
            return
        _pump(client, state, idle=0.1)


def _run_replay(args, out=sys.stdout) -> int:
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
            print(state.report(num_threads=args.threads), file=out)
        elif verb == "state":
            pass  # snapshots are synthesised on every step
        else:
            raise ValueError(f"unknown command {verb!r}")
        return True

    if args.script is not None:
        code = 0
        for raw in args.script.split(";"):
            word = raw.strip()
            if not word:
                continue
            parts = word.split(None, 1)
            verb, arg = parts[0], parts[1] if len(parts) > 1 else ""
            try:
                if not one(verb, arg):
                    break
            except ValueError as exc:
                print(f"{verb}: {exc}", file=sys.stderr)
                code = 1
                break
        print(render(state), file=out)
        return code
    print(render(state), file=out)
    print("commands: step [n] back [n] run render report quit", file=out)
    while True:
        try:
            line = input("replay> ").strip()
        except EOFError:
            return 0
        if not line:
            print(render(state), file=out)
            continue
        parts = line.split(None, 1)
        verb, arg = parts[0], parts[1] if len(parts) > 1 else ""
        try:
            if not one(verb, arg):
                return 0
        except ValueError as exc:
            print(f"{verb}: {exc}", file=out)
        print(render(state), file=out)


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
                        help="JSON from RecordedProgram.save(path)")
    replay.add_argument("--script", default=None,
                        help=";-separated commands (see attach)")
    replay.add_argument("--threads", type=int, default=4,
                        help="virtual thread count for the replay")
    args = parser.parse_args(argv)
    if args.command == "attach":
        return _run_attach(args)
    return _run_replay(args)


"""Client side of the live protocol (used by the CLI and by tests).

A thin wrapper over :class:`repro.net.Client` — deliberately
single-threaded: every byte is read inside :meth:`recv`, and a command
waits for its own ``ack`` by seq while parking any interleaved stream
records on an internal buffer that later ``recv`` calls serve first.
That makes scripted sessions deterministic — there is no background
reader racing the assertions.

This module only adds the live plane's command verbs (pause/resume/
step/break/state), a ``ping`` at connect — the client speaks first, and
the hello plus the retained trace backlog arrive ahead of its ack — and
keeps the historical exception names as aliases of the shared
transport's.
"""

from __future__ import annotations

from typing import Optional

from ..net.client import Client, NetClosed, NetTimeout

__all__ = ["LiveClient", "LiveTimeout", "LiveClosed"]

#: Historical names: every existing caller catches these; they ARE the
#: shared transport exceptions, so either spelling works everywhere.
LiveTimeout = NetTimeout
LiveClosed = NetClosed


class LiveClient(Client):
    """Attach to a live session; stream its trace; drive the gate."""

    def __init__(self, address: str, timeout: float = 10.0):
        super().__init__(address, timeout=timeout)
        try:
            self.ping()  # fills .hello; the backlog waits in the buffer
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # live-plane command verbs
    # ------------------------------------------------------------------
    def pause(self) -> dict:
        return self.command("pause")

    def resume(self) -> dict:
        return self.command("resume")

    def step(self, n: int = 1) -> dict:
        return self.command("step", n=n)

    def set_break(self, name: Optional[str] = None,
                  task_id: Optional[int] = None) -> dict:
        fields: dict = {}
        if name is not None:
            fields["name"] = name
        if task_id is not None:
            fields["id"] = task_id
        return self.command("break", **fields)

    def clear_breaks(self) -> dict:
        return self.command("clear")

    def state(self) -> dict:
        return self.command("state")

    def ping(self) -> dict:
        return self.command("ping")

    def __enter__(self) -> "LiveClient":
        return self

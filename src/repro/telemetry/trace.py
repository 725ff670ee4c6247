"""Bin-lifecycle trace journal: bounded buffer of structured spans.

The pipeline emits one span per interesting lifecycle step -- bin
close, fused sync exchange -- into a bounded ring buffer.  The journal is
run telemetry: it never enters checkpoints, and emission is a no-op
while ``repro.telemetry.set_enabled(False)``.

Spans export in the Chrome trace-event format (the JSON array
flavour), so a soak run's journal opens directly in Perfetto /
``chrome://tracing``: complete events (``ph: "X"``) for spans with a
duration, instant events (``ph: "i"``) for events emitted without
one.

Timestamps are ``time.time()`` seconds; durations are seconds.  The
Chrome export converts both to the microseconds the format expects.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Iterator

from repro.telemetry._state import _STATE

#: Default journal capacity.  A span is ~6 small fields; 4096 of them
#: is a few hundred KB at worst and covers thousands of bins.
DEFAULT_CAPACITY = 4096


class TraceJournal:
    """Bounded ring buffer of structured span events."""

    __slots__ = ("events", "capacity", "dropped", "pid_label")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, pid_label: str = "driver") -> None:
        self.capacity = int(capacity)
        self.events: deque[dict] = deque(maxlen=self.capacity)
        self.dropped = 0
        self.pid_label = pid_label

    def emit(
        self,
        name: str,
        cat: str = "pipeline",
        *,
        dur_s: float | None = None,
        ts: float | None = None,
        tid: str | int = 0,
        **args,
    ) -> None:
        """Record one span (``dur_s`` set) or instant event (unset)."""
        if not _STATE.enabled:
            return
        if len(self.events) == self.capacity:
            self.dropped += 1
        event = {
            "name": name,
            "cat": cat,
            "ts": time.time() if ts is None else ts,
            "tid": tid,
        }
        if dur_s is not None:
            event["dur_s"] = dur_s
        if args:
            event["args"] = args
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict]:
        return iter(list(self.events))

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def extend(self, events: Iterator[dict] | list[dict]) -> None:
        """Absorb events from another journal (e.g. a worker frame)."""
        for event in events:
            if len(self.events) == self.capacity:
                self.dropped += 1
            self.events.append(event)

    # -- exports ------------------------------------------------------

    def to_chrome_trace(self) -> str:
        """Chrome trace-event JSON (openable in Perfetto)."""
        trace = []
        for event in self.events:
            entry = {
                "name": event["name"],
                "cat": event.get("cat", "pipeline"),
                "pid": self.pid_label,
                "tid": event.get("tid", 0),
                "ts": event["ts"] * 1e6,
            }
            if "dur_s" in event:
                entry["ph"] = "X"
                entry["dur"] = event["dur_s"] * 1e6
            else:
                entry["ph"] = "i"
                entry["s"] = "p"
            if "args" in event:
                entry["args"] = event["args"]
            trace.append(entry)
        return json.dumps({"traceEvents": trace}, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceJournal(events={len(self.events)}, "
            f"capacity={self.capacity}, dropped={self.dropped})"
        )

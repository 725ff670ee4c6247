"""Live telemetry plane: histograms, trace spans, exporters.

This package is the observability layer for the pipeline runtimes.
It deliberately lives *outside* ``repro.pipeline`` so the primitives
(`LogHistogram`, `TraceJournal`, the exporters) carry no pipeline
imports and can be unit-tested in isolation; the pipeline's
``PipelineMetrics`` registry owns instances of them and the runtimes
feed them.

Two module-level knobs, both inherited by forked workers:

- ``set_enabled(False)`` turns histogram recording and trace emission
  into no-ops (the bench's telemetry-off baseline).  Counters and
  gauges are unaffected -- they are pipeline bookkeeping, not
  telemetry.
- ``set_live_interval(seconds)`` throttles the compact metric frames
  workers piggyback on their return queues for
  ``Kepler.metrics_live()``.  ``0.0`` means "a frame on every
  exchange" (used by tests to make live sampling deterministic).

Telemetry never enters checkpoint documents: ``PipelineMetrics.
state_dict()`` predates this package and ships only the replayable
counters, and the identity suite pins that invariant under live
sampling and fault injection.
"""

from __future__ import annotations

from repro.telemetry._state import _STATE, DEFAULT_LIVE_INTERVAL_S
from repro.telemetry.hist import LogHistogram
from repro.telemetry.trace import TraceJournal
from repro.telemetry.export import (
    MetricsEndpoint,
    prometheus_text,
)

__all__ = [
    "DEFAULT_LIVE_INTERVAL_S",
    "LogHistogram",
    "TraceJournal",
    "MetricsEndpoint",
    "prometheus_text",
    "enabled",
    "set_enabled",
    "live_interval",
    "set_live_interval",
]

def enabled() -> bool:
    """Whether histogram recording and trace emission are active."""
    return _STATE.enabled


def set_enabled(flag: bool) -> None:
    """Toggle histogram recording and trace emission globally.

    Takes effect for pipelines built *after* the call in forked
    workers (they inherit the flag at fork); immediately for
    in-process recording.
    """
    _STATE.enabled = bool(flag)


def live_interval() -> float:
    """Seconds between piggybacked live metric frames."""
    return _STATE.live_interval_s


def set_live_interval(seconds: float) -> None:
    """Throttle (or, with ``0.0``, unthrottle) live metric frames."""
    _STATE.live_interval_s = max(0.0, float(seconds))

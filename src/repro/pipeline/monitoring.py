"""Binning/monitoring stage: stable paths to per-AS signals (§4.2).

Wraps :class:`repro.core.monitor.OutageMonitor`.  Tagged rows reach it
one way: as a column view over a tagged batch
(:meth:`BinningMonitorStage.feed_wire_run`), whose in-bin runs defer
into the monitor's fold as :class:`~repro.core.monitor.TaggedRun`
spans, each with the feed-gap set current at its deferral.  Tagged
rows advance the 60-second binning clock.  A row past the open bin
closes it before the row itself is deferred: the close hands back the
closed bins' per-AS signals and the start of the bin the clock
advanced to, at which downstream lifecycle stages re-evaluate open
outages, and the row folds into its own bin only after the runtime
analysed that emission.  State messages replace the feed-gap set and
emit nothing.  The close runs in :meth:`BinningMonitorStage.feed`,
whose one input is that row's time.

Each bin-closing call also records one gauge sample (latency, baseline
and pending population), weighted by the bins it closed, into the
shared metrics registry.
"""

from __future__ import annotations

import time

from repro.core.events import OutageSignal
from repro.core.monitor import OutageMonitor, TaggedRun
from repro.core.serde import _K_PRIMED, _K_TAGGED, TaggedBatch, tagged_view
from repro.pipeline.metrics import PipelineMetrics

#: One bin close: the closed bins' signals and the bin advanced to.
Emission = tuple[list[OutageSignal], float]


class BinningMonitorStage:
    """Tagged batch -> (signals, bin advanced to) per bin close."""

    name = "monitor"

    def __init__(
        self,
        monitor: OutageMonitor,
        metrics: PipelineMetrics | None = None,
    ) -> None:
        self.monitor = monitor
        self.metrics = metrics
        #: RIB paths installed into the baseline via the priming path.
        self.primed = 0
        if metrics is not None:
            metrics.gauge_source(
                "monitor_skipped_steady_state",
                lambda: monitor.skipped_steady_state,
            )

    def feed(self, now: float) -> Emission:
        """Close the open bin and the empty ones before the bin of
        ``now``; the closed bins' signals and the bin advanced to.

        ``now`` is the time of the first row past the open bin:
        :meth:`feed_wire_run` hands it over, so every bin close and its
        metering run in this one call.
        """
        monitor = self.monitor
        prev_bin = monitor.current_bin_start
        bins_before = monitor.bins_processed
        began = time.perf_counter()
        signals = monitor.close_bins(now)
        latency = time.perf_counter() - began
        if self.metrics is not None:
            # One call can close several bins (sparse streams);
            # attribute the latency evenly across them so bins_closed
            # matches the monitor's own count.
            closed = monitor.bins_processed - bins_before
            pending = monitor.pending_count
            self.metrics.record_bin(
                latency_s=latency / closed,
                baseline_entries=monitor.total_baseline_entries,
                pending_entries=pending,
                bins=closed,
            )
            self.metrics.trace.emit(
                "bin_close",
                "bin",
                dur_s=latency,
                bin=prev_bin,
                closed=closed,
                signals=len(signals),
                pending=pending,
            )
        return signals, monitor.current_bin_start

    def prepare_wire(self, batch: TaggedBatch) -> TaggedBatch:
        """Runs over a tagged batch; ``ValueError`` on anything else."""
        return tagged_view(batch)

    def feed_wire_run(
        self, view: TaggedBatch, start: int
    ) -> tuple[Emission | None, int]:
        """Consume slots of ``view`` from ``start``.

        In-bin tagged rows defer as
        :class:`~repro.core.monitor.TaggedRun` column spans that carry
        the monitor's current feed-gap set — the common whole-run case
        is one scan of the time column plus one append, and no row
        materialises an object.  The first row past the open bin stops
        the call: the rows before it defer, the bin closes
        (:meth:`feed`), and the call returns the close's emission with
        the closing row's *own* slot.  The caller analyses the emission
        and resumes there, so the row folds into its own bin and what
        the record stage settles at the advance holds rows of the
        closed bin only.  Returns ``(emission, next_slot)``; the
        emission is ``None`` when no bin closed.
        """
        monitor = self.monitor
        defer = monitor._events.append
        bin_start = monitor._bin_start
        width = monitor.params.bin_interval_s
        limit = None if bin_start is None else bin_start + width
        run_cls = TaggedRun
        n = len(view)
        slot = start
        while slot < n:
            kind, run_start, run_stop, fam = view.run_at(slot)
            f0 = fam + (slot - run_start)
            f1 = fam + (run_stop - run_start)
            if kind == _K_TAGGED:
                t_time = view.t_time
                if limit is None:
                    bin_start = monitor._bin_floor(t_time[f0])
                    monitor._bin_start = bin_start
                    limit = bin_start + width
                # The bin-closing row is the first in arrival order at
                # or past the limit; the scan stops there, so each row
                # of a batch is compared once however many bins close.
                for f in range(f0, f1):
                    if not t_time[f] < limit:
                        break
                else:
                    # Whole remaining run is in-bin: one deferral covers
                    # it (order inside the run is the arrival order).
                    defer(run_cls(view, f0, f1, monitor._gapped))
                    slot = run_stop
                    continue
                if f0 < f:
                    defer(run_cls(view, f0, f, monitor._gapped))
                return self.feed(t_time[f]), slot + (f - f0)
            if kind == _K_PRIMED:
                prime_row = monitor.prime_row
                for key, when, pair in zip(
                    view.t_key[f0:f1], view.t_time[f0:f1], view.t_pair[f0:f1]
                ):
                    prime_row(key, when, pair)
                self.primed += run_stop - slot
                slot = run_stop
                continue
            # _K_STATE
            for message in view.states[f0:f1]:
                monitor.observe_state(message)
            slot = run_stop
        return None, n

    def flush(self) -> list[OutageSignal]:
        """Close the trailing partial bin; its signals (the clock does
        not advance: end of stream)."""
        return self.monitor.close_bin()

    def state_dict(self) -> dict:
        return {"primed": self.primed, "monitor": self.monitor.state_dict()}

    def load_state(self, state: dict) -> None:
        self.primed = state["primed"]
        self.monitor.load_state(state["monitor"])

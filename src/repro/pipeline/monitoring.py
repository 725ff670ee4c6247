"""Binning/monitoring stage: stable paths to per-AS signals (§4.2).

Wraps :class:`repro.core.monitor.OutageMonitor`.  Tagged rows reach it
one way: as a column view over a tagged batch
(:meth:`BinningMonitorStage.feed_wire_run`), whose in-bin runs defer
into the monitor's fold as :class:`~repro.core.monitor.TaggedRun`
spans, each with the feed-gap set current at its deferral.  Tagged
rows advance the 60-second binning clock; whenever one or more bins
close, their per-AS signals are emitted as one
:class:`~repro.pipeline.events.SignalBatch`, followed by a
:class:`~repro.pipeline.events.BinAdvanced` marker so downstream
lifecycle stages re-evaluate open outages — the exact order the
monolithic detector used.  State messages replace the feed-gap set
and emit nothing.  :meth:`BinningMonitorStage.feed` takes one element:
the bin-closing row of a view, and every element of a chain without a
tagging stage in front.

Each bin-closing call also records one gauge sample (latency, baseline
and pending population), weighted by the bins it closed, into the
shared metrics registry.
"""

from __future__ import annotations

import time
from typing import Any

from repro.bgp.messages import BGPStateMessage
from repro.core.input import TaggedPath
from repro.core.monitor import OutageMonitor, TaggedRun
from repro.core.serde import _K_PRIMED, _K_TAGGED, TaggedBatch, tagged_view
from repro.pipeline.events import BinAdvanced, PrimedPath, SignalBatch
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.stage import PassthroughStage


class BinningMonitorStage(PassthroughStage):
    """TaggedPath / BGPStateMessage -> SignalBatch + BinAdvanced."""

    name = "monitor"
    #: Localisation and record stages query the live monitor (baseline
    #: links, the watch report): every signal batch and bin
    #: marker must clear the chain before the next element advances
    #: the monitor, so batching stops here (see Stage.depth_first).
    depth_first = True

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
            # replace=True: a caller-supplied registry may outlive this
            # stage (``build_kepler_pipeline(metrics=...)``); the newest
            # stage's source wins.
            metrics.gauge_source(
                "monitor_skipped_steady_state",
                lambda: monitor.skipped_steady_state,
                replace=True,
            )

    def feed(self, element: Any) -> list[Any]:
        if isinstance(element, PrimedPath):
            # Direct baseline installation: no binning-clock advance,
            # no divergence accounting (the snapshot is assumed aged).
            self.monitor.prime(element.path)
            self.primed += 1
            return []
        if isinstance(element, BGPStateMessage):
            self.monitor.observe_state(element)
            return []
        if not isinstance(element, TaggedPath):
            return [element]
        prev_bin = self.monitor.current_bin_start
        bins_before = self.monitor.bins_processed
        began = time.perf_counter()
        signals = self.monitor.observe(element)
        latency = time.perf_counter() - began
        new_bin = self.monitor.current_bin_start
        out: list[Any] = []
        if signals:
            out.append(SignalBatch(signals=signals))
        if prev_bin is not None and new_bin != prev_bin:
            if self.metrics is not None:
                # One observe call can close several bins (sparse
                # streams); attribute the latency evenly across them so
                # bins_closed matches the monitor's own count.
                closed = max(1, self.monitor.bins_processed - bins_before)
                pending = self.monitor.pending_count
                self.metrics.record_bin(
                    latency_s=latency / closed,
                    baseline_entries=self.monitor.total_baseline_entries,
                    pending_entries=pending,
                    bins=closed,
                )
                self.metrics.trace.emit(
                    "bin_close",
                    "bin",
                    dur_s=latency,
                    bin=prev_bin,
                    closed=closed,
                    signals=len(signals) if signals else 0,
                    pending=pending,
                )
            out.append(
                BinAdvanced(now=new_bin if new_bin is not None else element.time)
            )
        return out

    def prepare_wire(self, batch: TaggedBatch) -> TaggedBatch:
        """Runs over a tagged batch; ``ValueError`` on anything else."""
        return tagged_view(batch)

    def feed_wire_run(
        self, view: TaggedBatch, start: int
    ) -> tuple[list[Any], int]:
        """Consume slots of ``view`` from ``start``.

        Stops at the first slot that produces output (a bin-closing
        row) so emitted batches clear the chain before the monitor
        advances.  In-bin tagged rows defer as
        :class:`~repro.core.monitor.TaggedRun` column spans that carry
        the monitor's current feed-gap set — the common whole-run case
        is one scan of the time column plus one append, and no row
        materialises an object.  The bin-closing row enters
        through :meth:`feed` (which closes the bin and defers the row
        as a one-row run) so the per-bin metering lives in one place.
        Returns ``(outputs, next_slot)``.
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
                # Bin close: the per-element path does the metrics
                # bookkeeping; stop so outputs cascade.
                if f0 < f:
                    defer(run_cls(view, f0, f, monitor._gapped))
                return self.feed(view.tagged_at(f)), slot + (f - f0) + 1
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
        return [], n

    def flush(self) -> list[Any]:
        """Close the trailing partial bin (no BinAdvanced: end of stream)."""
        signals = self.monitor.close_bin()
        if not signals:
            return []
        return [SignalBatch(signals=signals)]

    def state_dict(self) -> dict:
        return {"primed": self.primed, "monitor": self.monitor.state_dict()}

    def load_state(self, state: dict) -> None:
        self.primed = state["primed"]
        self.monitor.load_state(state["monitor"])

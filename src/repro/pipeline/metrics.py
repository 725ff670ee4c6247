"""Pipeline observability: per-stage counters, gauges, histograms.

Every stage of a :class:`~repro.pipeline.runtime.KeplerPipeline` gets a
:class:`StageMetrics` entry: items fed, items emitted, cumulative wall
time and metered calls, all written by one method,
:meth:`StageMetrics.meter`.  Each stage counts its own items: ingest
and tagging stream elements, the monitor tagged rows in and signals
out, classification signals in and PoP-level classifications out,
localisation those in and located signals out, validation those in
and candidates out, and the record stage candidates in.  The
monitoring stage additionally reports a gauge sample per closed bin —
bin-close latency, baseline and pending population — so capacity
trends are visible without profiling.

The registry also owns the distribution side of observability:

- every stage carries a :class:`~repro.telemetry.hist.LogHistogram`
  of nanoseconds per item per metered call;
- :class:`BinStats` carries a histogram of bin-close latency;
- ``hist(name)`` hands out named histograms for non-stage
  distributions (today one: ``sync_round_s``, the shard-process
  runtime's fused sync-exchange round trip);
- ``trace`` is the bounded :class:`~repro.telemetry.trace.TraceJournal`
  of bin-lifecycle span events.

The metric taxonomy is strict about what checkpoints see: counters in
``state_dict()`` only.  Stage busy seconds, bin-close latencies,
histograms, gauges, batches and the trace journal are
*run* telemetry — merged across processes via the shard runtime's
worker sync sidecars (``hists_to_wire``/``load_hists_wire`` for the
histograms), but never part of a checkpoint document.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.telemetry.hist import LogHistogram
from repro.telemetry.trace import TraceJournal

logger = logging.getLogger("repro.pipeline.metrics")


@dataclass
class StageMetrics:
    """Counters for one stage, in the stage's own items."""

    name: str
    fed: int = 0
    emitted: int = 0
    seconds: float = 0.0
    #: metered calls — one per chunk on the batched runtimes, so
    #: ``fed / batches`` is the realised batch size.  Run telemetry,
    #: not state: never checkpointed, zeroed on restore.
    batches: int = 0
    #: distribution of nanoseconds per item, one sample per metered
    #: call that was fed anything.  Run telemetry: excluded from
    #: checkpoints, merged across workers by
    #: :meth:`PipelineMetrics.absorb`.
    hist: LogHistogram = field(default_factory=LogHistogram)

    def meter(self, began: float, fed: int, emitted: int) -> None:
        """Count one call that began at ``perf_counter()`` ``began``,
        was fed ``fed`` items and emitted ``emitted``."""
        delta = time.perf_counter() - began
        self.seconds += delta
        self.fed += fed
        self.batches += 1
        self.emitted += emitted
        if fed:
            self.hist.record(delta * 1e9 / fed)

    @property
    def throughput(self) -> float:
        """Elements fed per second of stage time (0 when untimed)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.fed / self.seconds

    @property
    def ns_per_element(self) -> float:
        """Stage nanoseconds per element fed (0 when nothing fed)."""
        if self.fed <= 0:
            return 0.0
        return self.seconds * 1e9 / self.fed

    @property
    def mean_batch(self) -> float:
        """Realised elements per metered feed call."""
        if self.batches <= 0:
            return 0.0
        return self.fed / self.batches

    def as_dict(self) -> dict[str, float | int | str]:
        return {
            "name": self.name,
            "fed": self.fed,
            "emitted": self.emitted,
            "seconds": round(self.seconds, 6),
            "throughput_per_s": round(self.throughput, 1),
            "ns_per_element": round(self.ns_per_element, 1),
            "batches": self.batches,
            "mean_batch": round(self.mean_batch, 1),
        }


@dataclass
class BinStats:
    """Running statistics over closed bins (bounded memory)."""

    count: int = 0
    total_latency_s: float = 0.0
    max_latency_s: float = 0.0
    last_baseline_entries: int = 0
    last_pending_entries: int = 0
    #: bin-close latency distribution (seconds).  Run telemetry.
    hist: LogHistogram = field(default_factory=LogHistogram)

    def record(
        self,
        latency_s: float,
        baseline_entries: int,
        pending_entries: int,
        bins: int = 1,
    ) -> None:
        """Record ``bins`` closed bins of ``latency_s`` each."""
        self.count += bins
        self.total_latency_s += latency_s * bins
        self.max_latency_s = max(self.max_latency_s, latency_s)
        self.last_baseline_entries = baseline_entries
        self.last_pending_entries = pending_entries
        self.hist.record(latency_s, bins)

    @property
    def mean_latency_s(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total_latency_s / self.count

    def as_dict(self) -> dict[str, float | int]:
        return {
            "bins_closed": self.count,
            "mean_latency_s": round(self.mean_latency_s, 6),
            "max_latency_s": round(self.max_latency_s, 6),
            "baseline_entries": self.last_baseline_entries,
            "pending_entries": self.last_pending_entries,
        }


class PipelineMetrics:
    """Registry shared by all stages of one pipeline."""

    def __init__(self) -> None:
        self.stages: dict[str, StageMetrics] = {}
        self.bins = BinStats()
        #: pull-based gauge sources: name -> zero-arg callable, sampled
        #: at :meth:`gauges` / :meth:`snapshot` time so the reported
        #: value is never stale.  Gauges expose derived-cache telemetry
        #: (tagging-memo evictions, serde intern table sizes) of the
        #: *calling process*; they are observability, not state, and
        #: are deliberately absent from :meth:`state_dict`.
        self._gauge_sources: dict[str, Callable[[], int | float]] = {}
        #: named histograms for non-stage distributions — today only
        #: the shard-process runtime's fused sync exchange
        #: (``sync_round_s``).  Run telemetry, merged by :meth:`absorb`.
        self.hists: dict[str, LogHistogram] = {}
        #: bounded journal of bin-lifecycle span events.
        self.trace = TraceJournal()
        #: gauge names that saw a collision warning already (warn once).
        self._gauge_collisions: set[str] = set()

    def gauge_source(
        self,
        name: str,
        source: Callable[[], int | float],
        *,
        replace: bool = False,
    ) -> None:
        """Register a named gauge callable.

        Re-registering an existing name with a *different* callable is
        almost always a composition bug (two processes' caches fighting
        over one name), so it logs a warning unless ``replace=True`` —
        builders that intentionally refresh their own sources on a
        registry their caller may reuse pass ``replace=True``.  The new
        source wins either way, matching the historical behaviour.
        """
        existing = self._gauge_sources.get(name)
        if (
            existing is not None
            and existing is not source
            and not replace
            and name not in self._gauge_collisions
        ):
            self._gauge_collisions.add(name)
            logger.warning(
                "gauge %r re-registered with a different source; "
                "replacing (namespace worker gauges, e.g. 'w0.%s')",
                name,
                name,
            )
        self._gauge_sources[name] = source

    def gauges(self) -> dict[str, int | float]:
        """Sample every registered gauge now."""
        return {
            name: source()
            for name, source in list(self._gauge_sources.items())
        }

    def stage(self, name: str) -> StageMetrics:
        metrics = self.stages.get(name)
        if metrics is None:
            metrics = self.stages[name] = StageMetrics(name=name)
        return metrics

    def hist(self, name: str) -> LogHistogram:
        """Named histogram handle (created on first use)."""
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = LogHistogram()
        return hist

    def record_bin(
        self,
        latency_s: float,
        baseline_entries: int,
        pending_entries: int,
        bins: int = 1,
    ) -> None:
        self.bins.record(latency_s, baseline_entries, pending_entries, bins)

    def hist_summaries(self) -> dict[str, dict]:
        """Every non-empty histogram, keyed by taxonomy name.

        Per-stage ns/element histograms appear as ``stage_ns.<stage>``,
        the bin-close latency histogram as ``bin_close_s``, and named
        histograms under their registered names (``*_s`` suffix =
        seconds).
        """
        out: dict[str, dict] = {}
        for name, metrics in list(self.stages.items()):
            if metrics.hist.count:
                out[f"stage_ns.{name}"] = metrics.hist.as_dict()
        if self.bins.hist.count:
            out["bin_close_s"] = self.bins.hist.as_dict()
        for name, hist in list(self.hists.items()):
            if hist.count:
                out[name] = hist.as_dict()
        return out

    def snapshot(self) -> dict[str, object]:
        """JSON-serialisable view of every counter."""
        return {
            "stages": [
                metrics.as_dict() for metrics in list(self.stages.values())
            ],
            "bins": self.bins.as_dict(),
            "gauges": self.gauges(),
            "hists": self.hist_summaries(),
        }

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpoint shape: exact counters, no rounding, no wall clock.

        Stage busy seconds and bin-close latencies measure the run, not
        the stream, so they stay out: two runs of one replay prefix
        give byte-equal documents, and a restored registry measures
        its own process from zero.
        """
        return {
            "stages": [
                [m.name, m.fed, m.emitted] for m in self.stages.values()
            ],
            "bins": {
                "count": self.bins.count,
                "last_baseline_entries": self.bins.last_baseline_entries,
                "last_pending_entries": self.bins.last_pending_entries,
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore counters **in place**.

        Existing :class:`StageMetrics` objects are mutated rather than
        replaced: the pipeline runtimes resolve stage handles once at
        construction (hot-loop optimisation), and those handles must
        stay live across a checkpoint restore.
        """
        self.reset()  # entries absent from the checkpoint go to zero
        for name, fed, emitted in state["stages"]:
            metrics = self.stage(name)
            metrics.fed = fed
            metrics.emitted = emitted
        bins = state["bins"]
        self.bins.count = bins["count"]
        self.bins.last_baseline_entries = bins["last_baseline_entries"]
        self.bins.last_pending_entries = bins["last_pending_entries"]

    def reset(self) -> None:
        """Zero every counter in place (handles stay live)."""
        for metrics in self.stages.values():
            metrics.fed = 0
            metrics.emitted = 0
            metrics.seconds = 0.0
            metrics.batches = 0
            metrics.hist.clear()
        self.bins.count = 0
        self.bins.total_latency_s = 0.0
        self.bins.max_latency_s = 0.0
        self.bins.last_baseline_entries = 0
        self.bins.last_pending_entries = 0
        self.bins.hist.clear()
        for hist in self.hists.values():
            hist.clear()

    def absorb(self, other: "PipelineMetrics") -> None:
        """Fold another registry's counters into this one (aggregation)."""
        for name, metrics in list(other.stages.items()):
            mine = self.stage(name)
            mine.fed += metrics.fed
            mine.emitted += metrics.emitted
            mine.seconds += metrics.seconds
            mine.batches += metrics.batches
            mine.hist.merge(metrics.hist)
        for name, hist in list(other.hists.items()):
            if hist.count:
                self.hist(name).merge(hist)

    def adopt_gauges(self, other: "PipelineMetrics") -> None:
        """Share another registry's gauge sources (composed views).

        Adopting a name this registry already points at a *different*
        callable is a collision between two source registries; it is
        logged once per name (the adopted source wins, matching the
        historical last-wins behaviour).
        """
        for name, source in list(other._gauge_sources.items()):
            existing = self._gauge_sources.get(name)
            if (
                existing is not None
                and existing is not source
                and name not in self._gauge_collisions
            ):
                self._gauge_collisions.add(name)
                logger.warning(
                    "adopt_gauges: gauge %r collides across registries; "
                    "adopted source wins",
                    name,
                )
            self._gauge_sources[name] = source

    # -- wire sidecars (live frames / sync exchanges) ------------------

    def hists_to_wire(self) -> dict:
        """Marshal-safe lossless encoding of every non-empty histogram.

        Shape: ``{"stage": {name: wire}, "named": {name: wire},
        "bin": wire | None}``.  Travels in the telemetry *sidecar* of
        control/sync messages (next to ``batches``/``gauge_values``),
        never in ``state_dict``.
        """
        return {
            "stage": {
                name: m.hist.to_wire()
                for name, m in self.stages.items()
                if m.hist.count
            },
            "named": {
                name: h.to_wire()
                for name, h in self.hists.items()
                if h.count
            },
            "bin": self.bins.hist.to_wire() if self.bins.hist.count else None,
        }

    def absorb_hists_wire(self, doc: dict | None) -> None:
        """Merge a :meth:`hists_to_wire` sidecar into this registry."""
        if not doc:
            return
        for name, wire in doc.get("stage", {}).items():
            self.stage(name).hist.merge(LogHistogram.from_wire(wire))
        for name, wire in doc.get("named", {}).items():
            self.hist(name).merge(LogHistogram.from_wire(wire))
        bin_wire = doc.get("bin")
        if bin_wire:
            self.bins.hist.merge(LogHistogram.from_wire(bin_wire))

    def load_hists_wire(self, doc: dict | None) -> None:
        """Replace histogram contents from a sidecar (scratch loads)."""
        for metrics in self.stages.values():
            metrics.hist.clear()
        for hist in self.hists.values():
            hist.clear()
        self.bins.hist.clear()
        self.absorb_hists_wire(doc)

    def register_cache_gauges(self, input_module) -> None:
        """Point the standard cache gauges at ``input_module``.

        Registers the tagging-memo telemetry (``memo_entries``,
        ``memo_hits``, ``memo_evictions``) plus the size and eviction
        gauges of the community intern table
        (:func:`repro.core.serde.intern_stats`).  Safe to call in every
        builder: the sources are process-local, so a forked worker
        inheriting the registration samples its *own* caches.
        """
        from repro.core import serde

        self.gauge_source(
            "memo_entries",
            lambda: len(input_module._memo) + len(input_module._memo_old),
            replace=True,
        )
        self.gauge_source(
            "memo_hits", lambda: input_module.memo_hits, replace=True
        )
        self.gauge_source(
            "memo_evictions",
            lambda: input_module.memo_evictions,
            replace=True,
        )
        self.gauge_source(
            "intern_community_entries",
            lambda: serde.intern_stats()["community"]["size"],
            replace=True,
        )
        self.gauge_source(
            "intern_community_evictions",
            lambda: serde.intern_stats()["community"]["evictions"],
            replace=True,
        )

    def describe(self) -> str:
        """Compact one-line-per-stage human-readable summary."""
        lines = []
        for name, m in self.stages.items():
            lines.append(
                f"{name:>10}: fed={m.fed:<8d} emitted={m.emitted:<8d}"
                f" time={m.seconds:8.3f}s"
            )
        b = self.bins
        lines.append(
            f"{'bins':>10}: closed={b.count} mean_latency="
            f"{b.mean_latency_s * 1000.0:.2f}ms"
            f" baseline={b.last_baseline_entries}"
            f" pending={b.last_pending_entries}"
        )
        return "\n".join(lines)

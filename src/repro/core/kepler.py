"""The Kepler system facade (Section 4, Figure 6).

Kepler is a staged streaming detector:

    BGP stream -> tagged paths -> 60 s bins -> per-AS signals
      -> classify (link / AS / operator / PoP)
      -> localise PoP-level signals over the colocation map
      -> (optionally) confirm via traceroute
      -> open outage record; track return-to-baseline; close at >50 %
      -> merge oscillating outages separated by < 12 h

Each arrow is a :class:`~repro.pipeline.stage.Stage` of
:mod:`repro.pipeline`; this class wires the canonical chain and keeps
the historical batch API (``prime`` / ``process`` / ``finalize``,
``records``, ``signal_log``, ``rejected``, ``signal_counts``) as a thin
facade over it, so every existing caller keeps working while new code
can meter, test or shard the stages individually.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from collections.abc import Iterable
from itertools import islice
from typing import TYPE_CHECKING

from repro.bgp.messages import BGPUpdate, StreamElement
from repro.core.colocation import ColocationMap
from repro.core.dataplane import (
    DataPlaneValidator,
    MERGE_GAP_S,
    NullValidator,
    RESTORE_FRACTION,
)
from repro.core.events import OutageRecord, SignalType
from repro.core.input import InputModule
from repro.core.investigation import COLOCATION_MARGIN, Investigator
from repro.core.monitor import MonitorParams, OutageMonitor
from repro.core.signals import MIN_POP_LEVEL_ASES, SignalClassification
from repro.docmine.dictionary import CommunityDictionary, PoP

if TYPE_CHECKING:
    from repro.pipeline import KeplerPipeline, PipelineMetrics
    from repro.scenarios import World

#: Checkpoint document version written by :meth:`Kepler.snapshot`.
#: Version 2: the monitor section is canonical (fully sorted, no
#: promotion heap — rebuilt on load) so documents are identical across
#: monitor partition layouts, and a pipeline section in the retired
#: sharded layout linearises on restore (see
#: :mod:`repro.pipeline.checkpoint`).
#: Version 3: the ingest section gains the per-type drop breakdown
#: (``dropped_types``) and doubles as the ingest tier's layout-free
#: feed cursor — the sum of the per-feed admission counters plus the
#: merge release clock — so any snapshot restores into any
#: ``ingest_feeds`` layout (see
#: :func:`repro.pipeline.checkpoint.compose_ingest_state`).
CHECKPOINT_VERSION = 3
CHECKPOINT_FORMAT = "kepler-checkpoint"

#: First-generation collector threshold while the chain runs a staged
#: batch (see :meth:`Kepler.process`).  Steady-state allocations are
#: acyclic, so delaying cycle detection trades a bounded amount of
#: cycle-garbage latency for not re-walking the heap every ~700
#: allocations.
_STREAM_GC_GEN0 = 2_000_000


@dataclass
class RecoveryPolicy:
    """Knobs of the supervision layer (``KeplerParams.supervised``).

    See :class:`repro.pipeline.supervisor.SupervisedKeplerPipeline`.
    ``max_restarts`` is a cumulative worker-generation budget; once it
    is exhausted the supervisor degrades to the in-process fallback
    runtime (``degrade=True``, the default) or re-raises the failure.
    ``checkpoint_interval`` / ``journal_limit`` bound the replay
    buffer in elements; ``stall_timeout_s`` arms the hung-queue
    detector on every wrapped runtime (``None`` disables it);
    ``teardown_deadline_s`` caps how long each recovery waits for dead
    workers to join before terminating them.
    """

    max_restarts: int = 3
    checkpoint_interval: int = 8192
    journal_limit: int | None = None
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    stall_timeout_s: float | None = 30.0
    teardown_deadline_s: float = 0.5
    degrade: bool = True


@dataclass
class KeplerParams:
    """All tunables of the pipeline with the paper's defaults."""

    monitor: MonitorParams = field(default_factory=MonitorParams)
    min_pop_ases: int = MIN_POP_LEVEL_ASES
    colocation_margin: float = COLOCATION_MARGIN
    restore_fraction: float = RESTORE_FRACTION
    merge_gap_s: float = MERGE_GAP_S
    #: Drop outages the data plane rejects (Section 4.4).  With the
    #: NullValidator every outcome is INCONCLUSIVE and nothing is
    #: dropped, i.e. pure control-plane operation.
    drop_rejected: bool = True
    #: Disable localisation (ablation): record the raw signal PoP.
    enable_investigation: bool = True
    #: Signals are correlated over this sliding window before the
    #: PoP-level rule is applied ("considers all outages signaled within
    #: a time interval", Section 4.3): BGP propagation jitter spreads
    #: one incident's updates over adjacent bins.
    correlation_window_s: float = 180.0
    #: Elements per columnar batch the shard-process driver broadcasts
    #: to its workers (amortises the codec and the queue hop).
    process_batch: int = 512
    #: Number of end-to-end shard worker *processes* (0 = off; >= 2
    #: enables the shard-process runtime).  Each worker runs the
    #: stream stages tagging -> monitor share -> record over the
    #: broadcast element stream; the driver keeps ingest, the probe
    #: cache and the per-bin analysis (classification -> localisation
    #: -> validation over the merged signals, one fused exchange per
    #: worker per bin).  See :mod:`repro.pipeline.parallel`.  Requires
    #: the ``fork`` start method (POSIX).
    shard_processes: int = 0
    #: Number of collector feed workers of the sharded ingest tier
    #: (0 = driver-side ingest, the historical path).  With >= 1 the
    #: facade wraps whichever runtime the other knobs built in an
    #: :class:`~repro.ingest.tier.IngestTier`: per-collector feed
    #: workers admit and account locally and a watermark merge
    #: releases the sorted stream downstream — byte-identical to the
    #: driver ingest path on a time-sorted input stream (the contract
    #: of every replay surface; an out-of-order input is *re-merged*
    #: within the reorder window and surfaced via late-element
    #: accounting, where the driver path would preserve arrival
    #: order and count ``out_of_order``), composing with every
    #: runtime above, and unlocking :meth:`Kepler.process_feeds` for
    #: per-collector sources consumed concurrently (forked feed
    #: workers where the platform allows).
    ingest_feeds: int = 0
    #: Wrap the built runtime in the supervision layer
    #: (:mod:`repro.pipeline.supervisor`): worker death, hung queues
    #: and poisoned batches become metered checkpoint-replay
    #: recoveries instead of exceptions, and restart exhaustion
    #: degrades to the in-process chain.  Output stays byte-identical
    #: to an unfaulted run.
    supervised: bool = False
    #: Supervision knobs (ignored unless ``supervised``).
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: Elements per chunk on the in-process chain's ``feed_many`` fast
    #: path (the shard-process runtime batches by ``process_batch``
    #: instead).  Also the bound of the facade's admission buffer under
    #: every runtime: :meth:`Kepler.process` never holds this many
    #: elements back.
    feed_chunk: int = 4096


class Kepler:
    """Streaming peering-infrastructure outage detector."""

    def __init__(
        self,
        dictionary: CommunityDictionary,
        colo: ColocationMap,
        as2org: dict[int, str],
        params: KeplerParams | None = None,
        validator: DataPlaneValidator | None = None,
    ) -> None:
        self.params = params or KeplerParams()
        if self.params.feed_chunk < 1:
            raise ValueError("feed_chunk must be positive")
        if self.params.process_batch < 1:
            raise ValueError("process_batch must be positive")
        self.dictionary = dictionary
        self.colo = colo
        self.as2org = dict(as2org)
        self.validator: DataPlaneValidator = validator or NullValidator()
        if self.params.supervised:
            # The supervision layer owns the runtime's lifecycle: it
            # calls ``_build_stages`` now and again after every crash
            # (fresh stage state each time — a restart must not
            # inherit the dead incarnation's mutated cores), and
            # ``_build_linear_stages`` once restarts are exhausted.
            from repro.pipeline.supervisor import SupervisedKeplerPipeline

            self.stages = SupervisedKeplerPipeline(
                self._build_stages,
                self._build_linear_stages,
                self.params.recovery,
            )
        else:
            self.stages = self._build_stages()
        self.pipeline = self.stages.pipeline
        #: primed baseline paths (installed outside the streaming path).
        self.primed_paths = 0
        # Admission staging (see ``process``): elements handed over but
        # not yet run through the chain, and the end of the bin the last
        # element that *was* run fell in (the monitor's ``_bin_floor``
        # formula plus one width).  -inf: the first call runs at once.
        self._staged: list[StreamElement] = []
        self._flush_edge = float("-inf")

    # ------------------------------------------------------------------
    # Runtime factories (called repeatedly under supervision)
    # ------------------------------------------------------------------
    def _wiring(self) -> dict:
        """Fresh stage cores plus the canonical builder kwargs.

        Rebuilds ``input`` / ``monitor`` / ``investigator`` on every
        call and repoints the facade attributes at the new incarnation;
        the validator is the operator's object and is reused.
        """
        self.input = InputModule(self.dictionary, self.colo)
        # Under shard_processes the live monitor state is distributed
        # across the worker processes (one monitor share each, built by
        # the runtime); this driver-side object then only carries the
        # MonitorParams template and stays empty — read monitor state
        # through the facade views or a snapshot in that mode.
        self.monitor = OutageMonitor(self.params.monitor)
        self.investigator = Investigator(
            self.colo, margin=self.params.colocation_margin
        )
        return dict(
            input_module=self.input,
            monitor=self.monitor,
            investigator=self.investigator,
            validator=self.validator,
            colo=self.colo,
            as2org=self.as2org,
            min_pop_ases=self.params.min_pop_ases,
            correlation_window_s=self.params.correlation_window_s,
            restore_fraction=self.params.restore_fraction,
            merge_gap_s=self.params.merge_gap_s,
            drop_rejected=self.params.drop_rejected,
            enable_investigation=self.params.enable_investigation,
        )

    def _build_stages(self) -> "KeplerPipeline":
        """Build the runtime the params describe (the primary)."""
        # Imported here, not at module scope: repro.pipeline imports the
        # sibling core modules through the package __init__, which ends
        # by importing this module — a cycle at import time, not at use.
        from repro.pipeline import build_shard_process_kepler_pipeline

        if self.params.shard_processes >= 2:
            stages: KeplerPipeline = build_shard_process_kepler_pipeline(
                workers=self.params.shard_processes,
                batch_size=self.params.process_batch,
                **self._wiring(),
            )
        else:
            stages = self._build_linear_stages()
        if self.params.ingest_feeds >= 1:
            # Outermost wrapper: the sharded ingest tier replaces the
            # runtime's driver-side ingest hop with per-collector feed
            # workers and a watermark merge.  Built after any forked
            # runtime (its feed workers are per-run, so no thread is
            # alive at the runtimes' construction-time forks).
            from repro.ingest import build_ingest_kepler_pipeline

            stages = build_ingest_kepler_pipeline(
                stages, feeds=self.params.ingest_feeds
            )
        return stages

    def _build_linear_stages(self) -> "KeplerPipeline":
        """The linear chain, also the graceful-degradation target.

        No forked workers, no queues, no ingest tier — nothing left to
        kill or stall.  Every runtime composes linear-layout documents,
        which is exactly what this chain restores.
        """
        from repro.pipeline import build_kepler_pipeline

        return build_kepler_pipeline(
            chunk_size=self.params.feed_chunk, **self._wiring()
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_world(cls, world: "World", **kwargs: object) -> "Kepler":
        """Convenience constructor from a :class:`repro.scenarios.World`."""
        return cls(
            dictionary=world.dictionary,
            colo=world.colo,
            as2org=world.as2org,
            **kwargs,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Facade views over stage state (the historical attribute API)
    # ------------------------------------------------------------------
    # Every view runs the staged elements first (``_flush``): a read
    # never sees a detector behind what ``process`` was handed.
    @property
    def records(self) -> list[OutageRecord]:
        """Finalized (closed or merged) outage records."""
        self._flush()
        return self.stages.records

    @property
    def open(self) -> dict[PoP, OutageRecord]:
        """Open outages keyed by located PoP."""
        self._flush()
        return self.stages.open

    @property
    def signal_log(self) -> list[SignalClassification]:
        """Every classification ever made, for sensitivity analysis."""
        self._flush()
        return self.stages.signal_log

    @property
    def rejected(self) -> list[SignalClassification]:
        """Signals rejected by the data plane (false-positive pruning)."""
        self._flush()
        return self.stages.rejected

    @property
    def metrics(self) -> PipelineMetrics:
        """Per-stage counters and bin gauges of this detector."""
        self._flush()
        return self.stages.metrics

    def metrics_live(self) -> dict:
        """Snapshot of the *running* detector — no drain barrier.

        Safe to call from a sampling thread mid-run: the multiprocess
        runtimes serve their latest piggybacked worker frames (at most
        one live interval stale, see
        :func:`repro.telemetry.set_live_interval`), the in-process
        runtimes read their live registries.  Adds ``depths``
        (queue occupancy), ``hists`` (p50/p95/p99 summaries) and,
        under the ingest tier, per-feed admission counts (``feeds``).

        Unlike the facade views this does **not** run the admission
        buffer (the chain belongs to the thread inside ``process``), so
        the counters are at most one bin or ``feed_chunk`` elements
        behind ``process``; ``depths["staged"]`` says by how many.
        """
        live = getattr(self.stages, "metrics_live", None)
        if live is not None:
            snap = live()
        else:
            snap = self.stages.metrics.snapshot()
            snap.setdefault("live", {"workers": 0, "workers_reporting": 0})
        snap.setdefault("depths", {})["staged"] = len(self._staged)
        return snap

    # ------------------------------------------------------------------
    def prime(self, updates: Iterable[BGPUpdate]) -> int:
        """Install a RIB snapshot as the stable baseline (assumed aged).

        Priming is a batch like the stream: updates are wrapped in
        :class:`~repro.pipeline.events.PrimingUpdate` and run through
        the ordinary ingest->tagging->monitor stages ``feed_chunk`` at a
        time (``pipeline.feed_many``, the lane :meth:`process` uses), so
        a table dump costs what that many announcements cost on whichever
        runtime is built, and a live table transfer can still bootstrap
        the detector mid-stream — anything :meth:`process` staged runs
        first.  A lazy source is pulled one chunk ahead at most, never
        materialised, and no more than ``feed_chunk`` wrappers are alive.
        """
        from repro.pipeline import PrimingUpdate

        self._flush()
        before = self.stages.monitoring.primed
        source = iter(updates)
        chunk = self.params.feed_chunk
        while True:
            batch = list(map(PrimingUpdate, islice(source, chunk)))
            if not batch:
                break
            self._run_chain(batch)
        count = self.stages.monitoring.primed - before
        self.primed_paths += count
        return count

    def process(self, elements: Iterable[StreamElement]) -> None:
        """Consume a time-sorted element stream.

        Kepler decides once per bin, so nothing can observe an element
        before its bin closes.  ``process`` therefore only *stages*
        what it is handed and runs the chain
        (:meth:`StagePipeline.feed_many`) when the newest staged
        element falls in a later bin than the last element already run
        (an element that opens a bin of the stream is never held back),
        when ``feed_chunk`` elements are staged, or when anything reads
        detector state (every facade view, ``snapshot``, ``prime``,
        ``process_feeds``, ``finalize``).  Output is identical for
        every chunking of a stream, so a per-element live loop costs an
        ``extend`` and a compare per call and the chain still sees
        bin-sized batches.  A list of ``feed_chunk`` or more elements
        arriving at an empty buffer is run as-is, uncopied; a lazy
        source is staged ``feed_chunk`` elements at a time, never
        materialised.

        What does not read through the facade (``metrics_live``, the
        validator's probes, ``kepler.stages``) sees the chain less than
        one bin of stream time behind the calls.  The monitor's own
        clock follows *tagged* elements only: when the element that
        opens a bin carries no location tag, the previous bin's close
        waits for the next run instead of the bin's first tagged
        element.

        Only the last staged element is tested (the stream is sorted by
        contract): an unsorted input moves when the chain runs, never
        what comes out.  The staged list is detached before the chain
        runs, so a run that raises is not fed again; the exception
        surfaces from whichever call or read triggered the run.
        ``close`` discards staged elements — finish with ``finalize``.
        """
        staged = self._staged
        chunk = self.params.feed_chunk
        if type(elements) is list:
            if not staged and len(elements) >= chunk:
                self._run_chain(elements)
                return
            staged.extend(elements)
        else:
            source = iter(elements)
            while True:
                staged = self._staged
                staged.extend(islice(source, chunk - len(staged)))
                if len(staged) < chunk:
                    break
                self._flush()
        if staged:
            edge = self._flush_edge
            # An element without a time (a priming update, a foreign
            # object ingest will drop) is run at once.
            if getattr(staged[-1], "time", edge) >= edge or len(staged) >= chunk:
                self._flush()

    def _flush(self) -> None:
        """Run whatever ``process`` staged through the chain."""
        staged = self._staged
        if staged:
            self._staged = []
            self._run_chain(staged)

    def _run_chain(self, elements: list[StreamElement]) -> None:
        """Feed a non-empty batch to the runtime, collector held off.

        The cyclic collector's first-generation threshold is raised
        while the batch runs (and restored after): steady-state stream
        processing allocates heavily but acyclically — tagged paths,
        baseline entries, signal batches — and at the default threshold
        every few hundred allocations trigger a scan whose full-heap
        generations re-walk the long-lived RIB baseline.
        """
        last = getattr(elements[-1], "time", None)
        if last is not None:
            width = self.params.monitor.bin_interval_s
            self._flush_edge = (last // width + 1) * width
        thresholds = gc.get_threshold()
        if thresholds[0]:
            gc.set_threshold(_STREAM_GC_GEN0, *thresholds[1:])
        try:
            self.pipeline.feed_many(elements)
        finally:
            if thresholds[0]:
                gc.set_threshold(*thresholds)

    def process_feeds(
        self,
        feeds: "dict[str, Iterable[StreamElement]] | Iterable[Iterable[StreamElement]]",
    ) -> None:
        """Consume per-collector element feeds through the ingest tier.

        Pass a mapping ``{collector: source}`` (see
        :func:`repro.ingest.split_by_collector`) — each time-sorted
        source is pinned to its collector's feed worker, consumed
        concurrently (forked where the platform allows), and the
        watermark merge releases exactly the stream
        :func:`~repro.pipeline.ingest.merge_streams` would produce
        over the union, so output is identical to :meth:`process` on
        the pre-merged stream.  A bare sequence of sources is also
        accepted (round-robin feed assignment; see
        :meth:`repro.ingest.tier.IngestTier.process_feeds` for the
        tie-break caveat).  Requires
        ``KeplerParams(ingest_feeds >= 1)``.
        """
        if self.params.ingest_feeds < 1:
            raise ValueError(
                "process_feeds requires the ingest tier"
                " (KeplerParams(ingest_feeds=N))"
            )
        self._flush()
        self.stages.process_feeds(feeds)

    def finalize(self, end_time: float | None = None) -> list[OutageRecord]:
        """Flush bins, close tracking, merge oscillations; return records."""
        self._flush()
        self.pipeline.flush()
        return self.stages.finalize_records(end_time)

    def close(self) -> None:
        """Release runtime resources (worker processes and their transport).

        Staged elements are not run: a detector closed without
        ``finalize`` never exposed their effect.
        """
        for target in (self.stages, self.pipeline):
            close = getattr(target, "close", None)
            if close is not None:
                close()
                return

    # ------------------------------------------------------------------
    # Checkpointing: a versioned JSON document of a mid-stream detector
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Serialise all mutable pipeline state to a JSON-ready dict.

        The document captures every stage's buffered state (baseline
        and pending indexes, correlation windows, probe memo, open
        records and watch lists, counters and metrics) but **not** the
        configuration — the dictionary, colocation map, as2org table
        and :class:`KeplerParams` are the operator's deployment inputs.
        ``restore`` must therefore be called on a Kepler constructed
        with the same configuration, typically in a new process.
        Elements :meth:`process` has staged are run first, so a
        document never holds any.

        The runtime is *not* part of the document's identity: the
        in-process chain snapshots off its live stages, the
        multiprocess runtimes compose the identical document through
        their drain-barrier protocols (``checkpoint_parts`` either
        way), so any checkpoint restores into any runtime.  ``shards``
        is the layout of the pipeline section: always 0 (linear) when
        written; :meth:`restore` still reads the ``>= 2`` documents of
        the retired thread-sharded runtime.
        """
        self._flush()
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "shards": 0,
            "primed_paths": self.primed_paths,
            **self.stages.checkpoint_parts(),
        }

    def restore(self, checkpoint: dict) -> None:
        """Load a :meth:`snapshot` document into this (fresh) detector.

        Validates the format version and the document's layout before
        touching the detector (a malformed document raises
        ``ValueError`` naming the field and leaves it as it was),
        linearises a pipeline section written under ``shards >= 2``
        (:func:`repro.pipeline.checkpoint.convert_pipeline_state`),
        then restores stage-by-stage.  After restoring, processing the
        remainder of the stream yields output identical to an
        uninterrupted run, whichever runtime wrote the document.
        Anything :meth:`process` had staged here is discarded.
        """
        from repro.pipeline.checkpoint import convert_pipeline_state

        if checkpoint.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("not a Kepler checkpoint document")
        if checkpoint.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {checkpoint.get('version')} not"
                f" supported (expected {CHECKPOINT_VERSION})"
            )
        for name in ("shards", "primed_paths", "rejected", "cache", "pipeline"):
            if name not in checkpoint:
                raise ValueError(f"checkpoint lacks the {name!r} field")
        self.stages.restore_parts(
            {
                "rejected": checkpoint["rejected"],
                "cache": checkpoint["cache"],
                "pipeline": convert_pipeline_state(
                    checkpoint["pipeline"], checkpoint["shards"]
                ),
            }
        )
        self.primed_paths = checkpoint["primed_paths"]
        self._staged = []
        self._flush_edge = float("-inf")

    # ------------------------------------------------------------------
    def signal_counts(self) -> dict[SignalType, int]:
        counts = {t: 0 for t in SignalType}
        for c in self.signal_log:
            counts[c.signal_type] += 1
        return counts

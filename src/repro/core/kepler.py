"""The Kepler system facade (Section 4, Figure 6).

Kepler is a staged streaming detector:

    BGP stream -> tagged paths -> 60 s bins -> per-AS signals
      -> classify (link / AS / operator / PoP)
      -> localise PoP-level signals over the colocation map
      -> (optionally) confirm via traceroute
      -> open outage record; track return-to-baseline; close at >50 %
      -> merge oscillating outages separated by < 12 h

Each arrow is a stage of :mod:`repro.pipeline`; this class builds the
chain (or the shard-process runtime that runs it across worker
processes) as its one runtime object, ``pipeline``, and keeps the
batch API (``prime`` / ``process`` / ``finalize``, ``records``,
``signal_log``, ``rejected``, ``signal_counts``) as a thin facade over
it.
"""

from __future__ import annotations

import gc
import math
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
    from repro.pipeline import PipelineMetrics

#: Checkpoint document version written by :meth:`Kepler.snapshot`.
#: Version 2: the monitor section is canonical (fully sorted, no
#: promotion heap — rebuilt on load) so documents are identical across
#: monitor partition layouts.
#: Version 3: the ingest section gains the per-type drop breakdown
#: (``dropped_types``).  It is the driver ingest stage's state, the
#: one place admission is counted, so any snapshot restores into any
#: runtime.
#: Version 4: signals carry the paths they counted (``keys``), the
#: record stage carries each record's return watch, and the monitor
#: section drops its two return-tracking sections.  A version-3
#: document has no signal keys, so it cannot resume exactly and is
#: refused; the top-level ``shards`` layout field is gone.
#: Version 5: monitor baseline and pending entries are
#: ``[near, far, since]`` and signals carry no path AS sets (nothing
#: classifies on them).  A version-4 document is refused like a
#: version-3 one.
#: Version 6: the metrics section carries no wall clock (no stage busy
#: seconds, no bin-close latencies), so two runs of one replay prefix
#: give byte-equal documents.  A version-5 document is refused.
#: Version 7: the metrics section counts each analysis stage in its own
#: items (classify: signals in, PoP-level classifications out; localise:
#: those in, located signals out; validate: those in, candidates out;
#: record: candidates in) and the monitor's ``emitted`` in signals, not
#: in inter-stage envelopes and bin markers.  A version-6 document is
#: refused.
CHECKPOINT_VERSION = 7
CHECKPOINT_FORMAT = "kepler-checkpoint"

#: First-generation collector threshold while the chain runs a staged
#: batch (see :meth:`Kepler.process`).  Steady-state allocations are
#: acyclic, so delaying cycle detection trades a bounded amount of
#: cycle-garbage latency for not re-walking the heap every ~700
#: allocations.
_STREAM_GC_GEN0 = 2_000_000


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    #: Elements per chunk on the in-process chain's ``feed_many`` fast
    #: path (the shard-process runtime batches by ``process_batch``
    #: instead).  Also the bound of the facade's admission buffer under
    #: every runtime: :meth:`Kepler.process` never holds this many
    #: elements back.
    feed_chunk: int = 4096

    def __post_init__(self) -> None:
        # Fail closed: ``shard_processes=1`` or a negative count would
        # silently build the linear chain.
        shards = self.shard_processes
        if not _is_int(shards) or not (shards == 0 or shards >= 2):
            raise ValueError("shard_processes must be an int, 0 or >= 2")
        # A fractional chunk fails only at the first ``process``; a
        # ``restore_fraction`` of 1.0 or NaN never closes a record (the
        # rule is ``fraction > restore_fraction``).
        for name in ("feed_chunk", "process_batch", "min_pop_ases"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an int >= 1")
        fraction = self.restore_fraction
        if not (math.isfinite(fraction) and 0 <= fraction < 1):
            raise ValueError("restore_fraction must be finite and in [0, 1)")
        for name in ("merge_gap_s", "correlation_window_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")


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
        self.dictionary = dictionary
        self.colo = colo
        self.as2org = dict(as2org)
        self.validator: DataPlaneValidator = validator or NullValidator()
        #: the runtime: the in-process chain
        #: (:class:`~repro.pipeline.runtime.KeplerPipeline`), or the
        #: shard-process driver
        #: (:class:`~repro.pipeline.parallel.ShardProcessPipeline`) under
        #: ``shard_processes``.  Both serve the facade views.
        self.pipeline = self._build_pipeline()
        #: primed baseline paths (installed outside the streaming path).
        self.primed_paths = 0
        # Admission staging (see ``process``): elements handed over but
        # not yet run through the chain, and the end of the bin the last
        # element that *was* run fell in (the monitor's ``_bin_floor``
        # formula plus one width).  -inf: the first call runs at once.
        self._staged: list[StreamElement] = []
        self._flush_edge = float("-inf")

    # ------------------------------------------------------------------
    def _build_pipeline(self):
        """Build the stage cores and return the runtime the params
        describe.

        ``input`` / ``monitor`` / ``investigator`` are the facade's
        handles on the cores; the validator is the operator's object.
        """
        # Imported here, not at module scope: repro.pipeline imports the
        # sibling core modules through the package __init__, which ends
        # by importing this module — a cycle at import time, not at use.
        from repro.pipeline import (
            build_kepler_pipeline,
            build_shard_process_pipeline,
        )

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
        wiring = dict(
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
        if self.params.shard_processes >= 2:
            return build_shard_process_pipeline(
                workers=self.params.shard_processes,
                batch_size=self.params.process_batch,
                **wiring,
            )
        return build_kepler_pipeline(chunk_size=self.params.feed_chunk, **wiring)

    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # Facade views over stage state (the historical attribute API)
    # ------------------------------------------------------------------
    # Every view runs the staged elements first (``_flush``): a read
    # never sees a detector behind what ``process`` was handed.
    @property
    def records(self) -> list[OutageRecord]:
        """Finalized (closed or merged) outage records."""
        self._flush()
        return self.pipeline.records

    @property
    def open(self) -> dict[PoP, OutageRecord]:
        """Open outages keyed by located PoP."""
        self._flush()
        return self.pipeline.open

    @property
    def signal_log(self) -> list[SignalClassification]:
        """Every classification ever made, for sensitivity analysis."""
        self._flush()
        return self.pipeline.signal_log

    @property
    def rejected(self) -> list[SignalClassification]:
        """Signals rejected by the data plane (false-positive pruning)."""
        self._flush()
        return self.pipeline.rejected

    @property
    def metrics(self) -> PipelineMetrics:
        """Per-stage counters and bin gauges of this detector."""
        self._flush()
        return self.pipeline.metrics

    def metrics_live(self) -> dict:
        """Snapshot of the *running* detector — no drain barrier.

        Safe to call from a sampling thread mid-run: the multiprocess
        runtimes serve their latest piggybacked worker frames (at most
        one live interval stale, see
        :func:`repro.telemetry.set_live_interval`), the in-process
        runtimes read their live registries.  Adds ``depths``
        (queue occupancy) and ``hists`` (p50/p95/p99 summaries).

        Unlike the facade views this does **not** run the admission
        buffer (the chain belongs to the thread inside ``process``), so
        the counters are at most one bin or ``feed_chunk`` elements
        behind ``process``; ``depths["staged"]`` says by how many.
        """
        snap = self.pipeline.metrics_live()
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
        before = self.pipeline.primed
        source = iter(updates)
        chunk = self.params.feed_chunk
        while True:
            batch = list(map(PrimingUpdate, islice(source, chunk)))
            if not batch:
                break
            self._run_chain(batch)
        count = self.pipeline.primed - before
        self.primed_paths += count
        return count

    def process(self, elements: Iterable[StreamElement]) -> None:
        """Consume a time-sorted element stream.

        Kepler decides once per bin, so nothing can observe an element
        before its bin closes.  ``process`` therefore only *stages*
        what it is handed and runs the chain
        (``pipeline.feed_many``) when the newest staged
        element falls in a later bin than the last element already run
        (an element that opens a bin of the stream is never held back),
        when ``feed_chunk`` elements are staged, or when anything reads
        detector state (every facade view, ``snapshot``, ``prime``,
        ``finalize``).  Output is identical for
        every chunking of a stream, so a per-element live loop costs an
        ``extend`` and a compare per call and the chain still sees
        bin-sized batches.  A list of ``feed_chunk`` or more elements
        arriving at an empty buffer is run as-is, uncopied; a lazy
        source is staged ``feed_chunk`` elements at a time, never
        materialised.

        What does not read through the facade (``metrics_live``, the
        validator's probes, ``kepler.pipeline``) sees the chain less than
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
        """Consume per-collector element feeds, merged in the driver.

        Pass a mapping ``{collector: source}`` (see
        :func:`repro.pipeline.split_by_collector`) or a bare sequence of
        sources, each time-sorted.  The sources are merged lazily by
        sort key (:func:`~repro.pipeline.ingest.merge_streams`, the
        BGPStream merge of Section 4.1) — a mapping in sorted collector
        order, a sequence in the given order, which breaks ties between
        equal sort keys — and the merged stream goes to :meth:`process`,
        so the output equals :meth:`process` on the pre-merged stream.
        """
        from repro.pipeline import merge_streams

        if isinstance(feeds, dict):
            feeds = [feeds[collector] for collector in sorted(feeds)]
        self.process(merge_streams(*feeds))

    def finalize(self, end_time: float | None = None) -> list[OutageRecord]:
        """Flush bins, settle open records, merge oscillations; return records."""
        self._flush()
        self.pipeline.flush()
        return self.pipeline.finalize_records(end_time)

    def close(self) -> None:
        """Release runtime resources (worker processes and their transport).

        Staged elements are not run: a detector closed without
        ``finalize`` never exposed their effect.
        """
        self.pipeline.close()

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
        multiprocess runtime composes the identical document through
        its drain-barrier protocol (``checkpoint_parts`` either way),
        so any checkpoint restores into any runtime.
        """
        self._flush()
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "primed_paths": self.primed_paths,
            **self.pipeline.checkpoint_parts(),
        }

    def restore(self, checkpoint: dict) -> None:
        """Load a :meth:`snapshot` document into this (fresh) detector.

        Validates the format version and the document's shape before
        touching the detector (a malformed document, or one of another
        version, raises ``ValueError`` naming the field and leaves it
        as it was), then restores stage-by-stage: the monitor before
        the record stage, which re-opens its records' watches on it.
        After restoring, processing the remainder of the stream yields
        output identical to an uninterrupted run, whichever runtime
        wrote the document.  Anything :meth:`process` had staged here
        is discarded.
        """
        if checkpoint.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("not a Kepler checkpoint document")
        if checkpoint.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {checkpoint.get('version')} not"
                f" supported (expected {CHECKPOINT_VERSION})"
            )
        for name in ("primed_paths", "rejected", "cache", "pipeline"):
            if name not in checkpoint:
                raise ValueError(f"checkpoint lacks the {name!r} field")
        pipeline = checkpoint["pipeline"]
        for name in ("stages", "metrics"):
            if not isinstance(pipeline, dict) or name not in pipeline:
                raise ValueError(f"checkpoint pipeline section lacks {name!r}")
        self.pipeline.restore_parts(
            {name: checkpoint[name] for name in ("rejected", "cache", "pipeline")}
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

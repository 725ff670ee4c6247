"""Kepler as a staged streaming pipeline (Section 4, Figure 6).

The paper's architecture is explicitly staged — input tagging, stable
path monitoring, signal classification, localisation, data-plane
validation, record lifecycle — and this package expresses each stage
as an independent, metered component behind a common
:class:`~repro.pipeline.stage.Stage` protocol:

    BGP elements
      -> IngestStage          (merge + admission accounting)
      -> TaggingStage         (sanitize, communities -> PoP tags)
      -> BinningMonitorStage  (60 s bins, per-AS divergence signals)
      -> ClassificationStage  (correlation window, link/AS/op/PoP rules)
      -> LocalisationStage    (investigation + city abstraction)
      -> ValidationStage      (memoised data-plane probes, FP pruning)
      -> RecordStage          (open/close/watch/relapse/merge lifecycle)

:func:`build_kepler_pipeline` wires the canonical chain;
:class:`repro.core.kepler.Kepler` is a thin facade over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.colocation import ColocationMap
from repro.core.dataplane import DataPlaneValidator
from repro.core.input import InputModule
from repro.core.investigation import Investigator
from repro.core.monitor import OutageMonitor
from repro.core.signals import SignalClassification
from repro.pipeline.checkpoint import CheckpointableChain
from repro.pipeline.classification import ClassificationStage
from repro.pipeline.events import (
    BinAdvanced,
    ClassifiedBatch,
    LocatedBatch,
    LocatedSignal,
    OutageCandidate,
    PrimingUpdate,
    SignalBatch,
)
from repro.pipeline.ingest import IngestStage, merge_streams, split_by_collector
from repro.pipeline.localisation import LocalisationStage, common_city
from repro.pipeline.metrics import BinStats, PipelineMetrics, StageMetrics
from repro.pipeline.monitoring import BinningMonitorStage
from repro.pipeline.parallel import (
    ShardProcessKeplerPipeline,
    ShardProcessPipeline,
    build_shard_process_kepler_pipeline,
    fork_available,
)
from repro.pipeline.faults import FaultPlan, FaultSpec
from repro.pipeline.liveness import (
    PoisonedBatchError,
    WorkerCrashError,
    WorkerDeathError,
    reap_workers,
)
from repro.pipeline.record import RecordStage, merge_oscillations
from repro.pipeline.runtime import FEED_CHUNK, StagePipeline
from repro.pipeline.stage import PassthroughStage, Stage
from repro.pipeline.tagging import TaggingStage
from repro.pipeline.validation import ValidationCache, ValidationStage


@dataclass
class KeplerPipeline(CheckpointableChain):
    """The canonical stage chain plus direct handles to every stage."""

    pipeline: StagePipeline
    metrics: PipelineMetrics
    ingest: IngestStage
    tagging: TaggingStage
    monitoring: BinningMonitorStage
    classification: ClassificationStage
    localisation: LocalisationStage
    validation: ValidationStage
    record: RecordStage
    cache: ValidationCache
    #: chronological data-plane rejects, shared by both reject sites.
    rejected: list[SignalClassification] = field(default_factory=list)

    # Facade surface every runtime's wrapper provides, so the Kepler
    # class reads one API whichever runtime it built.
    @property
    def records(self):
        return self.record.records

    @property
    def open(self):
        return self.record.open

    @property
    def signal_log(self) -> list[SignalClassification]:
        return self.classification.signal_log

    def metrics_live(self) -> dict:
        """Live snapshot — single-threaded chain, so the registry IS live."""
        snap = self.metrics.snapshot()
        snap["depths"] = {}
        snap["live"] = {"workers": 0, "workers_reporting": 0}
        return snap

    def finalize_records(self, end_time: float | None = None):
        return self.record.finalize(end_time)


def build_kepler_pipeline(
    input_module: InputModule,
    monitor: OutageMonitor,
    investigator: Investigator,
    validator: DataPlaneValidator,
    colo: ColocationMap,
    as2org: dict[int, str],
    min_pop_ases: int,
    correlation_window_s: float,
    restore_fraction: float,
    merge_gap_s: float,
    drop_rejected: bool = True,
    enable_investigation: bool = True,
    metrics: PipelineMetrics | None = None,
    chunk_size: int = FEED_CHUNK,
) -> KeplerPipeline:
    """Wire the canonical Kepler stage chain."""
    metrics = metrics or PipelineMetrics()
    metrics.register_cache_gauges(input_module)
    rejected: list[SignalClassification] = []
    cache = ValidationCache(validator)
    ingest = IngestStage()
    tagging = TaggingStage(input_module)
    monitoring = BinningMonitorStage(monitor, metrics=metrics)
    classification = ClassificationStage(
        as2org,
        min_pop_ases=min_pop_ases,
        correlation_window_s=correlation_window_s,
    )
    localisation = LocalisationStage(
        investigator,
        monitor,
        colo,
        cache,
        enable_investigation=enable_investigation,
        rejected=rejected,
    )
    validation = ValidationStage(
        cache, drop_rejected=drop_rejected, rejected=rejected
    )
    record = RecordStage(
        monitor,
        validator,
        restore_fraction=restore_fraction,
        merge_gap_s=merge_gap_s,
    )
    pipeline = StagePipeline(
        [
            ingest,
            tagging,
            monitoring,
            classification,
            localisation,
            validation,
            record,
        ],
        metrics=metrics,
        chunk_size=chunk_size,
    )
    return KeplerPipeline(
        pipeline=pipeline,
        metrics=metrics,
        ingest=ingest,
        tagging=tagging,
        monitoring=monitoring,
        classification=classification,
        localisation=localisation,
        validation=validation,
        record=record,
        cache=cache,
        rejected=rejected,
    )


__all__ = [
    "BinAdvanced",
    "BinStats",
    "BinningMonitorStage",
    "CheckpointableChain",
    "ClassificationStage",
    "ClassifiedBatch",
    "FaultPlan",
    "FaultSpec",
    "IngestStage",
    "KeplerPipeline",
    "LocalisationStage",
    "LocatedBatch",
    "LocatedSignal",
    "OutageCandidate",
    "PassthroughStage",
    "PipelineMetrics",
    "PoisonedBatchError",
    "PrimingUpdate",
    "RecordStage",
    "ShardProcessKeplerPipeline",
    "ShardProcessPipeline",
    "SignalBatch",
    "Stage",
    "StageMetrics",
    "StagePipeline",
    "TaggingStage",
    "ValidationCache",
    "ValidationStage",
    "WorkerCrashError",
    "WorkerDeathError",
    "FEED_CHUNK",
    "build_kepler_pipeline",
    "build_shard_process_kepler_pipeline",
    "common_city",
    "fork_available",
    "merge_oscillations",
    "merge_streams",
    "reap_workers",
    "split_by_collector",
]

"""Kepler as a staged streaming pipeline (Section 4, Figure 6).

The paper's architecture is explicitly staged — input tagging, stable
path monitoring, signal classification, localisation, data-plane
validation, record lifecycle — and this package expresses each stage
as a metered component, driven in one fixed order by
:class:`~repro.pipeline.runtime.KeplerPipeline`:

    BGP elements
      -> IngestStage          (merge + admission accounting)
      -> TaggingStage         (sanitize, communities -> PoP tags)
      -> BinningMonitorStage  (60 s bins, per-AS divergence signals)
      -> ClassificationStage  (correlation window, link/AS/op/PoP rules)
      -> LocalisationStage    (investigation + city abstraction)
      -> ValidationStage      (memoised data-plane probes, FP pruning)
      -> RecordStage          (open/close/watch/relapse/merge lifecycle)

The first three stages carry stream elements in chunks.  The last four
run once per bin close, by typed calls: the monitor's
``feed(now)`` returns the closed bins' signals and the bin advanced
to, :func:`~repro.pipeline.runtime.analyse` takes the signals through
classification (``feed(signals)``), localisation
(``feed(pop_level, concurrent)``) and validation
(``feed(located, city_scope)``), and the record stage takes the
candidates and the advance (``feed(candidates, now)``).

:func:`build_kepler_pipeline` wires the chain and
:func:`build_shard_process_pipeline` the shard-process runtime
(:mod:`repro.pipeline.parallel`); :class:`repro.core.kepler.Kepler`
holds one of the two as ``pipeline`` and is a thin facade over it.
"""

from __future__ import annotations

from repro.core.colocation import ColocationMap
from repro.core.dataplane import DataPlaneValidator
from repro.core.input import InputModule
from repro.core.investigation import Investigator
from repro.core.monitor import OutageMonitor
from repro.core.signals import SignalClassification
from repro.pipeline.classification import ClassificationStage
from repro.pipeline.events import LocatedSignal, OutageCandidate, PrimingUpdate
from repro.pipeline.ingest import IngestStage, merge_streams, split_by_collector
from repro.pipeline.localisation import LocalisationStage, common_city
from repro.pipeline.metrics import BinStats, PipelineMetrics, StageMetrics
from repro.pipeline.monitoring import BinningMonitorStage
from repro.pipeline.parallel import (
    ShardProcessPipeline,
    build_shard_process_pipeline,
    fork_available,
)
from repro.pipeline.liveness import WorkerCrashError, WorkerDeathError, reap_workers
from repro.pipeline.record import RecordStage, merge_oscillations
from repro.pipeline.runtime import KeplerPipeline
from repro.pipeline.tagging import TaggingStage
from repro.pipeline.validation import ValidationCache, ValidationStage


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
    drop_rejected: bool,
    enable_investigation: bool,
    *,
    chunk_size: int,
) -> KeplerPipeline:
    """Wire the Kepler stage chain."""
    metrics = PipelineMetrics()
    metrics.register_cache_gauges(input_module)
    rejected: list[SignalClassification] = []
    cache = ValidationCache(validator)
    return KeplerPipeline(
        IngestStage(),
        TaggingStage(input_module),
        BinningMonitorStage(monitor, metrics=metrics),
        ClassificationStage(
            as2org,
            min_pop_ases=min_pop_ases,
            correlation_window_s=correlation_window_s,
        ),
        LocalisationStage(
            investigator,
            monitor,
            colo,
            cache,
            enable_investigation=enable_investigation,
            rejected=rejected,
        ),
        ValidationStage(cache, drop_rejected=drop_rejected, rejected=rejected),
        RecordStage(
            monitor,
            validator,
            restore_fraction=restore_fraction,
            merge_gap_s=merge_gap_s,
        ),
        metrics=metrics,
        cache=cache,
        rejected=rejected,
        chunk_size=chunk_size,
    )


__all__ = [
    "BinStats",
    "BinningMonitorStage",
    "ClassificationStage",
    "IngestStage",
    "KeplerPipeline",
    "LocalisationStage",
    "LocatedSignal",
    "OutageCandidate",
    "PipelineMetrics",
    "PrimingUpdate",
    "RecordStage",
    "ShardProcessPipeline",
    "StageMetrics",
    "TaggingStage",
    "ValidationCache",
    "ValidationStage",
    "WorkerCrashError",
    "WorkerDeathError",
    "build_kepler_pipeline",
    "build_shard_process_pipeline",
    "common_city",
    "fork_available",
    "merge_oscillations",
    "merge_streams",
    "reap_workers",
    "split_by_collector",
]

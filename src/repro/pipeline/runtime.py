"""The Kepler chain: seven stages in one fixed order (Figure 6).

:class:`KeplerPipeline` drives

    ingest -> tagging -> monitor -> classify -> localise -> validate -> record

directly.  ``feed_many`` cuts its input into chunks of ``chunk_size``
elements.  Ingest admits a chunk (``feed_batch``), the tagger tags it
into one :class:`~repro.core.serde.TaggedBatch` (``feed_wire``), and
the monitor folds the batch's columns in place (``prepare_wire``, then
``feed_wire_run`` from slot to slot), so no tagged row becomes an
object between the two hottest stages.  The localisation and record
stages read the live monitor, so each bin close of the monitor — the
closed bins' signals and the bin the clock advanced to — is analysed
(:meth:`KeplerPipeline._advance`) before the monitor consumes its next
row: :func:`analyse` classifies, localises and validates the signals,
the probe memo is pruned at the advance, and the record stage takes
the candidates and the advance.  ``flush`` closes the monitor's
trailing partial bin and analyses its signals with no advance.

Every stage call is metered into the chain's
:class:`~repro.pipeline.metrics.PipelineMetrics`
(:meth:`~repro.pipeline.metrics.StageMetrics.meter`): wall time, items
fed and emitted in the stage's own units, and calls (``batches``).
Stage methods are looked up on the stage objects at each call, so a
wrapper installed on a stage instance after construction sees every
call.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Any, Iterable

from repro.core.events import OutageSignal
from repro.core.serde import classification_from_json, classification_to_json
from repro.pipeline.events import OutageCandidate
from repro.pipeline.metrics import PipelineMetrics, StageMetrics


def analyse(
    signals: list[OutageSignal],
    classification,
    localisation,
    validation,
    meters: list[StageMetrics],
) -> list[OutageCandidate]:
    """Classify, localise and validate one bin close's signals; the
    candidates.  Each stage is metered on ``meters`` (classify,
    localise, validate) in its own items, and runs only when the stage
    before it handed anything on.  Both runtimes analyse through here."""
    classify_m, localise_m, validate_m = meters
    if not signals:
        return []
    began = time.perf_counter()
    pop_level, concurrent = classification.feed(signals)
    classify_m.meter(began, len(signals), len(pop_level))
    if not pop_level:
        return []
    began = time.perf_counter()
    located, city_scope = localisation.feed(pop_level, concurrent)
    localise_m.meter(began, len(pop_level), len(located))
    if not located:
        return []
    began = time.perf_counter()
    candidates = validation.feed(located, city_scope)
    validate_m.meter(began, len(located), len(candidates))
    return candidates


def checkpoint_parts(rejected: list, cache, pipeline) -> dict:
    """The reject list, the probe cache and the stages' document.

    ``Kepler.snapshot`` writes these parts whichever runtime holds the
    state, so any checkpoint restores into any runtime.
    """
    return {
        "rejected": [classification_to_json(c) for c in rejected],
        "cache": cache.state_dict(),
        "pipeline": pipeline.state_dict(),
    }


def restore_parts(parts: dict, rejected: list, cache, pipeline) -> None:
    """Load :func:`checkpoint_parts` back.  The reject list is shared by
    reference between stages, so it is refilled in place."""
    rejected[:] = [classification_from_json(c) for c in parts["rejected"]]
    cache.load_state(parts["cache"])
    pipeline.load_state(parts["pipeline"])


class KeplerPipeline:
    """The in-process chain: its stages, their metrics, the facade views."""

    def __init__(
        self,
        ingest,
        tagging,
        monitoring,
        classification,
        localisation,
        validation,
        record,
        *,
        metrics: PipelineMetrics,
        cache,
        rejected: list,
        chunk_size: int,
    ) -> None:
        self.ingest = ingest
        self.tagging = tagging
        self.monitoring = monitoring
        self.classification = classification
        self.localisation = localisation
        self.validation = validation
        self.record = record
        #: the stages in chain order.
        self.stages = [
            ingest,
            tagging,
            monitoring,
            classification,
            localisation,
            validation,
            record,
        ]
        self.metrics = metrics
        self.cache = cache
        #: chronological data-plane rejects, shared by both reject sites.
        self.rejected = rejected
        self.chunk_size = chunk_size
        # Metric handles resolved once: the registry mutates them in
        # place on load_state/reset, so they stay live across restores.
        handles = [metrics.stage(stage.name) for stage in self.stages]
        self._ingest_m, self._tagging_m, self._monitor_m = handles[:3]
        self._analysis_m = handles[3:6]
        self._record_m = handles[6]

    # ------------------------------------------------------------------
    def feed_many(self, elements: Iterable[Any]) -> None:
        """Run an element sequence through the chain, ``chunk_size`` at a
        time (a list is sliced, any other source pulled chunk by chunk)."""
        size = self.chunk_size
        if type(elements) is list:
            for start in range(0, len(elements), size):
                self._run(elements[start : start + size])
            return
        source = iter(elements)
        while chunk := list(islice(source, size)):
            self._run(chunk)

    def _run(self, chunk: list[Any]) -> None:
        """Admit, tag and fold one chunk; analyse each bin close."""
        began = time.perf_counter()
        admitted = self.ingest.feed_batch(chunk)
        self._ingest_m.meter(began, len(chunk), len(admitted))

        began = time.perf_counter()
        batch = self.tagging.feed_wire(admitted)
        self._tagging_m.meter(began, len(admitted), len(batch))

        metrics = self._monitor_m
        monitoring = self.monitoring
        began = time.perf_counter()
        view = monitoring.prepare_wire(batch)
        metrics.seconds += time.perf_counter() - began
        # One ``feed_wire_run`` call is one metered call of the monitor
        # (one fold invocation); it stops at each bin close.
        slot, n = 0, len(view)
        while slot < n:
            began = time.perf_counter()
            emission, advanced = monitoring.feed_wire_run(view, slot)
            metrics.meter(began, advanced - slot, len(emission[0]) if emission else 0)
            slot = advanced
            if emission is not None:
                self._advance(*emission)

    def _advance(self, signals: list, now: float | None) -> None:
        """Analyse one bin close; at an advance (``now`` set) prune the
        probe memo, then hand the candidates and ``now`` to the record
        stage."""
        candidates = analyse(
            signals,
            self.classification,
            self.localisation,
            self.validation,
            self._analysis_m,
        )
        if now is not None:
            self.validation.prune(now)
        began = time.perf_counter()
        self.record.feed(candidates, now)
        self._record_m.meter(began, len(candidates), 0)

    def flush(self) -> None:
        """End of stream: close the monitor's trailing partial bin and
        analyse its signals.  The flush's time and emitted signals count
        on the monitor."""
        metrics = self._monitor_m
        began = time.perf_counter()
        signals = self.monitoring.flush()
        metrics.seconds += time.perf_counter() - began
        metrics.emitted += len(signals)
        self._advance(signals, None)

    # ------------------------------------------------------------------
    # Facade views (the surface the shard-process runtime also provides)
    # ------------------------------------------------------------------
    @property
    def records(self):
        return self.record.records

    @property
    def open(self):
        return self.record.open

    @property
    def signal_log(self) -> list:
        return self.classification.signal_log

    @property
    def primed(self) -> int:
        """Baseline paths primed so far."""
        return self.monitoring.primed

    def metrics_live(self) -> dict:
        """Live snapshot — single-threaded chain, so the registry IS live."""
        snap = self.metrics.snapshot()
        snap["depths"] = {}
        snap["live"] = {"workers": 0, "workers_reporting": 0}
        return snap

    def finalize_records(self, end_time: float | None = None):
        return self.record.finalize(end_time)

    def close(self) -> None:
        """Nothing to release: the chain runs in this process."""

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_parts(self) -> dict:
        return checkpoint_parts(self.rejected, self.cache, self)

    def restore_parts(self, parts: dict) -> None:
        restore_parts(parts, self.rejected, self.cache, self)

    def state_dict(self) -> dict:
        """Per-stage state keyed by stage name, plus the metrics.

        Localisation and validation keep no state of their own: the
        probe cache and reject list they share are separate parts.
        """
        return {
            "stages": {
                "ingest": self.ingest.state_dict(),
                "tagging": self.tagging.state_dict(),
                "monitor": self.monitoring.state_dict(),
                "classify": self.classification.state_dict(),
                "localise": {},
                "validate": {},
                "record": self.record.state_dict(),
            },
            "metrics": self.metrics.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict`; the monitor loads before the record
        stage, which re-opens its records' watches on it."""
        stages = state["stages"]
        names = {stage.name for stage in self.stages}
        if set(stages) != names:
            raise ValueError(
                f"checkpoint stages {sorted(stages)} do not match"
                f" pipeline stages {sorted(names)}"
            )
        self.ingest.load_state(stages["ingest"])
        self.tagging.load_state(stages["tagging"])
        self.monitoring.load_state(stages["monitor"])
        self.classification.load_state(stages["classify"])
        self.record.load_state(stages["record"])
        self.metrics.load_state(state["metrics"])

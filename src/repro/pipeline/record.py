"""Record lifecycle stage: open, track, close, watch, merge (§4.4).

Terminal stage of the pipeline.  Consumes
:class:`~repro.pipeline.events.OutageCandidate` elements (open a record
or extend the open one) and :class:`~repro.pipeline.events.BinAdvanced`
markers (re-evaluate open records against the >50 % return-to-baseline
rule and the oscillation watch list).  ``finalize`` flushes open
records and merges oscillating outages separated by less than the
12-hour gap into single incidents whose downtime is the sum of the
member durations.
"""

from __future__ import annotations

from typing import Any

from repro.core.dataplane import (
    DataPlaneValidator,
    MERGE_GAP_S,
    RESTORE_FRACTION,
    ValidationOutcome,
)
from repro.core.events import OutageRecord
from repro.core.monitor import OutageMonitor
from repro.docmine.dictionary import PoP
from repro.pipeline.events import BinAdvanced, OutageCandidate
from repro.pipeline.stage import PassthroughStage


class RecordStage(PassthroughStage):
    """OutageCandidate / BinAdvanced -> OutageRecord lifecycle."""

    name = "record"

    def __init__(
        self,
        monitor: OutageMonitor,
        validator: DataPlaneValidator,
        restore_fraction: float = RESTORE_FRACTION,
        merge_gap_s: float = MERGE_GAP_S,
    ) -> None:
        self.monitor = monitor
        self.validator = validator
        self.restore_fraction = restore_fraction
        self.merge_gap_s = merge_gap_s
        #: finalized (closed or merged) outage records.
        self.records: list[OutageRecord] = []
        #: open outages keyed by located PoP.
        self.open: dict[PoP, OutageRecord] = {}
        #: signal PoPs tracked for each open record.
        self._tracked: dict[PoP, set[PoP]] = {}
        #: recently closed records still watched for oscillation
        #: relapses: located pop -> (record, signal pops, close time).
        self._watch: dict[PoP, tuple[OutageRecord, set[PoP], float]] = {}

    # ------------------------------------------------------------------
    def feed(self, element: Any) -> list[Any]:
        if isinstance(element, OutageCandidate):
            self._open_or_extend(element)
            return []
        if isinstance(element, BinAdvanced):
            self._evaluate_open(element.now)
            return []
        return [element]

    def state_dict(self) -> dict:
        from repro.core.serde import pop_to_json, record_to_json

        return {
            "records": [record_to_json(r) for r in self.records],
            "open": [
                [pop_to_json(pop), record_to_json(r)]
                for pop, r in self.open.items()
            ],
            "tracked": [
                [pop_to_json(pop), sorted(pop_to_json(p) for p in pops)]
                for pop, pops in self._tracked.items()
            ],
            "watch": [
                [
                    pop_to_json(pop),
                    record_to_json(record),
                    sorted(pop_to_json(p) for p in pops),
                    closed_at,
                ]
                for pop, (record, pops, closed_at) in self._watch.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        from repro.core.serde import pop_from_json, record_from_json

        self.records = [record_from_json(r) for r in state["records"]]
        self.open = {
            pop_from_json(pop): record_from_json(r)
            for pop, r in state["open"]
        }
        self._tracked = {
            pop_from_json(pop): {pop_from_json(p) for p in pops}
            for pop, pops in state["tracked"]
        }
        self._watch = {
            pop_from_json(pop): (
                record_from_json(record),
                {pop_from_json(p) for p in pops},
                closed_at,
            )
            for pop, record, pops, closed_at in state["watch"]
        }

    def finalize(self, end_time: float | None = None) -> list[OutageRecord]:
        """Close tracking, merge oscillations; return the record list."""
        if end_time is not None:
            self._evaluate_open(end_time)
        # Ongoing outages stay open (duration unknown).
        for record in self.open.values():
            self.records.append(record)
        self.open.clear()
        self.records = merge_oscillations(self.records, self.merge_gap_s)
        self.records.sort(key=lambda r: (r.start, str(r.located_pop)))
        return self.records

    # ------------------------------------------------------------------
    def _open_or_extend(self, candidate: OutageCandidate) -> None:
        c = candidate.classification
        located = candidate.located
        if located in self._watch:
            # A fresh signal while watching for relapses: new incident.
            _, pops, _ = self._watch.pop(located)
            for pop in pops:
                self.monitor.stop_tracking(pop)
        record = self.open.get(located)
        if record is None:
            record = OutageRecord(
                signal_pop=c.pop,
                located_pop=located,
                start=c.bin_start,
                method=candidate.method,
                city_scope=candidate.city_scope,
            )
            self.open[located] = record
            self._tracked[located] = set()
        record.affected_ases.update(c.affected_ases)
        record.affected_links.update(c.links)
        if candidate.outcome is ValidationOutcome.CONFIRMED:
            record.confirmed_by_dataplane = True
        elif candidate.outcome is ValidationOutcome.REJECTED:
            record.confirmed_by_dataplane = False
        # Track returns on the signal PoP (where communities are visible).
        # A candidate that crossed a monitor-share boundary carries
        # the diverted keys itself; otherwise read the live monitor.
        if candidate.diverted_keys is not None:
            diverted = candidate.diverted_keys
        else:
            diverted = self.monitor.last_diverted.get(c.pop, set())
        if diverted:
            self.monitor.start_tracking(c.pop, set(diverted))
            self._tracked[located].add(c.pop)

    def _restored_fraction(
        self, located: PoP, pops: set[PoP], now: float
    ) -> float | None:
        # Prefer the data plane when available, BGP otherwise (§4.4).
        fraction = self.validator.restored_fraction(located, now)
        if fraction is not None:
            return fraction
        fractions = [
            f
            for pop in pops
            if (f := self.monitor.returned_fraction(pop)) is not None
        ]
        return min(fractions) if fractions else None

    def _evaluate_open(self, now: float) -> None:
        for located in sorted(self.open, key=str):
            record = self.open[located]
            pops = self._tracked.get(located, set())
            fraction = self._restored_fraction(located, pops, now)
            if fraction is None:
                continue
            if fraction > self.restore_fraction:
                record.end = now
                self.records.append(record)
                del self.open[located]
                # Keep watching the signal PoPs: oscillating outages
                # relapse within the merge window (Section 4.4).
                self._watch[located] = (record, self._tracked.pop(located), now)
        for located in sorted(self._watch, key=str):
            record, pops, closed_at = self._watch[located]
            if now - closed_at > self.merge_gap_s:
                for pop in pops:
                    self.monitor.stop_tracking(pop)
                del self._watch[located]
                continue
            fraction = self._restored_fraction(located, pops, now)
            if fraction is not None and fraction <= self.restore_fraction:
                relapse = OutageRecord(
                    signal_pop=record.signal_pop,
                    located_pop=located,
                    start=now,
                    method=record.method,
                    city_scope=record.city_scope,
                )
                relapse.affected_ases.update(record.affected_ases)
                relapse.affected_links.update(record.affected_links)
                self.open[located] = relapse
                self._tracked[located] = pops
                del self._watch[located]


def merge_oscillations(
    records: list[OutageRecord], gap_s: float
) -> list[OutageRecord]:
    """Merge consecutive outages of one PoP separated by < ``gap_s``.

    The merged incident's downtime is the *sum* of the member outage
    durations (Section 4.4), recorded by keeping start of the first and
    accumulating durations into ``end`` via an adjusted offset.
    """
    by_pop: dict[PoP, list[OutageRecord]] = {}
    for record in records:
        by_pop.setdefault(record.located_pop, []).append(record)
    merged: list[OutageRecord] = []
    for pop in sorted(by_pop, key=str):
        group = sorted(by_pop[pop], key=lambda r: r.start)
        current: OutageRecord | None = None
        downtime = 0.0
        for record in group:
            if current is None:
                current = record
                downtime = record.duration_s or 0.0
                continue
            current_end = current.end if current.end is not None else current.start
            if record.start - current_end < gap_s:
                downtime += record.duration_s or 0.0
                current.merged_incidents += 1
                current.affected_ases.update(record.affected_ases)
                current.affected_links.update(record.affected_links)
                current.end = current.start + downtime
                if record.confirmed_by_dataplane:
                    current.confirmed_by_dataplane = True
            else:
                merged.append(current)
                current = record
                downtime = record.duration_s or 0.0
        if current is not None:
            merged.append(current)
    return merged

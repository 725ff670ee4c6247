"""Record lifecycle stage: open, track, close, watch, merge (§4.4).

Terminal stage of the pipeline.  :meth:`RecordStage.feed` takes one
bin close's :class:`~repro.pipeline.events.OutageCandidate` items (each
opens a record or extends the open one) and the time the bin clock
advanced to, at which it re-evaluates open records against the >50 %
return-to-baseline rule over each record's own diverted paths, and the
oscillation watch list.  ``finalize`` flushes open
records and merges oscillating outages separated by less than the
12-hour gap into single incidents whose downtime is the sum of the
member durations.
"""

from __future__ import annotations

from repro.core.dataplane import DataPlaneValidator, ValidationOutcome
from repro.core.events import OutageRecord
from repro.core.input import PathKey
from repro.core.monitor import OutageMonitor
from repro.docmine.dictionary import PoP
from repro.pipeline.events import OutageCandidate


class _ReturnWatch:
    """What one record waits on (§4.4): per signal PoP, the diverted
    paths its signals counted, and those of them that are back — whose
    latest row since the watch began tags the PoP."""

    __slots__ = ("paths", "back")

    def __init__(self) -> None:
        self.paths: dict[PoP, set[PathKey]] = {}
        self.back: dict[PoP, set[PathKey]] = {}

    def fraction(self) -> float | None:
        """Share back at the signal PoP that lags most; ``None`` while
        nothing is watched."""
        if not self.paths:
            return None
        back = self.back
        return min(len(back[pop]) / len(keys) for pop, keys in self.paths.items())

    def to_json(self) -> list:
        from repro.core.serde import key_to_json, pop_to_json

        return sorted(
            [
                pop_to_json(pop),
                sorted(key_to_json(k) for k in keys),
                sorted(key_to_json(k) for k in self.back[pop]),
            ]
            for pop, keys in self.paths.items()
        )


class RecordStage:
    """OutageCandidate items + bin advances -> OutageRecord lifecycle.

    Each open or relapse-watched record owns a :class:`_ReturnWatch`
    over the paths its candidates' signals counted.  The monitor only
    reports rows of watched paths (:meth:`OutageMonitor.report`); the
    stage applies the report before it opens a watch and at every bin
    advance, so a path counts as back on the rows that arrived after
    its record began watching it.
    """

    name = "record"

    def __init__(
        self,
        monitor: OutageMonitor,
        validator: DataPlaneValidator,
        *,
        restore_fraction: float,
        merge_gap_s: float,
    ) -> None:
        self.monitor = monitor
        self.validator = validator
        self.restore_fraction = restore_fraction
        self.merge_gap_s = merge_gap_s
        #: finalized (closed or merged) outage records.
        self.records: list[OutageRecord] = []
        #: open outages keyed by located PoP.
        self.open: dict[PoP, OutageRecord] = {}
        #: recently closed records still watched for oscillation
        #: relapses: located pop -> (record, close time).
        self._watch: dict[PoP, tuple[OutageRecord, float]] = {}
        #: the return watch of every open or relapse-watched record.
        self._returns: dict[PoP, _ReturnWatch] = {}
        #: (signal pop, key) -> located pops whose watch holds it.
        self._watchers: dict[tuple[PoP, PathKey], set[PoP]] = {}

    # ------------------------------------------------------------------
    def feed(
        self, candidates: list[OutageCandidate], now: float | None
    ) -> None:
        """Open or extend a record per candidate, then re-evaluate the
        open and watched records at ``now``, the bin the clock advanced
        to (``None`` at the end of the stream: nothing is evaluated)."""
        for candidate in candidates:
            self._open_or_extend(candidate)
        if now is not None:
            self._evaluate_open(now)

    def flush(self) -> None:
        """End of stream: nothing is buffered here.  The ledger tracer
        (``benchmarks/ledger/tracing.py``) times ``feed`` and ``flush``
        of every stage that holds the Kepler monitor."""

    def state_dict(self) -> dict:
        """The records and their watches, with the monitor's report
        applied first: the document holds every row folded so far."""
        from repro.core.serde import pop_to_json, record_to_json

        self._settle()
        returns = self._returns
        return {
            "records": [record_to_json(r) for r in self.records],
            "open": [
                [pop_to_json(pop), record_to_json(r), returns[pop].to_json()]
                for pop, r in self.open.items()
            ],
            "watch": [
                [
                    pop_to_json(pop),
                    record_to_json(record),
                    returns[pop].to_json(),
                    closed_at,
                ]
                for pop, (record, closed_at) in self._watch.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore after the monitor's own load: every record's watch
        is re-opened on the (reset) monitor."""
        from repro.core.serde import pop_from_json, record_from_json

        self.records = [record_from_json(r) for r in state["records"]]
        self._returns = {}
        self._watchers = {}
        self.open = {}
        for pop_json, record, watch in state["open"]:
            located = pop_from_json(pop_json)
            self.open[located] = record_from_json(record)
            self._load_watch(located, watch)
        self._watch = {}
        for pop_json, record, watch, closed_at in state["watch"]:
            located = pop_from_json(pop_json)
            self._watch[located] = (record_from_json(record), closed_at)
            self._load_watch(located, watch)

    def _load_watch(self, located: PoP, rows: list) -> None:
        from repro.core.serde import key_from_json, pop_from_json

        watch = self._returns[located] = _ReturnWatch()
        for pop_json, keys, back in rows:
            pop = pop_from_json(pop_json)
            self._add_paths(located, pop, map(key_from_json, keys))
            watch.back[pop] = {key_from_json(k) for k in back}

    def finalize(self, end_time: float | None = None) -> list[OutageRecord]:
        """Settle open records, merge oscillations; return the record list."""
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
    # Return watches
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Apply the monitor's report to the watches holding its paths."""
        watchers = self._watchers
        returns = self._returns
        for (pop, key), tagged in self.monitor.report().items():
            for located in watchers.get((pop, key), ()):
                back = returns[located].back[pop]
                if tagged:
                    back.add(key)
                else:
                    back.discard(key)

    def _add_paths(self, located: PoP, pop: PoP, keys) -> None:
        """Add ``keys`` at signal ``pop`` to ``located``'s watch."""
        watch = self._returns[located]
        fresh = set(keys).difference(watch.paths.get(pop, ()))
        if not fresh:
            return
        watch.paths.setdefault(pop, set()).update(fresh)
        watch.back.setdefault(pop, set())
        self.monitor.watch(pop, fresh)
        watchers = self._watchers
        for key in fresh:
            watchers.setdefault((pop, key), set()).add(located)

    def _release(self, located: PoP) -> None:
        """Drop ``located``'s watch."""
        watchers = self._watchers
        for pop, keys in self._returns.pop(located).paths.items():
            self.monitor.unwatch(pop, keys)
            for key in keys:
                holders = watchers[pop, key]
                holders.discard(located)
                if not holders:
                    del watchers[pop, key]

    # ------------------------------------------------------------------
    def _open_or_extend(self, candidate: OutageCandidate) -> None:
        # Rows folded so far predate this candidate's watch.
        self._settle()
        c = candidate.classification
        located = candidate.located
        if located in self._watch:
            # A fresh signal while watching for relapses: new incident.
            del self._watch[located]
            self._release(located)
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
            self._returns[located] = _ReturnWatch()
        record.affected_ases.update(c.affected_ases)
        record.affected_links.update(c.links)
        if candidate.outcome is ValidationOutcome.CONFIRMED:
            record.confirmed_by_dataplane = True
        elif candidate.outcome is ValidationOutcome.REJECTED:
            record.confirmed_by_dataplane = False
        # Wait on the paths the signals counted, at their signal PoP
        # (where the communities are visible).
        for signal in c.signals:
            self._add_paths(located, signal.pop, signal.keys)

    def _restored_fraction(self, located: PoP, now: float) -> float | None:
        # Prefer the data plane when available, BGP otherwise (§4.4).
        fraction = self.validator.restored_fraction(located, now)
        if fraction is not None:
            return fraction
        return self._returns[located].fraction()

    def _evaluate_open(self, now: float) -> None:
        self._settle()
        for located in sorted(self.open, key=str):
            fraction = self._restored_fraction(located, now)
            if fraction is None:
                continue
            if fraction > self.restore_fraction:
                record = self.open.pop(located)
                record.end = now
                self.records.append(record)
                # Keep watching the signal PoPs: oscillating outages
                # relapse within the merge window (Section 4.4).
                self._watch[located] = (record, now)
        for located in sorted(self._watch, key=str):
            record, closed_at = self._watch[located]
            if now - closed_at > self.merge_gap_s:
                del self._watch[located]
                self._release(located)
                continue
            fraction = self._restored_fraction(located, now)
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

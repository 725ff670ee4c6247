"""Frozen pre-refactor Kepler orchestrator (equivalence reference).

Verbatim copy of the monolithic detector as it stood before the staged
pipeline refactor, kept ONLY for the equivalence test: seed scenarios
must produce identical records through this class and through the
pipeline-backed facade.  Do not extend it.

One rule has been rewritten since, on its own rather than by importing
the record stage, so the equivalence test still compares two
implementations: each record waits on the paths its classifications'
signals counted (``OutageSignal.keys``), and a path is back when its
latest row since the record began watching it tags the signal PoP.
The monitor only reports those rows (``watch``/``unwatch``/``report``).

A second rule follows the staged chain too: a row past the open bin
closes it, and the closed bin's signals are handled and the open
records evaluated, before the row itself is deferred into its own bin,
so what that evaluation reads holds rows of the closed bin only.  Rows
reach the monitor through ``tests/_tagged_rows.py``, since the monitor
folds only tagged batches.

Original module docstring:

Wires the input module, the stable-path monitor, signal classification,
investigation/disambiguation and data-plane validation into a streaming
detector:

    BGP stream -> tagged paths -> 60 s bins -> per-AS signals
      -> classify (link / AS / operator / PoP)
      -> localise PoP-level signals over the colocation map
      -> (optionally) confirm via traceroute
      -> open outage record; track return-to-baseline; close at >50 %
      -> merge oscillating outages separated by < 12 h
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.bgp.messages import BGPStateMessage, BGPUpdate, StreamElement
from repro.core.colocation import ColocationMap
from repro.core.dataplane import (
    DataPlaneValidator,
    MERGE_GAP_S,
    NullValidator,
    RESTORE_FRACTION,
    ValidationOutcome,
)
from repro.core.events import OutageRecord, SignalType
from repro.core.input import InputModule
from repro.core.investigation import COLOCATION_MARGIN, Investigator
from repro.core.monitor import MonitorParams, OutageMonitor
from repro.core.signals import (
    MIN_POP_LEVEL_ASES,
    SignalClassification,
    classify_signals,
)
from repro.docmine.dictionary import CommunityDictionary, PoP, PoPKind

from _tagged_rows import defer, prime, tag_one


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


class LegacyKepler:
    """Pre-refactor monolithic detector (reference only)."""

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
        self.input = InputModule(dictionary, colo)
        self.monitor = OutageMonitor(self.params.monitor)
        self.investigator = Investigator(colo, margin=self.params.colocation_margin)
        self.validator: DataPlaneValidator = validator or NullValidator()

        #: finalized (closed or merged) outage records.
        self.records: list[OutageRecord] = []
        #: open outages keyed by located PoP.
        self.open: dict[PoP, OutageRecord] = {}
        #: per open or relapse-watched record (located pop): signal
        #: pop -> (watched paths, those of them back).
        self._returns: dict[PoP, dict[PoP, tuple[set, set]]] = {}
        #: recently closed records still watched for oscillation
        #: relapses (Section 4.4): located pop -> (record, close time).
        self._watch: dict[PoP, tuple[OutageRecord, float]] = {}
        #: every classification ever made, for sensitivity analysis.
        self.signal_log: list[SignalClassification] = []
        #: signals rejected by the data plane (false-positive pruning).
        self.rejected: list[SignalClassification] = []
        #: sliding correlation window of raw signals.
        self._window: list = []

    # ------------------------------------------------------------------
    @classmethod
    def from_world(cls, world: "object", **kwargs: object) -> "LegacyKepler":
        """Convenience constructor from a :class:`repro.scenarios.World`."""
        return cls(
            dictionary=world.dictionary,  # type: ignore[attr-defined]
            colo=world.colo,  # type: ignore[attr-defined]
            as2org=world.as2org,  # type: ignore[attr-defined]
            **kwargs,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    def prime(self, updates: Iterable[BGPUpdate]) -> int:
        """Install a RIB snapshot as the stable baseline (assumed aged)."""
        count = 0
        for update in updates:
            tagged = tag_one(self.input, update)
            if tagged is None or not tagged.tags:
                continue
            prime(self.monitor, tagged)
            count += 1
        return count

    def process(self, elements: Iterable[StreamElement]) -> None:
        """Consume a time-sorted element stream."""
        for element in elements:
            if isinstance(element, BGPStateMessage):
                self.monitor.observe_state(element)
                continue
            tagged = tag_one(self.input, element)
            if tagged is None:
                continue
            start = self.monitor.current_bin_start
            width = self.params.monitor.bin_interval_s
            if start is not None and tagged.time >= start + width:
                signals = self.monitor.close_bins(tagged.time)
                if signals:
                    self._handle_signals(signals)
                self._evaluate_open(self.monitor.current_bin_start)
            defer(self.monitor, tagged)

    def finalize(self, end_time: float | None = None) -> list[OutageRecord]:
        """Flush bins, close tracking, merge oscillations; return records."""
        signals = self.monitor.close_bin()
        if signals:
            self._handle_signals(signals)
        if end_time is not None:
            self._evaluate_open(end_time)
        # Ongoing outages stay open (duration unknown).
        for record in self.open.values():
            self.records.append(record)
        self.open.clear()
        self.records = _merge_oscillations(self.records, self.params.merge_gap_s)
        self.records.sort(key=lambda r: (r.start, str(r.located_pop)))
        return self.records

    # ------------------------------------------------------------------
    def _handle_signals(self, signals: list) -> None:
        # Per-bin classification feeds the sensitivity log (Figure 7a).
        per_bin = classify_signals(
            signals, self.as2org, min_pop_ases=self.params.min_pop_ases
        )
        self.signal_log.extend(per_bin)
        # Detection runs on the correlation window: one physical event's
        # updates land in adjacent bins.
        now_bin = max(s.bin_start for s in signals)
        self._window.extend(signals)
        self._window = [
            s
            for s in self._window
            if now_bin - s.bin_start <= self.params.correlation_window_s
        ]
        classifications = classify_signals(
            self._window, self.as2org, min_pop_ases=self.params.min_pop_ases
        )
        pop_level = [
            c for c in classifications if c.signal_type is SignalType.POP
        ]
        if not pop_level:
            return
        concurrent = {c.pop for c in pop_level}
        located_results: list[tuple[SignalClassification, PoP, str]] = []
        for c in pop_level:
            if not self.params.enable_investigation:
                located_results.append((c, c.pop, "signal-pop"))
                continue
            baseline_far = self.monitor.baseline_far_ases(c.pop) | {
                f for _, f in c.links if f is not None
            }
            baseline_links = self.monitor.baseline_links(c.pop) | set(c.links)
            result = self.investigator.investigate(
                c, baseline_far, baseline_links, concurrent
            )
            if result.converged:
                assert result.located_pop is not None
                located_results.append((c, result.located_pop, result.method))
                continue
            # Unresolved by the map: targeted traceroutes decide.
            outcome = self.validator.validate(c.pop, c.bin_end)
            if outcome is ValidationOutcome.CONFIRMED:
                located_results.append((c, c.pop, "dataplane"))
            else:
                self.rejected.append(c)

        # City abstraction: multiple epicenters in one city in one bin.
        city_scope = _common_city(located_results, self.colo)
        for c, located, method in located_results:
            outcome = self.validator.validate(located, c.bin_end)
            if outcome is ValidationOutcome.REJECTED and self.params.drop_rejected:
                self.rejected.append(c)
                continue
            self._open_or_extend(c, located, method, outcome, city_scope)

    def _open_or_extend(
        self,
        c: SignalClassification,
        located: PoP,
        method: str,
        outcome: ValidationOutcome,
        city_scope: str | None,
    ) -> None:
        # Rows folded so far predate this candidate's watch.
        self._apply_report()
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
                method=method,
                city_scope=city_scope,
            )
            self.open[located] = record
            self._returns[located] = {}
        record.affected_ases.update(c.affected_ases)
        record.affected_links.update(c.links)
        if outcome is ValidationOutcome.CONFIRMED:
            record.confirmed_by_dataplane = True
        elif outcome is ValidationOutcome.REJECTED:
            record.confirmed_by_dataplane = False
        # Wait on the paths the signals counted, at the signal PoP.
        watch = self._returns[located]
        for signal in c.signals:
            if not signal.keys:
                continue
            paths, _ = watch.setdefault(signal.pop, (set(), set()))
            fresh = set(signal.keys) - paths
            if fresh:
                paths.update(fresh)
                self.monitor.watch(signal.pop, fresh)

    def _apply_report(self) -> None:
        for (pop, key), tagged in self.monitor.report().items():
            for watch in self._returns.values():
                paths, back = watch.get(pop, ((), set()))
                if key in paths:
                    if tagged:
                        back.add(key)
                    else:
                        back.discard(key)

    def _release(self, located: PoP) -> None:
        for pop, (paths, _) in self._returns.pop(located).items():
            self.monitor.unwatch(pop, paths)

    def _restored_fraction(self, located: PoP, now: float) -> float | None:
        # Prefer the data plane when available, BGP otherwise (§4.4).
        fraction = self.validator.restored_fraction(located, now)
        if fraction is not None:
            return fraction
        watch = self._returns[located]
        if not watch:
            return None
        return min(len(back) / len(paths) for paths, back in watch.values())

    def _evaluate_open(self, now: float) -> None:
        self._apply_report()
        for located in sorted(self.open, key=str):
            record = self.open[located]
            fraction = self._restored_fraction(located, now)
            if fraction is None:
                continue
            if fraction > self.params.restore_fraction:
                record.end = now
                self.records.append(record)
                del self.open[located]
                # Keep watching the signal PoPs: oscillating outages
                # relapse within the merge window (Section 4.4).
                self._watch[located] = (record, now)
        for located in sorted(self._watch, key=str):
            record, closed_at = self._watch[located]
            if now - closed_at > self.params.merge_gap_s:
                del self._watch[located]
                self._release(located)
                continue
            fraction = self._restored_fraction(located, now)
            if fraction is not None and fraction <= self.params.restore_fraction:
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

    # ------------------------------------------------------------------
    def signal_counts(self) -> dict[SignalType, int]:
        counts = {t: 0 for t in SignalType}
        for c in self.signal_log:
            counts[c.signal_type] += 1
        return counts


def _common_city(
    located_results: list[tuple[SignalClassification, PoP, str]],
    colo: ColocationMap,
) -> str | None:
    """City shared by all located epicenters of one bin (>=2 of them)."""
    if len(located_results) < 2:
        return None
    cities: set[str] = set()
    for _, located, _ in located_results:
        if located.kind is PoPKind.FACILITY:
            fac = colo.facilities.get(located.pop_id)
            cities.add(fac.city_name if fac else "?")
        elif located.kind is PoPKind.IXP:
            ixp = colo.ixps.get(located.pop_id)
            cities.add(ixp.city_name if ixp else "?")
        else:
            cities.add(located.pop_id)
    if len(cities) == 1 and "?" not in cities:
        return next(iter(cities))
    return None


def _merge_oscillations(
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

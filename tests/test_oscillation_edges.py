"""Oscillation and feed-gap edge cases of the record lifecycle (§4.4).

Drives the monitor + RecordStage pair directly with synthetic tagged
paths, pinning down the boundary behaviours:

* a relapse arriving **exactly** at ``merge_gap_s`` after the close is
  still merged (the watch expires only strictly after the gap);
* a fresh PoP-level signal on a watched PoP starts a new incident (the
  watch pop-and-restart path);
* collector feed gaps during an open outage neither fabricate
  divergence signals nor disturb return tracking;
* two records that share a signal PoP close on their own paths;
* a candidate that reaches the record stage bins after its signals
  (through the correlation window, or a sparse stream crossing empty
  bins) waits on those signals' paths and closes when most are back.
"""

from __future__ import annotations

import pytest

from repro.bgp.communities import Community
from repro.bgp.messages import BGPStateMessage, BGPUpdate, ElemType, SessionState
from repro.core.colocation import ColocationMap
from repro.core.dataplane import NullValidator, ValidationOutcome
from repro.core.events import SignalType
from repro.core.input import PoPTag
from repro.core.kepler import Kepler, KeplerParams
from repro.core.monitor import MonitorParams, OutageMonitor
from repro.core.signals import SignalClassification
from repro.docmine.dictionary import (
    CommunityDictionary,
    DictionaryEntry,
    PoP,
    PoPKind,
)
from repro.pipeline import OutageCandidate, RecordStage

from _tagged_rows import TaggedPath, observe, prime

POP_F = PoP(PoPKind.FACILITY, "f1")
MERGE_GAP = 100.0


def tagged(key, time, pops=(POP_F,), near=10, far=30, withdraw=False):
    tags = tuple(PoPTag(pop=p, near_asn=near, far_asn=far) for p in pops)
    return TaggedPath(
        key=key,
        time=time,
        elem_type=ElemType.WITHDRAWAL if withdraw else ElemType.ANNOUNCEMENT,
        as_path=() if withdraw else (1, near, far),
        tags=() if withdraw else tags,
        afi=4,
    )


def key(i: int):
    return ("rrc00", 100, f"10.0.{i}.0/24")


def classification(signals, pop=POP_F, bin_start=0.0) -> SignalClassification:
    ases = (1, 2, 3, 4)
    return SignalClassification(
        pop=pop,
        signal_type=SignalType.POP,
        bin_start=bin_start,
        bin_end=bin_start + 60.0,
        near_ases=set(ases),
        far_ases={a + 100 for a in ases},
        links={(a, a + 100) for a in ases},
        signals=list(signals),
    )


def candidate(signals, bin_start=0.0, located=None) -> OutageCandidate:
    """A PoP-level candidate over the monitor's ``signals``: its record
    waits on the paths they counted."""
    c = classification(signals, bin_start=bin_start)
    return OutageCandidate(
        classification=c,
        located=c.pop if located is None else located,
        method="near-end",
        outcome=ValidationOutcome.INCONCLUSIVE,
    )


def returned(stage, located=POP_F) -> float | None:
    """The share of ``located``'s watched paths back, report applied."""
    stage._settle()
    return stage._returns[located].fraction()


def opened_and_closed(n_keys=4, n_return=3):
    """Monitor + stage with one outage opened, then closed at t=120."""
    monitor = OutageMonitor(MonitorParams())
    for i in range(n_keys):
        prime(monitor, tagged(key(i), time=0.0))
    stage = RecordStage(
        monitor, NullValidator(), restore_fraction=0.5, merge_gap_s=MERGE_GAP
    )
    for i in range(n_keys):
        observe(monitor, tagged(key(i), time=10.0, withdraw=True))
    signals = monitor.close_bin()
    stage.feed([candidate(signals, bin_start=0.0)], None)
    assert POP_F in stage.open
    assert stage._returns[POP_F].paths == {POP_F: {key(i) for i in range(n_keys)}}
    # Paths return: fraction above the restore threshold.
    for i in range(n_return):
        observe(monitor, tagged(key(i), time=70.0))
    stage.feed([], 120.0)
    assert POP_F not in stage.open
    assert POP_F in stage._watch
    return monitor, stage, signals


class TestRelapseAtExactGap:
    def test_relapse_exactly_at_merge_gap_still_merges(self):
        monitor, stage, signals = opened_and_closed()
        # The paths flap back down...
        for i in range(3):
            observe(monitor, tagged(key(i), time=130.0, withdraw=True))
        # ...and the evaluation lands exactly merge_gap_s after close:
        # the watch must still be live (expiry is strictly greater-than).
        stage.feed([], 120.0 + MERGE_GAP)
        assert POP_F in stage.open
        assert stage.open[POP_F].start == 120.0 + MERGE_GAP
        assert POP_F not in stage._watch

    def test_watch_expires_strictly_after_gap(self):
        monitor, stage, signals = opened_and_closed()
        for i in range(3):
            observe(monitor, tagged(key(i), time=130.0, withdraw=True))
        stage.feed([], 120.0 + MERGE_GAP + 0.5)
        assert POP_F not in stage.open
        assert POP_F not in stage._watch
        # The paths are released with the watch: no more reports.
        assert POP_F not in stage._returns
        observe(monitor, tagged(key(0), time=240.0))
        assert monitor.report() == {}

    def test_relapse_inherits_record_identity(self):
        monitor, stage, signals = opened_and_closed()
        closed = stage.records[-1]
        for i in range(3):
            observe(monitor, tagged(key(i), time=130.0, withdraw=True))
        stage.feed([], 180.0)
        relapse = stage.open[POP_F]
        assert relapse.method == closed.method
        assert relapse.affected_ases == closed.affected_ases
        # finalize merges the two into one incident, summed downtime.
        records = stage.finalize(end_time=200.0)
        mine = [r for r in records if r.located_pop == POP_F]
        assert len(mine) == 1
        assert mine[0].merged_incidents == 2


class TestFreshSignalOnWatchedPop:
    def test_fresh_signal_restarts_incident(self):
        monitor, stage, signals = opened_and_closed()
        # A new PoP-level candidate arrives while the PoP is watched:
        # the watch is dropped and a *new* incident opens.
        stage.feed([candidate(signals, bin_start=300.0)], None)
        assert POP_F not in stage._watch
        assert stage.open[POP_F].start == 300.0
        # The old watch was released and a fresh one opened on the
        # candidate's paths: nothing has returned since it began.
        assert returned(stage) == 0.0

    def test_fresh_signal_separates_records(self):
        monitor, stage, signals = opened_and_closed()
        stage.feed([candidate(signals, bin_start=300.0)], None)
        for i in range(3):
            observe(monitor, tagged(key(i), time=310.0))
        stage.feed([], 360.0)
        records = stage.finalize()
        mine = [r for r in records if r.located_pop == POP_F]
        # The second incident started beyond the merge gap (300 vs a
        # close at 120, gap 100): two independent records.
        assert len(mine) == 2
        assert all(r.merged_incidents == 1 for r in mine)
        assert mine[0].end == 120.0 and mine[1].start == 300.0


class TestFeedGapDuringOutage:
    def _loss(self, time):
        return BGPStateMessage(
            time=time,
            collector="rrc00",
            peer_asn=100,
            old_state=SessionState.ESTABLISHED,
            new_state=SessionState.IDLE,
        )

    def _recovery(self, time):
        return BGPStateMessage(
            time=time,
            collector="rrc00",
            peer_asn=100,
            old_state=SessionState.IDLE,
            new_state=SessionState.ESTABLISHED,
        )

    def test_gap_does_not_disturb_return_tracking(self):
        monitor = OutageMonitor(MonitorParams())
        for i in range(6):
            prime(monitor, tagged(key(i), time=0.0))
        stage = RecordStage(
            monitor, NullValidator(), restore_fraction=0.5, merge_gap_s=MERGE_GAP
        )
        for i in range(4):
            observe(monitor, tagged(key(i), time=10.0, withdraw=True))
        signals = monitor.close_bin()
        stage.feed([candidate(signals, bin_start=0.0)], None)
        for i in range(3):
            observe(monitor, tagged(key(i), time=70.0))
        assert returned(stage) == pytest.approx(0.75)
        # Session loss: the peer's withdrawals are a feed gap, not an
        # oscillation — tracked fraction must not move.
        monitor.observe_state(self._loss(80.0))
        for i in range(3):
            observe(monitor, tagged(key(i), time=90.0, withdraw=True))
        assert returned(stage) == pytest.approx(0.75)

    def test_gap_suppresses_divergence_of_remaining_baseline(self):
        monitor = OutageMonitor(MonitorParams())
        for i in range(6):
            prime(monitor, tagged(key(i), time=0.0))
        for i in range(4):
            observe(monitor, tagged(key(i), time=10.0, withdraw=True))
        monitor.close_bin()
        # Outage open; now the collector session drops mid-outage.
        monitor.observe_state(self._loss(65.0))
        observe(monitor, tagged(key(4), time=70.0, withdraw=True))
        observe(monitor, tagged(key(5), time=70.0, withdraw=True))
        assert monitor.close_bin() == []
        # After recovery the same paths diverging do raise signals.
        monitor.observe_state(self._recovery(125.0))
        observe(monitor, tagged(key(4), time=130.0, withdraw=True))
        observe(monitor, tagged(key(5), time=130.0, withdraw=True))
        signals = monitor.close_bin()
        assert signals and all(s.pop == POP_F for s in signals)


class TestRecordsSharingASignalPoP:
    def test_each_record_closes_on_its_own_paths(self):
        located_a = PoP(PoPKind.FACILITY, "a1")
        located_b = PoP(PoPKind.FACILITY, "b1")
        monitor = OutageMonitor(MonitorParams())
        for i in range(4):
            prime(monitor, tagged(key(i), time=0.0))
        stage = RecordStage(
            monitor, NullValidator(), restore_fraction=0.5, merge_gap_s=MERGE_GAP
        )
        # Record A: three of the signal PoP's keys divert in bin 0.
        for i in range(3):
            observe(monitor, tagged(key(i), time=10.0, withdraw=True))
        signals = monitor.close_bin()
        stage.feed([candidate(signals, bin_start=0.0, located=located_a)], None)
        stage.feed([], 60.0)
        # Record B: the fourth key diverts one bin later, same signal PoP.
        observe(monitor, tagged(key(3), time=70.0, withdraw=True))
        signals = monitor.close_bin()
        stage.feed([candidate(signals, bin_start=60.0, located=located_b)], None)
        assert set(stage.open) == {located_a, located_b}
        # Step 1: only A's keys return.  A closes (3/3); B's one key is
        # still down, so B stays open.
        for i in range(3):
            observe(monitor, tagged(key(i), time=130.0))
        stage.feed([], 180.0)
        assert located_a not in stage.open
        assert located_b in stage.open
        # Step 2: A's watch expires; B's tracking must survive it.
        stage.feed([], 180.0 + MERGE_GAP + 60.0)
        assert located_a not in stage._watch
        observe(monitor, tagged(key(3), time=350.0))
        stage.feed([], 360.0)
        assert located_b not in stage.open
        closed = [r for r in stage.records if r.located_pop == located_b]
        assert [r.end for r in closed] == [360.0]


# ----------------------------------------------------------------------
# Late candidates: the record waits on its signals' paths
# ----------------------------------------------------------------------
LATE_POP = PoP(PoPKind.FACILITY, "fx-late")
LATE_VANTAGE = 9_000
#: Three near ASes, each with six paths to three far ASes of its own.
LATE_NEARS = (2000, 2001, 2002)
LATE_END = 2000.0


def late_replay(kind: str) -> tuple[CommunityDictionary, list, list]:
    """One facility whose outage reaches the record stage bins after
    its first signal.

    ``window``: the three near ASes fail one bin apart, so only the
    third bin's signals make the correlation window PoP-level; the
    candidate arrives at that bin's close, three bins after the first
    signal's bin.  ``sparse``: all paths fail in bin 0 and the next
    element arrives ten bins later, so the candidate arrives after the
    monitor crossed the empty bins.  Either way the paths of the first
    two near ASes (12 of 18) come back later and the third's stay
    down.  A ticker route at a second facility drives the bin clock.
    """
    entries: dict[Community, DictionaryEntry] = {}

    def community(asn: int, pop_id: str) -> Community:
        value = Community(asn, 700)
        entries[value] = DictionaryEntry(
            community=value,
            pop=PoP(PoPKind.FACILITY, pop_id),
            source_url="fixture://late",
            surface=pop_id,
        )
        return value

    def update(time: float, route: tuple, announce: bool = True) -> BGPUpdate:
        prefix, path, tag = route
        return BGPUpdate(
            time=time,
            collector="rrc00",
            peer_asn=LATE_VANTAGE,
            prefix=prefix,
            elem_type=ElemType.ANNOUNCEMENT if announce else ElemType.WITHDRAWAL,
            as_path=path if announce else (),
            communities=(tag,) if announce else (),
        )

    routes = {
        near: [
            (
                f"10.{j}.{k}.0/24",
                (LATE_VANTAGE, near, 3000 + 10 * j + k % 3),
                community(near, LATE_POP.pop_id),
            )
            for k in range(6)
        ]
        for j, near in enumerate(LATE_NEARS)
    }
    ticker = ("10.99.0.0/24", (LATE_VANTAGE, 2990, 2991), community(2990, "fx-tick"))
    priming = [update(0.0, r) for rs in routes.values() for r in rs]
    priming.append(update(0.0, ticker))
    elements: list[BGPUpdate] = []
    if kind == "window":
        for j, near in enumerate(LATE_NEARS):
            elements += [update(60.0 * j + 5.0, r, False) for r in routes[near]]
        back_at = 305.0
        elements += [update(b * 60.0 + 30.0, ticker) for b in range(10)]
    else:
        elements += [update(5.0, r, False) for rs in routes.values() for r in rs]
        back_at = 665.0
        elements += [update(605.0, ticker), update(785.0, ticker)]
    for near in LATE_NEARS[:2]:
        elements += [update(back_at, r) for r in routes[near]]
    elements.sort(key=lambda e: e.time)
    return CommunityDictionary(entries=entries), priming, elements


def first_return(elements: list) -> int:
    """Index of the first announcement of a failed route."""
    return next(
        i for i, e in enumerate(elements)
        if e.elem_type is ElemType.ANNOUNCEMENT and e.prefix != "10.99.0.0/24"
    )


def late_kepler(dictionary: CommunityDictionary) -> Kepler:
    return Kepler(
        dictionary=dictionary,
        colo=ColocationMap(),
        as2org={},
        params=KeplerParams(enable_investigation=False),
    )


@pytest.mark.parametrize("kind, closes_at", [("window", 360.0), ("sparse", 780.0)])
class TestLateCandidate:
    def test_record_waits_on_its_signals_paths(self, kind, closes_at):
        dictionary, priming, elements = late_replay(kind)
        detector = late_kepler(dictionary)
        detector.prime(priming)
        down_until = first_return(elements)
        detector.process(elements[:down_until])
        # The candidate arrived bins after the first signal's bin, and
        # its record waits on every path its signals counted.
        (record,) = detector.open.values()
        assert record.located_pop == LATE_POP and record.start == 0.0
        stage = detector.pipeline.record
        counted = {
            key for c in detector.signal_log if c.pop == LATE_POP
            for s in c.signals for key in s.keys
        }
        assert len(counted) == 18
        assert stage._returns[LATE_POP].paths == {LATE_POP: counted}
        detector.process(elements[down_until:])
        detector.finalize(end_time=LATE_END)
        # 12 of 18 paths back: closed at the first bin advance after.
        assert not detector.open
        assert [(r.located_pop, r.start, r.end) for r in detector.records] == [
            (LATE_POP, 0.0, closes_at)
        ]

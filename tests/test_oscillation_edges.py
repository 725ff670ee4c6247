"""Oscillation and feed-gap edge cases of the record lifecycle (§4.4).

Drives the monitor + RecordStage pair directly with synthetic tagged
paths, pinning down the boundary behaviours:

* a relapse arriving **exactly** at ``merge_gap_s`` after the close is
  still merged (the watch expires only strictly after the gap);
* a fresh PoP-level signal on a watched PoP starts a new incident (the
  watch pop-and-restart path);
* collector feed gaps during an open outage neither fabricate
  divergence signals nor disturb return tracking;
* two records that share a signal PoP close on their own paths
  (expected to fail until return tracking is kept per record).
"""

from __future__ import annotations

import pytest

from repro.bgp.messages import BGPStateMessage, ElemType, SessionState
from repro.core.dataplane import NullValidator, ValidationOutcome
from repro.core.events import SignalType
from repro.core.input import PoPTag, TaggedPath
from repro.core.monitor import MonitorParams, OutageMonitor
from repro.core.signals import SignalClassification
from repro.docmine.dictionary import PoP, PoPKind
from repro.pipeline import BinAdvanced, OutageCandidate, RecordStage

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


def classification(pop=POP_F, bin_start=0.0) -> SignalClassification:
    ases = (1, 2, 3, 4)
    return SignalClassification(
        pop=pop,
        signal_type=SignalType.POP,
        bin_start=bin_start,
        bin_end=bin_start + 60.0,
        near_ases=set(ases),
        far_ases={a + 100 for a in ases},
        links={(a, a + 100) for a in ases},
    )


def candidate(bin_start=0.0, located=None) -> OutageCandidate:
    c = classification(bin_start=bin_start)
    return OutageCandidate(
        classification=c,
        located=c.pop if located is None else located,
        method="near-end",
        outcome=ValidationOutcome.INCONCLUSIVE,
    )


def opened_and_closed(n_keys=4, n_return=3):
    """Monitor + stage with one outage opened, then closed at t=120."""
    monitor = OutageMonitor(MonitorParams())
    for i in range(n_keys):
        monitor.prime(tagged(key(i), time=0.0))
    stage = RecordStage(
        monitor, NullValidator(), restore_fraction=0.5, merge_gap_s=MERGE_GAP
    )
    for i in range(n_keys):
        monitor.observe(tagged(key(i), time=10.0, withdraw=True))
    monitor.close_bin()  # last_diverted now holds the diverted keys
    stage.feed(candidate(bin_start=0.0))
    assert POP_F in stage.open
    # Paths return: fraction above the restore threshold.
    for i in range(n_return):
        monitor.observe(tagged(key(i), time=70.0))
    stage.feed(BinAdvanced(now=120.0))
    assert POP_F not in stage.open
    assert POP_F in stage._watch
    return monitor, stage


class TestRelapseAtExactGap:
    def test_relapse_exactly_at_merge_gap_still_merges(self):
        monitor, stage = opened_and_closed()
        # The paths flap back down...
        for i in range(3):
            monitor.observe(tagged(key(i), time=130.0, withdraw=True))
        # ...and the evaluation lands exactly merge_gap_s after close:
        # the watch must still be live (expiry is strictly greater-than).
        stage.feed(BinAdvanced(now=120.0 + MERGE_GAP))
        assert POP_F in stage.open
        assert stage.open[POP_F].start == 120.0 + MERGE_GAP
        assert POP_F not in stage._watch

    def test_watch_expires_strictly_after_gap(self):
        monitor, stage = opened_and_closed()
        for i in range(3):
            monitor.observe(tagged(key(i), time=130.0, withdraw=True))
        stage.feed(BinAdvanced(now=120.0 + MERGE_GAP + 0.5))
        assert POP_F not in stage.open
        assert POP_F not in stage._watch
        # Tracking is released with the watch.
        assert monitor.returned_fraction(POP_F) is None

    def test_relapse_inherits_record_identity(self):
        monitor, stage = opened_and_closed()
        closed = stage.records[-1]
        for i in range(3):
            monitor.observe(tagged(key(i), time=130.0, withdraw=True))
        stage.feed(BinAdvanced(now=180.0))
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
        monitor, stage = opened_and_closed()
        # A new PoP-level candidate arrives while the PoP is watched:
        # the watch is dropped and a *new* incident opens.
        stage.feed(candidate(bin_start=300.0))
        assert POP_F not in stage._watch
        assert stage.open[POP_F].start == 300.0
        # Old return tracking was stopped, fresh tracking restarted
        # from the last diverted set: nothing has returned yet.
        assert monitor.returned_fraction(POP_F) == 0.0

    def test_fresh_signal_separates_records(self):
        monitor, stage = opened_and_closed()
        stage.feed(candidate(bin_start=300.0))
        for i in range(3):
            monitor.observe(tagged(key(i), time=310.0))
        stage.feed(BinAdvanced(now=360.0))
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
            monitor.prime(tagged(key(i), time=0.0))
        stage = RecordStage(
            monitor, NullValidator(), restore_fraction=0.5, merge_gap_s=MERGE_GAP
        )
        for i in range(4):
            monitor.observe(tagged(key(i), time=10.0, withdraw=True))
        monitor.close_bin()
        stage.feed(candidate(bin_start=0.0))
        for i in range(3):
            monitor.observe(tagged(key(i), time=70.0))
        assert monitor.returned_fraction(POP_F) == pytest.approx(0.75)
        # Session loss: the peer's withdrawals are a feed gap, not an
        # oscillation — tracked fraction must not move.
        monitor.observe_state(self._loss(80.0))
        for i in range(3):
            monitor.observe(tagged(key(i), time=90.0, withdraw=True))
        assert monitor.returned_fraction(POP_F) == pytest.approx(0.75)

    def test_gap_suppresses_divergence_of_remaining_baseline(self):
        monitor = OutageMonitor(MonitorParams())
        for i in range(6):
            monitor.prime(tagged(key(i), time=0.0))
        for i in range(4):
            monitor.observe(tagged(key(i), time=10.0, withdraw=True))
        monitor.close_bin()
        # Outage open; now the collector session drops mid-outage.
        monitor.observe_state(self._loss(65.0))
        monitor.observe(tagged(key(4), time=70.0, withdraw=True))
        monitor.observe(tagged(key(5), time=70.0, withdraw=True))
        assert monitor.close_bin() == []
        # After recovery the same paths diverging do raise signals.
        monitor.observe_state(self._recovery(125.0))
        monitor.observe(tagged(key(4), time=130.0, withdraw=True))
        monitor.observe(tagged(key(5), time=130.0, withdraw=True))
        signals = monitor.close_bin()
        assert signals and all(s.pop == POP_F for s in signals)


class TestRecordsSharingASignalPoP:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 1b: return tracking is kept per signal PoP, not per record",
    )
    def test_each_record_closes_on_its_own_paths(self):
        located_a = PoP(PoPKind.FACILITY, "a1")
        located_b = PoP(PoPKind.FACILITY, "b1")
        monitor = OutageMonitor(MonitorParams())
        for i in range(4):
            monitor.prime(tagged(key(i), time=0.0))
        stage = RecordStage(
            monitor, NullValidator(), restore_fraction=0.5, merge_gap_s=MERGE_GAP
        )
        # Record A: three of the signal PoP's keys divert in bin 0.
        for i in range(3):
            monitor.observe(tagged(key(i), time=10.0, withdraw=True))
        monitor.close_bin()
        stage.feed(candidate(bin_start=0.0, located=located_a))
        stage.feed(BinAdvanced(now=60.0))
        # Record B: the fourth key diverts one bin later, same signal PoP.
        monitor.observe(tagged(key(3), time=70.0, withdraw=True))
        monitor.close_bin()
        stage.feed(candidate(bin_start=60.0, located=located_b))
        assert set(stage.open) == {located_a, located_b}
        # Step 1: only A's keys return.  A closes (3/3); B's one key is
        # still down, so B stays open.
        for i in range(3):
            monitor.observe(tagged(key(i), time=130.0))
        stage.feed(BinAdvanced(now=180.0))
        assert located_a not in stage.open
        assert located_b in stage.open
        # Step 2: A's watch expires; B's tracking must survive it.
        stage.feed(BinAdvanced(now=180.0 + MERGE_GAP + 60.0))
        assert located_a not in stage._watch
        monitor.observe(tagged(key(3), time=350.0))
        stage.feed(BinAdvanced(now=360.0))
        assert located_b not in stage.open
        closed = [r for r in stage.records if r.located_pop == located_b]
        assert [r.end for r in closed] == [360.0]

"""Unit tests for the monitoring module (Section 4.2 semantics)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.monitor as monitor_module
from repro.bgp.messages import BGPStateMessage, ElemType, SessionState
from repro.core.input import PoPTag
from repro.core.monitor import (
    MonitorParams,
    OutageMonitor,
    cross_bins,
    merge_monitor_states,
    partition_of,
    signal_sort_key,
)
from repro.core.serde import pop_from_json
from repro.docmine.dictionary import PoP, PoPKind
from repro.pipeline.monitoring import BinningMonitorStage

from _fold_oracle import FoldOracle
from _tagged_rows import TaggedPath, batch_of, defer, feed, observe, prime

POP_F = PoP(PoPKind.FACILITY, "f1")
POP_C = PoP(PoPKind.CITY, "London")


def tagged(key, time, pops=(POP_F,), near=10, far=30, withdraw=False, path=(1, 10, 30)):
    tags = tuple(PoPTag(pop=p, near_asn=near, far_asn=far) for p in pops)
    return TaggedPath(
        key=key,
        time=time,
        elem_type=ElemType.WITHDRAWAL if withdraw else ElemType.ANNOUNCEMENT,
        as_path=() if withdraw else tuple(path),
        tags=() if withdraw else tags,
        afi=4,
    )


def key(i: int):
    return ("rrc00", 100, f"10.0.{i}.0/24")


def session_message(time, peer, loss):
    down, up = SessionState.IDLE, SessionState.ESTABLISHED
    return BGPStateMessage(
        time=time,
        collector=peer[0],
        peer_asn=peer[1],
        old_state=up if loss else down,
        new_state=down if loss else up,
    )


def primed_monitor(n_paths=10, t_fail=0.10):
    monitor = OutageMonitor(MonitorParams(t_fail=t_fail))
    for i in range(n_paths):
        prime(monitor, tagged(key(i), time=0.0))
    return monitor


class TestBaseline:
    def test_prime_installs_baseline(self):
        monitor = primed_monitor(5)
        assert len(monitor._entries(POP_F)) == 5

    def test_baseline_links_exposed(self):
        monitor = primed_monitor(3)
        assert monitor.baseline_links(POP_F) == {(10, 30)}
        assert monitor.baseline_far_ases(POP_F) == {30}

    def test_pending_promotion_after_stable_window(self):
        params = MonitorParams(stable_window_s=120.0, bin_interval_s=60.0)
        monitor = OutageMonitor(params)
        observe(monitor, tagged(key(1), time=10.0))
        assert len(monitor._entries(POP_F)) == 0
        # Advance past the stable window with later updates.
        observe(monitor, tagged(key(1), time=70.0))
        observe(monitor, tagged(key(1), time=200.0))
        assert len(monitor._entries(POP_F)) == 1

    def test_tag_flap_resets_pending(self):
        params = MonitorParams(stable_window_s=120.0, bin_interval_s=60.0)
        monitor = OutageMonitor(params)
        observe(monitor, tagged(key(1), time=10.0))
        # Tag disappears: candidate resets.
        observe(monitor, tagged(key(1), time=50.0, pops=()))
        observe(monitor, tagged(key(1), time=130.0))
        observe(monitor, tagged(key(1), time=140.0))
        # Window restarted at t=130: not yet stable at t=200.
        observe(monitor, tagged(key(1), time=200.0))
        assert len(monitor._entries(POP_F)) == 0


class TestDivergence:
    def test_withdrawal_raises_signal(self):
        monitor = primed_monitor(10)
        for i in range(3):
            observe(monitor, tagged(key(i), time=10.0, withdraw=True))
        signals = monitor.close_bin()
        # One signal per involved AS: near-end 10 and far-end 30.
        assert {s.near_asn for s in signals} == {10, 30}
        for signal in signals:
            assert signal.pop == POP_F
            assert signal.diverted_paths == 3
            assert signal.baseline_paths == 10

    def test_community_change_is_implicit_withdrawal(self):
        monitor = primed_monitor(10)
        # Same AS path, tag for a different PoP: divergence for POP_F.
        other = PoP(PoPKind.FACILITY, "f2")
        for i in range(2):
            observe(monitor, tagged(key(i), time=10.0, pops=(other,)))
        signals = monitor.close_bin()
        assert signals and signals[0].pop == POP_F

    def test_as_path_change_keeping_tag_is_not_divergence(self):
        monitor = primed_monitor(10)
        observe(monitor, tagged(key(0), time=10.0, path=(1, 2, 10, 30)))
        assert monitor.close_bin() == []

    def test_below_threshold_no_signal(self):
        monitor = primed_monitor(20, t_fail=0.25)
        observe(monitor, tagged(key(0), time=10.0, withdraw=True))
        assert monitor.close_bin() == []

    def test_per_as_grouping_catches_partial_outage(self):
        # 100 paths of a big AS (near=10) plus 5 of a small AS (near=77).
        monitor = OutageMonitor(MonitorParams(t_fail=0.10))
        for i in range(100):
            prime(monitor, tagged(key(i), time=0.0, near=10))
        small_keys = [("rrc00", 100, f"10.9.{i}.0/24") for i in range(5)]
        for k in small_keys:
            prime(monitor, tagged(k, time=0.0, near=77))
        # All of the small AS's paths divert: 5/105 < Tfail overall,
        # but 5/5 for AS77 (the false-negative case of Section 4.2).
        for k in small_keys:
            observe(monitor, tagged(k, time=10.0, withdraw=True))
        signals = monitor.close_bin()
        assert len(signals) == 1
        assert signals[0].near_asn == 77

    def test_diverted_paths_removed_from_baseline(self):
        monitor = primed_monitor(10)
        observe(monitor, tagged(key(0), time=10.0, withdraw=True))
        monitor.close_bin()
        assert len(monitor._entries(POP_F)) == 9

    def test_signal_carries_affected_links(self):
        monitor = primed_monitor(5)
        observe(monitor, tagged(key(0), time=10.0, withdraw=True))
        signals = monitor.close_bin()
        assert signals[0].links == frozenset({(10, 30)})

    def test_multiple_bins_advance(self):
        monitor = primed_monitor(10)
        observe(monitor, tagged(key(0), time=10.0, withdraw=True))
        # An element 3 bins later closes the open bins in order.
        signals = observe(monitor, tagged(key(1), time=200.0))
        assert {s.near_asn for s in signals} == {10, 30}
        assert monitor.bins_processed >= 1


class TestFeedGaps:
    def _loss(self, time):
        return session_message(time, ("rrc00", 100), loss=True)

    def _recovery(self, time):
        return session_message(time, ("rrc00", 100), loss=False)

    def test_gapped_peer_paths_not_counted(self):
        monitor = primed_monitor(10)
        monitor.observe_state(self._loss(5.0))
        for i in range(10):
            observe(monitor, tagged(key(i), time=10.0, withdraw=True))
        assert monitor.close_bin() == []

    def test_recovery_resumes_monitoring(self):
        monitor = primed_monitor(10)
        monitor.observe_state(self._loss(5.0))
        monitor.observe_state(self._recovery(6.0))
        for i in range(5):
            observe(monitor, tagged(key(i), time=10.0, withdraw=True))
        assert monitor.close_bin()


class TestReturnTracking:
    """The monitor's half of return tracking: it reports, per watched
    (PoP, key) with a row, whether the latest row tagged the PoP; the
    record stage turns the reports into each record's fraction."""

    def test_fraction_returned(self):
        monitor = primed_monitor(4)
        monitor.watch(POP_F, {key(i) for i in range(4)})
        assert monitor.report() == {}
        observe(monitor, tagged(key(0), time=10.0))
        observe(monitor, tagged(key(1), time=11.0))
        observe(monitor, tagged(key(5), time=12.0))  # not watched
        assert monitor.report() == {(POP_F, key(0)): True, (POP_F, key(1)): True}
        # Taking the report empties it.
        assert monitor.report() == {}

    def test_oscillation_unreturns(self):
        monitor = primed_monitor(2)
        monitor.watch(POP_F, {key(0), key(1)})
        observe(monitor, tagged(key(0), time=10.0))
        observe(monitor, tagged(key(0), time=20.0, withdraw=True))
        observe(monitor, tagged(key(1), time=21.0, pops=(POP_C,)))
        # The latest row decides: withdrawn, or tagged elsewhere.
        assert monitor.report() == {(POP_F, key(0)): False, (POP_F, key(1)): False}

    def test_stop_tracking(self):
        # Watches are counted: two records on one path, one releases,
        # the other still hears of it; the last release stops reports.
        monitor = primed_monitor(2)
        monitor.watch(POP_F, {key(0)})
        monitor.watch(POP_F, {key(0), key(1)})
        monitor.unwatch(POP_F, {key(0)})
        observe(monitor, tagged(key(0), time=10.0))
        assert monitor.report() == {(POP_F, key(0)): True}
        monitor.unwatch(POP_F, {key(0), key(1)})
        observe(monitor, tagged(key(0), time=20.0))
        observe(monitor, tagged(key(1), time=21.0))
        assert monitor.report() == {}

    def test_signal_keys_are_the_counted_paths(self):
        monitor = OutageMonitor(MonitorParams(t_fail=0.10))
        for i in range(10):
            near = 10 if i < 5 else 11
            path = (1, near, 30, 100 + i)
            prime(monitor, tagged(key(i), time=0.0, near=near, path=path))
        for i in (6, 0, 5):
            observe(monitor, tagged(key(i), time=10.0, withdraw=True))
        signals = monitor.close_bin()
        assert {s.near_asn: s.keys for s in signals} == {
            10: (key(0),),
            11: (key(5), key(6)),
            30: (key(0), key(5), key(6)),
        }
        for signal in signals:
            # Sorted, one per counted path.
            assert list(signal.keys) == sorted(signal.keys)
            assert len(signal.keys) == signal.diverted_paths

    def test_bin_closing_row_is_not_reported_at_its_close(self):
        # The first row past the bin stops the call at its own slot,
        # after the close: what the record stage settles at that
        # advance holds rows of the closed bin [0, 60) only, and the
        # row is reported once it folds into its own bin.
        monitor = primed_monitor(2)
        stage = BinningMonitorStage(monitor)
        monitor.watch(POP_F, {key(0)})
        view = stage.prepare_wire(
            batch_of(
                [
                    tagged(key(1), time=10.0),
                    tagged(key(0), time=60.0, withdraw=True),
                ]
            )
        )
        (_, advanced_to), slot = stage.feed_wire_run(view, 0)
        assert advanced_to == 60.0
        assert slot == 1
        assert monitor.report() == {}
        assert stage.feed_wire_run(view, slot) == (None, 2)
        assert monitor.report() == {(POP_F, key(0)): False}


class TestParams:
    def test_invalid_bin_interval(self):
        # NaN and infinity would never close a bin.
        for width in (0.0, -60.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                MonitorParams(bin_interval_s=width)

    def test_invalid_stable_window(self):
        # A negative window promotes candidates before first seen.
        for window in (-60.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                MonitorParams(stable_window_s=window)
        assert MonitorParams(stable_window_s=0.0).stable_window_s == 0.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            MonitorParams(t_fail=0.0)
        with pytest.raises(ValueError):
            MonitorParams(t_fail=1.5)


class TestEmissionOrder:
    """close_bin's emission order is an explicit, documented contract:
    signals sort under signal_sort_key — (PoP kind, PoP id, AS) —
    regardless of baseline/divergence insertion order.  The shard
    driver's merge of monitor shares relies on it."""

    POPS = [
        PoP(PoPKind.IXP, "zz-ix"),
        PoP(PoPKind.FACILITY, "f9"),
        PoP(PoPKind.CITY, "Vienna"),
        PoP(PoPKind.FACILITY, "f10"),
        PoP(PoPKind.IXP, "aa-ix"),
        PoP(PoPKind.CITY, "Amsterdam"),
    ]

    def _diverted_monitor(self):
        """Baselines and divergences installed in adversarial order:
        PoPs reversed, higher AS numbers first."""
        monitor = OutageMonitor(MonitorParams())
        keys = []
        for p, pop in enumerate(reversed(self.POPS)):
            for near in (97, 13, 55):
                for i in range(3):
                    k = ("rrc00", 100, f"10.{p}.{near}.{i}/32")
                    keys.append(k)
                    prime(monitor, 
                        tagged(k, time=0.0, pops=(pop,), near=near, far=near + 1000)
                    )
        for k in reversed(keys):
            observe(monitor, tagged(k, time=10.0, withdraw=True))
        return monitor

    def test_signals_sorted_under_documented_key(self):
        signals = self._diverted_monitor().close_bin()
        assert len(signals) >= len(self.POPS)
        assert [signal_sort_key(s) for s in signals] == sorted(
            signal_sort_key(s) for s in signals
        )
        # The key is exactly (kind value, pop id, AS) — pin it so a
        # refactor cannot silently change the contract.
        first = signals[0]
        assert signal_sort_key(first) == (
            first.pop.kind.value,
            first.pop.pop_id,
            first.near_asn,
        )

    def test_order_is_insertion_independent(self):
        forward = self._diverted_monitor().close_bin()
        monitor = OutageMonitor(MonitorParams())
        for p, pop in enumerate(self.POPS):
            for near in (13, 55, 97):
                for i in range(3):
                    prime(monitor, 
                        tagged(
                            ("rrc00", 100, f"10.{len(self.POPS) - 1 - p}.{near}.{i}/32"),
                            time=0.0,
                            pops=(pop,),
                            near=near,
                            far=near + 1000,
                        )
                    )
        for p in range(len(self.POPS)):
            for near in (13, 55, 97):
                for i in range(3):
                    observe(monitor, 
                        tagged(
                            ("rrc00", 100, f"10.{p}.{near}.{i}/32"),
                            time=10.0,
                            withdraw=True,
                        )
                    )
        assert monitor.close_bin() == forward


SHARE_POPS = (
    POP_F,
    POP_C,
    PoP(PoPKind.FACILITY, "f2"),
    PoP(PoPKind.IXP, "ix1"),
    PoP(PoPKind.IXP, "ix2"),
    PoP(PoPKind.CITY, "Paris"),
)


def share_stream(monitor) -> list[list]:
    """Drive baseline, divergence, tracking and pending state; stop
    mid-bin with a divergence not yet closed.  Returns each closed
    bin's signals."""
    bins = []
    for i in range(12):
        prime(monitor, tagged(key(i), time=0.0, pops=SHARE_POPS, near=10 + i % 3))
    for i in range(6):
        observe(monitor, tagged(key(i), time=10.0 + i, withdraw=True))
    bins.append(monitor.close_bin())
    monitor.watch(POP_F, {key(i) for i in range(6)})
    for i in range(4):
        observe(monitor, tagged(key(i), time=70.0 + i, pops=SHARE_POPS[:3]))
    bins.append(monitor.close_bin())
    observe(monitor, tagged(key(6), time=130.0, withdraw=True))
    return bins


@pytest.mark.parametrize("n", [2, 3, 5])
class TestMonitorShares:
    """``share=(w, n)`` monitors split the full monitor exactly: what
    the shard-process driver merges back is what one monitor gives."""

    def test_share_owns_only_its_pops(self, n):
        full = OutageMonitor()
        share_stream(full)
        owned = set()
        for w in range(n):
            share = OutageMonitor(share=(w, n))
            share_stream(share)
            doc = share.state_dict()
            for section in ("baseline", "pending", "diverted"):
                for row in doc[section]:
                    pop = pop_from_json(row[0])
                    assert partition_of(pop, n) == w
                    owned.add((section, pop))
        assert owned == {
            (section, pop_from_json(row[0]))
            for section in ("baseline", "pending", "diverted")
            for row in full.state_dict()[section]
        }

    def test_merged_signals_equal_full_monitor(self, n):
        full = share_stream(OutageMonitor())
        shares = [share_stream(OutageMonitor(share=(w, n))) for w in range(n)]
        assert any(full)
        for index, signals in enumerate(full):
            merged = sorted(
                (s for bins in shares for s in bins[index]), key=signal_sort_key
            )
            assert merged == signals

    def test_merged_documents_equal_full_state(self, n):
        full = OutageMonitor()
        share_stream(full)
        docs = []
        for w in range(n):
            share = OutageMonitor(share=(w, n))
            share_stream(share)
            docs.append(share.state_dict())
        assert merge_monitor_states(docs) == full.state_dict()

    def test_full_document_round_trips_through_shares(self, n):
        # What ShardProcessPipeline.load_state / state_dict do.
        full = OutageMonitor()
        share_stream(full)
        doc = full.state_dict()
        docs = []
        for w in range(n):
            share = OutageMonitor(share=(w, n))
            share.load_state(doc)
            docs.append(share.state_dict())
        assert merge_monitor_states(docs) == doc

    def test_invalid_share(self, n):
        for share in ((n, n), (-1, n), (0, 0), (0, -n)):
            with pytest.raises(ValueError):
                OutageMonitor(share=share)


def recomputed_baseline_entries(monitor) -> int:
    return sum(len(entries) for entries in monitor._base.values())


class TestBaselineEntryCounter:
    """``total_baseline_entries`` is a running counter: pin it to the sum."""

    def test_counter_follows_install_remove_promote_and_restore(self):
        params = MonitorParams(stable_window_s=120.0)
        monitor = OutageMonitor(params)
        for i in range(6):
            prime(monitor, tagged(key(i), time=0.0, pops=(POP_F, POP_C)))
        # Re-priming an installed key replaces the entry, adds nothing.
        prime(monitor, tagged(key(0), time=0.0, pops=(POP_F, POP_C)))
        assert monitor.total_baseline_entries == 12
        observe(monitor, tagged(key(0), time=10.0, withdraw=True))  # removal
        observe(monitor, tagged(key(7), time=20.0))  # candidate
        observe(monitor, tagged(key(1), time=400.0))  # closes, promotes key 7
        assert monitor.total_baseline_entries == 11
        assert monitor.total_baseline_entries == recomputed_baseline_entries(
            monitor
        )
        restored = OutageMonitor(params)
        prime(restored, tagged(key(9), time=0.0))  # wiped by the restore
        restored.load_state(monitor.state_dict())
        assert restored.total_baseline_entries == 11
        assert recomputed_baseline_entries(restored) == 11


# ----------------------------------------------------------------------
# Event-driven bin clock against the stepping clock it replaced
# ----------------------------------------------------------------------
def stepping_observe(monitor, element):
    """The bin clock stepping one close per empty bin, then the row
    deferred: the oracle for ``close_bins``' fast-forward — the only
    place the per-bin loop survives.
    """
    signals = []
    if monitor._bin_start is None:
        monitor._bin_start = monitor._bin_floor(element.time)
    width = monitor.params.bin_interval_s
    while element.time >= monitor._bin_start + width:
        signals.extend(monitor.close_bin())
    defer(monitor, element)
    return signals


CLOCK_POPS = (
    POP_F,
    POP_C,
    PoP(PoPKind.FACILITY, "f2"),
    PoP(PoPKind.IXP, "ix1"),
)
CLOCK_PEERS = (("rrc00", 100), ("rrc01", 200))


def clock_key(i: int):
    collector, peer = CLOCK_PEERS[i % 2]
    return (collector, peer, f"10.0.{i}.0/24")


#: Bins between consecutive elements: mostly the dense case and short
#: hops, sometimes a quiet stretch of up to 10^5 bins.
gap_strategy = st.one_of(
    st.integers(0, 3), st.integers(0, 300), st.integers(0, 100_000)
)
clock_op_strategy = st.one_of(
    st.tuples(
        st.just("announce"),
        st.integers(0, 7),
        st.lists(st.sampled_from(CLOCK_POPS), max_size=3, unique=True),
    ),
    st.tuples(st.just("withdraw"), st.integers(0, 7), st.none()),
    st.tuples(st.just("loss"), st.sampled_from(CLOCK_PEERS), st.none()),
    st.tuples(st.just("recovery"), st.sampled_from(CLOCK_PEERS), st.none()),
)


class TestEventDrivenClock:
    @settings(max_examples=40, deadline=None)
    @given(
        width=st.sampled_from([60.0, 1.0, 0.5, 0.1, 7.3]),
        origin=st.sampled_from([0.0, 977.0, 1.5e9, 2.0**31 - 4000.0]),
        window_bins=st.sampled_from([0, 2, 40, 5000]),
        steps=st.lists(
            st.tuples(
                clock_op_strategy,
                gap_strategy,
                st.floats(0.0, 1.0, exclude_max=True),
            ),
            min_size=1,
            max_size=7,
        ),
        cut=st.integers(0, 7),
    )
    def test_fast_forward_equals_stepping(
        self, width, origin, window_bins, steps, cut
    ):
        params = MonitorParams(
            bin_interval_s=width, stable_window_s=window_bins * width
        )
        real = OutageMonitor(params)
        oracle = OutageMonitor(params)
        for monitor in (real, oracle):
            for i in range(4):
                prime(monitor, 
                    tagged(clock_key(i), time=origin, pops=CLOCK_POPS[:2])
                )
        now = origin
        for index, ((op, subject, pops), gap, frac) in enumerate(steps):
            if index == cut:
                # Checkpoint cut between two events — mid-gap whenever
                # the next element is bins away — into a fresh monitor.
                state = real.state_dict()
                real = OutageMonitor(params)
                real.load_state(state)
                assert real.total_baseline_entries == (
                    recomputed_baseline_entries(real)
                )
            now += (gap + frac) * width
            if op in ("loss", "recovery"):
                message = session_message(now, subject, loss=op == "loss")
                real.observe_state(message)
                oracle.observe_state(message)
                continue
            element = tagged(
                clock_key(subject),
                time=now,
                pops=tuple(pops or ()),
                withdraw=op == "withdraw",
            )
            assert observe(real, element) == stepping_observe(oracle, element)
            assert real.bins_processed == oracle.bins_processed
            assert real.current_bin_start.hex() == oracle.current_bin_start.hex()
        assert real.close_bin() == oracle.close_bin()
        assert real.state_dict() == oracle.state_dict()
        assert real.total_baseline_entries == recomputed_baseline_entries(real)
        assert real.total_baseline_entries == oracle.total_baseline_entries

    @settings(max_examples=300, deadline=None)
    @given(
        width=st.sampled_from([60.0, 1.0, 0.5, 0.1, 7.3, 1 / 3, 2.0**-20 * 3]),
        start=st.one_of(
            st.sampled_from([0.0, 1.0, 2.0**31 - 120.0, -(2.0**20) - 7.0]),
            st.floats(-1e6, 2e9, allow_nan=False),
        ),
        bins=st.integers(0, 20_000),
        frac=st.floats(-1.0, 1.0),
    )
    def test_cross_bins_equals_repeated_addition(self, width, start, bins, frac):
        until = start + (bins + frac) * width
        edge, crossed = start, 0
        while until >= edge + width:
            edge += width
            crossed += 1
        jumped, count = cross_bins(start, width, until)
        assert (jumped.hex(), count) == (edge.hex(), crossed)


# ----------------------------------------------------------------------
# The one fold against the oracle written from the paper
# ----------------------------------------------------------------------
FOLD_KEYS = tuple(clock_key(i) for i in range(4))
FOLD_PATHS = ((1, 10, 30), (1, 20, 30, 40), (2, 10, 50))
#: The tag set the set-up primes keys 0-2 with: re-announcing it is
#: the steady state the fold's skip path absorbs.
PRIMED_TAGS = ((CLOCK_POPS[0], 10, 30), (CLOCK_POPS[1], 10, 30))

fold_tags = st.one_of(
    st.just(PRIMED_TAGS),
    st.lists(
        st.tuples(
            st.sampled_from(CLOCK_POPS),
            st.sampled_from([10, 20]),
            st.sampled_from([30, None]),
        ),
        max_size=3,
        unique_by=lambda tag: tag[0],
    ).map(tuple),
)
fold_key = st.integers(0, len(FOLD_KEYS) - 1)


def _fold_op(kind: str):
    """``(kind, subject, tags or tracked keys, path)`` for one op kind."""
    if kind in ("announce", "prime"):
        return st.tuples(
            st.just(kind), fold_key, fold_tags, st.sampled_from(FOLD_PATHS)
        )
    if kind == "withdraw":
        return st.tuples(st.just(kind), fold_key, st.none(), st.none())
    if kind == "track":
        keys = st.lists(fold_key, min_size=1, max_size=4)
        return st.tuples(st.just(kind), st.sampled_from(CLOCK_POPS), keys, st.none())
    if kind == "untrack":
        return st.tuples(st.just(kind), st.none(), st.none(), st.none())
    return st.tuples(st.just(kind), st.sampled_from(CLOCK_PEERS), st.none(), st.none())


#: Rows dominate, as on a stream; each control op is one draw in eleven.
fold_op = st.sampled_from(
    ("announce",) * 4
    + ("withdraw",) * 2
    + ("loss", "recovery", "prime", "track", "untrack")
).flatmap(_fold_op)


def fold_row(index, time, tags=None, path=None, withdraw=False, keys=FOLD_KEYS):
    return TaggedPath(
        key=keys[index],
        time=time,
        elem_type=ElemType.WITHDRAWAL if withdraw else ElemType.ANNOUNCEMENT,
        as_path=path or (),
        tags=tuple(PoPTag(pop=p, near_asn=n, far_asn=f) for p, n, f in tags or ()),
        afi=4,
    )


def feed_in_bin_batch(stage, elements):
    """Feed tagged rows and state messages to a monitoring stage as one
    tagged batch; no row may close a bin."""
    assert feed(stage, elements) == []


def watch_op(op, subject, picks, live, keys, *monitors) -> None:
    """The record stage's side of the watch protocol on every monitor:
    ``track`` opens a watch on ``keys[i]`` for ``i`` in ``picks`` at
    PoP ``subject``, ``untrack`` releases the oldest one still open.
    ``live`` holds the open watches in opening order."""
    if op == "track":
        watched = {keys[i] for i in picks}
        live.append((subject, watched))
        for monitor in monitors:
            monitor.watch(subject, watched)
    elif live:
        pop, watched = live.pop(0)
        for monitor in monitors:
            monitor.unwatch(pop, watched)


@pytest.mark.parametrize("share", [None, (1, 3)], ids=["full", "share1of3"])
class TestFoldOracle:
    """One bin of random rows folded by the monitor and by
    ``tests/_fold_oracle.py``: the in-bin state must agree at every
    point where nothing is queued, and at the end.

    Rows reach the monitor as tagged batches (built with the batch's
    own row appenders) cut at random points, and one row per batch
    through ``observe``.  ``prime`` and watch calls
    fall between rows and flush the deferred fold, as they do in the
    chain.  The watch reports must agree too: two open outages share a
    watched path from the start, so releasing one must leave the other
    hearing of it.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(fold_op, st.booleans(), st.booleans()),
            min_size=3,
            max_size=40,
        )
    )
    def test_fold_matches_oracle(self, share, steps):
        monitor = OutageMonitor(share=share)
        stage = BinningMonitorStage(monitor)
        oracle = FoldOracle(share)
        for i in range(3):
            primed = fold_row(i, 0.0, PRIMED_TAGS, FOLD_PATHS[0])
            prime(monitor, primed)
            oracle.prime(primed)
        # Two open outages watch them from the start, sharing two
        # paths: the first release must leave those reported.
        live: list = []
        for picks in ([0, 1, 2], [1, 2, 3]):
            watch_op("track", CLOCK_POPS[0], picks, live, FOLD_KEYS, monitor, oracle)
        queued: list = []

        def check():
            doc = monitor.state_dict()
            sections = ("baseline", "pending", "diverted")
            assert {s: doc[s] for s in sections} == oracle.sections()
            assert monitor.report() == oracle.report()

        def feed_queued():
            if queued:
                feed_in_bin_batch(stage, queued)
                queued.clear()

        for index, ((op, subject, tags, path), via_observe, cut) in enumerate(
            steps
        ):
            when = 1.0 + index  # one bin: [0, 60)
            if cut or via_observe or op in ("prime", "track", "untrack"):
                feed_queued()
            if op == "prime":
                row = fold_row(subject, when, tags, path)
                prime(monitor, row)
                oracle.prime(row)
            elif op in ("track", "untrack"):
                watch_op(op, subject, tags, live, FOLD_KEYS, monitor, oracle)
            elif op in ("loss", "recovery"):
                message = session_message(when, subject, loss=op == "loss")
                oracle.session(subject, op == "loss")
                if via_observe:
                    monitor.observe_state(message)
                else:
                    queued.append(message)
            else:
                row = fold_row(subject, when, tags, path, op == "withdraw")
                oracle.row(row)
                if via_observe:
                    assert observe(monitor, row) == []
                else:
                    queued.append(row)
            if not queued:
                check()
        feed_queued()
        check()
        assert monitor.bins_processed == 0


GAP_PEER = ("rrc00", 100)


@pytest.mark.parametrize("lane", ["batch", "observe"])
class TestGapSnapshot:
    """A deferred run carries the feed-gap set of its deferral.

    The fold runs at bin close, after any state message later in the
    bin, so the set a row is admitted against must be the one current
    when it arrived.  Rows arrive in one tagged batch, or one row per
    batch through ``observe``.
    """

    @staticmethod
    def _feed(monitor, lane, elements):
        if lane == "batch":
            feed_in_bin_batch(BinningMonitorStage(monitor), elements)
            return
        for element in elements:
            if isinstance(element, BGPStateMessage):
                monitor.observe_state(element)
            else:
                assert observe(monitor, element) == []

    def test_row_deferred_in_a_gap_stays_out_after_recovery(self, lane):
        monitor = primed_monitor(10)
        monitor.watch(POP_F, {key(0)})
        self._feed(
            monitor,
            lane,
            [
                session_message(5.0, GAP_PEER, loss=True),
                tagged(key(0), time=10.0, withdraw=True),
                tagged(key(20), time=11.0),
                # Recovery lands in the same bin, before the fold runs.
                session_message(20.0, GAP_PEER, loss=False),
            ],
        )
        assert monitor._events  # nothing folded yet
        assert monitor.close_bin() == []
        assert monitor.report() == {}
        assert len(monitor._entries(POP_F)) == 10
        assert monitor.pending_count == 0

    def test_row_deferred_before_a_loss_is_folded(self, lane):
        monitor = primed_monitor(10)
        self._feed(
            monitor,
            lane,
            [
                tagged(key(0), time=10.0, withdraw=True),
                tagged(key(20), time=11.0),
                session_message(20.0, GAP_PEER, loss=True),
            ],
        )
        assert monitor._events  # nothing folded yet
        doc = monitor.state_dict()
        assert doc["diverted"] == [
            [["facility", "f1"], [["rrc00", 100, "10.0.0.0/24"]]]
        ]
        assert [entry[1] for entry in doc["pending"]] == [
            ["rrc00", 100, "10.0.20.0/24"]
        ]
        assert doc["gapped"] == [["rrc00", 100]]


class TestBinClosingScan:
    """``feed_wire_run`` closes a bin at the first row, in arrival
    order, whose time reaches the bin's end, however unsorted the run:
    the rows before it defer into the open bin, the close returns its
    signals and the bin advanced to, and the call stops at the row's
    own slot, so the row folds into its own bin on the next call."""

    @settings(max_examples=150, deadline=None)
    @given(
        times=st.lists(
            st.one_of(
                st.floats(0.0, 400.0),
                st.sampled_from([59.5, 60.0, 119.0, 120.0, 180.0]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_closes_at_the_first_row_past_the_bin(self, times):
        monitor = OutageMonitor()
        stage = BinningMonitorStage(monitor)
        view = stage.prepare_wire(
            batch_of([tagged(key(i % 5), when) for i, when in enumerate(times)])
        )
        slot = 0
        while slot < len(times):
            start = monitor.current_bin_start
            if start is None:
                start = (times[slot] // 60.0) * 60.0
            closing = next(
                (i for i in range(slot, len(times)) if times[i] >= start + 60.0),
                None,
            )
            emission, slot = stage.feed_wire_run(view, slot)
            if closing is None:
                assert (emission, slot) == (None, len(times))
                break
            assert slot == closing
            _, advanced_to = emission
            bin_start = monitor.current_bin_start
            assert advanced_to == bin_start
            assert bin_start <= times[closing] < bin_start + 60.0


# ----------------------------------------------------------------------
# Promotion: the candidate dict is the queue, checked against the oracle
# ----------------------------------------------------------------------
PROMO_KEYS = tuple(clock_key(i) for i in range(8))
#: Rows over more keys than the fold test, and withdrawals as often as
#: announcements, so candidacies keep starting over.
promo_op = st.one_of(
    st.tuples(
        st.just("announce"),
        st.integers(0, len(PROMO_KEYS) - 1),
        fold_tags,
        st.sampled_from(FOLD_PATHS),
    ),
    st.tuples(
        st.just("withdraw"), st.integers(0, len(PROMO_KEYS) - 1), st.none(), st.none()
    ),
    fold_op,
)
#: Row time offsets from the newest row, in bins: equal timestamps, the
#: same bin, the next bins, a quiet stretch past the window — and
#: negative ones, which arrive out of order.
promo_offset = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.floats(-2.0, 0.0),
    st.floats(-0.5, 0.0),
    st.integers(1, 3).map(float),
    st.integers(4, 40).map(float),
)


def assert_reverse_indexes(monitor) -> None:
    """Everything derived from the baseline store is a function of it:
    the per-AS totals (an AS may stay at 0), the per-key PoP masks, the
    per-peer key index and the entry counter."""
    base = monitor._base
    keys = monitor._keys
    assert all(base.values()), "a PoP with no entries keeps no dict"
    assert monitor._totals.keys() == base.keys()
    for pop_idx, entries in base.items():
        recount = Counter(
            asn
            for near, far, _ in entries.values()
            for asn in (near, far)
            if asn is not None
        )
        totals = monitor._totals[pop_idx]
        assert min(totals.values(), default=0) >= 0
        assert {asn: n for asn, n in totals.items() if n} == dict(recount)
    for key_idx, mask in enumerate(monitor._base_mask):
        assert mask == sum(
            1 << pop_idx for pop_idx, entries in base.items() if key_idx in entries
        )
    in_baseline = {key_idx for entries in base.values() for key_idx in entries}
    assert all(monitor._peer_keys.values())
    assert {
        key_idx for ids in monitor._peer_keys.values() for key_idx in ids
    } == in_baseline
    for peer, ids in monitor._peer_keys.items():
        assert all((keys[k][0], keys[k][1]) == peer for k in ids)
    assert monitor.total_baseline_entries == recomputed_baseline_entries(monitor)


def replay_against_oracle(share, params, steps, cut, probe=None):
    """Drive random rows through bin closes and empty-bin crossings,
    cutting a checkpoint into a fresh monitor before step ``cut``.

    After every close the monitor's signals must be the oracle's, and
    so must its baseline, candidates and watch reports; ``probe``, if
    given, checks the monitor there and after the restore.  At the cut
    the watches are re-opened on the restored monitor after the report
    is taken, as the record stage does.  Returns the monitor and the
    newest row time.
    """
    width = params.bin_interval_s
    monitor = OutageMonitor(params, share=share)
    oracle = FoldOracle(share, params.stable_window_s, params.t_fail)
    for i in range(3):
        primed = fold_row(i, 0.0, PRIMED_TAGS, FOLD_PATHS[0])
        prime(monitor, primed)
        oracle.prime(primed)

    live: list = []

    def check():
        doc = monitor.state_dict()
        sections = oracle.sections()
        assert doc["baseline"] == sections["baseline"]
        assert doc["pending"] == sections["pending"]
        assert monitor.report() == oracle.report()
        if probe is not None:
            probe(monitor)

    newest = 0.0
    for index, ((op, subject, tags, path), offset) in enumerate(steps):
        if index == cut:
            state = monitor.state_dict()
            assert monitor.report() == oracle.report()
            monitor = OutageMonitor(params, share=share)
            monitor.load_state(state)
            if probe is not None:
                probe(monitor)
            for pop, watched in live:
                monitor.watch(pop, watched)
        when = max(0.0, newest + offset * width)
        newest = max(newest, when)
        if op == "prime":
            row = fold_row(subject, when, tags, path, keys=PROMO_KEYS)
            prime(monitor, row)
            oracle.prime(row)
        elif op in ("track", "untrack"):
            watch_op(op, subject, tags, live, PROMO_KEYS, monitor, oracle)
        elif op in ("loss", "recovery"):
            monitor.observe_state(
                session_message(when, subject, loss=op == "loss")
            )
            oracle.session(subject, op == "loss")
        else:
            row = fold_row(
                subject, when, tags, path, op == "withdraw", keys=PROMO_KEYS
            )
            before = monitor.current_bin_start
            signals = observe(monitor, row)
            after = monitor.current_bin_start
            closed = before is not None and after != before
            if closed:
                assert signals == oracle.close_bin(before, before + width)
                oracle.promote(after)  # the empty bins crossed
            else:
                assert signals == []
            oracle.row(row)
            if closed:
                check()
    end = monitor.current_bin_start
    signals = monitor.close_bin()
    if end is not None:
        assert signals == oracle.close_bin(end, end + width)
    check()
    return monitor, newest


@pytest.mark.parametrize("share", [None, (1, 3)], ids=["full", "share1of3"])
class TestPromotionOracle:
    """Random rows through bin closes and empty-bin crossings, with a
    checkpoint cut: after every close the monitor's baseline and
    candidates must be the oracle's (``FoldOracle.close_bin`` and
    ``promote``), and so must the watch reports.  Out-of-order rows
    make late candidates, which may sit in the queue behind a candidate
    that is not due yet."""

    @settings(max_examples=200, deadline=None)
    @given(
        window_bins=st.sampled_from([0.0, 0.5, 1.0, 2.5, 10.0]),
        steps=st.lists(st.tuples(promo_op, promo_offset), min_size=20, max_size=60),
        cut=st.integers(0, 60),
    )
    def test_promotion_matches_oracle(self, share, window_bins, steps, cut):
        params = MonitorParams(stable_window_s=window_bins * 60.0)
        replay_against_oracle(share, params, steps, cut)


def _peer_op(kind: str):
    return st.tuples(st.just(kind), st.sampled_from(CLOCK_PEERS), st.none(), st.none())


#: Bin-close streams: primes build baselines at several PoPs from both
#: peers' keys, and sessions drop and recover often, so a close finds
#: gapped peers with more baseline keys than a PoP's own baseline (the
#: totals are rebuilt) and with fewer (they are subtracted).
close_op = st.one_of(
    st.tuples(
        st.just("prime"),
        st.integers(0, len(PROMO_KEYS) - 1),
        fold_tags,
        st.sampled_from(FOLD_PATHS),
    ),
    promo_op,
    _peer_op("loss"),
    _peer_op("recovery"),
)
#: A gapped peer carrying fewer baseline keys (key 1) than the diverted
#: PoP (keys 0-2): the close subtracts the gapped paths from the totals.
SUBTRACT_STREAM = [
    (("loss", CLOCK_PEERS[1], None, None), 0.0),
    (("withdraw", 0, None, None), 0.5),
    (("announce", 2, PRIMED_TAGS, FOLD_PATHS[0]), 1.0),
]
#: A gapped peer carrying more baseline keys (1, 3, 5) than the diverted
#: PoP (key 4 alone): the close rebuilds the totals from the PoP's
#: entries.
REBUILD_STREAM = [
    (("prime", 3, PRIMED_TAGS, FOLD_PATHS[0]), 0.0),
    (("prime", 5, PRIMED_TAGS, FOLD_PATHS[0]), 0.0),
    (("prime", 4, ((CLOCK_POPS[2], 20, None),), FOLD_PATHS[1]), 0.0),
    (("loss", CLOCK_PEERS[1], None, None), 0.0),
    (("withdraw", 4, None, None), 0.5),
    (("announce", 2, PRIMED_TAGS, FOLD_PATHS[0]), 1.0),
]


@pytest.mark.parametrize("share", [None, (1, 3)], ids=["full", "share1of3"])
class TestBinCloseOracle:
    """``close_bin``'s signals against ``FoldOracle.signals``: per PoP
    with diverted paths, per near- or far-end AS, the diverted share of
    the AS's non-gapped baseline paths against ``t_fail``, with the
    counts, links and sorted keys.  The two explicit examples reach
    both ways the monitor corrects its running totals for gapped peers
    (rebuild and subtract); the rest of the run mixes them."""

    @settings(max_examples=200, deadline=None)
    @given(
        t_fail=st.sampled_from([0.1, 0.34, 0.5, 1.0]),
        window_bins=st.sampled_from([0.0, 1.0, 10.0]),
        steps=st.lists(st.tuples(close_op, promo_offset), min_size=10, max_size=60),
        cut=st.integers(0, 60),
    )
    @example(t_fail=0.1, window_bins=10.0, steps=SUBTRACT_STREAM, cut=60)
    @example(t_fail=0.1, window_bins=10.0, steps=REBUILD_STREAM, cut=60)
    def test_signals_match_oracle(self, share, t_fail, window_bins, steps, cut):
        params = MonitorParams(stable_window_s=window_bins * 60.0, t_fail=t_fail)
        replay_against_oracle(share, params, steps, cut)


@pytest.mark.parametrize("share", [None, (1, 3)], ids=["full", "share1of3"])
class TestReverseIndexes:
    """The baseline's reverse indexes (per-AS totals, per-peer keys,
    per-key PoP masks, the entry counter) follow any stream of primes,
    rows, promotions, closes and a checkpoint restore, and a stream
    that then withdraws every path leaves them all empty."""

    @settings(max_examples=100, deadline=None)
    @given(
        window_bins=st.sampled_from([0.0, 1.0, 10.0]),
        steps=st.lists(st.tuples(close_op, promo_offset), min_size=5, max_size=40),
        cut=st.integers(0, 40),
    )
    def test_indexes_follow_the_baseline(self, share, window_bins, steps, cut):
        params = MonitorParams(stable_window_s=window_bins * 60.0)
        monitor, newest = replay_against_oracle(
            share, params, steps, cut, probe=assert_reverse_indexes
        )
        for peer in CLOCK_PEERS:
            monitor.observe_state(session_message(newest, peer, loss=False))
        for key_idx in range(len(PROMO_KEYS)):
            observe(monitor, 
                fold_row(key_idx, newest + 60.0, withdraw=True, keys=PROMO_KEYS)
            )
        monitor.close_bin()
        assert_reverse_indexes(monitor)
        assert monitor._base == {}
        assert monitor._totals == {}
        assert monitor._peer_keys == {}
        assert not any(monitor._base_mask)
        assert monitor.total_baseline_entries == 0


class TestBoundedPending:
    """Announce/withdraw churn with nothing maturing holds only the live
    candidates: no per-push record outlives its candidacy."""

    KEYS = tuple(("rrc00", 100 + i % 4, f"10.{i}.0.0/16") for i in range(64))
    POPS = (POP_F, POP_C)

    def _assert_bounded(self, monitor, live):
        assert monitor.pending_count == live
        bound = len(self.KEYS) * len(self.POPS)
        for name, value in vars(monitor).items():
            # ``_cols`` is the capped derived-column cache, keyed by
            # pair identity: every one-row run brings its own pair.
            if name != "_cols" and isinstance(value, (list, dict, set)):
                assert len(value) <= bound, name

    def test_sorted_churn_holds_only_live_candidates(self):
        monitor = OutageMonitor()  # two-day window: nothing matures
        when = 0.0
        for cycle in range(200):
            for k in self.KEYS:
                observe(monitor, tagged(k, when, pops=self.POPS))
                when += 0.5
            for k in self.KEYS[cycle % 2 :: 2]:
                observe(monitor, tagged(k, when, withdraw=True))
                when += 0.5
            self._assert_bounded(monitor, len(self.KEYS))
            assert monitor._late == []
        assert monitor.bins_processed > 100
        assert not monitor._base

    def test_unsorted_churn_drops_stale_late_candidates(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "_LATE_COMPACT_MIN", 16)
        monitor = OutageMonitor()
        bin_start = 0.0
        for cycle in range(60):
            # Every row after the first of a bin is older than it: late.
            when = bin_start + 59.0
            for k in self.KEYS:
                observe(monitor, tagged(k, when, pops=self.POPS))
                when -= 0.25
            for k in self.KEYS[cycle % 2 :: 2]:
                observe(monitor, tagged(k, when, withdraw=True))
                when -= 0.25
            bin_start += 60.0
            observe(monitor, tagged(self.KEYS[0], bin_start, pops=self.POPS))
            assert monitor.bins_processed == cycle + 1
            live = len(monitor._pending)
            assert len(monitor._late) <= max(16, 2 * live)
        self._assert_bounded(monitor, len(monitor._pending))

"""Unit tests for the monitoring module (Section 4.2 semantics)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.messages import BGPStateMessage, ElemType, SessionState
from repro.core.input import PoPTag, TaggedPath
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
        monitor.prime(tagged(key(i), time=0.0))
    return monitor


class TestBaseline:
    def test_prime_installs_baseline(self):
        monitor = primed_monitor(5)
        assert monitor.baseline_size(POP_F) == 5

    def test_baseline_links_exposed(self):
        monitor = primed_monitor(3)
        assert monitor.baseline_links(POP_F) == {(10, 30)}
        assert monitor.baseline_far_ases(POP_F) == {30}

    def test_pending_promotion_after_stable_window(self):
        params = MonitorParams(stable_window_s=120.0, bin_interval_s=60.0)
        monitor = OutageMonitor(params)
        monitor.observe(tagged(key(1), time=10.0))
        assert monitor.baseline_size(POP_F) == 0
        # Advance past the stable window with later updates.
        monitor.observe(tagged(key(1), time=70.0))
        monitor.observe(tagged(key(1), time=200.0))
        assert monitor.baseline_size(POP_F) == 1

    def test_tag_flap_resets_pending(self):
        params = MonitorParams(stable_window_s=120.0, bin_interval_s=60.0)
        monitor = OutageMonitor(params)
        monitor.observe(tagged(key(1), time=10.0))
        # Tag disappears: candidate resets.
        monitor.observe(tagged(key(1), time=50.0, pops=()))
        monitor.observe(tagged(key(1), time=130.0))
        monitor.observe(tagged(key(1), time=140.0))
        # Window restarted at t=130: not yet stable at t=200.
        monitor.observe(tagged(key(1), time=200.0))
        assert monitor.baseline_size(POP_F) == 0


class TestDivergence:
    def test_withdrawal_raises_signal(self):
        monitor = primed_monitor(10)
        for i in range(3):
            monitor.observe(tagged(key(i), time=10.0, withdraw=True))
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
            monitor.observe(tagged(key(i), time=10.0, pops=(other,)))
        signals = monitor.close_bin()
        assert signals and signals[0].pop == POP_F

    def test_as_path_change_keeping_tag_is_not_divergence(self):
        monitor = primed_monitor(10)
        monitor.observe(tagged(key(0), time=10.0, path=(1, 2, 10, 30)))
        assert monitor.close_bin() == []

    def test_below_threshold_no_signal(self):
        monitor = primed_monitor(20, t_fail=0.25)
        monitor.observe(tagged(key(0), time=10.0, withdraw=True))
        assert monitor.close_bin() == []

    def test_per_as_grouping_catches_partial_outage(self):
        # 100 paths of a big AS (near=10) plus 5 of a small AS (near=77).
        monitor = OutageMonitor(MonitorParams(t_fail=0.10))
        for i in range(100):
            monitor.prime(tagged(key(i), time=0.0, near=10))
        small_keys = [("rrc00", 100, f"10.9.{i}.0/24") for i in range(5)]
        for k in small_keys:
            monitor.prime(tagged(k, time=0.0, near=77))
        # All of the small AS's paths divert: 5/105 < Tfail overall,
        # but 5/5 for AS77 (the false-negative case of Section 4.2).
        for k in small_keys:
            monitor.observe(tagged(k, time=10.0, withdraw=True))
        signals = monitor.close_bin()
        assert len(signals) == 1
        assert signals[0].near_asn == 77

    def test_diverted_paths_removed_from_baseline(self):
        monitor = primed_monitor(10)
        monitor.observe(tagged(key(0), time=10.0, withdraw=True))
        monitor.close_bin()
        assert monitor.baseline_size(POP_F) == 9

    def test_signal_carries_affected_links(self):
        monitor = primed_monitor(5)
        monitor.observe(tagged(key(0), time=10.0, withdraw=True))
        signals = monitor.close_bin()
        assert signals[0].links == frozenset({(10, 30)})

    def test_multiple_bins_advance(self):
        monitor = primed_monitor(10)
        monitor.observe(tagged(key(0), time=10.0, withdraw=True))
        # An element 3 bins later closes the open bins in order.
        signals = monitor.observe(tagged(key(1), time=200.0))
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
            monitor.observe(tagged(key(i), time=10.0, withdraw=True))
        assert monitor.close_bin() == []

    def test_recovery_resumes_monitoring(self):
        monitor = primed_monitor(10)
        monitor.observe_state(self._loss(5.0))
        monitor.observe_state(self._recovery(6.0))
        for i in range(5):
            monitor.observe(tagged(key(i), time=10.0, withdraw=True))
        assert monitor.close_bin()


class TestReturnTracking:
    def test_fraction_returned(self):
        monitor = primed_monitor(4)
        keys = {key(i) for i in range(4)}
        monitor.start_tracking(POP_F, keys)
        assert monitor.returned_fraction(POP_F) == 0.0
        monitor.observe(tagged(key(0), time=10.0))
        monitor.observe(tagged(key(1), time=11.0))
        assert monitor.returned_fraction(POP_F) == pytest.approx(0.5)

    def test_oscillation_unreturns(self):
        monitor = primed_monitor(2)
        monitor.start_tracking(POP_F, {key(0), key(1)})
        monitor.observe(tagged(key(0), time=10.0))
        monitor.observe(tagged(key(0), time=20.0, withdraw=True))
        assert monitor.returned_fraction(POP_F) == 0.0

    def test_stop_tracking(self):
        monitor = primed_monitor(2)
        monitor.start_tracking(POP_F, {key(0)})
        monitor.stop_tracking(POP_F)
        assert monitor.returned_fraction(POP_F) is None

    def test_last_diverted_exposed_for_tracking(self):
        monitor = primed_monitor(5)
        monitor.observe(tagged(key(0), time=10.0, withdraw=True))
        monitor.close_bin()
        assert monitor.last_diverted.get(POP_F) == {key(0)}


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
                    monitor.prime(
                        tagged(k, time=0.0, pops=(pop,), near=near, far=near + 1000)
                    )
        for k in reversed(keys):
            monitor.observe(tagged(k, time=10.0, withdraw=True))
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
                    monitor.prime(
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
                    monitor.observe(
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
        monitor.prime(tagged(key(i), time=0.0, pops=SHARE_POPS, near=10 + i % 3))
    for i in range(6):
        monitor.observe(tagged(key(i), time=10.0 + i, withdraw=True))
    bins.append(monitor.close_bin())
    monitor.start_tracking(POP_F, {key(i) for i in range(6)})
    for i in range(4):
        monitor.observe(tagged(key(i), time=70.0 + i, pops=SHARE_POPS[:3]))
    bins.append(monitor.close_bin())
    monitor.observe(tagged(key(6), time=130.0, withdraw=True))
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
            for section in ("baseline", "pending", "diverted", "last_diverted"):
                for row in doc[section]:
                    pop = pop_from_json(row[0])
                    assert partition_of(pop, n) == w
                    owned.add((section, pop))
        assert owned == {
            (section, pop_from_json(row[0]))
            for section in ("baseline", "pending", "diverted", "last_diverted")
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
    return sum(len(entries) for entries in monitor.baseline.values())


class TestBaselineEntryCounter:
    """``total_baseline_entries`` is a running counter: pin it to the sum."""

    def test_counter_follows_install_remove_promote_and_restore(self):
        params = MonitorParams(stable_window_s=120.0)
        monitor = OutageMonitor(params)
        for i in range(6):
            monitor.prime(tagged(key(i), time=0.0, pops=(POP_F, POP_C)))
        # Re-priming an installed key replaces the entry, adds nothing.
        monitor.prime(tagged(key(0), time=0.0, pops=(POP_F, POP_C)))
        assert monitor.total_baseline_entries == 12
        monitor.observe(tagged(key(0), time=10.0, withdraw=True))  # removal
        monitor.observe(tagged(key(7), time=20.0))  # candidate
        monitor.observe(tagged(key(1), time=400.0))  # closes, promotes key 7
        assert monitor.total_baseline_entries == 11
        assert monitor.total_baseline_entries == recomputed_baseline_entries(
            monitor
        )
        restored = OutageMonitor(params)
        restored.prime(tagged(key(9), time=0.0))  # wiped by the restore
        restored.load_state(monitor.state_dict())
        assert restored.total_baseline_entries == 11
        assert recomputed_baseline_entries(restored) == 11


# ----------------------------------------------------------------------
# Event-driven bin clock against the stepping clock it replaced
# ----------------------------------------------------------------------
def stepping_observe(monitor, element):
    """``OutageMonitor.observe`` as it was: one close per empty bin.

    Kept as the oracle for the fast-forward — the only place the
    per-bin loop survives.
    """
    signals = []
    if monitor._bin_start is None:
        monitor._bin_start = monitor._bin_floor(element.time)
    width = monitor.params.bin_interval_s
    while element.time >= monitor._bin_start + width:
        signals.extend(monitor.close_bin())
    if (element.key[0], element.key[1]) not in monitor._gapped:
        monitor._events.append(element)
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
                monitor.prime(
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
            assert real.observe(element) == stepping_observe(oracle, element)
            assert real.last_diverted == oracle.last_diverted
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

"""Unit tests for the Kepler chain and its individual stages."""

from __future__ import annotations

import pytest

from repro.bgp.messages import (
    BGPStateMessage,
    BGPUpdate,
    ElemType,
    SessionState,
)
from repro.core.dataplane import NullValidator, ValidationOutcome
from repro.core.events import OutageSignal
from repro.core.input import PoPTag
from repro.core.monitor import MonitorParams, OutageMonitor
from repro.docmine.dictionary import PoP, PoPKind
from repro.core.signals import MIN_POP_LEVEL_ASES
from repro.pipeline import (
    BinningMonitorStage,
    ClassificationStage,
    IngestStage,
    PipelineMetrics,
    PrimingUpdate,
    TaggingStage,
    ValidationCache,
    merge_streams,
)

from _tagged_rows import TaggedPath, feed, fold, prime

POP_F = PoP(PoPKind.FACILITY, "f1")


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


def update(i: int, time: float) -> BGPUpdate:
    return BGPUpdate(
        time=time,
        collector="rrc00",
        peer_asn=100,
        prefix=f"10.0.{i}.0/24",
        elem_type=ElemType.ANNOUNCEMENT,
        as_path=(100, 10, 30),
    )


def state_message(time: float) -> BGPStateMessage:
    return BGPStateMessage(
        time=time,
        collector="rrc00",
        peer_asn=100,
        old_state=SessionState.ESTABLISHED,
        new_state=SessionState.IDLE,
    )


class TestIngestStage:
    def test_counts_element_kinds(self):
        stage = IngestStage()
        stage.feed_batch(
            [
                update(0, 1.0),
                state_message(2.0),
                BGPUpdate(
                    time=3.0,
                    collector="rrc00",
                    peer_asn=100,
                    prefix="10.0.0.0/24",
                    elem_type=ElemType.WITHDRAWAL,
                ),
            ]
        )
        assert (stage.announcements, stage.state_messages, stage.withdrawals) == (1, 1, 1)

    def test_foreign_objects_dropped(self):
        stage = IngestStage()
        first, last = update(0, 1.0), update(1, 2.0)
        assert stage.feed_batch([first, object(), last]) == [first, last]
        assert stage.dropped == 1

    def test_dropped_types_metered_and_checkpointed(self):
        stage = IngestStage()
        assert stage.feed_batch([object(), object(), "not an element"]) == []
        assert stage.dropped == 3
        assert stage.dropped_types == {"object": 2, "str": 1}
        state = stage.state_dict()
        assert state["dropped_types"] == {"object": 2, "str": 1}
        fresh = IngestStage()
        fresh.load_state(state)
        assert fresh.dropped_types == {"object": 2, "str": 1}

    def test_out_of_order_counted_not_dropped(self):
        stage = IngestStage()
        chunk = [update(0, 10.0), update(1, 5.0)]
        assert stage.feed_batch(chunk) == chunk
        assert stage.out_of_order == 1

    def test_merge_streams_sorts_lazily(self):
        a = [update(0, 1.0), update(0, 5.0)]
        b = [update(1, 2.0), update(1, 4.0)]
        merged = list(merge_streams(a, b))
        assert [e.time for e in merged] == [1.0, 2.0, 4.0, 5.0]


class TestBinningMonitorStage:
    def _primed(self, n=10):
        monitor = OutageMonitor(MonitorParams())
        for i in range(n):
            prime(monitor, tagged(key(i), time=0.0))
        return monitor

    def test_emits_signals_then_bin_advanced(self):
        monitor = self._primed()
        metrics = PipelineMetrics()
        stage = BinningMonitorStage(monitor, metrics=metrics)
        rows = [tagged(key(i), time=10.0, withdraw=True) for i in range(3)]
        ((signals, advanced_to),) = feed(
            stage, rows + [tagged(key(5), time=70.0)]
        )
        assert signals and all(s.pop == POP_F for s in signals)
        assert advanced_to == 60.0
        assert metrics.bins.count == 1
        assert metrics.bins.last_baseline_entries == 7

    def test_state_messages_consumed_silently(self):
        stage = BinningMonitorStage(self._primed())
        assert feed(stage, [state_message(5.0)]) == []

    def test_sparse_stream_counts_every_closed_bin(self):
        # One element three bins later closes three bins: the metrics
        # gauge must agree with the monitor's own bin count.
        monitor = self._primed()
        metrics = PipelineMetrics()
        stage = BinningMonitorStage(monitor, metrics=metrics)
        feed(stage, [tagged(key(0), time=10.0, withdraw=True)])
        feed(stage, [tagged(key(1), time=200.0)])
        assert metrics.bins.count == monitor.bins_processed == 3
        # The two empty bins are crossed in one step and metered as one
        # weighted sample: the histogram still counts every bin and the
        # call's latency is still split evenly across them.
        bins = metrics.bins
        assert bins.hist.count == 3
        assert bins.total_latency_s == pytest.approx(3 * bins.max_latency_s)
        assert bins.hist.total == pytest.approx(bins.total_latency_s)

    def test_flush_closes_trailing_bin_without_advance(self):
        monitor = self._primed()
        stage = BinningMonitorStage(monitor)
        feed(stage, [tagged(key(0), time=10.0, withdraw=True)])
        signals = stage.flush()
        assert signals and all(s.pop == POP_F for s in signals)


def signal(pop, near, links, bin_start=0.0):
    return OutageSignal(
        pop=pop,
        near_asn=near,
        bin_start=bin_start,
        bin_end=bin_start + 60.0,
        diverted_paths=len(links),
        baseline_paths=len(links),
        links=frozenset(links),
    )


def classification_stage() -> ClassificationStage:
    return ClassificationStage(
        as2org={}, min_pop_ases=MIN_POP_LEVEL_ASES, correlation_window_s=180.0
    )


class TestClassificationStage:
    def _pop_level_signals(self, bin_start=0.0):
        # 4 disjoint near ASes x 4 disjoint far ASes: PoP-level.
        links = [(n, n + 100) for n in (1, 2, 3, 4)]
        return [
            signal(POP_F, n, [(n, n + 100)], bin_start=bin_start)
            for n, _ in links
        ]

    def test_pop_level_batch_emitted(self):
        stage = classification_stage()
        pop_level, concurrent = stage.feed(self._pop_level_signals())
        assert len(pop_level) == 1
        assert pop_level[0].pop == POP_F
        assert concurrent == {POP_F}
        assert len(stage.signal_log) == 1

    def test_sub_pop_signals_logged_but_not_forwarded(self):
        stage = classification_stage()
        out = stage.feed([signal(POP_F, 1, [(1, 101)])])
        assert out == ([], set())
        assert len(stage.signal_log) == 1

    def test_correlation_window_expires_old_signals(self):
        stage = classification_stage()
        stage.feed([signal(POP_F, 1, [(1, 101)])])
        assert len(stage._window) == 1
        stage.feed([signal(POP_F, 2, [(2, 102)], bin_start=600.0)])
        assert all(s.bin_start == 600.0 for s in stage._window)

    def test_adjacent_bins_correlate_into_pop_level(self):
        # 2 links in bin 0 + 2 links in bin 1: neither bin alone is
        # PoP-level, the correlated window is.
        stage = classification_stage()
        first = [signal(POP_F, n, [(n, n + 100)]) for n in (1, 2)]
        second = [
            signal(POP_F, n, [(n, n + 100)], bin_start=60.0) for n in (3, 4)
        ]
        assert stage.feed(first) == ([], set())
        (pop_level,), _ = stage.feed(second)
        assert len(pop_level.links) == 4


class CountingValidator(NullValidator):
    def __init__(self):
        self.calls = 0

    def validate(self, pop, time):
        self.calls += 1
        return ValidationOutcome.CONFIRMED


class TestValidationCache:
    def test_memoises_per_pop_and_bin(self):
        validator = CountingValidator()
        cache = ValidationCache(validator)
        assert cache.validate(POP_F, 60.0) is ValidationOutcome.CONFIRMED
        assert cache.validate(POP_F, 60.0) is ValidationOutcome.CONFIRMED
        assert validator.calls == 1
        assert (cache.probes, cache.hits) == (1, 1)
        cache.validate(POP_F, 120.0)
        assert validator.calls == 2

    def test_prune_drops_old_bins(self):
        validator = CountingValidator()
        cache = ValidationCache(validator)
        cache.validate(POP_F, 60.0)
        cache.prune(older_than=100.0)
        cache.validate(POP_F, 60.0)
        assert validator.calls == 2

    def test_failed_probe_does_not_poison_the_key(self):
        class FlakyValidator:
            def __init__(self):
                self.calls = 0

            def validate(self, pop, time):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("probe timeout")
                return ValidationOutcome.CONFIRMED

            def restored_fraction(self, pop, time):
                return None

        cache = ValidationCache(FlakyValidator())
        with pytest.raises(RuntimeError):
            cache.validate(POP_F, 60.0)
        # The in-flight marker must not linger: the next caller retries
        # the probe instead of waiting forever on the failed one.
        assert cache.validate(POP_F, 60.0) is ValidationOutcome.CONFIRMED
        assert cache.probes == 1


def _priming_input_module():
    from repro.bgp.communities import Community
    from repro.core.colocation import ColocationMap
    from repro.core.input import InputModule
    from repro.docmine.dictionary import CommunityDictionary, DictionaryEntry

    community = Community(10, 101)
    dictionary = CommunityDictionary(
        entries={
            community: DictionaryEntry(
                community=community,
                pop=POP_F,
                source_url="https://example.test",
                surface="f1",
            )
        }
    )
    return InputModule(dictionary, ColocationMap()), community


def rib_update(community, i=0, communities=True) -> BGPUpdate:
    return BGPUpdate(
        time=0.0,
        collector="rrc00",
        peer_asn=100,
        prefix=f"10.0.{i}.0/24",
        elem_type=ElemType.ANNOUNCEMENT,
        as_path=(100, 10, 30),
        communities=(community,) if communities else (),
    )


class TestStreamingPrime:
    def test_priming_updates_flow_to_baseline(self):
        input_module, community = _priming_input_module()
        monitor = OutageMonitor()
        ingest = IngestStage()
        tagging = TaggingStage(input_module)
        monitoring = BinningMonitorStage(monitor)
        for i in range(3):
            admitted = ingest.feed_batch(
                [PrimingUpdate(update=rib_update(community, i))]
            )
            assert tag_and_fold(tagging, monitoring, admitted) == []
        assert len(monitor._entries(POP_F)) == 3
        # Direct installation: the binning clock has not started.
        assert monitor.current_bin_start is None
        assert monitoring.primed == 3
        assert ingest.priming_updates == 3

    def test_untagged_rib_paths_end_at_tagging(self):
        input_module, community = _priming_input_module()
        monitor = OutageMonitor()
        monitoring = BinningMonitorStage(monitor)
        rib = rib_update(community, communities=False)
        out = tag_and_fold(
            TaggingStage(input_module), monitoring, [PrimingUpdate(update=rib)]
        )
        assert out == []
        assert not monitor._entries(POP_F)
        assert monitoring.primed == 0

    def test_priming_does_not_disturb_stream_order_accounting(self):
        ingest = IngestStage()
        ingest.feed_batch([update(0, 100.0)])
        # A late RIB chunk (snapshot timestamps predate the stream)
        # must not count as an out-of-order stream element.
        input_module, community = _priming_input_module()
        ingest.feed_batch([PrimingUpdate(update=rib_update(community))])
        ingest.feed_batch([update(1, 101.0)])
        assert ingest.out_of_order == 0
        assert ingest.priming_updates == 1


def tag_and_fold(tagging, monitoring, elements) -> list:
    """The tagging -> monitor pair as the chain runs it: tag a chunk
    into one batch and fold it; the monitor's bin closes."""
    return fold(monitoring, tagging.feed_wire(elements))


class TestKeplerPipeline:
    def test_flush_analyses_the_trailing_bin(self):
        # The chain's flush is metered on the monitor (time and
        # signals emitted), and its signals are fed to the analysis
        # stages like those of any bin close.
        from repro.core.colocation import ColocationMap
        from repro.core.kepler import Kepler

        input_module, community = _priming_input_module()
        chain = Kepler(input_module.dictionary, ColocationMap(), {}).pipeline
        chain.feed_many(
            [PrimingUpdate(update=rib_update(community, i)) for i in range(10)]
        )
        chain.feed_many(
            [
                BGPUpdate(
                    time=10.0,
                    collector="rrc00",
                    peer_asn=100,
                    prefix=f"10.0.{i}.0/24",
                    elem_type=ElemType.WITHDRAWAL,
                )
                for i in range(3)
            ]
        )
        assert chain.monitoring.monitor.bins_processed == 0
        metrics = chain.metrics
        assert (metrics.stage("monitor").emitted, metrics.stage("classify").fed) == (0, 0)
        chain.flush()
        assert chain.monitoring.monitor.bins_processed == 1
        (logged,) = chain.signal_log
        assert {s.diverted_paths for s in logged.signals} == {3}
        assert metrics.stage("monitor").emitted == len(logged.signals)
        assert metrics.stage("monitor").seconds > 0
        assert metrics.stage("classify").fed == len(logged.signals)

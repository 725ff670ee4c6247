"""Unit tests for the staged streaming runtime and individual stages."""

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
from repro.pipeline import (
    BinAdvanced,
    BinningMonitorStage,
    ClassificationStage,
    IngestStage,
    PassthroughStage,
    PipelineMetrics,
    SignalBatch,
    StagePipeline,
    TaggingStage,
    ValidationCache,
    merge_streams,
)

from _tagged_rows import TaggedPath, feed, prime

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


class Doubler(PassthroughStage):
    name = "doubler"

    def feed(self, element):
        return [element, element]


class Dropper(PassthroughStage):
    name = "dropper"

    def feed(self, element):
        return [] if element == "drop" else [element]


class Trailer(PassthroughStage):
    name = "trailer"

    def __init__(self):
        self.buffered = []

    def feed(self, element):
        self.buffered.append(element)
        return [element]

    def flush(self):
        return ["trailing"]


class TestStagePipeline:
    def test_elements_thread_through_stages(self):
        pipeline = StagePipeline([Doubler(), Dropper()])
        assert pipeline.feed("x") == ["x", "x"]
        assert pipeline.feed("drop") == []

    def test_metrics_count_fed_and_emitted(self):
        metrics = PipelineMetrics()
        pipeline = StagePipeline([Doubler(), Dropper()], metrics=metrics)
        pipeline.feed("x")
        pipeline.feed("drop")
        assert metrics.stage("doubler").fed == 2
        assert metrics.stage("doubler").emitted == 4
        assert metrics.stage("dropper").fed == 4
        assert metrics.stage("dropper").emitted == 2

    def test_flush_cascades_through_downstream_stages(self):
        pipeline = StagePipeline([Trailer(), Doubler()])
        out = pipeline.flush()
        assert out == ["trailing", "trailing"]

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            StagePipeline([Doubler(), Doubler()])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            StagePipeline([])

    def test_a_monitor_needs_a_wire_tagger_in_front(self):
        monitor = OutageMonitor()
        for stages in (
            [BinningMonitorStage(monitor)],
            [Doubler(), BinningMonitorStage(monitor)],
        ):
            with pytest.raises(ValueError, match="wire tagger"):
                StagePipeline(stages)

    def test_flush_routes_upstream_output_through_the_wire_pair(self):
        # A stage in front of the pair that emits on flush: its output
        # is tagged and folded like any chunk, and the monitor's own
        # flush then closes the bin it opened.
        class Holder(PassthroughStage):
            name = "holder"

            def __init__(self):
                self.held = []

            def feed(self, element):
                self.held.append(element)
                return []

            def flush(self):
                held, self.held = self.held, []
                return held

        input_module, community = _priming_input_module()
        monitor = OutageMonitor()
        for i in range(10):
            prime(monitor, tagged(key(i), time=0.0))
        holder = Holder()
        pipeline = StagePipeline(
            [holder, TaggingStage(input_module), BinningMonitorStage(monitor)]
        )
        withdrawals = [
            BGPUpdate(
                time=10.0,
                collector="rrc00",
                peer_asn=100,
                prefix=f"10.0.{i}.0/24",
                elem_type=ElemType.WITHDRAWAL,
            )
            for i in range(3)
        ]
        assert pipeline.feed_many(withdrawals) == []
        assert monitor.current_bin_start is None
        out = pipeline.flush()
        assert [type(o) for o in out] == [SignalBatch]
        assert {s.diverted_paths for s in out[0].signals} == {3}
        assert pipeline.metrics.stage("tagging").fed == 3

    def test_snapshot_is_json_shaped(self):
        metrics = PipelineMetrics()
        pipeline = StagePipeline([Doubler()], metrics=metrics)
        pipeline.feed("x")
        snap = metrics.snapshot()
        assert snap["stages"][0]["name"] == "doubler"
        assert "bins" in snap
        assert isinstance(metrics.describe(), str)


class TestIngestStage:
    def test_counts_element_kinds(self):
        stage = IngestStage()
        stage.feed(update(0, 1.0))
        stage.feed(state_message(2.0))
        stage.feed(
            BGPUpdate(
                time=3.0,
                collector="rrc00",
                peer_asn=100,
                prefix="10.0.0.0/24",
                elem_type=ElemType.WITHDRAWAL,
            )
        )
        assert (stage.announcements, stage.state_messages, stage.withdrawals) == (1, 1, 1)

    def test_foreign_objects_dropped(self):
        stage = IngestStage()
        assert stage.feed(object()) == []
        assert stage.dropped == 1

    def test_dropped_types_metered_and_checkpointed(self):
        stage = IngestStage()
        stage.feed(object())
        stage.feed(object())
        stage.feed("not an element")
        assert stage.dropped == 3
        assert stage.dropped_types == {"object": 2, "str": 1}
        state = stage.state_dict()
        assert state["dropped_types"] == {"object": 2, "str": 1}
        fresh = IngestStage()
        fresh.load_state(state)
        assert fresh.dropped_types == {"object": 2, "str": 1}

    def test_out_of_order_counted_not_dropped(self):
        stage = IngestStage()
        stage.feed(update(0, 10.0))
        out = stage.feed(update(1, 5.0))
        assert out and stage.out_of_order == 1

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
        out = feed(stage, rows + [tagged(key(5), time=70.0)])
        assert isinstance(out[0], SignalBatch)
        assert isinstance(out[1], BinAdvanced)
        assert out[1].now == 60.0
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
        out = stage.flush()
        assert len(out) == 1 and isinstance(out[0], SignalBatch)

    def test_single_elements_are_refused(self):
        stage = BinningMonitorStage(self._primed())
        for element in (tagged(key(0), time=10.0), state_message(5.0)):
            with pytest.raises(TypeError, match="feed_wire_run"):
                stage.feed(element)
        tagging = TaggingStage(_priming_input_module()[0])
        with pytest.raises(TypeError, match="feed_wire"):
            tagging.feed(update(0, 1.0))


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


class TestClassificationStage:
    def _pop_level_signals(self, bin_start=0.0):
        # 4 disjoint near ASes x 4 disjoint far ASes: PoP-level.
        links = [(n, n + 100) for n in (1, 2, 3, 4)]
        return [
            signal(POP_F, n, [(n, n + 100)], bin_start=bin_start)
            for n, _ in links
        ]

    def test_pop_level_batch_emitted(self):
        stage = ClassificationStage(as2org={})
        out = stage.feed(SignalBatch(self._pop_level_signals()))
        assert len(out) == 1
        assert out[0].pop_level[0].pop == POP_F
        assert out[0].concurrent == {POP_F}
        assert len(stage.signal_log) == 1

    def test_sub_pop_signals_logged_but_not_forwarded(self):
        stage = ClassificationStage(as2org={})
        out = stage.feed(SignalBatch([signal(POP_F, 1, [(1, 101)])]))
        assert out == []
        assert len(stage.signal_log) == 1

    def test_correlation_window_expires_old_signals(self):
        stage = ClassificationStage(as2org={}, correlation_window_s=180.0)
        stage.feed(SignalBatch([signal(POP_F, 1, [(1, 101)])]))
        assert len(stage._window) == 1
        stage.feed(SignalBatch([signal(POP_F, 2, [(2, 102)], bin_start=600.0)]))
        assert all(s.bin_start == 600.0 for s in stage._window)

    def test_adjacent_bins_correlate_into_pop_level(self):
        # 2 links in bin 0 + 2 links in bin 1: neither bin alone is
        # PoP-level, the correlated window is.
        stage = ClassificationStage(as2org={})
        first = [signal(POP_F, n, [(n, n + 100)]) for n in (1, 2)]
        second = [
            signal(POP_F, n, [(n, n + 100)], bin_start=60.0) for n in (3, 4)
        ]
        assert stage.feed(SignalBatch(first)) == []
        out = stage.feed(SignalBatch(second))
        assert len(out) == 1
        assert len(out[0].pop_level[0].links) == 4

    def test_markers_pass_through(self):
        stage = ClassificationStage(as2org={})
        marker = BinAdvanced(now=60.0)
        assert stage.feed(marker) == [marker]


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


class TestFlushMetering:
    def test_flush_cost_lands_in_stage_seconds(self):
        class SlowTrailer(PassthroughStage):
            name = "slow-trailer"

            def flush(self):
                import time as _time

                _time.sleep(0.01)
                return ["trailing"]

        metrics = PipelineMetrics()
        pipeline = StagePipeline([SlowTrailer(), Doubler()], metrics=metrics)
        out = pipeline.flush()
        assert out == ["trailing", "trailing"]
        # End-of-stream cost is part of the per-stage profile.
        assert metrics.stage("slow-trailer").seconds >= 0.01
        assert metrics.stage("slow-trailer").emitted == 1
        # The cascade into downstream stages is metered as ordinary feed.
        assert metrics.stage("doubler").fed == 1
        assert metrics.stage("doubler").emitted == 2


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


class TestStreamingPrime:
    def _rib_update(self, community, i=0, communities=True):
        return BGPUpdate(
            time=0.0,
            collector="rrc00",
            peer_asn=100,
            prefix=f"10.0.{i}.0/24",
            elem_type=ElemType.ANNOUNCEMENT,
            as_path=(100, 10, 30),
            communities=(community,) if communities else (),
        )

    def test_priming_updates_flow_to_baseline(self):
        from repro.pipeline import PrimingUpdate, TaggingStage

        input_module, community = _priming_input_module()
        monitor = OutageMonitor()
        ingest = IngestStage()
        monitoring = BinningMonitorStage(monitor)
        pipeline = StagePipeline(
            [ingest, TaggingStage(input_module), monitoring]
        )
        for i in range(3):
            out = pipeline.feed(
                PrimingUpdate(update=self._rib_update(community, i))
            )
            assert out == []
        assert len(monitor._entries(POP_F)) == 3
        # Direct installation: the binning clock has not started.
        assert monitor.current_bin_start is None
        assert monitoring.primed == 3
        assert ingest.priming_updates == 3

    def test_untagged_rib_paths_end_at_tagging(self):
        from repro.pipeline import PrimingUpdate, TaggingStage

        input_module, community = _priming_input_module()
        monitor = OutageMonitor()
        tagging = TaggingStage(input_module)
        monitoring = BinningMonitorStage(monitor)
        pipeline = StagePipeline([tagging, monitoring])
        out = pipeline.feed(
            PrimingUpdate(
                update=self._rib_update(community, communities=False)
            )
        )
        assert out == []
        assert not monitor._entries(POP_F)
        assert monitoring.primed == 0

    def test_priming_does_not_disturb_stream_order_accounting(self):
        from repro.pipeline import PrimingUpdate

        ingest = IngestStage()
        ingest.feed(update(0, 100.0))
        # A late RIB chunk (snapshot timestamps predate the stream)
        # must not count as an out-of-order stream element.
        input_module, community = _priming_input_module()
        ingest.feed(PrimingUpdate(update=self._rib_update(community)))
        ingest.feed(update(1, 101.0))
        assert ingest.out_of_order == 0
        assert ingest.priming_updates == 1

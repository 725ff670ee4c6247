"""Admission staging in the ``Kepler`` facade: timing moves, output never.

``Kepler.process`` stages what it is handed and runs the chain once per
bin (or per ``feed_chunk`` elements, or when anything reads detector
state).  These tests pin the contract from the outside:

* any partition of a stream into calls, interleaved with any reads,
  yields the output of one ``process(stream)``; every intermediate read
  equals the same read on a reference detector fed the same prefix
  through ``pipeline.feed_many`` directly (no staging); a snapshot
  taken mid-buffer restores into any layout and finishes identically;
* a one-element-per-call replay runs the chain about once per bin
  (counted in metered tagging batches — no timers);
* an element that opens a bin of the stream is never held back, so the
  no-flush stage views show its bin close when its call returns — also
  on a stream with empty bins between elements;
* a chain run that raises is not fed again;
* ``metrics_live()`` from a second thread never perturbs the output.
"""

from __future__ import annotations

import gc
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_columnar_properties import _checkpoint_bytes
from test_live_sampling_identity import END_TIME, Poller, make_kepler, observed
from test_pipeline_equivalence import FIRST_WORLD, prepared
from repro.core.dataplane import ValidationOutcome
from repro.core.kepler import CHECKPOINT_VERSION, KeplerParams
from repro.pipeline import PrimingUpdate
from repro.scenarios import build_world

#: Small enough that the scenario's dense bins (> 1,000 elements) hit
#: the ``feed_chunk`` bound, and that a "> feed_chunk" call is cheap.
SMALL_CHUNK = 256


@pytest.fixture(scope="module")
def scenario() -> tuple:
    return prepared(build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD))


def primed(scenario, **params):
    world, snapshot, _ = scenario
    detector = make_kepler(world, KeplerParams(**params))
    detector.prime(snapshot)
    return detector


@pytest.fixture(scope="module")
def ground_truth(scenario) -> tuple:
    """One ``process(stream)`` call: the output every partition must give."""
    detector = primed(scenario)
    detector.process(scenario[2])
    detector.finalize(end_time=END_TIME)
    return observed(detector)


def staged_depth(detector) -> int:
    return detector.metrics_live()["depths"]["staged"]


def counts(detector) -> tuple:
    """The stream-determined part of a metrics snapshot (flushing read)."""
    snap = detector.metrics.snapshot()
    return (
        [(row["name"], row["fed"], row["emitted"]) for row in snap["stages"]],
        snap["bins"]["bins_closed"],
    )


def stage_row(snap: dict, name: str) -> dict:
    return next(row for row in snap["stages"] if row["name"] == name)


def open_view(detector) -> list:
    return sorted((str(pop), rec.start) for pop, rec in detector.open.items())


READS = {
    "records": lambda d: observed(d)[0],
    "open": open_view,
    "metrics": counts,
    "snapshot": _checkpoint_bytes,
}

call_sizes = st.one_of(
    st.sampled_from([0, 1, 2, 3]),
    st.just("bin"),
    st.just(SMALL_CHUNK + 7),
)
steps = st.lists(
    st.tuples(
        call_sizes,
        st.sampled_from([list, tuple, iter]),
        st.sampled_from([None, None, *READS]),
    ),
    min_size=1,
    max_size=40,
)


class TestAnyPartitionAnyReads:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_partition_and_reads_match_reference(
        self, scenario, ground_truth, data
    ):
        world, _, elements = scenario
        detector = primed(scenario, feed_chunk=SMALL_CHUNK)
        reference = primed(scenario, feed_chunk=SMALL_CHUNK)
        # Start anywhere in the stream so the small calls land on quiet
        # stretches and on the outage bursts alike.
        pos = data.draw(st.integers(0, len(elements) - 1), label="skip")
        detector.process(elements[:pos])
        ref_pos = 0
        plan = data.draw(steps, label="steps")
        resume_at = data.draw(st.integers(0, len(plan) - 1), label="resume_at")
        for index, (size, container, read) in enumerate(plan):
            if size == "bin":
                edge = (elements[pos].time // 60.0 + 1) * 60.0
                stop = pos
                while stop < len(elements) and elements[stop].time < edge:
                    stop += 1
            else:
                stop = min(len(elements), pos + size)
            detector.process(container(elements[pos:stop]))
            pos = stop
            if read is not None:
                reference.pipeline.feed_many(elements[ref_pos:pos])
                ref_pos = pos
                assert READS[read](detector) == READS[read](reference), read
            if index == resume_at:
                self.check_resume(scenario, detector, pos, ground_truth)
            if pos == len(elements):
                break
        detector.process(elements[pos:])
        detector.finalize(end_time=END_TIME)
        assert observed(detector) == ground_truth

    @staticmethod
    def check_resume(scenario, detector, pos, ground_truth):
        """A (possibly mid-buffer) snapshot finishes in a fresh detector."""
        world, _, elements = scenario
        doc = detector.snapshot()
        assert doc["version"] == CHECKPOINT_VERSION
        assert staged_depth(detector) == 0
        fresh = make_kepler(world, KeplerParams())
        try:
            fresh.restore(json.loads(json.dumps(doc)))
            fresh.process(elements[pos:])
            fresh.finalize(end_time=END_TIME)
            assert observed(fresh) == ground_truth
        finally:
            fresh.close()


class TestChainRunsPerBinNotPerCall:
    @pytest.mark.parametrize("feed_chunk", [4096, SMALL_CHUNK])
    def test_per_element_replay_meters_about_one_batch_per_bin(
        self, scenario, feed_chunk
    ):
        _, _, elements = scenario
        chunked = primed(scenario, feed_chunk=feed_chunk)
        chunked.process(elements)
        chunked.finalize(end_time=END_TIME)

        detector = primed(scenario, feed_chunk=feed_chunk)
        before = stage_row(detector.metrics.snapshot(), "tagging")["batches"]
        for element in elements:
            detector.process([element])
        detector.finalize(end_time=END_TIME)
        after = detector.metrics.snapshot()

        bins = len({element.time // 60.0 for element in elements})
        batches = stage_row(after, "tagging")["batches"] - before
        assert batches <= bins + len(elements) // feed_chunk + 1
        assert counts(detector) == counts(chunked)
        assert observed(detector) == observed(chunked)

    def test_lazy_source_is_staged_a_chunk_at_a_time(self, scenario, ground_truth):
        _, _, elements = scenario
        detector = primed(scenario, feed_chunk=SMALL_CHUNK)
        depths = []

        def source():
            for index, element in enumerate(elements):
                if index % 97 == 0:
                    depths.append(staged_depth(detector))
                yield element

        detector.process(source())
        detector.finalize(end_time=END_TIME)
        assert max(depths) < SMALL_CHUNK
        assert observed(detector) == ground_truth


class TestBinOpeningElementIsNeverHeldBack:
    @pytest.mark.parametrize("stride", [1, 50])
    def test_new_bin_runs_the_chain_in_the_same_call(self, scenario, stride):
        """An element in a later bin than its predecessor may close the
        monitor's bin, so its call leaves nothing staged and the
        no-flush stage views match an unbuffered chain's — records
        included.  ``stride=50`` leaves empty bins between elements:
        the first element staged is then itself the one to run."""
        _, _, elements = scenario
        stream = elements[::stride]
        detector = primed(scenario)
        reference = primed(scenario)
        previous_bin = None
        opened = gaps = records_seen = 0
        for element in stream:
            detector.process([element])
            reference.pipeline.feed_many([element])
            this_bin = element.time // 60.0
            if this_bin != previous_bin:
                opened += 1
                gaps += previous_bin is not None and this_bin > previous_bin + 1
                previous_bin = this_bin
                assert staged_depth(detector) == 0
                # ``pipeline`` views do not flush: this is what already ran.
                live, want = detector.pipeline, reference.pipeline
                assert (
                    live.metrics.snapshot()["bins"]["bins_closed"]
                    == want.metrics.snapshot()["bins"]["bins_closed"]
                )
                assert [r.start for r in live.records] == [
                    r.start for r in want.records
                ]
                assert len(live.signal_log) == len(want.signal_log)
                assert set(live.open) == set(want.open)
                records_seen = max(records_seen, len(live.records))
        if stride == 1:
            assert opened < len(stream) // 10, "scenario has no dense bins"
            assert records_seen > 0, "scenario closed no record mid-stream"
        else:
            assert gaps > opened // 2, "stride left no empty bins"


class FailsOnce:
    """Data-plane stub whose first probe raises (a poisoned batch)."""

    def __init__(self) -> None:
        self.failed = False

    def validate(self, pop, time):
        if not self.failed:
            self.failed = True
            raise RuntimeError("probe backend down")
        return ValidationOutcome.INCONCLUSIVE

    def restored_fraction(self, pop, time):
        return None


class TestFailedRunIsNotFedAgain:
    def test_raise_surfaces_once_and_the_batch_is_gone(self, scenario):
        world, snapshot, elements = scenario
        detector = world.make_kepler(validator=FailsOnce())
        detector.prime(snapshot)
        primed_fed = stage_row(detector.metrics.snapshot(), "ingest")["fed"]
        raised = 0
        for element in elements:
            try:
                detector.process([element])
            except RuntimeError:
                raised += 1
                # Detached before the chain ran: nothing left to re-feed.
                assert staged_depth(detector) == 0
        assert raised == 1
        detector.finalize(end_time=END_TIME)
        fed = stage_row(detector.metrics.snapshot(), "ingest")["fed"]
        # Ingest admits a whole batch before the chain threads it, so a
        # re-fed batch would be counted twice.
        assert fed - primed_fed == len(elements)


class TestLiveSamplingDuringPerElementLoop:
    def test_hostile_poller_changes_nothing(self, scenario, ground_truth):
        """``metrics_live`` reads the buffer's length and never runs it;
        a short switch interval lands polls between and inside calls."""
        _, _, elements = scenario
        detector = primed(scenario)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Poller(detector, period_s=0.0002) as poller:
                for element in elements:
                    detector.process([element])
                detector.finalize(end_time=END_TIME)
        finally:
            sys.setswitchinterval(interval)
        assert not poller.errors, poller.errors[:1]
        assert poller.samples, "poller never sampled"
        assert all(s["depths"]["staged"] < 4096 for s in poller.samples)
        assert observed(detector) == ground_truth
        assert staged_depth(detector) == 0


class TestEdgesOfTheBuffer:
    @pytest.mark.parametrize("empty", [list, tuple, iter], ids=lambda f: f.__name__)
    def test_empty_call_leaves_the_collector_alone(
        self, scenario, monkeypatch, empty
    ):
        detector = primed(scenario)
        calls = []
        monkeypatch.setattr(gc, "set_threshold", lambda *a: calls.append(a))
        detector.process(empty(()))
        assert calls == []

    def test_prime_mid_stream_keeps_its_position(self, scenario):
        _, snapshot, elements = scenario
        cut = 40
        detector = primed(scenario)
        reference = primed(scenario)
        for element in elements[:cut]:
            detector.process([element])
        assert staged_depth(detector) > 0
        reference.pipeline.feed_many(elements[:cut])
        for target in (detector, reference):
            target.prime(snapshot[:25])
        assert staged_depth(detector) == 0
        for target in (detector, reference):
            target.process(elements[cut:])
            target.finalize(end_time=END_TIME)
        assert observed(detector) == observed(reference)
        assert _checkpoint_bytes(detector) == _checkpoint_bytes(reference)

    def test_timeless_elements_run_at_once(self, scenario):
        """A priming update or a foreign object has no ``time``: it is
        handed to the chain (ingest admits or drops it), not held."""
        _, snapshot, elements = scenario
        detector = primed(scenario)
        detector.process(elements[:10])
        detector.process([elements[10], PrimingUpdate(update=snapshot[0])])
        assert staged_depth(detector) == 0
        detector.process([elements[11]])
        assert staged_depth(detector) == 1
        detector.process([object()])
        assert staged_depth(detector) == 0
        assert detector.pipeline.ingest.dropped == 1

    def test_restore_clears_and_close_discards(self, scenario):
        world, _, elements = scenario
        detector = primed(scenario)
        detector.process(elements[:10])
        doc = detector.snapshot()
        fed = stage_row(detector.metrics.snapshot(), "ingest")["fed"]
        detector.process(elements[10:13])
        assert staged_depth(detector) == 3

        fresh = make_kepler(world, KeplerParams())
        fresh.process(elements[:1])
        fresh.process(elements[1:3])
        assert staged_depth(fresh) == 2
        fresh.restore(doc)
        assert staged_depth(fresh) == 0
        assert stage_row(fresh.metrics.snapshot(), "ingest")["fed"] == fed

        detector.close()
        assert stage_row(detector.pipeline.metrics.snapshot(), "ingest")["fed"] == fed

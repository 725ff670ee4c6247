"""The sharded collector ingest tier (repro.ingest).

Three layers of guarantees:

* **The watermark merge core** is deterministic and exactly
  reproduces :func:`repro.pipeline.ingest.merge_streams` over the
  per-feed streams — hypothesis-pinned over arbitrary per-feed
  interleavings with duplicate timestamps, arbitrary delivery
  chunkings, feed counts and checkpoint cut points (the documented
  tie-break: ascending ``(sort key, feed index)``, per-feed FIFO).
* **The tier is a pure execution detail of the Kepler facade**: with
  ``KeplerParams(ingest_feeds=N)``, records, signal log, rejects and
  the per-stage counters are byte-identical to the driver ingest path
  on the same stream, composed with either runtime (linear,
  shard-process), for both the merged-stream
  ``process`` path and per-collector ``process_feeds`` sources —
  forked or, where the platform cannot fork, merged in the driver.
  ``process`` *is* the driver ingest path under every layout, so even
  a reordered stream gives layout-free output and checkpoint bytes.
* **Checkpoints are ingest-layout-free**: the canonical document's
  ingest section is identical whichever layout wrote it, and a
  snapshot taken under any ``ingest_feeds`` layout restores into any
  other with identical continued output.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_pipeline_equivalence import (
    FIRST_WORLD,
    SECOND_WORLD,
    DeterministicValidator,
    prepared,
    record_fields,
)
from repro.bgp.messages import BGPUpdate, ElemType
from repro.core.kepler import Kepler, KeplerParams
from repro.ingest import WatermarkMerge, feed_of, split_by_collector
from repro.pipeline import fork_available, merge_streams
from repro.scenarios import World, build_world

END_TIME = 80_000.0

needs_fork = pytest.mark.skipif(
    not fork_available(),
    reason="runtime requires the fork start method",
)


@pytest.fixture(scope="module")
def world_a() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD)
    )


@pytest.fixture(scope="module")
def world_b() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=SECOND_WORLD.seed, world_params=SECOND_WORLD)
    )


def make_kepler(
    world: World, params: KeplerParams, with_validator: bool
) -> Kepler:
    return Kepler(
        dictionary=world.dictionary,
        colo=world.colo,
        as2org=world.as2org,
        params=params,
        validator=DeterministicValidator() if with_validator else None,
    )


def observed(detector: Kepler) -> tuple[list, list, list]:
    return (
        [record_fields(r) for r in detector.records],
        [
            (c.pop, c.signal_type, c.bin_start, c.bin_end)
            for c in detector.signal_log
        ],
        [(c.pop, c.bin_start) for c in detector.rejected],
    )


def full_run(
    replay: tuple[World, list, list],
    params: KeplerParams,
    with_validator: bool,
    via_feeds: bool = False,
) -> tuple[list, list, list]:
    world, snapshot, elements = replay
    detector = make_kepler(world, params, with_validator)
    try:
        detector.prime(snapshot)
        if via_feeds:
            detector.process_feeds(split_by_collector(elements))
        else:
            detector.process(elements)
        detector.finalize(end_time=END_TIME)
        return observed(detector)
    finally:
        detector.close()


# ----------------------------------------------------------------------
# The watermark merge core (hypothesis)
# ----------------------------------------------------------------------
def _element(time: float, collector: str, prefix: str) -> BGPUpdate:
    return BGPUpdate(
        time=time,
        collector=collector,
        peer_asn=64_500,
        prefix=prefix,
        elem_type=ElemType.WITHDRAWAL,
    )


#: Deliberately tiny domains: duplicate sort keys (same time, same
#: collector, same prefix) and cross-feed equal timestamps are the
#: norm, not the exception, in the generated streams.
_elements = st.lists(
    st.builds(
        _element,
        time=st.integers(min_value=0, max_value=5).map(float),
        collector=st.sampled_from(["rrc00", "rrc01", "rrc03"]),
        prefix=st.sampled_from(["10.0.0.0/24", "10.1.0.0/24"]),
    ),
    max_size=24,
)


def _sorted_feeds(
    elements: list[BGPUpdate], n_feeds: int
) -> list[list[BGPUpdate]]:
    """Round-robin the union over N feeds, each feed time-sorted."""
    feeds: list[list[BGPUpdate]] = [[] for _ in range(n_feeds)]
    for index, element in enumerate(elements):
        feeds[index % n_feeds].append(element)
    for feed in feeds:
        feed.sort(key=lambda e: e.sort_key())
    return feeds


def _drive(
    merge: WatermarkMerge,
    feeds: list[list[BGPUpdate]],
    chunking: list[int],
) -> list[BGPUpdate]:
    """Deliver feed chunks in a data-driven interleaving; collect releases.

    ``chunking`` picks, per step, which feed publishes next and how
    many elements it publishes — arbitrary concurrency schedules,
    deterministically replayed.
    """
    out: list[BGPUpdate] = []
    cursors = [0] * len(feeds)
    step = 0
    while any(cursors[f] < len(feeds[f]) for f in range(len(feeds))):
        choice = chunking[step % len(chunking)] if chunking else 0
        step += 1
        fid = choice % len(feeds)
        if cursors[fid] >= len(feeds[fid]):
            fid = next(
                f for f in range(len(feeds)) if cursors[f] < len(feeds[f])
            )
        size = 1 + (choice // len(feeds)) % 4
        batch = feeds[fid][cursors[fid] : cursors[fid] + size]
        cursors[fid] += size
        merge.push(
            fid,
            [(e.sort_key(), e) for e in batch],
            batch[-1].sort_key(),
        )
        out.extend(merge.release())
    for fid in range(len(feeds)):
        merge.end_of_run(fid)
    out.extend(merge.release())
    return out


class TestWatermarkMerge:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        elements=_elements,
        n_feeds=st.integers(min_value=1, max_value=4),
        chunking=st.lists(
            st.integers(min_value=0, max_value=15), max_size=24
        ),
    )
    def test_release_order_equals_merge_streams(
        self, elements, n_feeds, chunking
    ):
        """Any interleaving releases exactly merge_streams(*feeds)."""
        feeds = _sorted_feeds(elements, n_feeds)
        reference = list(merge_streams(*feeds))
        merge = WatermarkMerge(n_feeds)
        merge.begin_run()
        released = _drive(merge, feeds, chunking)
        assert released == reference
        assert merge.drained
        assert merge.late_elements == 0
        assert merge.released == len(reference)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        elements=_elements,
        cut=st.integers(min_value=0, max_value=24),
        first_feeds=st.integers(min_value=1, max_value=4),
        second_feeds=st.integers(min_value=1, max_value=4),
        chunking=st.lists(
            st.integers(min_value=0, max_value=15), max_size=16
        ),
    )
    def test_cursor_survives_checkpoint_cut_into_any_feed_count(
        self, elements, cut, first_feeds, second_feeds, chunking
    ):
        """Cut anywhere, restore the cursor into any layout, continue.

        The canonical cursor is just the release clock; a fresh merge
        with a different feed count continues the stream exactly where
        the first left off, with identical combined output.
        """
        elements.sort(key=lambda e: e.sort_key())
        cut = min(cut, len(elements))
        first_part, second_part = elements[:cut], elements[cut:]

        reference = list(
            merge_streams(*_sorted_feeds(first_part, first_feeds))
        ) + list(merge_streams(*_sorted_feeds(second_part, second_feeds)))

        first = WatermarkMerge(first_feeds)
        first.begin_run()
        released = _drive(first, _sorted_feeds(first_part, first_feeds), chunking)

        second = WatermarkMerge(second_feeds)
        second.set_cursor(first.last_time)  # the checkpointed cursor
        second.begin_run()
        released += _drive(
            second, _sorted_feeds(second_part, second_feeds), chunking
        )
        assert released == reference
        # Sorted input across the cut: nothing can arrive late.
        assert first.late_elements == 0 and second.late_elements == 0

    def test_min_watermark_gates_release(self):
        merge = WatermarkMerge(2)
        merge.begin_run()
        early = _element(1.0, "rrc00", "10.0.0.0/24")
        merge.push(0, [(early.sort_key(), early)], early.sort_key())
        # Feed 1 has made no promise yet: nothing may be released.
        assert merge.release() == []
        late_wm = _element(5.0, "rrc01", "10.0.0.0/24")
        merge.push(1, [], late_wm.sort_key())
        assert merge.release() == [early]

    def test_slow_feed_holds_watermark_but_eor_drains(self):
        merge = WatermarkMerge(3)
        merge.begin_run()
        a = _element(2.0, "rrc00", "10.0.0.0/24")
        merge.push(0, [(a.sort_key(), a)], a.sort_key())
        merge.push(1, [], _element(9.0, "rrc01", "x").sort_key())
        assert merge.release() == []  # feed 2 is silent
        merge.end_of_run(2)
        merge.end_of_run(1)
        merge.end_of_run(0)
        assert merge.release() == [a]
        assert merge.drained

    def test_late_element_is_surfaced_not_reordered(self):
        merge = WatermarkMerge(2)
        merge.begin_run()
        on_time = _element(5.0, "rrc00", "10.0.0.0/24")
        merge.push(0, [(on_time.sort_key(), on_time)], on_time.sort_key())
        merge.push(1, [], on_time.sort_key())
        assert merge.release() == [on_time]
        # A feed violates its promise: the element is released (next,
        # in arrival order — history cannot be rewritten) and counted.
        late = _element(1.0, "rrc01", "10.0.0.0/24")
        merge.push(1, [(late.sort_key(), late)], None)
        merge.end_of_run(0)
        merge.end_of_run(1)
        assert merge.release() == [late]
        assert merge.late_elements == 1
        assert merge.last_time == 5.0  # the clock never rewinds

    def test_cursor_restore_requires_drained_merge(self):
        merge = WatermarkMerge(1)
        element = _element(1.0, "rrc00", "10.0.0.0/24")
        merge.push(0, [(element.sort_key(), element)], None)
        with pytest.raises(RuntimeError, match="non-empty"):
            merge.set_cursor(42.0)

    def test_feed_of_is_stable_and_in_range(self):
        for feeds in (1, 2, 3, 8):
            for collector in ("rrc00", "rrc01", "route-views2"):
                fid = feed_of(collector, feeds)
                assert 0 <= fid < feeds
                assert fid == feed_of(collector, feeds)


class TestWireSortKey:
    def test_matches_element_sort_keys(self):
        from repro.bgp.messages import BGPStateMessage, SessionState
        from repro.core.serde import element_to_wire, wire_sort_key

        update = _element(3.0, "rrc00", "10.0.0.0/24")
        assert wire_sort_key(element_to_wire(update)) == update.sort_key()
        state = BGPStateMessage(
            time=4.0,
            collector="rrc01",
            peer_asn=64_500,
            old_state=SessionState.ESTABLISHED,
            new_state=SessionState.IDLE,
        )
        assert wire_sort_key(element_to_wire(state)) == state.sort_key()

    def test_rejects_unkeyed_vocabulary(self):
        from repro.core.serde import wire_sort_key

        with pytest.raises(ValueError, match="sort key"):
            wire_sort_key(["ba", 60.0])


# ----------------------------------------------------------------------
# Facade identity across runtimes
# ----------------------------------------------------------------------
class TestIngestTierIdentity:
    def test_world_a_linear_chain(self, world_a):
        linear = full_run(world_a, KeplerParams(), True)
        assert linear[0], "scenario produced no records to compare"
        tier = full_run(world_a, KeplerParams(ingest_feeds=3), True)
        assert tier == linear

    @needs_fork
    def test_world_a_shard_processes(self, world_a):
        linear = full_run(world_a, KeplerParams(), True)
        tier = full_run(
            world_a,
            KeplerParams(
                ingest_feeds=2, shard_processes=2, process_batch=256
            ),
            True,
        )
        assert tier == linear

    def test_world_b_control_plane(self, world_b):
        linear = full_run(world_b, KeplerParams(), False)
        assert linear[0], "scenario produced no records to compare"
        tier = full_run(world_b, KeplerParams(ingest_feeds=4), False)
        assert tier == linear

    @needs_fork
    def test_world_b_shard_processes(self, world_b):
        linear = full_run(world_b, KeplerParams(), False)
        tier = full_run(
            world_b,
            KeplerParams(
                ingest_feeds=3, shard_processes=2, process_batch=256
            ),
            False,
        )
        assert tier == linear

    def test_world_a_collector_sources(self, world_a):
        """process_feeds over per-collector sources == process(merged)."""
        linear = full_run(world_a, KeplerParams(), True)
        tier = full_run(
            world_a, KeplerParams(ingest_feeds=3), True, via_feeds=True
        )
        assert tier == linear

    @needs_fork
    def test_world_b_collector_sources_into_shard_processes(self, world_b):
        """Forked feed workers hand wire batches to shard processes."""
        linear = full_run(world_b, KeplerParams(), False)
        tier = full_run(
            world_b,
            KeplerParams(
                ingest_feeds=3, shard_processes=2, process_batch=256
            ),
            False,
            via_feeds=True,
        )
        assert tier == linear

    def test_stage_counters_match_driver_ingest_path(self, world_a):
        world, snapshot, elements = world_a
        linear = make_kepler(world, KeplerParams(), False)
        tier = make_kepler(world, KeplerParams(ingest_feeds=3), False)
        try:
            for detector in (linear, tier):
                detector.prime(snapshot)
                detector.process(elements[: len(elements) // 2])
            linear_stages = {
                s["name"]: s for s in linear.metrics.snapshot()["stages"]
            }
            tier_stages = {
                s["name"]: s for s in tier.metrics.snapshot()["stages"]
            }
            assert set(tier_stages) == set(linear_stages)
            for name, stats in linear_stages.items():
                assert tier_stages[name]["fed"] == stats["fed"]
                assert tier_stages[name]["emitted"] == stats["emitted"]
        finally:
            linear.close()
            tier.close()

    def test_process_feeds_requires_the_tier(self, world_a):
        world, _, _ = world_a
        detector = make_kepler(world, KeplerParams(), False)
        with pytest.raises(ValueError, match="ingest_feeds"):
            detector.process_feeds([[]])
        detector.close()

    @needs_fork
    def test_failed_feed_worker_poisons_the_tier(self, world_a):
        """A forked feed whose source raises: the run surfaces the
        crash, reaps its workers, discards its buffered entries, and
        the detector refuses elements until a restore."""
        import multiprocessing

        from repro.pipeline import WorkerCrashError

        def broken_source():
            yield _element(1.0, "rrc00", "10.0.0.0/24")
            raise OSError("collector session lost")

        healthy = [_element(t, "rrc01", "10.1.0.0/24") for t in (2.0, 3.0)]
        detector = make_kepler(world_a[0], KeplerParams(ingest_feeds=2), False)
        try:
            blob = json.dumps(detector.snapshot())
            with pytest.raises(WorkerCrashError, match="feed worker failed"):
                detector.process_feeds([broken_source(), healthy])
            # The abandoned run's buffered entries never leak downstream
            # and no worker outlives it.
            assert detector.stages.tier.merge.drained
            assert not [
                proc.name
                for proc in multiprocessing.active_children()
                if proc.name.startswith("kepler-feed-")
            ]
            # The stream has a hole: both entry points refuse to resume.
            with pytest.raises(RuntimeError, match="aborted"):
                detector.process(healthy)
            with pytest.raises(RuntimeError, match="aborted"):
                detector.process_feeds([healthy])
            detector.restore(json.loads(blob))
            detector.process_feeds([healthy])
            assert detector.snapshot()["pipeline"]["stages"]["ingest"][
                "withdrawals"
            ] == len(healthy)
        finally:
            detector.close()

    def test_no_fork_run_equals_the_forked_run(self, world_a, monkeypatch):
        """Without fork, process_feeds merges the sources in the driver:
        same records, signal log, rejects and stripped snapshot."""
        from repro.pipeline import parallel, strip_checkpoint_telemetry

        world, snapshot, elements = world_a

        def run() -> tuple:
            detector = make_kepler(world, KeplerParams(ingest_feeds=3), True)
            try:
                detector.prime(snapshot)
                detector.process_feeds(split_by_collector(elements))
                merged = detector.stages.tier.merge.released
                doc = json.dumps(
                    strip_checkpoint_telemetry(detector.snapshot()),
                    sort_keys=True,
                )
                detector.finalize(end_time=END_TIME)
                return (observed(detector), doc), merged
            finally:
                detector.close()

        forked = run() if fork_available() else None
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        inline, merged = run()
        assert merged == 0, "the no-fork run went through the feed workers"
        assert inline[0][0], "scenario produced no records to compare"
        if forked is not None:
            assert forked[1] == len(elements)
            assert inline == forked[0]
        assert inline[0] == full_run(world_a, KeplerParams(), True)


# ----------------------------------------------------------------------
# Layout independence on a stream we did not sort
# ----------------------------------------------------------------------
def _displaced(elements: list, chunk: int) -> list:
    """World A's stream with cross-collector displacements.

    Adjacent swaps, 300-position swaps, swaps straddling every
    ``chunk`` boundary (``Kepler.process``'s run edge) and duplicated
    timestamps — each between elements of different collectors, so
    the result is out of order across collectors.
    """
    import dataclasses
    import random

    stream = list(elements)
    rng = random.Random(29)
    n = len(stream)

    def swap(i: int, j: int) -> None:
        if stream[i].collector != stream[j].collector:
            stream[i], stream[j] = stream[j], stream[i]

    for i in rng.sample(range(n - 1), 40):
        swap(i, i + 1)
    for i in rng.sample(range(n - 300), 40):
        swap(i, i + 300)
    for edge in range(chunk, n, chunk):
        swap(edge - 2, edge + 1)
        swap(edge - 1, edge)
    for i in rng.sample(range(1, n), 40):
        before = stream[i - 1]
        if before.collector != stream[i].collector:
            stream[i] = dataclasses.replace(stream[i], time=before.time)
    return stream


class TestLayoutIndependence:
    """``Kepler.process`` admits on the driver ingest stage under every
    ``ingest_feeds`` layout, so even a reordered stream gives the same
    output and checkpoint bytes."""

    LAYOUTS = (0, 2, 3)

    def _run(self, world_a, stream, feeds):
        from repro.pipeline import strip_checkpoint_telemetry

        world, snapshot, _ = world_a
        detector = make_kepler(world, KeplerParams(ingest_feeds=feeds), True)
        try:
            detector.prime(snapshot)
            detector.process(stream)
            doc = strip_checkpoint_telemetry(detector.snapshot())
            detector.finalize(end_time=END_TIME)
            return observed(detector), doc
        finally:
            detector.close()

    def test_reordered_stream_is_layout_free(self, world_a):
        stream = _displaced(world_a[2], KeplerParams().feed_chunk)
        runs = {feeds: self._run(world_a, stream, feeds) for feeds in self.LAYOUTS}
        reference, doc = runs[0]
        ingest = doc["pipeline"]["stages"]["ingest"]
        assert ingest["out_of_order"] > 0, "the stream was not reordered"
        assert reference[0], "scenario produced no records to compare"
        for feeds in self.LAYOUTS[1:]:
            observed_, other = runs[feeds]
            assert observed_ == reference, feeds
            assert other["pipeline"]["stages"]["ingest"] == ingest, feeds
            assert json.dumps(other, sort_keys=True) == json.dumps(
                doc, sort_keys=True
            ), feeds

    @needs_fork
    @pytest.mark.parametrize("writer, reader", [(3, 0), (2, 3)])
    def test_process_feeds_snapshot_restore_process(
        self, world_a, writer, reader
    ):
        """process -> process_feeds -> snapshot -> restore into another
        layout -> process equals one uninterrupted driver-ingest run."""
        from repro.pipeline import strip_checkpoint_telemetry

        world, snapshot, elements = world_a
        first_cut, second_cut = len(elements) // 3, 2 * len(elements) // 3
        head = list(elements[:first_cut])
        # An element older than the last one ``process`` runs moves into
        # the feed run: its feed's clock starts from the driver's.
        late = head.pop(first_cut // 2)
        assert late.time < head[-1].time
        middle = [late] + list(elements[first_cut:second_cut])
        tail = list(elements[second_cut:])

        def stripped(detector) -> str:
            return json.dumps(
                strip_checkpoint_telemetry(detector.snapshot()), sort_keys=True
            )

        whole = make_kepler(world, KeplerParams(), True)
        try:
            whole.prime(snapshot)
            whole.process(head + middle + tail)
            whole_doc = stripped(whole)
            whole.finalize(end_time=END_TIME)
            expected = observed(whole), whole_doc
        finally:
            whole.close()

        first = make_kepler(world, KeplerParams(ingest_feeds=writer), True)
        try:
            first.prime(snapshot)
            first.process(head)
            first.process_feeds(split_by_collector(middle))
            assert first.stages.tier.merge.late_elements == 1
            blob = json.dumps(first.snapshot())
        finally:
            first.close()

        second = make_kepler(world, KeplerParams(ingest_feeds=reader), True)
        try:
            second.restore(json.loads(blob))
            second.process(tail)
            second_doc = stripped(second)
            second.finalize(end_time=END_TIME)
            assert (observed(second), second_doc) == expected
        finally:
            second.close()


# ----------------------------------------------------------------------
# Layout-free checkpoints
# ----------------------------------------------------------------------
class TestIngestCheckpoint:
    def _strip_timings(self, doc: dict) -> dict:
        metrics = doc["pipeline"]["metrics"]
        metrics["stages"] = [
            [name, fed, emitted]
            for name, fed, emitted, _ in metrics["stages"]
        ]
        bins = metrics["bins"]
        bins.pop("total_latency_s"), bins.pop("max_latency_s")
        return doc

    def test_tier_document_equals_linear_document(self, world_a):
        """The ingest section never records the feed layout."""
        world, snapshot, elements = world_a
        cut = len(elements) // 2
        docs = []
        for params in (KeplerParams(), KeplerParams(ingest_feeds=3)):
            detector = make_kepler(world, params, False)
            try:
                detector.prime(snapshot)
                detector.process(elements[:cut])
                docs.append(detector.snapshot())
            finally:
                detector.close()
        linear_doc, tier_doc = (self._strip_timings(d) for d in docs)
        assert json.dumps(tier_doc, sort_keys=True) == json.dumps(
            linear_doc, sort_keys=True
        )

    def test_snapshot_under_tier_is_idempotent(self, world_a):
        world, snapshot, elements = world_a
        detector = make_kepler(world, KeplerParams(ingest_feeds=2), False)
        try:
            detector.prime(snapshot)
            detector.process(elements[: len(elements) // 2])
            first = json.dumps(detector.snapshot(), sort_keys=True)
            second = json.dumps(detector.snapshot(), sort_keys=True)
            assert first == second
        finally:
            detector.close()

    @pytest.mark.parametrize(
        "writer, reader",
        [
            (KeplerParams(ingest_feeds=3), KeplerParams()),
            (KeplerParams(), KeplerParams(ingest_feeds=4)),
            (KeplerParams(ingest_feeds=2), KeplerParams(ingest_feeds=3)),
        ],
        ids=["tier->driver", "driver->tier", "tier->tier"],
    )
    def test_restores_into_any_ingest_layout(self, world_a, writer, reader):
        world, snapshot, elements = world_a
        baseline = full_run(world_a, KeplerParams(), True)
        cut = len(elements) // 3

        first = make_kepler(world, writer, True)
        try:
            first.prime(snapshot)
            first.process(elements[:cut])
            blob = json.dumps(first.snapshot())
        finally:
            first.close()

        second = make_kepler(world, reader, True)
        try:
            second.restore(json.loads(blob))
            second.process(elements[cut:])
            second.finalize(end_time=END_TIME)
            assert observed(second) == baseline
        finally:
            second.close()

    @needs_fork
    def test_shard_process_tier_snapshot_restores_into_driver(self, world_b):
        world, snapshot, elements = world_b
        baseline = full_run(world_b, KeplerParams(), False)
        cut = len(elements) // 2

        first = make_kepler(
            world,
            KeplerParams(
                ingest_feeds=2, shard_processes=2, process_batch=256
            ),
            False,
        )
        try:
            first.prime(snapshot)
            first.process(elements[:cut])
            blob = json.dumps(first.snapshot())
        finally:
            first.close()

        second = make_kepler(world, KeplerParams(), False)
        try:
            second.restore(json.loads(blob))
            second.process(elements[cut:])
            second.finalize(end_time=END_TIME)
            assert observed(second) == baseline
        finally:
            second.close()

    def test_cut_between_collector_source_runs(self, world_a):
        """Snapshot between process_feeds runs resumes byte-identically."""
        world, snapshot, elements = world_a
        baseline = full_run(world_a, KeplerParams(), False)
        cut = len(elements) // 2

        def sources(part):
            return split_by_collector(part)

        first = make_kepler(world, KeplerParams(ingest_feeds=3), False)
        try:
            first.prime(snapshot)
            first.process_feeds(sources(elements[:cut]))
            blob = json.dumps(first.snapshot())
        finally:
            first.close()

        second = make_kepler(world, KeplerParams(ingest_feeds=2), False)
        try:
            second.restore(json.loads(blob))
            second.process_feeds(sources(elements[cut:]))
            second.finalize(end_time=END_TIME)
            assert observed(second) == baseline
        finally:
            second.close()

"""End-to-end shard-process runtime: no singleton on the hot path.

The shard-process runtime (`repro/pipeline/parallel.py`,
``KeplerParams(shard_processes=N)``) runs the stream stages tagging ->
monitor share -> record in every worker process, with the driver
keeping ingest, the probe cache and the per-bin analysis over the
merged signals.  It must be a pure execution detail:

* records, signal log and reject list byte-identical to the linear
  singleton chain on two scenario worlds (with and without a
  data-plane validator);
* the probe cache's at-most-once-per-(PoP, bin) invariant preserved
  exactly (probe counts match the linear chain);
* a mid-stream checkpoint composed by the shard workers restores into
  either runtime — linear, shard-process — and
  finishes the stream byte-identically, and vice versa.
"""

from __future__ import annotations

import json

import pytest

from test_pipeline_equivalence import (
    FIRST_WORLD,
    SECOND_WORLD,
    DeterministicValidator,
    prepared,
    record_fields,
)
from repro.core.kepler import Kepler, KeplerParams
from repro.pipeline import fork_available
from repro.scenarios import World, build_world

pytestmark = pytest.mark.skipif(
    not fork_available(),
    reason="shard-process runtime requires the fork start method",
)

END_TIME = 80_000.0
#: Small IPC batches so mid-stream cuts land inside shipped batches.
SHARDPROC = dict(shard_processes=3, process_batch=128)


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


def observed(detector: Kepler) -> tuple[list, list, list, list]:
    return (
        [record_fields(r) for r in detector.records],
        [
            (c.pop, c.signal_type, c.bin_start, c.bin_end)
            for c in detector.signal_log
        ],
        # The raw OutageSignal stream, exactly as the monitor emitted
        # it (the per-bin log preserves emission order and the full
        # signal payloads): the partial-signal merge must be
        # byte-identical, not merely classification-equivalent.
        [tuple(c.signals) for c in detector.signal_log],
        [(c.pop, c.bin_start) for c in detector.rejected],
    )


def full_run(
    replay: tuple[World, list, list],
    params: KeplerParams,
    with_validator: bool,
) -> tuple[list, list, list]:
    world, snapshot, elements = replay
    detector = make_kepler(world, params, with_validator)
    try:
        detector.prime(snapshot)
        detector.process(elements)
        detector.finalize(end_time=END_TIME)
        return observed(detector)
    finally:
        detector.close()


class TestDeterminism:
    def test_world_a_with_dataplane(self, world_a):
        linear = full_run(world_a, KeplerParams(), True)
        assert linear[0], "scenario produced no records to compare"
        shardproc = full_run(world_a, KeplerParams(**SHARDPROC), True)
        assert shardproc == linear

    def test_world_b_control_plane(self, world_b):
        linear = full_run(world_b, KeplerParams(), False)
        assert linear[0], "scenario produced no records to compare"
        shardproc = full_run(world_b, KeplerParams(**SHARDPROC), False)
        assert shardproc == linear

    def test_probe_cache_at_most_once_preserved(self, world_a):
        """Worker probes round-trip through one driver cache: probe
        counts (and therefore platform cost) match the linear chain."""
        world, snapshot, elements = world_a
        probes = []
        for params in (KeplerParams(), KeplerParams(**SHARDPROC)):
            detector = make_kepler(world, params, True)
            try:
                detector.prime(snapshot)
                detector.process(elements)
                detector.finalize(end_time=END_TIME)
                probes.append(
                    (detector.stages.cache.probes, detector.stages.cache.hits)
                )
            finally:
                detector.close()
        assert probes[0] == probes[1]


class TestCheckpointInterchange:
    def test_shard_process_checkpoint_restores_into_any_runtime(self, world_a):
        """Snapshot under the shard-process runtime -> linear and
        shard-process detectors both resume to the same byte-identical
        output."""
        world, snapshot, elements = world_a
        baseline = full_run(world_a, KeplerParams(), True)
        cut = len(elements) // 3

        first = make_kepler(world, KeplerParams(**SHARDPROC), True)
        try:
            first.prime(snapshot)
            first.process(elements[:cut])
            blob = json.dumps(first.snapshot())
        finally:
            first.close()

        for resume_params in (KeplerParams(), KeplerParams(**SHARDPROC)):
            second = make_kepler(world, resume_params, True)
            try:
                second.restore(json.loads(blob))
                second.process(elements[cut:])
                second.finalize(end_time=END_TIME)
                assert observed(second) == baseline, resume_params
            finally:
                second.close()

    def test_foreign_checkpoints_restore_into_shard_processes(self, world_a):
        """A linear snapshot resumes under the shard-process runtime
        byte-identically."""
        world, snapshot, elements = world_a
        baseline = full_run(world_a, KeplerParams(), True)
        cut = (2 * len(elements)) // 3

        first = make_kepler(world, KeplerParams(), True)
        try:
            first.prime(snapshot)
            first.process(elements[:cut])
            blob = json.dumps(first.snapshot())
        finally:
            first.close()
        second = make_kepler(world, KeplerParams(**SHARDPROC), True)
        try:
            second.restore(json.loads(blob))
            second.process(elements[cut:])
            second.finalize(end_time=END_TIME)
            assert observed(second) == baseline
        finally:
            second.close()

    def test_composed_document_matches_linear(self, world_a):
        """The shard workers compose the linear canonical document:
        stage states, cache and rejects are byte-identical to the
        in-process linear chain's snapshot (timings aside; the
        per-stage metrics split necessarily differs — sharded stages
        sum over workers)."""
        world, snapshot, elements = world_a
        cut = len(elements) // 2
        docs = []
        for params in (KeplerParams(), KeplerParams(**SHARDPROC)):
            detector = make_kepler(world, params, False)
            try:
                detector.prime(snapshot)
                detector.process(elements[:cut])
                docs.append(detector.snapshot())
            finally:
                detector.close()
        linear_doc, shardproc_doc = docs

        def comparable(doc):
            return {
                "format": doc["format"],
                "version": doc["version"],
                "shards": doc["shards"],
                "primed_paths": doc["primed_paths"],
                "rejected": doc["rejected"],
                "cache": doc["cache"],
                "stages": doc["pipeline"]["stages"],
            }

        assert comparable(shardproc_doc) == comparable(linear_doc)

    @pytest.mark.parametrize("frac", [0.13, 0.5, 0.87])
    def test_snapshot_is_idempotent(self, world_a, frac):
        """Back-to-back snapshots with no traffic in between match.

        Regression (found in review): the first snapshot must quiesce
        the workers *before* serialising the driver's shared views —
        with rejects or probe-memo entries still in flight inside sync
        rounds (or elements in the tail buffer), serialising the
        reject list and cache first captured them at an earlier stream
        position than the stage states.  Multiple cut fractions land
        the cut at busy and quiet spots alike.
        """
        world, snapshot, elements = world_a
        detector = make_kepler(world, KeplerParams(**SHARDPROC), True)
        try:
            detector.prime(snapshot)
            detector.process(elements[: int(frac * len(elements))])
            first = json.dumps(detector.snapshot(), sort_keys=True)
            second = json.dumps(detector.snapshot(), sort_keys=True)
            assert first == second
        finally:
            detector.close()


class TestRuntimeSurface:
    def test_views_reflect_all_fed_elements(self, world_a):
        """Facade reads drain the workers: nothing fed is ever missing."""
        world, snapshot, elements = world_a
        linear = make_kepler(world, KeplerParams(), False)
        shardproc = make_kepler(world, KeplerParams(**SHARDPROC), False)
        try:
            for detector in (linear, shardproc):
                detector.prime(snapshot)
                detector.process(elements[: len(elements) // 2])
            assert shardproc.primed_paths == linear.primed_paths
            assert len(shardproc.signal_log) == len(linear.signal_log)
            assert len(shardproc.records) == len(linear.records)
            assert set(shardproc.open) == set(linear.open)
            metric_names = {
                s["name"] for s in shardproc.metrics.snapshot()["stages"]
            }
            assert {
                "ingest", "tagging", "monitor",
                "classify", "localise", "validate", "record",
            } <= metric_names
        finally:
            linear.close()
            shardproc.close()

    def test_close_is_idempotent_and_snapshot_after_close_raises(
        self, world_a
    ):
        world, _, _ = world_a
        detector = make_kepler(world, KeplerParams(**SHARDPROC), False)
        detector.close()
        detector.close()
        with pytest.raises(RuntimeError, match="closed"):
            detector.snapshot()

    def test_load_state_preserves_cache_and_rejects(self, world_a):
        """pipeline.load_state must not wipe state it does not carry."""
        world, snapshot, elements = world_a
        detector = make_kepler(world, KeplerParams(**SHARDPROC), True)
        try:
            detector.prime(snapshot)
            detector.process(elements)
            probes_before = detector.stages.cache.probes
            rejects_before = len(detector.rejected)
            assert rejects_before > 0
            detector.pipeline.load_state(detector.pipeline.state_dict())
            assert detector.stages.cache.probes == probes_before
            assert len(detector.rejected) == rejects_before
        finally:
            detector.close()

    def test_rejects_invalid_configuration(self, world_a):
        world, _, _ = world_a
        with pytest.raises(ValueError, match="process_batch"):
            make_kepler(
                world, KeplerParams(shard_processes=2, process_batch=0), False
            )

    def test_fork_only_guard_message(self, world_a, monkeypatch):
        """The constructor names the missing capability, not a traceback."""
        from repro.pipeline import parallel

        world, _, _ = world_a
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        with pytest.raises(
            RuntimeError, match="ShardProcessPipeline requires the 'fork'"
        ):
            make_kepler(world, KeplerParams(**SHARDPROC), False)

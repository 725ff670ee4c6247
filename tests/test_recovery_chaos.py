"""Chaos suite: faulted supervised runtimes are byte-identical to clean runs.

Deterministic faults (:mod:`repro.pipeline.faults`) — SIGKILLed
workers, stalled queues, corrupted wire batches, tampered control
messages — are injected into every parallel runtime, and the
supervised detector (``KeplerParams(supervised=True)``) must produce
records, signal log, rejects and telemetry-stripped checkpoint bytes
identical to the unfaulted in-process chain, with the recovery visible
in ``PipelineMetrics`` (restarts, replayed elements, recovery time)
rather than silent.  Restart exhaustion must degrade to the in-process
fallback and still finish the stream; unsupervised runtimes must
surface rich diagnostics (exit codes, queue depths) and quarantine
poisoned batches into an inspectable dead-letter buffer instead of
dying on them.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_pipeline_equivalence import (
    FIRST_WORLD,
    DeterministicValidator,
    prepared,
    record_fields,
)
from repro.core.kepler import Kepler, KeplerParams, RecoveryPolicy
from repro.pipeline import (
    FaultPlan,
    FaultSpec,
    WorkerDeathError,
    fork_available,
    strip_checkpoint_telemetry,
)
from repro.pipeline import faults
from repro.scenarios import World, build_world

pytestmark = pytest.mark.skipif(
    not fork_available(),
    reason="the chaos suite targets the fork-based runtimes",
)

END_TIME = 80_000.0
#: Small IPC batches so element-count faults land inside shipped batches.
SHARDED = dict(shard_processes=2, process_batch=128)

#: Fast-recovery policy for tests: frequent micro-checkpoints, short
#: backoff, a stall detector quick enough for CI.
POLICY = dict(
    checkpoint_interval=512,
    backoff_base_s=0.01,
    backoff_cap_s=0.05,
    stall_timeout_s=5.0,
    teardown_deadline_s=0.5,
)

chaos_settings = settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def world_a() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD)
    )


@pytest.fixture(scope="module")
def linear_run(world_a) -> tuple[tuple, str]:
    """The unfaulted in-process ground truth: outputs + stripped snapshot."""
    world, snapshot, elements = world_a
    detector = make_kepler(world, KeplerParams())
    detector.prime(snapshot)
    detector.process(elements)
    detector.finalize(end_time=END_TIME)
    doc = json.dumps(
        strip_checkpoint_telemetry(detector.snapshot()), sort_keys=True
    )
    return observed(detector), doc


@pytest.fixture(scope="module")
def sharded_doc(world_a) -> str:
    """Stripped snapshot of an unfaulted, unsupervised shard-process run.

    The composed shard-process document differs from the linear one in
    the per-stage ``fed``/``emitted`` counters after the monitor (the
    driver analysis sees one merged batch per bin), so a faulted
    shard-process document is compared against this, not the linear.
    """
    return faulted_run(
        world_a, KeplerParams(**SHARDED), FaultPlan([]), snapshot_doc=True
    )[2]


def make_kepler(world: World, params: KeplerParams) -> Kepler:
    return Kepler(
        dictionary=world.dictionary,
        colo=world.colo,
        as2org=world.as2org,
        params=params,
        validator=DeterministicValidator(),
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


def supervised_params(runtime: dict, **overrides) -> KeplerParams:
    return KeplerParams(
        supervised=True,
        recovery=RecoveryPolicy(**{**POLICY, **overrides}),
        **runtime,
    )


def faulted_run(
    world_a,
    params: KeplerParams,
    plan: FaultPlan,
    snapshot_doc: bool = False,
) -> tuple[tuple, dict, str | None]:
    """Full supervised (or not) run under an installed fault plan.

    Returns ``(observed, recovery_snapshot, stripped_snapshot_json)``.
    """
    world, snapshot, elements = world_a
    with faults.injected(plan):
        detector = make_kepler(world, params)
        try:
            detector.prime(snapshot)
            detector.process(elements)
            detector.finalize(end_time=END_TIME)
            recovery = detector.metrics.snapshot()["recovery"]
            doc = (
                json.dumps(
                    strip_checkpoint_telemetry(detector.snapshot()),
                    sort_keys=True,
                )
                if snapshot_doc
                else None
            )
            return observed(detector), recovery, doc
        finally:
            detector.close()


# ----------------------------------------------------------------------
class TestKillRecovery:
    """SIGKILL at an arbitrary element cut point, every runtime."""

    @chaos_settings
    @given(at_element=st.integers(min_value=1, max_value=4000))
    def test_shard_worker_kill_is_byte_exact(self, world_a, linear_run, at_element):
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="kill", at_element=at_element, worker_id=1)]
        )
        got, recovery, _ = faulted_run(
            world_a, supervised_params(SHARDED), plan
        )
        assert got == linear_run[0]
        assert recovery["restarts"] >= 1
        assert recovery["recovery_ms"] > 0.0
        assert recovery["replayed_elements"] >= 0
        assert not recovery["degraded"]

    def test_kill_during_replay_still_converges(self, world_a, linear_run):
        """A second kill while replaying the journal costs one more restart.

        Priming is journalled a chunk at a time, so both cuts sit inside
        the first unit (4,096 of the 9,753 primed paths).  Worker 0 dies
        at element 600 of the first generation; worker 1 can then run at
        most ``IN_QUEUE_DEPTH`` batches of 128 ahead of the dead queue,
        so element 3000 is reached only by the second generation's
        replay of that unit (a generation's element clock starts at 0).
        """
        plan = FaultPlan(
            [
                FaultSpec(scope="shard", kind="kill", at_element=600, worker_id=0),
                FaultSpec(scope="shard", kind="kill", at_element=3000, worker_id=1),
            ]
        )
        got, recovery, _ = faulted_run(
            world_a, supervised_params(SHARDED), plan
        )
        assert got == linear_run[0]
        assert recovery["restarts"] >= 2
        assert not recovery["degraded"]


class TestStallRecovery:
    def test_hung_worker_detected_and_replayed(self, world_a, linear_run):
        plan = FaultPlan(
            [
                FaultSpec(
                    scope="shard",
                    kind="stall",
                    at_element=700,
                    worker_id=0,
                    stall_s=3.0,
                )
            ]
        )
        got, recovery, _ = faulted_run(
            world_a,
            supervised_params(SHARDED, stall_timeout_s=0.5),
            plan,
        )
        assert got == linear_run[0]
        assert recovery["restarts"] >= 1
        assert recovery["recovery_ms"] > 0.0


class TestQuarantine:
    def test_unsupervised_corrupt_batch_is_dead_lettered(self, world_a):
        """No supervisor: skip the poisoned batch, keep streaming."""
        world, snapshot, elements = world_a
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="corrupt", at_element=900, worker_id=0)]
        )
        with faults.injected(plan):
            detector = make_kepler(world, KeplerParams(**SHARDED))
            try:
                detector.prime(snapshot)
                detector.process(elements)
                detector.finalize(end_time=END_TIME)
                recovery = detector.metrics.snapshot()["recovery"]
                assert recovery["quarantined_batches"] >= 1
                letters = list(detector.stages.pipeline.dead_letters)
                assert letters, "dead-letter buffer must be inspectable"
                assert {"signature", "payload", "detail"} <= set(
                    letters[0]
                )
                assert "Traceback" in letters[0]["detail"]
            finally:
                detector.close()

    def test_supervised_shard_corrupt_is_rolled_back(self, world_a, linear_run):
        """Supervised: quarantine becomes rollback + replay, byte-exact
        (broadcast batch: every replica skips it consistently)."""
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="corrupt", at_element=900)]
        )
        got, recovery, _ = faulted_run(
            world_a, supervised_params(SHARDED), plan
        )
        assert got == linear_run[0]
        assert recovery["quarantined_batches"] >= 1
        assert recovery["restarts"] >= 1


class TestControlFaults:
    def test_dropped_ack_recovers_via_stall_detector(self, world_a, linear_run):
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="drop_ctl", at_element=1, worker_id=0)]
        )
        got, recovery, _ = faulted_run(
            world_a,
            supervised_params(SHARDED, stall_timeout_s=0.5),
            plan,
        )
        assert got == linear_run[0]
        assert recovery["restarts"] >= 1

    def test_duplicated_shard_ack_is_deduped(self, world_a, linear_run):
        """Barriers key acks by worker id: a dup must change nothing."""
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="dup_ctl", at_element=1, worker_id=0)]
        )
        got, recovery, _ = faulted_run(
            world_a, supervised_params(SHARDED), plan
        )
        assert got == linear_run[0]
        assert recovery["restarts"] == 0


class TestGracefulDegradation:
    def test_persistent_kill_degrades_to_linear_and_finishes(
        self, world_a, linear_run
    ):
        """A fault that re-fires every generation exhausts the budget;
        the stream must still finish — linearly — with identical output."""
        plan = FaultPlan(
            [
                FaultSpec(
                    scope="shard",
                    kind="kill",
                    at_element=400,
                    worker_id=0,
                    once=False,
                )
            ]
        )
        got, recovery, _ = faulted_run(
            world_a, supervised_params(SHARDED, max_restarts=1), plan
        )
        assert got == linear_run[0]
        assert recovery["degraded"] is True
        assert recovery["restarts"] >= 2

    def test_degrade_false_reraises_after_budget(self, world_a):
        world, snapshot, elements = world_a
        plan = FaultPlan(
            [
                FaultSpec(
                    scope="shard",
                    kind="kill",
                    at_element=400,
                    worker_id=0,
                    once=False,
                )
            ]
        )
        with faults.injected(plan):
            detector = make_kepler(
                world,
                supervised_params(SHARDED, max_restarts=1, degrade=False),
            )
            try:
                with pytest.raises(WorkerDeathError):
                    detector.prime(snapshot)
                    detector.process(elements)
            finally:
                detector.close()


class TestCheckpointByteIdentity:
    @chaos_settings
    @given(at_element=st.integers(min_value=1, max_value=4000))
    def test_faulted_snapshot_equals_unfaulted_snapshot(
        self, world_a, linear_run, sharded_doc, at_element
    ):
        """Telemetry-stripped checkpoint bytes survive a mid-stream crash."""
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="kill", at_element=at_element, worker_id=0)]
        )
        got, recovery, doc = faulted_run(
            world_a, supervised_params(SHARDED), plan, snapshot_doc=True
        )
        assert recovery["restarts"] >= 1
        assert got == linear_run[0]
        assert doc == sharded_doc

    def test_degraded_snapshot_equals_linear_snapshot(self, world_a, linear_run):
        plan = FaultPlan(
            [
                FaultSpec(
                    scope="shard",
                    kind="kill",
                    at_element=400,
                    worker_id=0,
                    once=False,
                )
            ]
        )
        got, recovery, doc = faulted_run(
            world_a,
            supervised_params(SHARDED, max_restarts=1),
            plan,
            snapshot_doc=True,
        )
        assert recovery["degraded"] is True
        assert got == linear_run[0]
        assert doc == linear_run[1]


class TestUnsupervisedDiagnostics:
    def test_worker_death_error_carries_diagnostics(self, world_a):
        """Without a supervisor the death surfaces with exit codes and
        queue depths — the unified liveness vocabulary."""
        world, snapshot, elements = world_a
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="kill", at_element=200, worker_id=0)]
        )
        with faults.injected(plan):
            detector = make_kepler(world, KeplerParams(**SHARDED))
            try:
                with pytest.raises(WorkerDeathError) as info:
                    detector.prime(snapshot)
                    detector.process(elements)
                    detector.finalize(end_time=END_TIME)
            finally:
                detector.close()
        assert info.value.dead, "dead worker list must not be empty"
        assert all(code == -9 for _, code in info.value.dead)
        assert info.value.queue_depths, "queue depth sample missing"
        assert "exitcode -9" in str(info.value)

    def test_close_after_death_is_clean(self, world_a):
        world, snapshot, elements = world_a
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="kill", at_element=200, worker_id=0)]
        )
        with faults.injected(plan):
            detector = make_kepler(world, KeplerParams(**SHARDED))
            with pytest.raises(WorkerDeathError):
                detector.prime(snapshot)
                detector.process(elements)
                detector.finalize(end_time=END_TIME)
            detector.close()
            detector.close()  # idempotent after a crash teardown


@pytest.mark.parametrize(
    "field, value",
    [
        ("scope", "tag"),
        ("kind", "crash"),
        # Ring seams of the retired shared-memory transport.
        ("kind", "torn_write"),
        ("kind", "stale_cursor"),
        # Seams of the retired forked feed workers.
        ("scope", "feed"),
        ("kind", "corrupt_payload"),
    ],
)
def test_fault_aimed_at_nothing_is_rejected(field, value):
    """A spec naming no seam would never fire, and its test would pass
    while injecting nothing: it must not construct."""
    with pytest.raises(ValueError, match=field):
        FaultSpec(**{"scope": "shard", "kind": "kill", field: value})

"""Chaos suite: the shard-process runtime fails loudly and closes cleanly.

Deterministic faults (:mod:`repro.pipeline.faults`) — SIGKILLed
workers, corrupted wire batches, duplicated control acks — are
injected into the forked shard workers.  A death must surface as a
:class:`~repro.pipeline.WorkerDeathError` with rich diagnostics (exit
codes, queue depths) and leave a detector that closes cleanly; a
poisoned batch is quarantined into an inspectable dead-letter buffer
instead of killing the run; a duplicated ack changes nothing.
"""

from __future__ import annotations

import json

import pytest

from test_pipeline_equivalence import (
    FIRST_WORLD,
    DeterministicValidator,
    prepared,
    record_fields,
)
from repro.core.kepler import Kepler, KeplerParams
from repro.pipeline import (
    FaultPlan,
    FaultSpec,
    WorkerDeathError,
    fork_available,
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


@pytest.fixture(scope="module")
def world_a() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD)
    )


@pytest.fixture(scope="module")
def linear_run(world_a) -> tuple:
    """The unfaulted in-process ground truth: records, signals, rejects."""
    world, snapshot, elements = world_a
    detector = make_kepler(world, KeplerParams())
    detector.prime(snapshot)
    detector.process(elements)
    detector.finalize(end_time=END_TIME)
    return observed(detector)


@pytest.fixture(scope="module")
def sharded_doc(world_a) -> str:
    """Stripped snapshot of an unfaulted shard-process run.

    The composed shard-process document differs from the linear one in
    the monitor's ``emitted`` count (worker 0 counts the signals of its
    own share), so a faulted shard-process document is compared against
    this, not the linear.
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


def faulted_run(
    world_a,
    params: KeplerParams,
    plan: FaultPlan,
    snapshot_doc: bool = False,
) -> tuple[tuple, dict, str | None]:
    """Full run under an installed fault plan.

    Returns ``(observed, recovery_snapshot, snapshot_json)``.
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
                json.dumps(detector.snapshot(), sort_keys=True)
                if snapshot_doc
                else None
            )
            return observed(detector), recovery, doc
        finally:
            detector.close()


# ----------------------------------------------------------------------
class TestQuarantine:
    def test_corrupt_batch_is_dead_lettered(self, world_a):
        """Skip the poisoned batch, keep streaming."""
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


class TestControlFaults:
    def test_duplicated_shard_ack_is_deduped(
        self, world_a, linear_run, sharded_doc
    ):
        """Barriers key acks by worker id: a dup must change nothing."""
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="dup_ctl", at_element=1, worker_id=0)]
        )
        got, recovery, doc = faulted_run(
            world_a, KeplerParams(**SHARDED), plan, snapshot_doc=True
        )
        assert got == linear_run
        assert doc == sharded_doc
        assert recovery["quarantined_batches"] == 0


class TestDiagnostics:
    def test_worker_death_error_carries_diagnostics(self, world_a):
        """A death surfaces with exit codes and queue depths — the
        unified liveness vocabulary."""
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
        # Faults only the retired stall detector could end.
        ("kind", "stall"),
        ("kind", "drop_ctl"),
    ],
)
def test_fault_aimed_at_nothing_is_rejected(field, value):
    """A spec naming no seam would never fire, and its test would pass
    while injecting nothing: it must not construct."""
    with pytest.raises(ValueError, match=field):
        FaultSpec(**{"scope": "shard", "kind": "kill", field: value})

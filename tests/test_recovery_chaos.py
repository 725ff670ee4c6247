"""A shard worker that dies ends the run, and the detector still closes.

The test SIGKILLs a primed shard worker itself (the runtime has no
fault lever).  The next ``process`` call must raise
:class:`~repro.pipeline.WorkerDeathError` naming the dead worker, its
exit code and the queue depths, and ``close`` must stay safe to call
afterwards, any number of times.  Nothing restarts the worker.
"""

from __future__ import annotations

import os
import signal

import pytest

from test_pipeline_equivalence import FIRST_WORLD, prepared
from repro.core.kepler import Kepler, KeplerParams
from repro.pipeline import WorkerDeathError, fork_available
from repro.scenarios import World, build_world

pytestmark = pytest.mark.skipif(
    not fork_available(),
    reason="shard-process runtime requires the fork start method",
)


@pytest.fixture(scope="module")
def world_a() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD)
    )


def make_kepler(world: World) -> Kepler:
    return Kepler(
        dictionary=world.dictionary,
        colo=world.colo,
        as2org=world.as2org,
        params=KeplerParams(shard_processes=2),
    )


def kill_worker(detector: Kepler):
    """SIGKILL the primed detector's worker 0 and reap it."""
    worker = detector.pipeline._procs[0]
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=30)
    assert worker.exitcode == -signal.SIGKILL
    return worker


class TestDiagnostics:
    def test_worker_death_error_carries_diagnostics(self, world_a):
        world, snapshot, elements = world_a
        detector = make_kepler(world)
        try:
            detector.prime(snapshot)
            worker = kill_worker(detector)
            # Far more batches than a dead worker's input queue holds,
            # so the broadcast blocks on it and finds the worker dead.
            assert len(elements) > 20 * detector.params.process_batch
            with pytest.raises(WorkerDeathError) as info:
                detector.process(elements)
        finally:
            detector.close()
        assert info.value.dead == [(worker.name, -9)]
        assert "in[0]" in info.value.queue_depths
        assert "exitcode -9" in str(info.value)

    def test_close_after_death_is_clean(self, world_a):
        world, snapshot, elements = world_a
        detector = make_kepler(world)
        try:
            detector.prime(snapshot)
            kill_worker(detector)
            with pytest.raises(WorkerDeathError):
                detector.process(elements)
            detector.close()
            detector.close()  # idempotent after a crash teardown
        finally:
            detector.close()
        assert all(not proc.is_alive() for proc in detector.pipeline._procs)

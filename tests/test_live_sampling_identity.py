"""Live sampling never perturbs output (hypothesis).

The hard invariant of the telemetry plane: polling
``Kepler.metrics_live()`` from a concurrent thread at *arbitrary*
points mid-run changes nothing observable.
Records, signal log, rejects and the checkpoint document bytes stay byte-identical to the unsampled linear ground truth
across every runtime layout.

The poller is deliberately hostile: no synchronisation with the
driver beyond the public API, an aggressive sampling period, and
``set_live_interval(0.0)`` so workers emit a metric frame on every
exchange (maximum telemetry traffic on the wire).
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_pipeline_equivalence import (
    FIRST_WORLD,
    DeterministicValidator,
    prepared,
    record_fields,
)
from repro import telemetry
from repro.core.kepler import Kepler, KeplerParams
from repro.pipeline import fork_available
from repro.scenarios import World, build_world

END_TIME = 80_000.0

needs_fork = pytest.mark.skipif(
    not fork_available(),
    reason="runtime requires the fork start method",
)

#: Runtime layouts under test.  Keys name the pytest ids.
LAYOUTS: dict[str, dict] = {
    "linear": {},
    "shard_processes": dict(shard_processes=2, process_batch=128),
}
FORK_LAYOUTS = {"shard_processes"}

sampling_settings = settings(
    max_examples=2,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def world_a() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD)
    )


@pytest.fixture(scope="module")
def ground_truth(world_a) -> tuple:
    """Unsampled linear run: the output ground truth for every layout."""
    world, snapshot, elements = world_a
    detector = make_kepler(world, KeplerParams())
    detector.prime(snapshot)
    detector.process(elements)
    detector.finalize(end_time=END_TIME)
    return observed(detector)


#: Checkpoint JSON of an *unsampled* run, per layout.  The
#: per-stage counters are runtime-dependent (the shard-process driver
#: analysis is fed one merged batch per bin), so the sampling
#: invariant is sampled == unsampled *same layout*, while records /
#: signals / rejects are pinned to the linear ground truth.
_BASELINE_DOCS: dict[str, str] = {}


def baseline_doc(world_a, layout: str) -> str:
    doc = _BASELINE_DOCS.get(layout)
    if doc is None:
        world, snapshot, elements = world_a
        detector = make_kepler(world, KeplerParams(**LAYOUTS[layout]))
        try:
            detector.prime(snapshot)
            detector.process(elements)
            detector.finalize(end_time=END_TIME)
            doc = json.dumps(detector.snapshot(), sort_keys=True)
        finally:
            detector.close()
        _BASELINE_DOCS[layout] = doc
    return doc


@pytest.fixture(autouse=True)
def _unthrottled_frames():
    telemetry.set_live_interval(0.0)
    yield
    telemetry.set_live_interval(telemetry.DEFAULT_LIVE_INTERVAL_S)


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


class Poller:
    """Hostile concurrent sampler of ``detector.metrics_live()``."""

    def __init__(self, detector: Kepler, period_s: float) -> None:
        self.detector = detector
        self.period_s = period_s
        self.samples: list[dict] = []
        self.errors: list[BaseException] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.samples.append(self.detector.metrics_live())
            except BaseException as exc:  # noqa: BLE001
                self.errors.append(exc)
                return
            time.sleep(self.period_s)

    def __enter__(self) -> "Poller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


def sampled_run(
    world_a,
    params: KeplerParams,
    *,
    period_s: float,
) -> tuple[tuple, str, Poller]:
    """Full run with a live poller attached; returns outputs + snapshot."""
    world, snapshot, elements = world_a
    detector = make_kepler(world, params)
    try:
        detector.prime(snapshot)
        with Poller(detector, period_s) as poller:
            detector.process(elements)
            detector.finalize(end_time=END_TIME)
        doc = json.dumps(detector.snapshot(), sort_keys=True)
        return observed(detector), doc, poller
    finally:
        detector.close()


def check_identity(got, doc, poller, ground_truth, expected_doc) -> None:
    assert not poller.errors, poller.errors[:1]
    assert got == ground_truth
    if doc != expected_doc:  # avoid a multi-MB difflib on failure
        pytest.fail(
            "checkpoint diverged under live sampling "
            f"({len(doc)} vs {len(expected_doc)} bytes)"
        )
    assert poller.samples, "poller never sampled"
    for snap in (poller.samples[0], poller.samples[-1]):
        assert "stages" in snap and "live" in snap and "depths" in snap
        json.dumps(snap, sort_keys=True)


# ----------------------------------------------------------------------
# Clean runs: every layout, arbitrary sampling periods
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "layout",
    [
        pytest.param(name, marks=needs_fork if name in FORK_LAYOUTS else ())
        for name in LAYOUTS
    ],
)
class TestCleanRunSampling:
    @sampling_settings
    @given(period_ms=st.integers(min_value=1, max_value=25))
    def test_sampling_is_invisible(
        self, world_a, ground_truth, layout, period_ms
    ):
        expected_doc = baseline_doc(world_a, layout)
        got, doc, poller = sampled_run(
            world_a,
            KeplerParams(**LAYOUTS[layout]),
            period_s=period_ms / 1000.0,
        )
        check_identity(got, doc, poller, ground_truth, expected_doc)

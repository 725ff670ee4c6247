"""Priming is a batch on every runtime: same baseline, whatever the chunking.

``Kepler.prime`` wraps and feeds ``feed_chunk`` updates at a time through
``pipeline.feed_many``.  The reference is priming as it was before — one
``pipeline.feed_many([PrimingUpdate(update)])`` per path — and every layout must
end in the same state from either:

* equal ``primed`` count and telemetry-free ``snapshot()`` for the linear
  chain and ``shard_processes=2``, at ``feed_chunk`` 1, 7 and 4096, from
  a list and from a generator;
* a lazy source is pulled exactly one chunk at a time, never ahead of the
  chunk being run;
* a ``prime`` issued mid-stream runs what ``process`` staged first, and
  the rest of the stream then finishes identically.
"""

from __future__ import annotations

import pytest

from test_columnar_properties import _checkpoint_bytes
from test_live_sampling_identity import END_TIME, make_kepler, observed
from test_pipeline_equivalence import FIRST_WORLD, prepared
from repro.core.kepler import Kepler, KeplerParams
from repro.pipeline import PrimingUpdate, fork_available
from repro.scenarios import build_world

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="runtime requires the fork start method"
)

LAYOUTS = {
    "linear": {},
    "shard_processes": dict(shard_processes=2, process_batch=128),
}
layouts = pytest.mark.parametrize(
    "layout",
    [
        pytest.param(name, marks=needs_fork if name == "shard_processes" else ())
        for name in LAYOUTS
    ],
)


@pytest.fixture(scope="module")
def scenario() -> tuple:
    return prepared(build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD))


def prime_one_by_one(detector: Kepler, updates) -> int:
    """``Kepler.prime`` as it was: one chain run per path."""
    before = detector.pipeline.primed
    for update in updates:
        detector.pipeline.feed_many([PrimingUpdate(update=update)])
    count = detector.pipeline.primed - before
    detector.primed_paths += count
    return count


def lazily(updates):
    yield from updates


#: per layout: (primed count, snapshot bytes) of the per-element reference.
_REFERENCE: dict[str, tuple[int, bytes]] = {}


def reference(scenario, layout: str) -> tuple[int, bytes]:
    if layout not in _REFERENCE:
        world, snapshot, _ = scenario
        detector = make_kepler(world, KeplerParams(**LAYOUTS[layout]))
        try:
            count = prime_one_by_one(detector, snapshot)
            _REFERENCE[layout] = (count, _checkpoint_bytes(detector))
        finally:
            detector.close()
    return _REFERENCE[layout]


@layouts
@pytest.mark.parametrize(
    "feed_chunk, source",
    [(1, list), (7, lazily), (4096, list), (4096, lazily)],
    ids=["1-list", "7-generator", "4096-list", "4096-generator"],
)
def test_batch_prime_equals_per_element_prime(scenario, layout, feed_chunk, source):
    world, snapshot, _ = scenario
    expected_count, expected_doc = reference(scenario, layout)
    assert len(snapshot) > 2 * feed_chunk  # several chunks, the last partial
    detector = make_kepler(
        world, KeplerParams(feed_chunk=feed_chunk, **LAYOUTS[layout])
    )
    try:
        assert detector.prime(source(snapshot)) == expected_count
        assert detector.primed_paths == expected_count
        assert _checkpoint_bytes(detector) == expected_doc
    finally:
        detector.close()


@pytest.mark.parametrize("feed_chunk", [1, 7, 4096])
def test_lazy_source_is_pulled_one_chunk_at_a_time(scenario, feed_chunk):
    world, snapshot, _ = scenario
    updates = snapshot[:9000]
    detector = make_kepler(world, KeplerParams(feed_chunk=feed_chunk))
    pulled = 0

    def counting():
        nonlocal pulled
        for update in updates:
            pulled += 1
            yield update

    fed = 0
    runs = []
    feed_many = detector.pipeline.feed_many

    def spy(batch):
        nonlocal fed
        # Everything pulled so far is in this batch or already ran.
        assert pulled == fed + len(batch)
        assert 0 < len(batch) <= feed_chunk
        assert all(type(element) is PrimingUpdate for element in batch)
        fed += len(batch)
        runs.append(len(batch))
        return feed_many(batch)

    detector.pipeline.feed_many = spy
    detector.prime(counting())
    assert fed == pulled == len(updates)
    assert len(runs) == -(-len(updates) // feed_chunk)


@layouts
def test_prime_mid_stream_runs_the_staged_elements_first(scenario, layout):
    """Snapshot half, a few stream elements (left staged), snapshot rest."""
    world, snapshot, elements = scenario
    half = len(snapshot) // 2
    staged = 5  # fewer than a bin or a chunk: ``process`` holds them back

    batch = make_kepler(world, KeplerParams(feed_chunk=512, **LAYOUTS[layout]))
    ref = make_kepler(world, KeplerParams(feed_chunk=512, **LAYOUTS[layout]))
    try:
        batch.prime(snapshot[:half])
        batch.process(elements[:1])  # opens the stream's first bin: runs
        batch.process(elements[1:staged])
        assert batch.metrics_live()["depths"]["staged"] == staged - 1
        count = batch.prime(lazily(snapshot[half:]))
        assert batch.metrics_live()["depths"]["staged"] == 0

        prime_one_by_one(ref, snapshot[:half])
        ref.pipeline.feed_many(elements[:staged])
        assert prime_one_by_one(ref, snapshot[half:]) == count
        assert _checkpoint_bytes(batch) == _checkpoint_bytes(ref)

        for detector in (batch, ref):
            detector.process(elements[staged:])
            detector.finalize(end_time=END_TIME)
        assert observed(batch) == observed(ref)
        assert _checkpoint_bytes(batch) == _checkpoint_bytes(ref)
    finally:
        batch.close()
        ref.close()

"""``Kepler.process_feeds``: per-collector sources, merged in the driver.

``process_feeds(sources)`` is :meth:`Kepler.process` over the lazy
sort-key merge of the sources (:func:`repro.pipeline.merge_streams`,
the BGPStream merge of Section 4.1).  Pinned here:

* **Identity**: on worlds A and B, under the linear chain and
  ``shard_processes=2``, ``process_feeds(split_by_collector(x))``
  gives the records, signal log, rejects and checkpoint bytes of ``process(x)`` on the same runtime; a bare sequence of
  sources gives what the mapping gives.
* **Checkpoints**: a snapshot taken between two ``process_feeds`` runs
  resumes byte-identically.
* **Failure**: a source that raises mid-run propagates its exception.
* **Layout independence**: ``process`` admits on the driver ingest
  stage under every runtime, so even a stream out of order across
  collectors gives the same output and checkpoint state.
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
from repro.pipeline import fork_available, split_by_collector
from repro.scenarios import World, build_world

END_TIME = 80_000.0

needs_fork = pytest.mark.skipif(
    not fork_available(),
    reason="runtime requires the fork start method",
)

#: Runtimes under test.  Keys name the pytest ids.
LAYOUTS: dict[str, dict] = {
    "linear": {},
    "shard_processes": dict(shard_processes=2, process_batch=256),
}
layouts = pytest.mark.parametrize(
    "layout",
    [
        pytest.param(name, marks=needs_fork if name == "shard_processes" else ())
        for name in LAYOUTS
    ],
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


def document(detector: Kepler) -> str:
    return json.dumps(detector.snapshot(), sort_keys=True)


def full_run(
    replay: tuple[World, list, list],
    params: KeplerParams,
    with_validator: bool,
    feed=None,
) -> tuple[tuple, str]:
    """Prime, stream, snapshot, finalize; ``feed(detector, elements)``
    replaces ``process`` when given."""
    world, snapshot, elements = replay
    detector = make_kepler(world, params, with_validator)
    try:
        detector.prime(snapshot)
        if feed is None:
            detector.process(elements)
        else:
            feed(detector, elements)
        doc = document(detector)
        detector.finalize(end_time=END_TIME)
        return observed(detector), doc
    finally:
        detector.close()


def by_collector(detector: Kepler, elements: list) -> None:
    detector.process_feeds(split_by_collector(elements))


# ----------------------------------------------------------------------
# process_feeds == process on the merged stream
# ----------------------------------------------------------------------
@layouts
class TestProcessFeedsIdentity:
    def test_world_a(self, world_a, layout):
        params = KeplerParams(**LAYOUTS[layout])
        expected = full_run(world_a, params, True)
        assert expected[0][0], "scenario produced no records to compare"
        assert full_run(world_a, params, True, by_collector) == expected

    def test_world_b(self, world_b, layout):
        params = KeplerParams(**LAYOUTS[layout])
        expected = full_run(world_b, params, False)
        assert expected[0][0], "scenario produced no records to compare"
        assert full_run(world_b, params, False, by_collector) == expected


def test_bare_sequence_equals_mapping(world_a):
    """Sources given as a sequence (here in reverse collector order)
    merge to the stream the mapping form merges to."""

    def as_sequence(detector: Kepler, elements: list) -> None:
        feeds = split_by_collector(elements)
        detector.process_feeds(
            [iter(feeds[name]) for name in sorted(feeds, reverse=True)]
        )

    mapping = full_run(world_a, KeplerParams(), True, by_collector)
    assert mapping[0][0], "scenario produced no records to compare"
    assert full_run(world_a, KeplerParams(), True, as_sequence) == mapping


def test_cut_between_collector_source_runs(world_a):
    """Snapshot between process_feeds runs resumes byte-identically."""
    world, snapshot, elements = world_a
    expected = full_run(world_a, KeplerParams(), False)
    cut = len(elements) // 2

    first = make_kepler(world, KeplerParams(), False)
    try:
        first.prime(snapshot)
        first.process_feeds(split_by_collector(elements[:cut]))
        blob = json.dumps(first.snapshot())
    finally:
        first.close()

    second = make_kepler(world, KeplerParams(), False)
    try:
        second.restore(json.loads(blob))
        second.process_feeds(split_by_collector(elements[cut:]))
        doc = document(second)
        second.finalize(end_time=END_TIME)
        assert (observed(second), doc) == expected
    finally:
        second.close()


def test_source_that_raises_propagates(world_a):
    world, snapshot, elements = world_a
    feeds = split_by_collector(elements)
    name = sorted(feeds)[0]

    def broken_source():
        yield from feeds[name][:10]
        raise OSError("collector session lost")

    detector = make_kepler(world, KeplerParams(), False)
    try:
        detector.prime(snapshot)
        with pytest.raises(OSError, match="collector session lost"):
            detector.process_feeds({**feeds, name: broken_source()})
    finally:
        detector.close()


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


@needs_fork
def test_reordered_stream_is_layout_free(world_a):
    """Every runtime admits on the driver ingest stage: a reordered
    stream gives the same output, ingest section and stage states.

    The metrics section is left out: the shard-process driver feeds
    its analysis stages one merged batch per bin, so its per-stage
    counters after the monitor differ from the linear chain's.
    """
    world, snapshot, _ = world_a
    stream = _displaced(world_a[2], KeplerParams().feed_chunk)
    runs = {}
    for layout, knobs in LAYOUTS.items():
        detector = make_kepler(world, KeplerParams(**knobs), True)
        try:
            detector.prime(snapshot)
            detector.process(stream)
            doc = detector.snapshot()
            del doc["pipeline"]["metrics"]
            detector.finalize(end_time=END_TIME)
            runs[layout] = observed(detector), doc
        finally:
            detector.close()
    reference, doc = runs["linear"]
    assert doc["pipeline"]["stages"]["ingest"]["out_of_order"] > 0, (
        "the stream was not reordered"
    )
    assert reference[0], "scenario produced no records to compare"
    other_observed, other = runs["shard_processes"]
    assert other_observed == reference
    assert json.dumps(other, sort_keys=True) == json.dumps(doc, sort_keys=True)

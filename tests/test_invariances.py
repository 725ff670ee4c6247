"""Invariances the paper's rules imply, checked on the one detector.

Each case transforms worlds A and B's input — the primed RIB and the
element stream — in a way Section 4 fixes the effect of, runs both
versions through ``process_feeds(split_by_collector(...))``, and
compares the outputs:

* **Time shift**: moving every element and primed path by 7 days, a
  whole number of 60 s bins, moves every record and signal by exactly
  604,800 s and changes nothing else.  (The test validator's verdict
  depends on the bin index mod 5, and 10,080 bins is a multiple of 5.)
* **Duplicated updates**: every ``BGPUpdate`` delivered twice in place
  changes nothing — a re-announcement of a path is not a change.
* **Collector rename**: an order-preserving rename of every collector
  (one common prefix) changes nothing — collectors are names.
"""

from __future__ import annotations

import dataclasses

import pytest

from test_pipeline_equivalence import (
    FIRST_WORLD,
    SECOND_WORLD,
    DeterministicValidator,
    prepared,
    record_fields,
)
from repro.bgp.messages import BGPUpdate
from repro.core.kepler import Kepler
from repro.pipeline import split_by_collector
from repro.scenarios import build_world

END_TIME = 80_000.0
#: 7 days: 10,080 bins of 60 s.
SHIFT_S = 7 * 86_400.0


@pytest.fixture(scope="module", params=["world_a", "world_b"])
def replay(request):
    params = FIRST_WORLD if request.param == "world_a" else SECOND_WORLD
    return prepared(build_world(seed=params.seed, world_params=params))


def run(world, snapshot, elements, end_time=END_TIME) -> tuple[list, list, list]:
    """Records, signal log and rejects of one ``process_feeds`` run."""
    detector = Kepler.from_world(world, validator=DeterministicValidator())
    try:
        detector.prime(snapshot)
        detector.process_feeds(split_by_collector(elements))
        detector.finalize(end_time=end_time)
        return (
            [record_fields(r) for r in detector.records],
            [
                (c.pop, c.signal_type, c.bin_start, c.bin_end)
                for c in detector.signal_log
            ],
            [(c.pop, c.bin_start) for c in detector.rejected],
        )
    finally:
        detector.close()


@pytest.fixture(scope="module")
def reference(replay):
    output = run(*replay)
    assert output[0], "scenario produced no records to compare"
    assert output[1], "scenario raised no signals to compare"
    return output


def test_shift_by_whole_bins_shifts_the_output(replay, reference):
    world, snapshot, elements = replay

    def shifted(items):
        return [dataclasses.replace(e, time=e.time + SHIFT_S) for e in items]

    records, signals, rejects = run(
        world, shifted(snapshot), shifted(elements), END_TIME + SHIFT_S
    )
    expected_records, expected_signals, expected_rejects = reference
    # record_fields: (signal_pop, located_pop, start, end, ...).
    assert records == [
        r[:2] + (r[2] + SHIFT_S, r[3] + SHIFT_S) + r[4:]
        for r in expected_records
    ]
    assert signals == [
        (pop, kind, start + SHIFT_S, end + SHIFT_S)
        for pop, kind, start, end in expected_signals
    ]
    assert rejects == [(pop, start + SHIFT_S) for pop, start in expected_rejects]


def test_duplicated_updates_change_nothing(replay, reference):
    world, snapshot, elements = replay
    doubled = []
    for element in elements:
        doubled.append(element)
        if isinstance(element, BGPUpdate):
            doubled.append(element)
    assert len(doubled) > len(elements)
    assert run(world, snapshot, doubled) == reference


def test_order_preserving_collector_rename_changes_nothing(replay, reference):
    world, snapshot, elements = replay

    def renamed(items):
        return [
            dataclasses.replace(e, collector=f"zz-{e.collector}") for e in items
        ]

    assert run(world, renamed(snapshot), renamed(elements)) == reference

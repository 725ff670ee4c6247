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
* **Session gap on an untagged peer**: a session down/up pair, an hour
  apart and opening just before the first signal, on a collector peer
  whose paths carry no dictionary community changes nothing — missing
  data is not a withdrawal.  No peer of worlds A and B is untagged, so
  the case adds one: a new peer on the first collector carrying
  community-stripped copies of another peer's paths.
* **Untagged extra collector**: every third primed path and stream
  update copied under an extra collector, with every community
  stripped, changes nothing — only dictionary communities locate.
* **Prepending**: every hop of every primed and streamed path repeated
  k times changes nothing — tags depend on the de-prepended path.  At
  k = 40 every path of two or more hops is longer than the tagging
  memo's collapse threshold, at k = 2 none is, so both memo key forms
  are exercised.
* **Same-timestamp permutation**: reversing the peer order among
  elements and primed paths that share a timestamp, each peer's own
  order kept, changes nothing — the rules read no arrival order among
  peers.  The monitor numbers path keys in arrival order, so this pins
  that the numbering never reaches the output.  The whole RIB snapshot
  shares one timestamp; in the stream only elements of one collector
  stay permuted, because ``process_feeds`` merges collectors by
  ``sort_key``.  The streams of worlds A and B hold almost no
  multi-peer (time, collector) group, so a second case floors every
  element's time to its bin start first: each element stays in its
  bin, and the stream then holds hundreds of such groups.  Signals and
  rejects must match; records may not yet, because the row that closes
  a bin is reported to the record stage at that close, so which peer's
  row arrives first in a bin can move a record's end by one bin.
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
from repro.bgp.messages import BGPStateMessage, BGPUpdate, SessionState
from repro.core.input import COLLAPSE_KEY_HOPS
from repro.core.monitor import MonitorParams
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
    detector = world.make_kepler(validator=DeterministicValidator())
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


def stripped(update: BGPUpdate, **changes) -> BGPUpdate:
    return dataclasses.replace(update, communities=(), **changes)


def merged(*streams) -> list:
    """One time-sorted stream from several (``split_by_collector`` input)."""
    return sorted(
        (e for stream in streams for e in stream), key=lambda e: e.sort_key()
    )


def test_session_gap_on_an_untagged_peer_changes_nothing(replay, reference):
    world, snapshot, elements = replay
    collector = elements[0].collector
    peers = sorted({u.peer_asn for u in snapshot if u.collector == collector})
    source, peer = peers[0], max(u.peer_asn for u in snapshot) + 1

    def copied(items):
        return [
            stripped(u, peer_asn=peer)
            for u in items
            if isinstance(u, BGPUpdate)
            and (u.collector, u.peer_asn) == (collector, source)
        ]

    down = reference[1][0][2] - 60.0
    gap = [
        BGPStateMessage(
            down, collector, peer, SessionState.ESTABLISHED, SessionState.IDLE
        ),
        BGPStateMessage(
            down + 3600.0,
            collector,
            peer,
            SessionState.IDLE,
            SessionState.ESTABLISHED,
        ),
    ]
    assert copied(snapshot) and copied(elements)
    assert (
        run(
            world,
            snapshot + copied(snapshot),
            merged(elements, copied(elements), gap),
        )
        == reference
    )


def test_untagged_extra_collector_changes_nothing(replay, reference):
    world, snapshot, elements = replay

    def copied(items):
        return [
            stripped(u, collector="zz-extra")
            for i, u in enumerate(items)
            if isinstance(u, BGPUpdate) and i % 3 == 0
        ]

    assert copied(snapshot) and copied(elements)
    assert (
        run(world, snapshot + copied(snapshot), merged(elements, copied(elements)))
        == reference
    )


@pytest.mark.parametrize("k", [2, 40])
def test_prepending_changes_nothing(replay, reference, k):
    world, snapshot, elements = replay

    def prepended(items):
        return [
            dataclasses.replace(
                e, as_path=tuple(asn for asn in e.as_path for _ in range(k))
            )
            if isinstance(e, BGPUpdate) and e.as_path
            else e
            for e in items
        ]

    primed = prepended(snapshot)
    longest = max(len(u.as_path) for u in primed)
    assert (longest > COLLAPSE_KEY_HOPS) == (k == 40)
    assert run(world, primed, prepended(elements)) == reference


def peers_reversed(items: list) -> list:
    """``items`` with each timestamp's elements in descending (collector,
    peer) order; one peer's elements keep their order."""
    peers = sorted({(e.collector, e.peer_asn) for e in items}, reverse=True)
    rank = {peer: i for i, peer in enumerate(peers)}
    return sorted(items, key=lambda e: (e.time, rank[e.collector, e.peer_asn]))


def test_same_timestamp_peer_permutation_changes_nothing(replay, reference):
    world, snapshot, elements = replay
    primed, streamed = peers_reversed(snapshot), peers_reversed(elements)
    assert [u.time for u in primed] == [u.time for u in snapshot]
    assert [e.time for e in streamed] == [e.time for e in elements]
    assert primed != snapshot and streamed != elements
    assert run(world, primed, streamed) == reference


def multi_peer_groups(items: list) -> int:
    """(time, collector) groups that hold more than one peer."""
    peers: dict[tuple, set] = {}
    for e in items:
        peers.setdefault((e.time, e.collector), set()).add(e.peer_asn)
    return sum(len(group) > 1 for group in peers.values())


def test_same_bin_peer_permutation_changes_nothing(replay):
    world, snapshot, elements = replay
    width = MonitorParams().bin_interval_s
    floored = [
        dataclasses.replace(e, time=(e.time // width) * width) for e in elements
    ]
    assert all(f.time // width == e.time // width for f, e in zip(floored, elements))
    assert [e.time for e in floored] == sorted(e.time for e in floored)
    assert multi_peer_groups(floored) >= 100
    streamed = peers_reversed(floored)
    assert streamed != floored
    records, signals, rejects = run(world, snapshot, streamed)
    expected = run(world, snapshot, floored)
    assert (records, signals, rejects) == expected

"""Multi-feed ingest with a mid-stream resume: the live-collector drill.

A production detector watches many collectors at once.  This example
feeds Kepler per-collector sources the way an operator would:

1. build the world and replay an outage scenario, keeping the
   per-collector feeds separate (what BGPStream would hand us per
   collector, before any global merge);
2. run the first half of the stream through
   ``Kepler.process_feeds(...)`` — the sources merged lazily by sort
   key in the driver, the BGPStream merge — and snapshot;
3. restore the snapshot into a fresh detector, finish the stream
   through ``process`` on the pre-merged elements, and compare
   against an uninterrupted single-stream run: records must match
   byte for byte.

Run:  PYTHONPATH=src python examples/live_feeds.py
Exit status is non-zero on any mismatch (CI smoke-checks this).
"""

from __future__ import annotations

import json

from repro.core.kepler import Kepler, KeplerParams
from repro.core.serde import record_to_json
from repro.pipeline import split_by_collector
from repro.routing.events import (
    FacilityFailure,
    FacilityRecovery,
    IXPFailure,
    IXPRecovery,
)
from repro.scenarios import World, build_world
from repro.topology.builder import WorldParams

SEED = 7
WORLD = WorldParams(
    seed=SEED,
    n_tier1=5,
    n_tier2=20,
    n_access=60,
    n_content=18,
    n_facilities=50,
    n_ixps=12,
)
END_TIME = 60_000.0


def replay(world: World):
    fac_ids = sorted(
        f
        for f, tenants in world.topo.facility_tenants.items()
        if len(tenants) >= 8
    )
    ixp_ids = sorted(
        i for i, members in world.topo.ixp_members.items() if len(members) >= 8
    )
    events = [
        (10_000.0, FacilityFailure(fac_ids[0])),
        (14_000.0, FacilityRecovery(fac_ids[0])),
    ]
    if ixp_ids:
        events += [
            (20_000.0, IXPFailure(ixp_ids[0])),
            (22_000.0, IXPRecovery(ixp_ids[0])),
        ]
    return world.rib_snapshot(0.0), world.run_events(events)


def records_json(kepler: Kepler) -> list[dict]:
    return [record_to_json(r) for r in kepler.records]


def main() -> int:
    print("Building world (topology, colocation map, dictionary) ...")
    world = build_world(seed=SEED, world_params=WORLD)
    snapshot, elements = replay(world)
    cut = len(elements) // 2
    collectors = sorted(split_by_collector(elements))
    print(
        f"  {len(elements)} stream elements across"
        f" {len(collectors)} collectors: {', '.join(collectors)}"
    )

    # Reference: one uninterrupted run over the pre-merged stream.
    reference = world.make_kepler(params=KeplerParams())
    reference.prime(snapshot)
    reference.process(elements)
    reference.finalize(end_time=END_TIME)
    expected = records_json(reference)

    # Phase 1: consume the first half as per-collector feeds.
    print("\nPhase 1: per-collector feeds through process_feeds ...")
    live = world.make_kepler(params=KeplerParams())
    live.prime(snapshot)
    live.process_feeds(split_by_collector(elements[:cut]))
    doc = live.snapshot()
    checkpoint = json.dumps(doc)
    ingest = doc["pipeline"]["stages"]["ingest"]
    print(
        f"  {cut} elements merged from {len(collectors)} collectors"
        f" ({ingest['announcements']} announcements,"
        f" {ingest['withdrawals']} withdrawals,"
        f" {ingest['out_of_order']} out of order);"
        f" checkpoint: {len(checkpoint)} bytes"
    )
    live.close()

    # Phase 2: restore into a fresh detector and finish the stream.
    print("Phase 2: resume on the pre-merged stream ...")
    resumed = world.make_kepler(params=KeplerParams())
    resumed.restore(json.loads(checkpoint))
    resumed.process(elements[cut:])
    resumed.finalize(end_time=END_TIME)
    got = records_json(resumed)
    resumed.close()

    if got != expected:
        print("MISMATCH: multi-feed resumed run diverged from reference")
        return 1
    print(
        f"\nOK: per-collector feeds + resume reproduced all"
        f" {len(expected)} records byte-identically:"
    )
    for record in resumed.records:
        print(f"  {record.describe()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

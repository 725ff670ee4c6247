"""Multi-feed ingest with a mid-stream resume: the live-collector drill.

A production detector watches many collectors at once.  This example
drives the ingest tier (``KeplerParams(ingest_feeds=N)``) the way an
operator would:

1. build the world and replay an outage scenario, keeping the
   per-collector feeds separate (what BGPStream would hand us per
   collector, before any global merge);
2. run the first half of the stream through
   ``Kepler.process_feeds(...)`` — each feed consumed by its own
   forked feed worker (merged in the driver where the platform cannot
   fork), the watermark merge releasing the unified sorted stream —
   and snapshot;
3. restore the snapshot into a detector with a *different* ingest
   layout (the driver ingest path), finish the stream, and compare
   against an uninterrupted single-stream run: records must match
   byte for byte.

Run:  PYTHONPATH=src python examples/live_feeds.py
Exit status is non-zero on any mismatch (CI smoke-checks this).
"""

from __future__ import annotations

import json

from repro.core.kepler import Kepler, KeplerParams
from repro.core.serde import record_to_json
from repro.ingest import split_by_collector
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
FEEDS = 3


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


def collector_sources(elements) -> dict[str, list]:
    """Per-collector feeds: each source pinned to its collector's feed."""
    return split_by_collector(elements)


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
    print(f"\nPhase 1: ingest tier with {FEEDS} feed workers ...")
    live = world.make_kepler(params=KeplerParams(ingest_feeds=FEEDS))
    live.prime(snapshot)
    live.process_feeds(collector_sources(elements[:cut]))
    checkpoint = json.dumps(live.snapshot())
    merge = live.stages.tier.merge
    print(
        f"  {cut} elements merged from {len(collectors)} collectors"
        f" ({merge.released} released, {merge.late_elements} late,"
        f" peak reorder window {merge.peak_buffered});"
        f" checkpoint: {len(checkpoint)} bytes"
    )
    live.close()

    # Phase 2: restore into a *different* ingest layout and finish.
    print("Phase 2: resume under the driver ingest path ...")
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
        f"\nOK: multi-feed ingest + cross-layout resume reproduced all"
        f" {len(expected)} records byte-identically:"
    )
    for record in resumed.records:
        print(f"  {record.describe()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Checkpoint/resume across OS processes: the restart drill.

A long-running detector must survive a restart without losing its
baseline, correlation window or open records.  This example proves the
property the hard way:

1. *(subprocess A)* build the world, run the full replay uninterrupted
   (the baseline), then run a fresh detector over the first half only
   and write ``kepler-checkpoint.json`` — plus the deployment inputs
   (dictionary, colocation map, as2org) and the unprocessed remainder
   of the stream, exactly what an operator hands the replacement
   process;
2. *(subprocess B)* construct a detector from the shipped inputs,
   ``restore()`` the checkpoint, consume the remainder, write its
   final records — under the **shard-process runtime**
   (``KeplerParams(shard_processes=2)``) where the platform can fork,
   proving the checkpoint document is interchangeable between the
   in-process and multiprocess runtimes;
3. *(this process)* compare: the resumed run must match the
   uninterrupted one record for record.

Run:  PYTHONPATH=src python examples/checkpoint_resume.py
Exit status is non-zero on any mismatch (CI smoke-checks this).
"""

from __future__ import annotations

import json
import pathlib
import pickle
import subprocess
import sys
import tempfile

from repro.core.kepler import Kepler, KeplerParams
from repro.core.serde import record_to_json
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
    """RIB snapshot + a two-outage event mix."""
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
    snapshot = world.rib_snapshot(0.0)
    elements = world.run_events(events)
    return snapshot, elements


def records_json(kepler: Kepler) -> list[dict]:
    return [record_to_json(r) for r in kepler.records]


def first_half(workdir: pathlib.Path) -> None:
    world = build_world(seed=SEED, world_params=WORLD)
    snapshot, elements = replay(world)
    cut = len(elements) // 2

    baseline = world.make_kepler(params=KeplerParams())
    baseline.prime(snapshot)
    baseline.process(elements)
    baseline.finalize(end_time=END_TIME)
    (workdir / "baseline-records.json").write_text(
        json.dumps(records_json(baseline))
    )

    kepler = world.make_kepler(params=KeplerParams())
    kepler.prime(snapshot)
    kepler.process(elements[:cut])
    (workdir / "kepler-checkpoint.json").write_text(
        json.dumps(kepler.snapshot())
    )
    # Everything the replacement process needs besides the checkpoint:
    # the deployment inputs and the not-yet-consumed stream tail.
    with (workdir / "handoff.pickle").open("wb") as fh:
        pickle.dump(
            {
                "dictionary": world.dictionary,
                "colo": world.colo,
                "as2org": world.as2org,
                "remainder": elements[cut:],
            },
            fh,
        )
    print(
        f"[first-half] {cut}/{len(elements)} elements processed,"
        f" checkpoint + handoff written to {workdir}"
    )


def second_half(workdir: pathlib.Path) -> None:
    from repro.pipeline import fork_available

    with (workdir / "handoff.pickle").open("rb") as fh:
        handoff = pickle.load(fh)
    # Resume under the shard-process runtime where possible: a linear
    # checkpoint restores into it (and back), since both compose the
    # same versioned document.
    shard_processes = 2 if fork_available() else 0
    kepler = Kepler(
        dictionary=handoff["dictionary"],
        colo=handoff["colo"],
        as2org=handoff["as2org"],
        params=KeplerParams(shard_processes=shard_processes),
    )
    kepler.restore(
        json.loads((workdir / "kepler-checkpoint.json").read_text())
    )
    kepler.process(handoff["remainder"])
    kepler.finalize(end_time=END_TIME)
    (workdir / "resumed-records.json").write_text(
        json.dumps(records_json(kepler))
    )
    print(
        f"[second-half] resumed from checkpoint"
        f" (shard_processes={shard_processes}), processed"
        f" {len(handoff['remainder'])} remaining elements,"
        f" {len(kepler.records)} records"
    )
    kepler.close()


def main() -> int:
    if len(sys.argv) > 1:
        phase, workdir = sys.argv[1], pathlib.Path(sys.argv[2])
        (first_half if phase == "first-half" else second_half)(workdir)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        for phase in ("first-half", "second-half"):
            print(f"Spawning {phase} process ...")
            subprocess.run(
                [sys.executable, __file__, phase, str(workdir)],
                check=True,
            )
        baseline = json.loads((workdir / "baseline-records.json").read_text())
        resumed = json.loads((workdir / "resumed-records.json").read_text())

    if resumed != baseline:
        print("MISMATCH: resumed records differ from uninterrupted run")
        return 1
    print(
        f"OK: restart-resumed run reproduced all {len(baseline)}"
        " records byte-identically"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

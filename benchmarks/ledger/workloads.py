"""The five named workloads of the performance ledger.

Every workload is a function ``build(seed, scale) -> Inputs`` that
builds a simulation world, generates the element stream from ``seed``
and returns what the harness needs to replay and check it.  The
detector only ever receives ``Inputs.priming`` and ``Inputs.elements``.

What a seed changes, and what it does not
-----------------------------------------

The world (topology, colocation map, community dictionary) and the
outage script are **pinned** per workload; ``--seed`` drives the routing
engine's update timing/exploration RNG (``EngineParams.seed``) and the
phase and jitter of the synthetic collector churn.  Sizing runs showed
why: worlds built from different seeds differ by +-15% in elements/s on
the same stream profile, and history scripts from different seeds by 3x
in element count at a fixed bin count — far outside any regression
bound.  With world and script pinned, different seeds give different
streams (different digests) that are statistically the same workload,
so a run-to-run spread measures the machine, not the dice.

The end-to-end workloads touch the program only through
``build_world``, ``World.make_kepler / rib_snapshot / run_events``,
``KeplerParams`` fields and the ``Kepler`` facade; everything else here
is the simulator (``repro.routing`` / ``repro.outages``), which is the
load generator's side of the boundary.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.validation import score_detections
from repro.bgp.communities import Community
from repro.bgp.messages import (
    BGPStateMessage,
    BGPUpdate,
    ElemType,
    SessionState,
)
from repro.outages.history import HISTORY_START, HistoryParams, generate_history
from repro.outages.scenario import OutageScenario
from repro.routing.engine import EngineParams
from repro.scenarios import build_world

#: Collector-feed rate the paced workload replays at, and the rate the
#: README's "multiple of real time" divides ``elements_per_s`` by.
FEED_RATE = 20_000.0
#: Synthetic churn density: ~1000 elements per 60 s bin.
ELEMENT_PERIOD_S = 0.06

#: Pinned world seeds (see the module docstring).
CHURN_WORLD_SEED = 1
HISTORY_WORLD_SEED = 2
#: Pinned outage-script seed of the churn overlays.
SCRIPT_SEED = 7

#: Nominal (``--scale 1.0``) sizes, from the issue's workload table.
STEADY_ELEMENTS = 600_000
STEADY_OUTAGES = 8
TAGGING_ELEMENTS = 60_000
HISTORY_DAYS = 1_600.0
PACED_SECONDS = 15.0

#: The scaled five-year survey of ``benchmarks/conftest.py``.
HISTORY_PARAMS = HistoryParams(
    seed=HISTORY_WORLD_SEED,
    n_facility_outages=34,
    n_ixp_outages=18,
    n_sandy_outages=4,
    n_as_events_per_year=8,
    n_depeerings_per_year=5,
    n_partial_per_year=2,
)

#: ``tagging_heavy`` profile (the ``synthesize_rich_stream`` shape).
RICH_PREPENDS = 640
RICH_DECOYS = 2
RICH_DECOY_VALUES = 3000
RICH_PREFIX_SPACE = 60


@dataclass
class Inputs:
    """One generated workload instance."""

    world: Any
    priming: list
    elements: list
    end_time: float
    #: ground-truth infrastructure outages the detector is scored on.
    truths: list = field(default_factory=list)
    #: truth ids the detector can possibly see (trackability bound).
    trackable: set = field(default_factory=set)

    def stream_digest(self) -> str:
        """Digest of the generated stream (every 8th element + length)."""
        h = hashlib.blake2b(digest_size=12)
        h.update(str(len(self.elements)).encode())
        for element in self.elements[::8]:
            h.update(repr(element).encode())
        return h.hexdigest()

    def score(self, records: list) -> tuple[int, int, int]:
        """(true positives, false negatives, false positives)."""
        colo = self.world.colo
        score = score_detections(
            records,
            self.truths,
            {m: set(f.fac_id_hints) for m, f in colo.facilities.items()},
            {m: set(x.ixp_id_hints) for m, x in colo.ixps.items()},
            self.trackable,
        )
        if not self.truths:
            # No script, so every record is background, not a false alarm.
            return 0, 0, 0
        return (
            score.true_positives,
            score.false_negatives,
            score.false_positives,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    #: "closed": the next chunk is fed when the previous call returns;
    #: "open": elements are due on a wall-clock schedule (FEED_RATE).
    loop: str
    build: Callable[[int, float], Inputs]
    #: ``KeplerParams`` fields that differ from the defaults.
    params: dict
    min_repeats: int
    #: scale used when ``--scale`` is not given: sized so one contract
    #: run (3 set-ups + warm-up + ``--seconds`` of replays) stays under
    #: ~25 s on a 2-core box, the driver's time cap divided by its runs.
    #: ``None`` (open loop): the paced replays share ``--seconds``.
    cap_scale: float | None
    #: detector-output floor at scale 1.0 (checked proportionally).
    min_records: int


# ----------------------------------------------------------------------
# Trackability (the paper's coverage bound, Section 5.2)
# ----------------------------------------------------------------------
def _trackable(world) -> tuple[list[str], list[str]]:
    """Ground-truth facility and IXP ids Kepler can possibly see."""
    locatable = world.dictionary.covered_asns()
    facs = sorted(
        hint
        for map_id in world.colo.trackable_facilities(locatable)
        for hint in world.colo.facilities[map_id].fac_id_hints
        if len(world.topo.facility_tenants.get(hint, ())) >= 6
    )
    ixps = sorted(
        ixp_id
        for ixp_id, members in world.topo.ixp_members.items()
        if len(members & locatable) >= 6 and world.map_ixp_id(ixp_id)
    )
    return facs, ixps


# ----------------------------------------------------------------------
# Synthetic collector churn
# ----------------------------------------------------------------------
def _flap(i: int, t: float, vantage: int) -> BGPStateMessage:
    down = (i // 20) % 2 == 0
    return BGPStateMessage(
        time=t,
        collector=f"rrc{i % 4:02d}",
        peer_asn=vantage,
        old_state=SessionState.ESTABLISHED if down else SessionState.IDLE,
        new_state=SessionState.IDLE if down else SessionState.ESTABLISHED,
    )


def steady_stream(world, rng: random.Random, n: int) -> list:
    """Dense collector steady state: memo-friendly, monitor-fold bound.

    70% announcements carrying one dictionary location community over a
    bounded key space, 20% withdrawals of the same keys, 5% bare
    announcements, 5% session flaps.  The seed picks the phase of the
    community cycle and a jitter table for inter-arrival times.
    """
    entries = sorted(world.dictionary.entries, key=str)
    asns = sorted(world.topo.ases)
    fars = asns[:16]
    phase = rng.randrange(len(entries))
    gaps = [rng.uniform(0.9, 1.1) * ELEMENT_PERIOD_S for _ in range(101)]
    elements: list = []
    t = 0.0
    for i in range(n):
        t += gaps[i % 101]
        mode = i % 20
        community = entries[(i + phase) % len(entries)]
        vantage = asns[-1 - (i % 8)]
        far = fars[i % 16]
        if community.asn in (vantage, far) or vantage == far:
            far = fars[(i + 7) % 16]
            if community.asn in (vantage, far) or vantage == far:
                continue
        collector = f"rrc{i % 4:02d}"
        prefix = f"10.{(i // 200) % 200}.{i % 200}.0/24"
        if mode == 19:
            elements.append(_flap(i, t, vantage))
        elif mode >= 14 and mode < 18:
            elements.append(
                BGPUpdate(
                    time=t,
                    collector=collector,
                    peer_asn=vantage,
                    prefix=prefix,
                    elem_type=ElemType.WITHDRAWAL,
                )
            )
        else:
            located = mode < 14
            elements.append(
                BGPUpdate(
                    time=t,
                    collector=collector,
                    peer_asn=vantage,
                    prefix=prefix,
                    elem_type=ElemType.ANNOUNCEMENT,
                    as_path=(vantage, community.asn, far)
                    if located
                    else (vantage, far),
                    communities=(community,) if located else (),
                )
            )
    return elements


def rich_stream(world, rng: random.Random, n: int) -> list:
    """Tagging-bound churn: long prepended paths, memo-defeating decoys.

    Every announcement rides a path with ``RICH_PREPENDS`` prepends (the
    sanitiser walks every hop) and carries a route-server community
    (member-pair search over the whole path) plus decoy communities
    whose value combinations never repeat, so the tagging memo cannot
    shortcut the work.  A quarter also carry a location community
    pinned to the prefix, so monitor state stays compact.
    """
    entries = sorted(world.dictionary.entries, key=str)
    rs_asns = sorted(world.dictionary.rs_asn_to_pop)
    asns = sorted(world.topo.ases)
    fars = asns[:16]
    keys = RICH_PREFIX_SPACE * RICH_PREFIX_SPACE
    phase = rng.randrange(keys)
    salt = rng.randrange(RICH_DECOY_VALUES)
    elements: list = []
    t = 0.0
    for i in range(n):
        t += ELEMENT_PERIOD_S
        mode = i % 20
        slot = (i + phase) % keys
        community = entries[slot % len(entries)]
        vantage = asns[-1 - (i % 8)]
        far = fars[i % 16]
        if community.asn in (vantage, far) or vantage == far:
            far = fars[(i + 7) % 16]
            if community.asn in (vantage, far) or vantage == far:
                continue
        mid = 64_000 + i % 7
        origin = 63_000 + i % 11
        collector = f"rrc{i % 4:02d}"
        prefix = (
            f"10.{slot // RICH_PREFIX_SPACE}.{slot % RICH_PREFIX_SPACE}.0/24"
        )
        if mode == 19:
            elements.append(_flap(i, t, vantage))
        elif mode >= 17:
            elements.append(
                BGPUpdate(
                    time=t,
                    collector=collector,
                    peer_asn=vantage,
                    prefix=prefix,
                    elem_type=ElemType.WITHDRAWAL,
                )
            )
        else:
            decoys = tuple(
                Community(
                    65_000 + d, (salt + i * (d + 3)) % RICH_DECOY_VALUES
                )
                for d in range(RICH_DECOYS)
            )
            route_server = Community(rs_asns[slot % len(rs_asns)], 100)
            location = (community,) if mode < 4 else ()
            elements.append(
                BGPUpdate(
                    time=t,
                    collector=collector,
                    peer_asn=vantage,
                    prefix=prefix,
                    elem_type=ElemType.ANNOUNCEMENT,
                    as_path=(vantage,)
                    + (mid,) * RICH_PREPENDS
                    + (community.asn, far)
                    + (origin,) * 2,
                    communities=(*location, route_server, *decoys),
                )
            )
    return elements


def _baseline_withdrawals(priming: list, at: float) -> list:
    """Withdraw every fifth primed path: real divergences downstream."""
    return [
        BGPUpdate(
            time=at + j * 0.01,
            collector=update.collector,
            peer_asn=update.peer_asn,
            prefix=update.prefix,
            elem_type=ElemType.WITHDRAWAL,
        )
        for j, update in enumerate(priming[::5])
    ]


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _churn_with_outages(seed: int, n: int, n_outages: int) -> Inputs:
    """``steady_stream`` overlaid with routing-engine outages."""
    world = build_world(
        seed=CHURN_WORLD_SEED, engine_params=EngineParams(seed=seed)
    )
    facs, ixps = _trackable(world)
    # Largest targets first: the script is pinned, so take the outages
    # most likely to clear the PoP-level rule rather than random ones.
    facs.sort(key=lambda f: -len(world.topo.facility_tenants[f]))
    ixps.sort(key=lambda x: -len(world.topo.ixp_members[x]))
    script = random.Random(SCRIPT_SEED)
    horizon = n * ELEMENT_PERIOD_S
    scenario = OutageScenario(name="churn-overlay")
    for j in range(n_outages):
        start = horizon * (j + 0.3) / n_outages
        duration = script.uniform(900.0, 2400.0)
        if j % 3 == 2:
            scenario.add_ixp_outage(ixps[(j // 3) % len(ixps)], start, duration)
        else:
            scenario.add_facility_outage(facs[j % len(facs)], start, duration)
    priming = world.rib_snapshot(0.0)
    elements = world.run_events(scenario.sorted_events())
    elements.extend(steady_stream(world, random.Random(seed), n))
    elements.sort(key=lambda e: e.sort_key())
    return Inputs(
        world=world,
        priming=priming,
        elements=elements,
        end_time=elements[-1].time + 3600.0,
        truths=scenario.infrastructure_truth(),
        trackable=set(facs) | set(ixps),
    )


def build_steady_churn(seed: int, scale: float) -> Inputs:
    return _churn_with_outages(
        seed,
        max(2_000, int(STEADY_ELEMENTS * scale)),
        max(1, round(STEADY_OUTAGES * scale)),
    )


def build_shard_procs(seed: int, scale: float) -> Inputs:
    return build_steady_churn(seed, scale / 3.0)


def build_paced_live(seed: int, scale: float) -> Inputs:
    """The churn profile sized to one paced repeat at ``FEED_RATE``."""
    n = max(2_000, int(FEED_RATE * PACED_SECONDS * scale))
    return _churn_with_outages(
        seed, n, max(1, round(STEADY_OUTAGES * n / STEADY_ELEMENTS))
    )


def build_tagging_heavy(seed: int, scale: float) -> Inputs:
    world = build_world(seed=CHURN_WORLD_SEED)
    n = max(1_000, int(TAGGING_ELEMENTS * scale))
    priming = world.rib_snapshot(0.0)
    elements = rich_stream(world, random.Random(seed), n)
    elements.extend(
        _baseline_withdrawals(priming, n * ELEMENT_PERIOD_S * 0.5)
    )
    elements.sort(key=lambda e: e.sort_key())
    return Inputs(
        world=world,
        priming=priming,
        elements=elements,
        end_time=elements[-1].time + 3600.0,
    )


def build_sparse_history(seed: int, scale: float) -> Inputs:
    """The scaled five-year survey, truncated to ``scale`` of its days.

    The script is the full ``HISTORY_PARAMS`` history; only outages
    starting inside the window are kept (with their recoveries), which
    preserves the outage density of the full run at any scale.
    """
    world = build_world(
        seed=HISTORY_WORLD_SEED,
        n_tier2_vantages=32,
        engine_params=EngineParams(seed=seed),
    )
    facs, ixps = _trackable(world)
    history = generate_history(
        world.topo, HISTORY_PARAMS, trackable_only_facilities=set(facs)
    )
    cut = HISTORY_START + HISTORY_DAYS * scale * 86400.0
    kept = [truth for truth in history.truth if truth.start < cut]
    # ``add_*`` stamps the recovery at ``start + duration_s``, which is
    # exactly ``truth.end``: event times identify their outage.
    stamps = {t.start for t in kept} | {t.end for t in kept}
    events = [te for te in history.sorted_events() if te[0] in stamps]
    priming = world.rib_snapshot(HISTORY_START - 86400.0)
    elements = world.run_events(events)
    return Inputs(
        world=world,
        priming=priming,
        elements=elements,
        end_time=cut + 86400.0,
        truths=[t for t in kept if t.kind in ("facility", "ixp")],
        trackable=set(facs) | set(ixps),
    )


#: Why each workload was chosen is recorded in BENCHMARK.json (``why``)
#: and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady_churn",
            loop="closed",
            build=build_steady_churn,
            params={},
            min_repeats=5,
            cap_scale=0.25,
            min_records=1,
        ),
        Workload(
            name="tagging_heavy",
            loop="closed",
            build=build_tagging_heavy,
            params={},
            min_repeats=5,
            cap_scale=0.5,
            min_records=1,
        ),
        Workload(
            name="sparse_history",
            loop="closed",
            build=build_sparse_history,
            params={},
            min_repeats=3,
            cap_scale=0.1,
            min_records=15,
        ),
        Workload(
            name="shard_procs",
            loop="closed",
            build=build_shard_procs,
            params={"shard_processes": 2},
            min_repeats=5,
            cap_scale=0.5,
            min_records=1,
        ),
        Workload(
            name="paced_live",
            loop="open",
            build=build_paced_live,
            params={},
            min_repeats=2,
            cap_scale=None,
            min_records=1,
        ),
    )
}

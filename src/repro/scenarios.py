"""End-to-end world assembly.

Wires every substrate together the way the paper's deployment did:

* ground-truth topology (unknowable to Kepler) feeds
* noisy colocation exports -> colocation map,
* community documentation -> community dictionary,
* the policy-routing engine -> BGP streams via collectors,

and returns a :class:`World` bundling the Kepler-visible inputs with the
ground truth needed for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.messages import BGPUpdate, StreamElement
from repro.core.colocation import ColocationMap, build_colocation_map
from repro.core.dataplane import DataPlaneValidator
from repro.core.kepler import Kepler, KeplerParams
from repro.docmine.corpus import generate_corpus
from repro.docmine.dictionary import CommunityDictionary, build_dictionary
from repro.docmine.scraper import WebScraper
from repro.geo.geocoder import Geocoder
from repro.routing.engine import CollectorLayout, EngineParams, RoutingEngine
from repro.routing.events import InfraEvent
from repro.topology.builder import WorldParams, build_topology
from repro.topology.entities import Topology
from repro.topology.sources import export_datacentermap, export_peeringdb


@dataclass
class World:
    """A fully wired simulation world."""

    topo: Topology
    colo: ColocationMap
    dictionary: CommunityDictionary
    as2org: dict[int, str]
    engine: RoutingEngine
    seed: int = 0
    _fac_to_map: dict[str, str] = field(default_factory=dict)
    _ixp_to_map: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Ground truth <-> map-space translation (evaluation only)
    # ------------------------------------------------------------------
    def map_facility_id(self, fac_id: str) -> str | None:
        """Colocation-map id of a ground-truth facility (None if unmapped)."""
        return self._fac_to_map.get(fac_id)

    def map_ixp_id(self, ixp_id: str) -> str | None:
        return self._ixp_to_map.get(ixp_id)

    def truth_facility_ids(self, map_id: str) -> set[str]:
        fac = self.colo.facilities.get(map_id)
        return set(fac.fac_id_hints) if fac else set()

    def truth_ixp_ids(self, map_id: str) -> set[str]:
        ixp = self.colo.ixps.get(map_id)
        return set(ixp.ixp_id_hints) if ixp else set()

    def build_translation(self) -> None:
        self._fac_to_map.clear()
        self._ixp_to_map.clear()
        for map_id, fac in self.colo.facilities.items():
            for hint in fac.fac_id_hints:
                self._fac_to_map[hint] = map_id
        for map_id, ixp in self.colo.ixps.items():
            for hint in ixp.ixp_id_hints:
                self._ixp_to_map[hint] = map_id

    # ------------------------------------------------------------------
    def make_kepler(
        self,
        params: KeplerParams | None = None,
        validator: DataPlaneValidator | None = None,
    ) -> Kepler:
        return Kepler(
            dictionary=self.dictionary,
            colo=self.colo,
            as2org=self.as2org,
            params=params,
            validator=validator,
        )

    def rib_snapshot(self, time: float = 0.0) -> list[BGPUpdate]:
        return self.engine.rib_snapshot(time)

    def run_events(
        self, timed_events: list[tuple[float, InfraEvent]]
    ) -> list[StreamElement]:
        """Apply a timed event sequence; return the merged sorted stream.

        One stable sort on ``sort_key()``: equal keys keep the order the
        engine emitted them in, which is the order a ``BGPStream`` merge
        (ties broken by push order) would drain.
        """
        elements: list[StreamElement] = []
        for when, event in sorted(timed_events, key=lambda te: te[0]):
            elements.extend(self.engine.apply_event(event, when))
        elements.sort(key=lambda e: e.sort_key())
        return elements


def build_world(
    seed: int = 0,
    world_params: WorldParams | None = None,
    engine_params: EngineParams | None = None,
    layout: CollectorLayout | None = None,
    undocumented_rate: float = 0.12,
    n_tier2_vantages: int = 12,
) -> World:
    """Assemble the default world for experiments and examples.

    ``n_tier2_vantages`` sizes the collector-peer set (more vantage
    points -> more monitored paths per PoP -> better recall for small
    facilities, at a linear runtime cost).
    """
    params = world_params or WorldParams(seed=seed)
    topo = build_topology(params)
    if layout is None:
        layout = CollectorLayout.default(topo, seed=seed, n_tier2=n_tier2_vantages)

    fac_pdb, ixp_pdb = export_peeringdb(topo, seed=seed)
    fac_dcm, ixp_dcm = export_datacentermap(topo, seed=seed)
    colo = build_colocation_map(fac_pdb + fac_dcm, ixp_pdb + ixp_dcm)

    pages = generate_corpus(topo, seed=seed, undocumented_rate=undocumented_rate)
    scraper = WebScraper(pages, seed=seed)
    rs_records: dict[int, str] = {}
    for map_id, mixp in colo.ixps.items():
        for hint in mixp.ixp_id_hints:
            rs_records[topo.ixps[hint].rs_asn] = map_id
    dictionary = build_dictionary(
        scraper.crawl(), colo, geocoder=Geocoder(), rs_records=rs_records
    )

    # AS-to-organization dataset (the paper: CAIDA as2org).
    as2org = {asn: rec.org_id for asn, rec in topo.ases.items()}

    engine = RoutingEngine(
        topo,
        layout=layout or CollectorLayout.default(topo, seed=seed),
        params=engine_params or EngineParams(seed=seed),
    )
    world = World(
        topo=topo,
        colo=colo,
        dictionary=dictionary,
        as2org=as2org,
        engine=engine,
        seed=seed,
    )
    world.build_translation()
    return world


def build_validator(
    world: World,
    baseline_start: float,
    seed: int = 0,
    targets_stride: int = 6,
    daily_credits: int = 10**9,
):
    """Assemble the traceroute validator for a world.

    Builds the address plan, measurement platform, hop mapper and a
    4-week archived baseline ending just before ``baseline_start`` —
    the full data-plane stack of Section 4.4.
    """
    from repro.traceroute import (
        AddressPlan,
        HopMapper,
        MeasurementPlatform,
        TraceArchive,
        TracerouteSimulator,
        TracerouteValidator,
    )

    plan = AddressPlan(world.topo)
    simulator = TracerouteSimulator(world.engine, plan, seed=seed)
    platform = MeasurementPlatform(
        simulator=simulator, daily_credits=daily_credits, seed=seed
    )
    mapper = HopMapper(
        plan,
        ixp_truth_to_map={
            i: m for i in world.topo.ixps if (m := world.map_ixp_id(i))
        },
        fac_truth_to_map={
            f: m
            for f in world.topo.facilities
            if (m := world.map_facility_id(f))
        },
    )
    from repro.traceroute.archive import TraceArchive, WEEK_S

    archive = TraceArchive(mapper=mapper)
    targets = sorted(
        a for a, r in world.topo.ases.items() if r.originates
    )[::targets_stride]
    archive.collect_weekly(
        platform, targets, start_time=baseline_start - 4 * WEEK_S, weeks=4
    )
    from repro.traceroute.validator import TracerouteValidator

    return TracerouteValidator(platform=platform, archive=archive, mapper=mapper)

"""Physical realisation of AS adjacencies and their failure semantics.

Each AS-level adjacency is backed by one or more concrete
interconnections (Figure 2): private network interconnects (PNIs) inside
a facility, or ports on an IXP fabric — which themselves live inside
facilities.  A facility outage therefore kills the PNIs it hosts *and*
the IXP ports on any fabric segment it hosts, which is exactly the
indirect coupling the paper's disambiguation logic untangles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.topology.entities import Relationship, Topology


class InterconnectKind(enum.Enum):
    PNI = "pni"
    IXP_LOCAL = "ixp_local"  # both members' ports in their own buildings
    IXP_REMOTE = "ixp_remote"  # at least one side peers remotely


@dataclass(frozen=True)
class Interconnection:
    """One physical realisation of an AS adjacency.

    For PNIs ``facility_a == facility_b`` is the shared building.  For
    IXP interconnections the facilities are each side's *port* buildings
    on the fabric (possibly different, possibly the same).
    """

    kind: InterconnectKind
    asn_a: int
    asn_b: int
    facility_a: str
    facility_b: str
    ixp_id: str | None = None

    def facility_of(self, asn: int) -> str:
        if asn == self.asn_a:
            return self.facility_a
        if asn == self.asn_b:
            return self.facility_b
        raise ValueError(f"AS{asn} is not an endpoint of this interconnection")

    @property
    def preference_rank(self) -> int:
        """Lower is preferred: PNI > local public > remote public."""
        return {
            InterconnectKind.PNI: 0,
            InterconnectKind.IXP_LOCAL: 1,
            InterconnectKind.IXP_REMOTE: 2,
        }[self.kind]


@dataclass
class FailureState:
    """The set of currently failed infrastructure elements."""

    facilities: set[str] = field(default_factory=set)
    ixps: set[str] = field(default_factory=set)
    #: Partial facility outages: (facility_id, asn) presences down.
    presences: set[tuple[str, int]] = field(default_factory=set)
    #: Individual IXP ports down: (ixp_id, asn).
    ixp_ports: set[tuple[str, int]] = field(default_factory=set)
    ases: set[int] = field(default_factory=set)
    links: set[frozenset[int]] = field(default_factory=set)

    def clear(self) -> None:
        self.facilities.clear()
        self.ixps.clear()
        self.presences.clear()
        self.ixp_ports.clear()
        self.ases.clear()
        self.links.clear()

    def any_active(self) -> bool:
        return bool(
            self.facilities
            or self.ixps
            or self.presences
            or self.ixp_ports
            or self.ases
            or self.links
        )

    # ------------------------------------------------------------------
    def interconnection_up(self, ic: Interconnection) -> bool:
        """Availability of a single physical interconnection."""
        if ic.facility_a in self.facilities or ic.facility_b in self.facilities:
            return False
        if ic.kind is InterconnectKind.PNI:
            return (
                (ic.facility_a, ic.asn_a) not in self.presences
                and (ic.facility_b, ic.asn_b) not in self.presences
            )
        assert ic.ixp_id is not None
        if ic.ixp_id in self.ixps:
            return False
        if (ic.ixp_id, ic.asn_a) in self.ixp_ports:
            return False
        if (ic.ixp_id, ic.asn_b) in self.ixp_ports:
            return False
        # A partial facility outage takes down member equipment in the
        # building, including their IXP-facing routers (local members).
        if (ic.facility_a, ic.asn_a) in self.presences:
            return False
        if (ic.facility_b, ic.asn_b) in self.presences:
            return False
        return True


@dataclass
class Adjacency:
    """An AS-level adjacency and all its physical realisations."""

    asn_a: int
    asn_b: int
    relationship: Relationship
    interconnections: tuple[Interconnection, ...]

    def __post_init__(self) -> None:
        if self.asn_a == self.asn_b:
            raise ValueError("self-adjacency")
        if not self.interconnections:
            raise ValueError(
                f"adjacency AS{self.asn_a}-AS{self.asn_b} has no physical"
                " realisation"
            )

    @property
    def pair(self) -> frozenset[int]:
        return frozenset((self.asn_a, self.asn_b))

    def select(self, failures: FailureState) -> Interconnection | None:
        """The interconnection BGP would use now, or None if all are down.

        Deterministic: ``interconnections`` is stored in preference order
        (PNI > local > remote public, geographically sensible tie-break,
        see :func:`build_adjacencies`); the first live one wins.
        """
        if self.asn_a in failures.ases or self.asn_b in failures.ases:
            return None
        if self.pair in failures.links:
            return None
        for ic in self.interconnections:
            if failures.interconnection_up(ic):
                return ic
        return None

    def touches_facility(self, fac_id: str) -> bool:
        return any(
            fac_id in (ic.facility_a, ic.facility_b) for ic in self.interconnections
        )

    def touches_ixp(self, ixp_id: str) -> bool:
        return any(ic.ixp_id == ixp_id for ic in self.interconnections)


def build_adjacencies(topo: Topology) -> dict[frozenset[int], Adjacency]:
    """Derive every AS adjacency with its physical interconnections.

    * customer-provider and explicit peer pairs with PNIs use those PNIs;
    * pairs sharing an IXP additionally (or only) interconnect over each
      IXP's fabric, through their respective port buildings.
    """
    adjacencies: dict[frozenset[int], Adjacency] = {}

    def geo_rank(ic: Interconnection, a: int, b: int) -> float:
        """Distance of the interconnection from the AS pair's midpoint.

        Operators prefer the interconnection closest to where the two
        networks actually live, so re-routing after a failure moves
        traffic to the *next nearest* option — which is what makes the
        RTT penalties of Figure 10c geographically meaningful.
        """
        from repro.geo.distance import haversine_km, midpoint

        home_a = topo.ases[a].home_city
        home_b = topo.ases[b].home_city
        mid_lat, mid_lon = midpoint(home_a.lat, home_a.lon, home_b.lat, home_b.lon)
        fac = topo.facilities[ic.facility_a]
        return haversine_km(mid_lat, mid_lon, fac.lat, fac.lon)

    def interconnections_for(a: int, b: int) -> tuple[Interconnection, ...]:
        ics: list[Interconnection] = []
        pair = frozenset((a, b))
        for fac_id in sorted(topo.pnis.get(pair, set())):
            ics.append(
                Interconnection(
                    kind=InterconnectKind.PNI,
                    asn_a=a,
                    asn_b=b,
                    facility_a=fac_id,
                    facility_b=fac_id,
                )
            )
        for ixp_id in sorted(topo.common_ixps(a, b)):
            port_a = topo.ixp_ports[(ixp_id, a)]
            port_b = topo.ixp_ports[(ixp_id, b)]
            kind = (
                InterconnectKind.IXP_REMOTE
                if (port_a.remote or port_b.remote)
                else InterconnectKind.IXP_LOCAL
            )
            ics.append(
                Interconnection(
                    kind=kind,
                    asn_a=a,
                    asn_b=b,
                    facility_a=port_a.facility_id,
                    facility_b=port_b.facility_id,
                    ixp_id=ixp_id,
                )
            )
        ics.sort(
            key=lambda ic: (
                ic.preference_rank,
                round(geo_rank(ic, a, b), 3),
                ic.facility_a,
                ic.facility_b,
            )
        )
        return tuple(ics)

    def add(a: int, b: int, rel: Relationship) -> None:
        pair = frozenset((a, b))
        if pair in adjacencies:
            return
        ics = interconnections_for(a, b)
        if not ics:
            return  # no physical realisation: the link cannot exist
        adjacencies[pair] = Adjacency(
            asn_a=a, asn_b=b, relationship=rel, interconnections=ics
        )

    for asn in sorted(topo.providers):
        for prov in sorted(topo.providers[asn]):
            add(asn, prov, Relationship.CUSTOMER_PROVIDER)
    for pair in sorted(topo.peers, key=sorted):
        a, b = sorted(pair)
        add(a, b, Relationship.PEER_PEER)
    return adjacencies

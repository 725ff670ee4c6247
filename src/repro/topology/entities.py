"""Core topology entities: organizations, ASes, facilities, IXPs.

These are the ground-truth objects the rest of the system observes only
indirectly — through BGP updates, community documentation, and noisy
colocation databases — exactly the epistemic position Kepler is in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.geo.cities import City

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.topology.communities import CommunityScheme, RouteServerScheme


class ASTier(enum.Enum):
    """Coarse position of an AS in the inter-domain hierarchy."""

    TIER1 = "tier1"
    TIER2 = "tier2"
    ACCESS = "access"  # eyeball / regional access networks
    CONTENT = "content"  # content providers, CDNs, clouds


class Relationship(enum.Enum):
    """Gao-Rexford business relationship between two ASes."""

    CUSTOMER_PROVIDER = "c2p"
    PEER_PEER = "p2p"


@dataclass(frozen=True)
class Organization:
    """An operator that may run several sibling ASes (Section 4.3)."""

    org_id: str
    name: str
    country: str


@dataclass(frozen=True)
class Address:
    """Building-level address of a facility (Section 3.3).

    The postcode + country pair is the merge key used to identify the same
    facility across colocation databases with inconsistent naming.
    """

    street: str
    postcode: str
    city_name: str
    country: str


@dataclass
class AutonomousSystem:
    """An autonomous system, possibly one of an organization's siblings."""

    asn: int
    name: str
    org_id: str
    tier: ASTier
    home_city: City
    uses_communities: bool = False
    scheme: "CommunityScheme | None" = None
    prefixes_v4: tuple[str, ...] = ()
    prefixes_v6: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.asn <= 4_294_967_295:
            raise ValueError(f"invalid ASN {self.asn}")

    @property
    def originates(self) -> bool:
        return bool(self.prefixes_v4 or self.prefixes_v6)


@dataclass(frozen=True)
class Facility:
    """A colocation facility (carrier-neutral interconnection building)."""

    fac_id: str
    name: str
    operator: str
    city: City
    address: Address
    lat: float
    lon: float


@dataclass(frozen=True)
class IXPPort:
    """A member's physical port on an IXP fabric.

    ``facility_id`` is the building hosting the port.  For remote peering
    the member has no presence in that building: it reaches the port over
    a layer-2 reseller (Section 6.4), so the member's routers may be
    hundreds of km from the fabric.
    """

    ixp_id: str
    asn: int
    facility_id: str
    remote: bool = False
    reseller: str | None = None


@dataclass(frozen=True)
class IXP:
    """An Internet exchange point: a layer-2 fabric spanning facilities."""

    ixp_id: str
    name: str
    rs_asn: int  # ASN of the route servers
    city: City
    website: str
    facility_ids: tuple[str, ...]  # buildings hosting switch fabric

    def __post_init__(self) -> None:
        if not self.facility_ids:
            raise ValueError(f"IXP {self.name} must span at least one facility")


@dataclass
class Topology:
    """The complete ground-truth world.

    All membership dictionaries are total over their key space (every
    facility/IXP/AS appears, possibly with an empty set) — this keeps
    downstream lookups simple and explicit.
    """

    ases: dict[int, AutonomousSystem] = field(default_factory=dict)
    orgs: dict[str, Organization] = field(default_factory=dict)
    facilities: dict[str, Facility] = field(default_factory=dict)
    ixps: dict[str, IXP] = field(default_factory=dict)

    # AS <-> facility presence.
    facility_tenants: dict[str, set[int]] = field(default_factory=dict)
    as_facilities: dict[int, set[str]] = field(default_factory=dict)

    # AS <-> IXP membership with port-level detail.
    ixp_members: dict[str, set[int]] = field(default_factory=dict)
    ixp_ports: dict[tuple[str, int], IXPPort] = field(default_factory=dict)

    # Business relationships.
    providers: dict[int, set[int]] = field(default_factory=dict)
    peers: set[frozenset[int]] = field(default_factory=set)

    # Private interconnects: unordered AS pair -> facilities hosting a PNI.
    pnis: dict[frozenset[int], set[str]] = field(default_factory=dict)

    # Route server schemes per IXP.
    rs_schemes: dict[str, "RouteServerScheme"] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def customers(self, asn: int) -> set[int]:
        """ASes that buy transit from ``asn``."""
        return {a for a, provs in self.providers.items() if asn in provs}

    def as_ixps(self, asn: int) -> set[str]:
        """IXPs where the AS is a member."""
        return {ixp_id for ixp_id, members in self.ixp_members.items() if asn in members}

    def common_facilities(self, asn_a: int, asn_b: int) -> set[str]:
        """Facilities where both ASes have a physical presence."""
        return self.as_facilities.get(asn_a, set()) & self.as_facilities.get(asn_b, set())

    def common_ixps(self, asn_a: int, asn_b: int) -> set[str]:
        return self.as_ixps(asn_a) & self.as_ixps(asn_b)

    def facilities_in_city(self, city_name: str) -> set[str]:
        return {
            fac_id
            for fac_id, fac in self.facilities.items()
            if fac.city.name == city_name
        }

    def validate(self) -> None:
        """Check referential integrity; raise ``ValueError`` on violation."""
        for asn, facs in self.as_facilities.items():
            if asn not in self.ases:
                raise ValueError(f"as_facilities references unknown ASN {asn}")
            for fac_id in facs:
                if fac_id not in self.facilities:
                    raise ValueError(f"unknown facility {fac_id} for AS{asn}")
                if asn not in self.facility_tenants.get(fac_id, set()):
                    raise ValueError(
                        f"asymmetric facility membership AS{asn}@{fac_id}"
                    )
        for ixp_id, members in self.ixp_members.items():
            if ixp_id not in self.ixps:
                raise ValueError(f"unknown IXP {ixp_id}")
            for asn in members:
                port = self.ixp_ports.get((ixp_id, asn))
                if port is None:
                    raise ValueError(f"member AS{asn} of {ixp_id} has no port")
                if port.facility_id not in self.ixps[ixp_id].facility_ids:
                    raise ValueError(
                        f"port of AS{asn} at {ixp_id} is outside the fabric"
                    )
        for pair in self.peers:
            if len(pair) != 2:
                raise ValueError(f"malformed peer pair {set(pair)}")
        for asn, provs in self.providers.items():
            if asn in provs:
                raise ValueError(f"AS{asn} is its own provider")
        for pair, facs in self.pnis.items():
            for fac_id in facs:
                if fac_id not in self.facilities:
                    raise ValueError(f"PNI {set(pair)} at unknown facility {fac_id}")

"""Per-operator BGP community schemes (ground truth).

Every community-using AS defines a scheme mapping 16-bit values to
meanings.  Ingress values tag where a route entered the network — at
city, facility, or IXP granularity (Section 3.2, Figure 4) — and outbound
values encode traffic-engineering *actions* ("announce to", "prepend at",
"do not export"), which the paper's NLP pipeline must filter out via
active/passive voice analysis.

Route servers use a separate redistribution scheme (RFC 7948-style): any
community whose top 16 bits equal the route-server ASN marks a route as
having traversed that IXP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.bgp.communities import Community


class TagKind(enum.Enum):
    """Granularity of a location-encoding ingress community."""

    CITY = "city"
    FACILITY = "facility"
    IXP = "ixp"


@dataclass(frozen=True)
class CommunityTag:
    """The meaning of one ingress community value.

    ``target_id`` is a city name for CITY tags, a facility id for FACILITY
    tags, and an IXP id for IXP tags.
    """

    kind: TagKind
    target_id: str


#: Outbound (action) community verbs, used as documentation noise the
#: dictionary builder must reject.
OUTBOUND_ACTIONS = (
    "announce",
    "prepend once",
    "prepend twice",
    "block",
    "set local-preference 80",
    "blackhole",
)


@dataclass
class CommunityScheme:
    """Ground-truth community scheme of one AS.

    ``ingress`` maps the low 16 bits of a community to its location tag;
    ``outbound`` maps values to action strings.  Value spaces are disjoint
    by construction (checked in ``__post_init__``).
    """

    asn: int
    ingress: dict[int, CommunityTag] = field(default_factory=dict)
    outbound: dict[int, str] = field(default_factory=dict)
    #: Probability the AS attaches its ingress community on IPv6 routes.
    #: ISPs invest less in IPv6 TE (Section 5.2) — hence lower coverage.
    ipv6_tagging_rate: float = 0.6

    def __post_init__(self) -> None:
        overlap = set(self.ingress) & set(self.outbound)
        if overlap:
            raise ValueError(f"AS{self.asn}: values used both ways: {overlap}")
        for value in list(self.ingress) + list(self.outbound):
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"community value {value} out of 16-bit range")

    # ------------------------------------------------------------------
    def community_for(self, kind: TagKind, target_id: str) -> Community | None:
        """The full community this AS attaches for a given ingress point."""
        for value, tag in self.ingress.items():
            if tag.kind is kind and tag.target_id == target_id:
                return Community(self.asn, value)
        return None

    def granularities(self) -> set[TagKind]:
        return {tag.kind for tag in self.ingress.values()}


@dataclass(frozen=True)
class RouteServerScheme:
    """Redistribution communities used by an IXP route server.

    A route carrying any community with ``rs_asn`` in the top 16 bits
    traversed the IXP (Section 3.2, "IXP Path Redistribution
    Communities").
    """

    ixp_id: str
    rs_asn: int
    #: Conventional redistribution values (announce-to-all, block-all, ...).
    values: tuple[int, ...] = (0, 1, 666, 1000)

    def marker(self) -> Community:
        """The community the route server stamps on redistributed routes."""
        return Community(self.rs_asn, self.values[0])

    def matches(self, community: Community) -> bool:
        return community.asn == self.rs_asn

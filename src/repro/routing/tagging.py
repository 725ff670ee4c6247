"""Ingress community tagging of routes (Section 3.2, Figure 4).

Every community-using AS on a path applies its ingress community for the
point where it *received* the route from the next hop towards the origin:
a facility tag for the shared building (PNI) or its own port building
(IXP), an IXP tag when the route crossed an exchange, or a city tag.
Route servers additionally stamp their redistribution community.

IPv6 routes are tagged with a per-operator probability < 1 (ISPs care
less about IPv6 traffic engineering), reproducing the IPv4/IPv6 coverage
gap of Figure 7c.  The decision is a deterministic hash of
(ASN, prefix), so a given route is either always or never tagged — a
requirement for Kepler's stable-path baseline to make sense.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.bgp.communities import Community
from repro.routing.interconnection import Interconnection
from repro.topology.communities import TagKind
from repro.topology.entities import Topology


# Pure in its arguments.  The per-AS, per-pair and per-IXP decisions (a
# few thousand keys, asked again for every route that crosses them) are
# what the cache is for; the per-prefix ones churn through it, so the
# bound stays small — 64k entries measured +4% peak RSS on the ledger.
@lru_cache(maxsize=4096)
def _stable_fraction(*parts: object) -> float:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


#: Probability that an AS strips foreign communities it receives before
#: re-exporting (per upstream/tagger pair, deterministic).  Stripping is
#: why only about half of IPv4 paths carry location communities at the
#: collectors (Figure 7c) even though most large ASes tag.
STRIP_RATE = 0.35


def _survives_propagation(path: tuple[int, ...], tagger_index: int) -> bool:
    """Does a community set at ``path[tagger_index]`` reach the vantage?

    Every AS between the tagger and the collector peer (indices below
    ``tagger_index``) independently strips with ``STRIP_RATE``; the
    decision is a stable hash so baselines stay stable.
    """
    for j in range(tagger_index):
        if _stable_fraction("strip", path[j], path[tagger_index]) < STRIP_RATE:
            return False
    return True


class RouteTags:
    """The communities of one route, derived once for all its prefixes.

    Route-server markers, stripping and every tagger's facility, IXP and
    city tags depend on the route alone; per prefix only the IPv6 draw
    (does the tagger tag this prefix at all) and the leak draw remain.
    ``interconnections[i]`` realises the adjacency ``path[i]–path[i+1]``.
    """

    __slots__ = ("_markers", "_taggers")

    def __init__(
        self,
        topo: Topology,
        path: tuple[int, ...],
        interconnections: tuple[Interconnection, ...],
    ) -> None:
        if len(interconnections) != max(0, len(path) - 1):
            raise ValueError("one interconnection per path edge required")
        markers: set[Community] = set()
        #: (asn, IPv6 tagging rate, location tags, leaked community)
        taggers: list[
            tuple[int, float, tuple[Community, ...], Community | None]
        ] = []
        for i, ic in enumerate(interconnections):
            asn = path[i]
            rec = topo.ases.get(asn)
            if rec is None:
                continue
            # Route-server redistribution marker: set by the route server
            # on multilateral sessions (roughly three quarters of public
            # peerings; bilateral sessions carry none), then subject to the
            # same stripping as any other community.
            if ic.ixp_id is not None:
                rs = topo.rs_schemes.get(ic.ixp_id)
                if (
                    rs is not None
                    and _stable_fraction("rs", ic.ixp_id, ic.asn_a, ic.asn_b) < 0.75
                    and _survives_propagation(path, i)
                ):
                    markers.add(rs.marker())
            scheme = rec.scheme
            if scheme is None or not rec.uses_communities:
                continue
            # The first AS is the collector peer itself: many operators
            # scrub their internal ingress tags on eBGP export, so only
            # some vantage ASes reveal their own communities (per-AS,
            # deterministic — baselines stay stable).
            if i == 0 and _stable_fraction("self-export", asn) < 0.55:
                continue
            if not _survives_propagation(path, i):
                continue
            ingress_fac = ic.facility_of(asn)
            fac = topo.facilities[ingress_fac]
            location = (
                scheme.community_for(TagKind.FACILITY, ingress_fac),
                None
                if ic.ixp_id is None
                else scheme.community_for(TagKind.IXP, ic.ixp_id),
                scheme.community_for(TagKind.CITY, fac.city.name),
            )
            # Occasional leaked outbound community — dictionary noise the
            # voice-filtering step must have excluded from location lookups.
            leak = Community(asn, min(scheme.outbound)) if scheme.outbound else None
            taggers.append(
                (
                    asn,
                    scheme.ipv6_tagging_rate,
                    tuple(c for c in location if c is not None),
                    leak,
                )
            )
        self._markers = frozenset(markers)
        self._taggers = tuple(taggers)

    def for_prefix(
        self, afi: int = 4, prefix: str = "", noise: bool = True
    ) -> tuple[Community, ...]:
        """Sorted, de-duplicated communities of the route for ``prefix``."""
        tags = set(self._markers)
        for asn, ipv6_rate, location, leak in self._taggers:
            if afi == 6 and _stable_fraction("v6", asn, prefix) >= ipv6_rate:
                continue
            tags.update(location)
            if (
                noise
                and leak is not None
                and _stable_fraction("leak", asn, prefix) < 0.10
            ):
                tags.add(leak)
        return tuple(sorted(tags))


"""Oracles the routing simulator is checked against (tests/test_routing.py).

* ``RouteInfo`` and ``compute_routes``: one route as an object, and
  every AS's best route towards an origin as that object — the view
  the tests read ``routing/policy.py::route_table`` through.
* ``tag_path``: the communities of one route for one prefix, through
  ``routing/tagging.py::RouteTags``.
* ``oracle_routes``: the ``RouteInfo`` BFS that ``routing/policy.py``
  ran before it moved to plain tuples, kept verbatim.  Slow on purpose:
  a frozen dataclass per candidate, comparisons through
  ``PathClass.value``.
* ``oracle_tag_path``: the one-shot ``tag_path`` body that
  ``routing/tagging.py`` ran per prefix before ``RouteTags`` derived a
  route's prefix-independent communities once, kept verbatim.
* ``is_valley_free``: the Gao-Rexford export rule read off a path
  against the topology's ground-truth relationships.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.bgp.communities import Community
from repro.routing.interconnection import Interconnection
from repro.routing.policy import AdjacencyIndex, PathClass, route_table
from repro.routing.tagging import (
    RouteTags,
    _stable_fraction,
    _survives_propagation,
)
from repro.topology.communities import TagKind
from repro.topology.entities import Topology


@dataclass(frozen=True)
class RouteInfo:
    """Best route of one AS towards the origin."""

    path: tuple[int, ...]  # from this AS to the origin, inclusive
    path_class: PathClass

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def compute_routes(
    index: AdjacencyIndex, origin: int, down_ases: frozenset[int] = frozenset()
) -> dict[int, RouteInfo]:
    """``route_table`` with each row as a :class:`RouteInfo`."""
    return {
        asn: RouteInfo(path=path, path_class=PathClass(path_class))
        for asn, (path_class, _, path) in route_table(
            index, origin, down_ases
        ).items()
    }


def tag_path(
    topo: Topology,
    path: tuple[int, ...],
    interconnections: tuple[Interconnection, ...],
    afi: int = 4,
    prefix: str = "",
    noise: bool = True,
) -> tuple[Community, ...]:
    """Communities visible on a route with the given physical realisation.

    ``interconnections[i]`` realises the adjacency ``path[i]–path[i+1]``.
    Returns a sorted, de-duplicated tuple (deterministic attribute order).
    """
    return RouteTags(topo, path, interconnections).for_prefix(afi, prefix, noise)


def oracle_routes(
    index: AdjacencyIndex, origin: int, down_ases: frozenset[int] = frozenset()
) -> dict[int, RouteInfo]:
    """Best Gao-Rexford route of every AS towards ``origin``.

    ASes with no policy-compliant path are absent from the result.
    ``down_ases`` are excluded entirely (AS-level outages).
    """
    if origin in down_ases:
        return {}
    best: dict[int, RouteInfo] = {
        origin: RouteInfo(path=(origin,), path_class=PathClass.ORIGIN)
    }

    # Phase 1: customer routes — BFS uphill over provider edges.
    queue: deque[int] = deque([origin])
    while queue:
        u = queue.popleft()
        route_u = best[u]
        for p in index.providers_of[u]:
            if p in down_ases or not index.up(u, p):
                continue
            candidate = RouteInfo(
                path=(p,) + route_u.path, path_class=PathClass.CUSTOMER
            )
            incumbent = best.get(p)
            if incumbent is None:
                best[p] = candidate
                queue.append(p)
            elif _better(candidate, incumbent):
                best[p] = candidate
                # BFS order guarantees hops are non-decreasing, so a
                # later candidate can only win on the ASN tie-break at
                # equal length; no requeue needed (its own exports keep
                # the same length and class).
                if candidate.hops == incumbent.hops:
                    queue.append(p)

    customer_routes = dict(best)

    # Phase 2: peer routes — one lateral step from a customer route.
    for u in sorted(index.peers_of):
        if u in best or u in down_ases:
            continue
        candidates: list[RouteInfo] = []
        for v in index.peers_of[u]:
            route_v = customer_routes.get(v)
            if route_v is None or v in down_ases or not index.up(u, v):
                continue
            if u in route_v.path:
                continue
            candidates.append(
                RouteInfo(path=(u,) + route_v.path, path_class=PathClass.PEER)
            )
        if candidates:
            best[u] = min(candidates, key=_route_key)

    # Phase 3: provider routes — flood downhill (provider -> customer).
    frontier = sorted(best, key=lambda a: (best[a].hops, a))
    queue = deque(frontier)
    while queue:
        u = queue.popleft()
        route_u = best[u]
        for c in index.customers_of[u]:
            if c in down_ases or not index.up(c, u):
                continue
            if c in route_u.path:
                continue
            candidate = RouteInfo(
                path=(c,) + route_u.path, path_class=PathClass.PROVIDER
            )
            incumbent = best.get(c)
            if incumbent is None or _better(candidate, incumbent):
                # Customer/peer routes always beat provider routes, so we
                # only ever replace provider routes here.
                if incumbent is not None and incumbent.path_class is not PathClass.PROVIDER:
                    continue
                best[c] = candidate
                queue.append(c)
    return best


def _route_key(route: RouteInfo) -> tuple[int, int, int]:
    next_hop = route.path[1] if len(route.path) > 1 else 0
    return (route.path_class.value, route.hops, next_hop)


def _better(a: RouteInfo, b: RouteInfo) -> bool:
    return _route_key(a) < _route_key(b)


def oracle_tag_path(
    topo: Topology,
    path: tuple[int, ...],
    interconnections: tuple[Interconnection, ...],
    afi: int = 4,
    prefix: str = "",
    noise: bool = True,
) -> tuple[Community, ...]:
    """Communities visible on a route with the given physical realisation.

    ``interconnections[i]`` realises the adjacency ``path[i]–path[i+1]``.
    Returns a sorted, de-duplicated tuple (deterministic attribute order).
    """
    if len(interconnections) != max(0, len(path) - 1):
        raise ValueError("one interconnection per path edge required")
    tags: set[Community] = set()
    for i, ic in enumerate(interconnections):
        asn = path[i]
        rec = topo.ases.get(asn)
        if rec is None:
            continue
        # Route-server redistribution marker: set by the route server on
        # multilateral sessions (roughly three quarters of public
        # peerings; bilateral sessions carry none), then subject to the
        # same stripping as any other community.
        if ic.ixp_id is not None:
            rs = topo.rs_schemes.get(ic.ixp_id)
            if (
                rs is not None
                and _stable_fraction("rs", ic.ixp_id, ic.asn_a, ic.asn_b) < 0.75
                and _survives_propagation(path, i)
            ):
                tags.add(rs.marker())
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
        if afi == 6 and _stable_fraction("v6", asn, prefix) >= scheme.ipv6_tagging_rate:
            continue
        ingress_fac = ic.facility_of(asn)
        fac = topo.facilities[ingress_fac]
        community = scheme.community_for(TagKind.FACILITY, ingress_fac)
        if community is not None:
            tags.add(community)
        if ic.ixp_id is not None:
            community = scheme.community_for(TagKind.IXP, ic.ixp_id)
            if community is not None:
                tags.add(community)
        community = scheme.community_for(TagKind.CITY, fac.city.name)
        if community is not None:
            tags.add(community)
        # Occasional leaked outbound community — dictionary noise the
        # voice-filtering step must have excluded from location lookups.
        if noise and scheme.outbound and _stable_fraction("leak", asn, prefix) < 0.10:
            value = sorted(scheme.outbound)[0]
            tags.add(Community(asn, value))
    return tuple(sorted(tags))


def is_valley_free(path: tuple[int, ...], topo: Topology) -> bool:
    """Check the valley-free property of an AS path against ground truth.

    Walking from the first AS (vantage) towards the origin, the sequence
    of edge types must match ``down* lateral? up*`` when read in the
    direction of route propagation (origin -> vantage): once a route has
    been carried over a peer or provider edge it may only be exported to
    customers.  Equivalently, read from the vantage side: provider edges
    (towards origin: "up" = next hop is provider of current) may only
    appear before the single peer edge and customer edges after it.
    """
    if len(path) < 2:
        return True
    # Edge labels walking vantage -> origin.
    labels: list[str] = []
    for u, v in zip(path, path[1:]):
        if v in topo.providers.get(u, set()):
            labels.append("up")
        elif u in topo.providers.get(v, set()):
            labels.append("down")
        elif frozenset((u, v)) in topo.peers:
            labels.append("peer")
        else:
            return False  # unknown edge
    # Valid shape: up* (peer|nothing) down*
    state = "up"
    for label in labels:
        if state == "up":
            if label == "up":
                continue
            state = "down" if label == "down" else "peered"
        elif state == "peered":
            if label != "down":
                return False
            state = "down"
        else:  # state == "down"
            if label != "down":
                return False
    return True

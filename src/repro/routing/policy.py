"""Gao-Rexford policy routing.

Per-origin best-path computation under the standard economic model:

* route preference: customer-learned > peer-learned > provider-learned,
  then shortest AS path, then lowest next-hop ASN (deterministic);
* export: customer routes go to everyone; peer- and provider-learned
  routes go to customers only (valley-free paths).

The three-phase BFS construction guarantees valley-freeness: phase 1
builds customer routes (uphill only), phase 2 attaches single peer edges,
phase 3 floods downhill through provider->customer edges.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Iterable

from repro.routing.interconnection import Adjacency, FailureState, Interconnection
from repro.topology.entities import Topology


class PathClass(enum.Enum):
    """How the first hop of the route was learned."""

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


#: One row of a :func:`route_table`: ``(class, hops, path)`` with the
#: class as the ``PathClass`` value — lower wins, then fewer hops, then
#: the lower next-hop ASN (``path[1]``).
Route = tuple[int, int, tuple[int, ...]]

_ORIGIN = PathClass.ORIGIN.value
_CUSTOMER = PathClass.CUSTOMER.value
_PEER = PathClass.PEER.value
_PROVIDER = PathClass.PROVIDER.value
_UNKNOWN = object()


class AdjacencyIndex:
    """Pre-computed neighbor lists with live/dead filtering.

    Rebuilding neighbor lists per event would dominate runtime, so the
    index keeps static neighbor lists and caches, per failure state, the
    interconnection each adjacency uses: the route BFS asks whether it is
    up, the engine binds paths to it, and both read one
    ``Adjacency.select`` per adjacency until ``set_failures`` installs the
    next state.
    """

    def __init__(
        self, topo: Topology, adjacencies: dict[frozenset[int], Adjacency]
    ) -> None:
        self.adjacencies = adjacencies
        self.providers_of: dict[int, tuple[int, ...]] = {}
        self.customers_of: dict[int, tuple[int, ...]] = {}
        self.peers_of: dict[int, tuple[int, ...]] = {}
        providers: dict[int, list[int]] = {a: [] for a in topo.ases}
        customers: dict[int, list[int]] = {a: [] for a in topo.ases}
        peers: dict[int, list[int]] = {a: [] for a in topo.ases}
        for asn in topo.ases:
            for prov in topo.providers.get(asn, set()):
                if frozenset((asn, prov)) in adjacencies:
                    providers[asn].append(prov)
                    customers[prov].append(asn)
        for pair in topo.peers:
            if pair not in adjacencies:
                continue
            a, b = sorted(pair)
            peers[a].append(b)
            peers[b].append(a)
        for asn in topo.ases:
            self.providers_of[asn] = tuple(sorted(providers[asn]))
            self.customers_of[asn] = tuple(sorted(customers[asn]))
            self.peers_of[asn] = tuple(sorted(peers[asn]))
        #: every AS in ascending order: the peer phase's visiting order.
        self.ases: tuple[int, ...] = tuple(sorted(topo.ases))
        #: ``asn -> {neighbour: adjacency}``, both directions, so an
        #: availability query hashes two ints instead of building a set.
        self._neighbours: dict[int, dict[int, Adjacency]] = {}
        for adj in adjacencies.values():
            self._neighbours.setdefault(adj.asn_a, {})[adj.asn_b] = adj
            self._neighbours.setdefault(adj.asn_b, {})[adj.asn_a] = adj
        #: ``a -> {b: interconnection or None}`` under ``_failures``.
        self._choices: dict[int, dict[int, Interconnection | None]] = {}
        self._failures = FailureState()

    def set_failures(self, failures: FailureState) -> None:
        """Install the failure state for subsequent queries."""
        self._failures = failures
        self._choices.clear()

    def choice(self, a: int, b: int) -> Interconnection | None:
        """The interconnection ``a``–``b`` uses now; None when it is down
        or the two are not adjacent."""
        row = self._choices.get(a)
        if row is None:
            row = self._choices[a] = {}
        ic = row.get(b, _UNKNOWN)
        if ic is _UNKNOWN:
            adj = self._neighbours.get(a, {}).get(b)
            ic = None if adj is None else adj.select(self._failures)
            row[b] = ic
            self._choices.setdefault(b, {})[a] = ic
        return ic

    def up(self, a: int, b: int) -> bool:
        return self.choice(a, b) is not None


class ObservedSet:
    """The ASes whose :func:`route_table` rows a caller reads, closed
    under providers.

    Restricting the peer and provider phases to such a set leaves every
    row inside it exact: phase 3 gives an AS a route only from its
    providers, phase 2 only from a peer's customer route (phase 1, which
    stays unrestricted), so no AS outside the set can change a row in it.
    Phase 3 only ever queues a customer of a dequeued AS, and a customer
    inside the set has all its providers inside it, so the queue
    restricted to the set is the same sequence and the tie-breaks match.
    """

    def __init__(self, index: AdjacencyIndex, asns: Iterable[int]) -> None:
        members: set[int] = set()
        stack = list(asns)
        while stack:
            asn = stack.pop()
            if asn not in members and asn in index.providers_of:
                members.add(asn)
                stack.extend(index.providers_of[asn])
        self.members = frozenset(members)
        #: ascending: the peer phase's visiting order.
        self.ases: tuple[int, ...] = tuple(sorted(members))
        #: each member's customers inside the set (phase 3's fan-out).
        self.customers_of: dict[int, tuple[int, ...]] = {
            asn: tuple(c for c in index.customers_of[asn] if c in members)
            for asn in self.ases
        }


def route_table(
    index: AdjacencyIndex,
    origin: int,
    down_ases: frozenset[int] = frozenset(),
    observed: ObservedSet | None = None,
) -> dict[int, Route]:
    """Best Gao-Rexford :data:`Route` of every AS towards ``origin``.

    The one route computation: the routing engine and the traceroute
    simulator read this table directly.  ASes with no policy-compliant path are
    absent; ``down_ases`` are excluded entirely (AS-level outages).
    With ``observed`` the peer and provider phases run over that set
    only: its rows are exact, rows outside it may be missing.
    """
    if origin in down_ases:
        return {}
    choice = index.choice
    best: dict[int, Route] = {origin: (_ORIGIN, 0, (origin,))}

    # Phase 1: customer routes — BFS uphill over provider edges.
    providers_of = index.providers_of
    queue: deque[int] = deque([origin])
    while queue:
        u = queue.popleft()
        _, hops_u, path_u = best[u]
        hops = hops_u + 1
        for p in providers_of[u]:
            if p in down_ases or choice(u, p) is None:
                continue
            incumbent = best.get(p)
            if incumbent is None:
                best[p] = (_CUSTOMER, hops, (p,) + path_u)
                queue.append(p)
            elif _beats(_CUSTOMER, hops, u, incumbent):
                best[p] = (_CUSTOMER, hops, (p,) + path_u)
                # BFS order guarantees hops are non-decreasing, so a
                # later candidate can only win on the ASN tie-break at
                # equal length; no requeue needed (its own exports keep
                # the same length and class).
                if hops == incumbent[1]:
                    queue.append(p)

    customer_routes = dict(best)

    # Phase 2: peer routes — one lateral step from a customer route.
    peers_of = index.peers_of
    for u in index.ases if observed is None else observed.ases:
        if u in best or u in down_ases:
            continue
        chosen: Route | None = None
        for v in peers_of[u]:  # ascending: the first of equal length wins
            route_v = customer_routes.get(v)
            if route_v is None or v in down_ases or choice(u, v) is None:
                continue
            if u in route_v[2]:
                continue
            if chosen is None or route_v[1] + 1 < chosen[1]:
                chosen = (_PEER, route_v[1] + 1, (u,) + route_v[2])
        if chosen is not None:
            best[u] = chosen

    # Phase 3: provider routes — flood downhill (provider -> customer).
    # ``customers_of`` has a key for every AS this phase may visit.
    customers_of = index.customers_of if observed is None else observed.customers_of
    queue = deque(
        sorted((a for a in best if a in customers_of), key=lambda a: (best[a][1], a))
    )
    while queue:
        u = queue.popleft()
        _, hops_u, path_u = best[u]
        hops = hops_u + 1
        for c in customers_of[u]:
            if c in down_ases or choice(c, u) is None:
                continue
            if c in path_u:
                continue
            incumbent = best.get(c)
            # Customer/peer routes always beat provider routes, so only
            # a provider route is ever replaced here.
            if incumbent is None or _beats(_PROVIDER, hops, u, incumbent):
                best[c] = (_PROVIDER, hops, (c,) + path_u)
                queue.append(c)
    return best


def _beats(path_class: int, hops: int, next_hop: int, incumbent: Route) -> bool:
    """Is a candidate strictly preferred over the installed route?"""
    if path_class != incumbent[0]:
        return path_class < incumbent[0]
    if hops != incumbent[1]:
        return hops < incumbent[1]
    return next_hop < (incumbent[2][1] if incumbent[1] else 0)


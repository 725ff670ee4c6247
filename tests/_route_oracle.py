"""The ``RouteInfo`` BFS that ``routing/policy.py`` ran before it moved
to plain tuples, kept verbatim as the oracle ``route_table`` is checked
against (tests/test_route_table.py).  Slow on purpose: a frozen
dataclass per candidate, comparisons through ``PathClass.value``.
"""

from __future__ import annotations

from collections import deque

from repro.routing.policy import AdjacencyIndex, PathClass, RouteInfo


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

"""Event-driven routing engine.

Holds the current best route of every vantage point towards every origin,
re-converges incrementally on infrastructure events, and emits the
resulting BGP update stream (announcements for path or community changes,
withdrawals for lost reachability) with realistic timing:

* failure updates spread over an MRAI-scale jitter window;
* restoration updates follow a heavy-tailed delay (Figure 10a: 95 % of
  paths back within ~4 h);
* a small fraction of pairs never return to the pre-outage path — BGP's
  preference for the newest route plus manual pinning (Section 6.3).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

from repro.bgp.messages import (
    BGPStateMessage,
    BGPUpdate,
    ElemType,
    SessionState,
    StreamElement,
)
from repro.routing.events import ASFailure, ASRecovery, InfraEvent
from repro.routing.interconnection import (
    Adjacency,
    FailureState,
    Interconnection,
    build_adjacencies,
)
from repro.routing.policy import AdjacencyIndex, ObservedSet, route_table
from repro.routing.tagging import RouteTags
from repro.topology.entities import ASTier, Topology


@dataclass
class EngineParams:
    """Timing and behavioural knobs of the update generator."""

    seed: int = 0
    #: Failure-update delay window, seconds (propagation + MRAI batching).
    fail_delay_s: tuple[float, float] = (5.0, 90.0)
    #: Restoration delay: lognormal(mu, sigma) seconds, capped.
    restore_mu: float = 5.8  # median e^5.8 ~ 330 s
    restore_sigma: float = 1.6
    restore_cap_s: float = 4.5 * 3600.0
    #: Fraction of (vantage, origin) pairs that keep the backup path
    #: after recovery ("~5% of the paths did not return", Section 6.3).
    sticky_rate: float = 0.05
    #: Fraction of changed pairs that show one transient exploration
    #: announcement before settling.
    exploration_rate: float = 0.25


@dataclass
class CollectorLayout:
    """Which vantage ASes feed which collector."""

    collectors: dict[str, tuple[int, ...]]

    @classmethod
    def default(cls, topo: Topology, seed: int = 0, n_tier2: int = 12) -> "CollectorLayout":
        """RouteViews/RIS-like layout: Tier-1s plus a sample of Tier-2s.

        The paper notes most community-setting ASes are close to a
        collector peer; putting the big ASes behind collectors gives the
        same property.
        """
        rng = random.Random(seed ^ 0xC011)
        tier1 = sorted(a for a, r in topo.ases.items() if r.tier is ASTier.TIER1)
        tier2 = sorted(a for a, r in topo.ases.items() if r.tier is ASTier.TIER2)
        sample2 = sorted(rng.sample(tier2, min(n_tier2, len(tier2))))
        peers = tier1 + sample2
        names = ("route-views2", "rrc00", "rrc01")
        buckets: dict[str, list[int]] = {name: [] for name in names}
        for i, peer in enumerate(peers):
            buckets[names[i % len(names)]].append(peer)
        return cls({name: tuple(asns) for name, asns in buckets.items()})

    def all_peers(self) -> list[int]:
        return sorted({a for asns in self.collectors.values() for a in asns})

    def collector_of(self, peer_asn: int) -> str:
        for name, asns in self.collectors.items():
            if peer_asn in asns:
                return name
        raise KeyError(f"AS{peer_asn} feeds no collector")

@dataclass(frozen=True)
class RouteState:
    """Installed route of one (vantage, origin) pair."""

    path: tuple[int, ...]
    interconnections: tuple[Interconnection, ...]


@dataclass
class EmittedChange:
    """Bookkeeping for analysis: one route change at the vantage level."""

    time: float
    vantage: int
    origin: int
    old: RouteState | None
    new: RouteState | None


class RoutingEngine:
    """Simulates BGP convergence over the ground-truth topology."""

    def __init__(
        self,
        topo: Topology,
        layout: CollectorLayout | None = None,
        params: EngineParams | None = None,
    ) -> None:
        self.topo = topo
        self.params = params or EngineParams()
        self.layout = layout or CollectorLayout.default(topo, seed=self.params.seed)
        self.adjacencies: dict[frozenset[int], Adjacency] = build_adjacencies(topo)
        self.index = AdjacencyIndex(topo, self.adjacencies)
        self.failures = FailureState()
        self.index.set_failures(self.failures)
        self.vantages = self.layout.all_peers()
        self.origins = sorted(
            asn for asn, rec in topo.ases.items() if rec.originates
        )
        self._vantage_set = frozenset(self.vantages)
        #: the route-table rows the collectors see: convergence computes
        #: tables over this set only (None: every AS).
        self.observed: ObservedSet | None = ObservedSet(self.index, self.vantages)
        self._origin_set = frozenset(self.origins)
        self._rng = random.Random(self.params.seed ^ 0xE9617E)
        self._event_counter = 0
        #: chronological (time, event) log for time-travel queries.
        self.event_log: list[tuple[float, InfraEvent]] = []
        #: vantage ASes whose collector session is down (their own
        #: failure kills the feed — a state message, not withdrawals).
        self._suspended_vantages: set[int] = set()

        #: current route per (vantage, origin); absent = unreachable.
        self.routes: dict[tuple[int, int], RouteState] = {}
        #: healthy baseline captured at initialisation.
        self.healthy: dict[tuple[int, int], RouteState] = {}
        #: adjacency -> origins whose installed vantage paths use it.
        self._usage: dict[frozenset[int], set[int]] = {}
        #: origins with at least one pair off its healthy route.
        self._degraded: set[int] = set()
        #: (vantage, origin) pairs pinned to their backup path.
        self._sticky: set[tuple[int, int]] = set()
        self.changes: list[EmittedChange] = []

        self._initialise()

    # ------------------------------------------------------------------
    def _initialise(self) -> None:
        for origin in self.origins:
            tree = route_table(
                self.index, origin, frozenset(self.failures.ases), self.observed
            )
            for vantage in self.vantages:
                route = tree.get(vantage)
                if route is None:
                    continue
                state = self._realise(route[2])
                if state is None:
                    continue
                key = (vantage, origin)
                self.routes[key] = state
                self.healthy[key] = state
                self._index_usage(origin, state, add=True)

    def _realise(
        self, path: tuple[int, ...], failures: FailureState | None = None
    ) -> RouteState | None:
        """Bind a policy path to concrete interconnections.

        Under the engine's own failure state this reads the index's
        per-state choice; an explicit ``failures`` (a probe's past state)
        selects afresh and leaves that cache alone.
        """
        ics: list[Interconnection] = []
        for a, b in zip(path, path[1:]):
            if failures is None:
                ic = self.index.choice(a, b)
            else:
                adj = self.adjacencies.get(frozenset((a, b)))
                ic = None if adj is None else adj.select(failures)
            if ic is None:
                return None
            ics.append(ic)
        return RouteState(path=path, interconnections=tuple(ics))

    def _index_usage(self, origin: int, state: RouteState, add: bool) -> None:
        for a, b in zip(state.path, state.path[1:]):
            pair = frozenset((a, b))
            bucket = self._usage.setdefault(pair, set())
            if add:
                bucket.add(origin)
            else:
                bucket.discard(origin)

    # ------------------------------------------------------------------
    def rib_snapshot(self, time: float, afi: int | None = None) -> list[BGPUpdate]:
        """Table-dump of every installed route as RIB elements."""
        out: list[BGPUpdate] = []
        for (vantage, origin), state in sorted(self.routes.items()):
            out.extend(
                self._updates_for_route(
                    time, vantage, origin, state, ElemType.RIB, afi=afi
                )
            )
        return out

    def _updates_for_route(
        self,
        time: float,
        vantage: int,
        origin: int,
        state: RouteState | None,
        elem_type: ElemType,
        afi: int | None = None,
    ) -> list[BGPUpdate]:
        collector = self.layout.collector_of(vantage)
        rec = self.topo.ases[origin]
        out: list[BGPUpdate] = []
        families: list[tuple[int, tuple[str, ...]]] = []
        if afi in (None, 4):
            families.append((4, rec.prefixes_v4))
        if afi in (None, 6):
            families.append((6, rec.prefixes_v6))
        # The prefix-independent communities are derived once per route;
        # each prefix adds only its IPv6 and leak draws.
        tags = (
            None
            if elem_type is ElemType.WITHDRAWAL or state is None
            else RouteTags(self.topo, state.path, state.interconnections)
        )
        for family, prefixes in families:
            for prefix in prefixes:
                if tags is None:
                    out.append(
                        BGPUpdate(
                            time=time,
                            collector=collector,
                            peer_asn=vantage,
                            prefix=prefix,
                            elem_type=ElemType.WITHDRAWAL,
                            afi=family,
                        )
                    )
                    continue
                communities = tags.for_prefix(afi=family, prefix=prefix)
                out.append(
                    BGPUpdate(
                        time=time,
                        collector=collector,
                        peer_asn=vantage,
                        prefix=prefix,
                        elem_type=elem_type,
                        as_path=state.path,
                        communities=communities,
                        afi=family,
                    )
                )
        return out

    # ------------------------------------------------------------------
    def failures_at(self, time: float) -> FailureState:
        """Reconstruct the failure state as of ``time``.

        Events are applied eagerly to generate the update stream, but
        measurement consumers (traceroute, traffic) observe the network
        at *their* timestamps; this replays the event log up to then.
        """
        state = FailureState()
        for _, event in self.event_log[: self.event_position(time)]:
            event.apply(state)
        return state

    def event_position(self, time: float) -> int:
        """How many logged events ``failures_at(time)`` replays.

        Two times with the same position see the same failure state,
        whatever is applied to the engine afterwards.
        """
        return bisect_right(self.event_log, time, key=itemgetter(0))

    def apply_event(self, event: InfraEvent, time: float) -> list[StreamElement]:
        """Apply an infrastructure event; return the resulting updates."""
        if self.event_log and time < self.event_log[-1][0]:
            raise ValueError("events must be applied in chronological order")
        self.event_log.append((time, event))
        self._event_counter += 1
        event.apply(self.failures)
        self.index.set_failures(self.failures)
        elements: list[StreamElement] = []
        # A failing vantage AS takes its collector session down with it:
        # the feed shows a state message and goes silent, it does not
        # emit withdrawals for the whole table (Section 4.2 gap case).
        if isinstance(event, ASFailure) and event.asn in self._vantage_set:
            self._suspended_vantages.add(event.asn)
            elements.append(
                BGPStateMessage(
                    time=time,
                    collector=self.layout.collector_of(event.asn),
                    peer_asn=event.asn,
                    old_state=SessionState.ESTABLISHED,
                    new_state=SessionState.IDLE,
                )
            )
        if isinstance(event, ASRecovery) and event.asn in self._suspended_vantages:
            self._suspended_vantages.discard(event.asn)
            elements.append(
                BGPStateMessage(
                    time=time,
                    collector=self.layout.collector_of(event.asn),
                    peer_asn=event.asn,
                    old_state=SessionState.IDLE,
                    new_state=SessionState.ESTABLISHED,
                )
            )
        if event.is_recovery:
            affected = set(self._degraded)
        else:
            affected = self._affected_origins(event)
        for origin in sorted(affected):
            elements.extend(self._reconverge_origin(origin, time, event.is_recovery))
        return elements

    def _affected_origins(self, event: InfraEvent) -> set[int]:
        affected: set[int] = set()
        touched_pairs: set[frozenset[int]] = set(event.touched_links())
        fac_set = set(event.touched_facilities())
        ixp_set = set(event.touched_ixps())
        as_set = set(event.touched_ases())
        if fac_set or ixp_set or as_set:
            for pair, adj in self.adjacencies.items():
                if as_set and (adj.asn_a in as_set or adj.asn_b in as_set):
                    touched_pairs.add(pair)
                    continue
                if fac_set and any(adj.touches_facility(f) for f in fac_set):
                    touched_pairs.add(pair)
                    continue
                if ixp_set and any(adj.touches_ixp(x) for x in ixp_set):
                    touched_pairs.add(pair)
        for pair in touched_pairs:
            affected.update(self._usage.get(pair, ()))
        # An origin that is itself failing must re-converge too.
        affected.update(as_set & self._origin_set)
        return affected

    def _reconverge_origin(
        self, origin: int, time: float, recovery: bool
    ) -> list[StreamElement]:
        # With no failure left the network is the one ``_initialise``
        # converged: every pair's route is its healthy one, no tree and
        # no ``_realise`` needed.  Overlapping outages still compute.
        tree = (
            route_table(
                self.index, origin, frozenset(self.failures.ases), self.observed
            )
            if self.failures.any_active()
            else None
        )
        elements: list[StreamElement] = []
        any_off_healthy = False
        for vantage in self.vantages:
            key = (vantage, origin)
            old = self.routes.get(key)
            if tree is None:
                new = self.healthy.get(key)
            else:
                route = tree.get(vantage)
                new = self._realise(route[2]) if route is not None else None
            if recovery and key in self._sticky and old is not None:
                # Pinned to the backup: keep it while it remains valid.
                if self._still_valid(old):
                    if old != self.healthy.get(key):
                        any_off_healthy = True
                    continue
                self._sticky.discard(key)
            if new == old:
                if old is not None and old != self.healthy.get(key):
                    any_off_healthy = True
                continue
            # Decide stickiness at failure time, deterministically.
            if not recovery and old is not None and new != self.healthy.get(key):
                if self._pair_roll("sticky", key) < self.params.sticky_rate:
                    self._sticky.add(key)
            elements.extend(self._emit_change(time, vantage, origin, old, new, recovery))
            if old is not None:
                self._index_usage(origin, old, add=False)
            if new is not None:
                self.routes[key] = new
                self._index_usage(origin, new, add=True)
                if new != self.healthy.get(key):
                    any_off_healthy = True
            else:
                self.routes.pop(key, None)
                any_off_healthy = True
        if any_off_healthy:
            self._degraded.add(origin)
        else:
            self._degraded.discard(origin)
        return elements

    def _still_valid(self, state: RouteState) -> bool:
        up = self.index.up
        return all(up(a, b) for a, b in zip(state.path, state.path[1:]))

    def _pair_roll(self, label: str, key: tuple[int, int]) -> float:
        rng = random.Random((hash((label, key)) ^ self.params.seed) & 0xFFFFFFFF)
        return rng.random()

    def _emit_change(
        self,
        time: float,
        vantage: int,
        origin: int,
        old: RouteState | None,
        new: RouteState | None,
        recovery: bool,
    ) -> list[BGPUpdate]:
        if recovery:
            raw = self._rng.lognormvariate(
                self.params.restore_mu, self.params.restore_sigma
            )
            delay = min(raw, self.params.restore_cap_s)
        else:
            delay = self._rng.uniform(*self.params.fail_delay_s)
        when = time + delay
        self.changes.append(
            EmittedChange(time=when, vantage=vantage, origin=origin, old=old, new=new)
        )
        if vantage in self._suspended_vantages:
            return []  # the session is down: nothing reaches the feed
        updates: list[BGPUpdate] = []
        # Optional path-exploration transient before the final state.
        if (
            not recovery
            and new is not None
            and old is not None
            and self._rng.random() < self.params.exploration_rate
        ):
            updates.extend(
                self._updates_for_route(
                    time + self._rng.uniform(1.0, delay) if delay > 1.0 else time,
                    vantage,
                    origin,
                    old,
                    ElemType.ANNOUNCEMENT,
                )
            )
        if new is None:
            updates.extend(
                self._updates_for_route(
                    when, vantage, origin, None, ElemType.WITHDRAWAL
                )
            )
        else:
            updates.extend(
                self._updates_for_route(
                    when, vantage, origin, new, ElemType.ANNOUNCEMENT
                )
            )
        return updates

    # ------------------------------------------------------------------
    # Introspection helpers used by analysis and tests
    # ------------------------------------------------------------------
    def route(self, vantage: int, origin: int) -> RouteState | None:
        return self.routes.get((vantage, origin))

"""Traceroute path simulation.

Traces follow the same Gao-Rexford policy routes as the control plane —
computed against the *current* failure state of the shared routing
engine — and reveal the interface addresses of the address plan: the
border router of each AS at its ingress building, plus the IXP port
address when a hop crosses a peering LAN (which is how traIXroute spots
IXPs in the wild).

RTTs accumulate geographic fiber latency between consecutive hop
locations plus queueing jitter, giving Figure 10c its shape: paths
re-routed over distant infrastructure gain tens of milliseconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.geo.distance import fiber_rtt_ms, haversine_km
from repro.routing.engine import RoutingEngine
from repro.routing.interconnection import FailureState, Interconnection
from repro.routing.policy import Route, route_table
from repro.traceroute.addressing import AddressPlan


@dataclass(frozen=True)
class TracerouteHop:
    """One hop of a traceroute."""

    ip: str
    asn: int | None
    rtt_ms: float
    lat: float
    lon: float
    facility_id: str | None = None
    ixp_id: str | None = None


@dataclass
class Traceroute:
    """A completed (or failed) measurement."""

    src_asn: int
    dst_asn: int
    time: float
    hops: list[TracerouteHop] = field(default_factory=list)
    reached: bool = False

    @property
    def as_path(self) -> tuple[int, ...]:
        seen: list[int] = []
        for hop in self.hops:
            if hop.asn is not None and (not seen or seen[-1] != hop.asn):
                seen.append(hop.asn)
        return tuple(seen)

    @property
    def end_to_end_rtt_ms(self) -> float | None:
        return self.hops[-1].rtt_ms if self.hops else None

class TracerouteSimulator:
    """Issues traceroutes against the live world state."""

    def __init__(
        self, engine: RoutingEngine, plan: AddressPlan, seed: int = 0
    ) -> None:
        self.engine = engine
        self.plan = plan
        self.topo = engine.topo
        self._rng = random.Random(seed ^ 0x7ACE)
        self.trace_count = 0
        # A validation campaign probes one failure state many times:
        # keep it, and the route table per destination under it, until
        # a probe's time reaches another position of the event log.
        self._position = -1
        self._failures = FailureState()
        self._tables: dict[int, dict[int, Route]] = {}

    # ------------------------------------------------------------------
    def trace(self, src_asn: int, dst_asn: int, time: float) -> Traceroute:
        """Traceroute from a host in ``src_asn`` to a host in ``dst_asn``.

        Probes observe the network as of ``time``: the engine's failure
        state is reconstructed from its event log, so a trace issued
        mid-outage sees the outage even if the engine has since moved on.
        """
        self.trace_count += 1
        result = Traceroute(src_asn=src_asn, dst_asn=dst_asn, time=time)
        if src_asn not in self.topo.ases or dst_asn not in self.topo.ases:
            return result
        if src_asn == dst_asn:
            result.reached = True
            return result
        position = self.engine.event_position(time)
        if position != self._position:
            self._position = position
            self._failures = self.engine.failures_at(time)
            self._tables.clear()
        failures = self._failures
        table = self._tables.get(dst_asn)
        if table is None:
            index = self.engine.index
            index.set_failures(failures)
            try:
                table = route_table(index, dst_asn, frozenset(failures.ases))
            finally:
                index.set_failures(self.engine.failures)
            self._tables[dst_asn] = table
        route = table.get(src_asn)
        state = (
            self.engine._realise(route[2], failures) if route is not None else None
        )
        if state is None:
            return result  # destination unreachable: trace dies
        self._expand_hops(result, state.path, state.interconnections)
        result.reached = True
        return result

    # ------------------------------------------------------------------
    def _expand_hops(
        self,
        result: Traceroute,
        path: tuple[int, ...],
        ics: tuple[Interconnection, ...],
    ) -> None:
        src_city = self.topo.ases[path[0]].home_city
        prev_lat, prev_lon = src_city.lat, src_city.lon
        rtt = self._rng.uniform(0.2, 1.5)  # first-hop LAN latency
        for i, ic in enumerate(ics):
            near, far = path[i], path[i + 1]
            # The far side's border interface as seen by the probe: for
            # IXP crossings the peering-LAN port address appears.
            if ic.ixp_id is not None:
                ip = self.plan.port_ip(ic.ixp_id, far)
                fac_id = ic.facility_of(far)
            else:
                fac_id = ic.facility_of(far)
                ip = self.plan.router_ip(far, fac_id)
            if ip is None:  # remote peer port without address: synthesise
                ip = self.plan.host_ip(far)
            fac = self.topo.facilities[fac_id]
            leg_km = haversine_km(prev_lat, prev_lon, fac.lat, fac.lon)
            rtt += fiber_rtt_ms(leg_km) + self._rng.uniform(0.05, 0.8)
            result.hops.append(
                TracerouteHop(
                    ip=ip,
                    asn=far,
                    rtt_ms=rtt,
                    lat=fac.lat,
                    lon=fac.lon,
                    facility_id=fac_id,
                    ixp_id=ic.ixp_id,
                )
            )
            prev_lat, prev_lon = fac.lat, fac.lon
        # Final hop: destination host in its home city.
        dst_city = self.topo.ases[path[-1]].home_city
        leg_km = haversine_km(prev_lat, prev_lon, dst_city.lat, dst_city.lon)
        rtt += fiber_rtt_ms(leg_km) + self._rng.uniform(0.05, 0.8)
        result.hops.append(
            TracerouteHop(
                ip=self.plan.host_ip(path[-1]),
                asn=path[-1],
                rtt_ms=rtt,
                lat=dst_city.lat,
                lon=dst_city.lon,
            )
        )

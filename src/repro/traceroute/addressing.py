"""IP address plan for the simulated data plane.

Allocates the interface addresses a traceroute would reveal:

* each IXP owns a peering-LAN prefix (as published in PeeringDB), with
  one address per member port — the signal traIXroute keys on;
* each AS exposes one border-router interface per facility presence,
  drawn from the AS's own infrastructure prefix.

Addresses are deterministic functions of the topology so archived and
fresh traceroutes agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.entities import Topology


@dataclass(frozen=True)
class InterfaceInfo:
    """What the ground truth knows about one interface address."""

    ip: str
    asn: int
    kind: str  # "ixp_port" | "facility_router" | "host"
    facility_id: str | None = None
    ixp_id: str | None = None


class AddressPlan:
    """Deterministic interface addressing over a topology."""

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._by_ip: dict[str, InterfaceInfo] = {}
        self._ixp_lan: dict[str, str] = {}  # ixp_id -> lan /24 prefix
        self._port_ip: dict[tuple[str, int], str] = {}
        self._router_ip: dict[tuple[int, str], str] = {}
        self._build()

    def _build(self) -> None:
        for ixp_index, ixp_id in enumerate(sorted(self.topo.ixps)):
            lan = f"198.32.{ixp_index}.0/24"
            self._ixp_lan[ixp_id] = lan
            for host, asn in enumerate(sorted(self.topo.ixp_members[ixp_id]), start=1):
                port = self.topo.ixp_ports[(ixp_id, asn)]
                ip = f"198.32.{ixp_index}.{host % 254 + 1}"
                info = InterfaceInfo(
                    ip=ip,
                    asn=asn,
                    kind="ixp_port",
                    facility_id=port.facility_id,
                    ixp_id=ixp_id,
                )
                self._by_ip[ip] = info
                self._port_ip[(ixp_id, asn)] = ip
        fac_index = {fac_id: i for i, fac_id in enumerate(sorted(self.topo.facilities))}
        for asn in sorted(self.topo.ases):
            for fac_id in sorted(self.topo.as_facilities.get(asn, set())):
                ip = (
                    f"10.{(asn >> 8) & 0xFF}.{asn & 0xFF}."
                    f"{fac_index[fac_id] % 254 + 1}"
                )
                info = InterfaceInfo(
                    ip=ip, asn=asn, kind="facility_router", facility_id=fac_id
                )
                self._by_ip[ip] = info
                self._router_ip[(asn, fac_id)] = ip

    # ------------------------------------------------------------------
    def lookup(self, ip: str) -> InterfaceInfo | None:
        return self._by_ip.get(ip)

    def port_ip(self, ixp_id: str, asn: int) -> str | None:
        return self._port_ip.get((ixp_id, asn))

    def router_ip(self, asn: int, fac_id: str) -> str | None:
        return self._router_ip.get((asn, fac_id))

    def host_ip(self, asn: int) -> str:
        """A host address inside the AS (probe or target)."""
        return f"172.{(asn >> 8) & 0xFF}.{asn & 0xFF}.10"

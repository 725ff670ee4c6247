"""Measurement platform with rate limits (RIPE Atlas stand-in).

The paper stresses that active measurement must stay within platform
limits ("our approach is practical and conforms to the resource
limitations of publicly available measurement platforms").  The platform
enforces a credit budget per rolling window; exceeding it raises
``RateLimitExceeded`` so callers must budget, exactly like Atlas users.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.topology.entities import ASTier
from repro.traceroute.simulator import Traceroute, TracerouteSimulator

#: Default credit budget per rolling day (Atlas-like ballpark).
DEFAULT_DAILY_CREDITS = 5000
#: Credits consumed per traceroute.
CREDITS_PER_TRACE = 10


class RateLimitExceeded(RuntimeError):
    """Raised when the platform budget is exhausted."""


@dataclass(frozen=True)
class Probe:
    """A measurement probe hosted inside an AS."""

    probe_id: int
    asn: int


@dataclass
class MeasurementPlatform:
    """Probe hosting + rate limiting around the traceroute simulator."""

    simulator: TracerouteSimulator
    daily_credits: int = DEFAULT_DAILY_CREDITS
    seed: int = 0
    probes: list[Probe] = field(default_factory=list)
    _spent: deque = field(default_factory=deque, repr=False)  # (time, credits)

    def __post_init__(self) -> None:
        if not self.probes:
            self.probes = self._default_probes()

    def _default_probes(self) -> list[Probe]:
        """Probes live mostly in access networks, like Atlas anchors."""
        rng = random.Random(self.seed ^ 0xA71A5)
        topo = self.simulator.topo
        hosts = sorted(
            asn
            for asn, rec in topo.ases.items()
            if rec.tier in (ASTier.ACCESS, ASTier.CONTENT)
        )
        chosen = rng.sample(hosts, min(60, len(hosts)))
        return [Probe(probe_id=i, asn=asn) for i, asn in enumerate(sorted(chosen))]

    # ------------------------------------------------------------------
    def credits_available(self, time: float) -> int:
        day_ago = time - 86400.0
        while self._spent and self._spent[0][0] < day_ago:
            self._spent.popleft()
        used = sum(c for _, c in self._spent)
        return self.daily_credits - used

    def traceroute(self, probe: Probe, dst_asn: int, time: float) -> Traceroute:
        """Run one measurement, charging credits."""
        if self.credits_available(time) < CREDITS_PER_TRACE:
            raise RateLimitExceeded(
                f"platform budget exhausted at t={time:.0f}"
            )
        self._spent.append((time, CREDITS_PER_TRACE))
        return self.simulator.trace(probe.asn, dst_asn, time)

    def probes_in(self, asns: set[int]) -> list[Probe]:
        return [p for p in self.probes if p.asn in asns]

"""Gravity-model traffic matrix between ASes.

Demand between two ASes scales with the product of their "masses"
(content networks source much more than they sink; access networks the
reverse), the standard gravity abstraction.  Demands are per ordered
pair: traffic A->B and B->A differ, which matters because forward and
reverse paths can cross *different* infrastructures (Section 6.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.topology.entities import ASTier, Topology

#: Relative sourcing/sinking mass by tier.
SOURCE_MASS = {
    ASTier.CONTENT: 10.0,
    ASTier.TIER1: 3.0,
    ASTier.TIER2: 2.0,
    ASTier.ACCESS: 0.5,
}
SINK_MASS = {
    ASTier.CONTENT: 1.0,
    ASTier.TIER1: 2.0,
    ASTier.TIER2: 2.0,
    ASTier.ACCESS: 8.0,
}


@dataclass
class TrafficMatrix:
    """Per-ordered-pair demand in Gbps at the daily mean."""

    topo: Topology
    seed: int = 0
    total_gbps: float = 2500.0
    _demand: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed ^ 0x7AFF1C)
        raw: dict[tuple[int, int], float] = {}
        ases = sorted(self.topo.ases)
        for a in ases:
            tier_a = self.topo.ases[a].tier
            for b in ases:
                if a == b:
                    continue
                tier_b = self.topo.ases[b].tier
                mass = SOURCE_MASS[tier_a] * SINK_MASS[tier_b]
                # Log-normal heterogeneity: a few elephant pairs.
                raw[(a, b)] = mass * rng.lognormvariate(0.0, 1.0)
        scale = self.total_gbps / sum(raw.values())
        self._demand = {pair: volume * scale for pair, volume in raw.items()}

    def demand(self, src: int, dst: int) -> float:
        """Mean demand src -> dst in Gbps (0 for unknown pairs)."""
        return self._demand.get((src, dst), 0.0)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self._demand)

    def total(self) -> float:
        return sum(self._demand.values())

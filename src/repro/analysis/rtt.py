"""RTT impact analysis (Section 6.3, Figure 10c).

Compares end-to-end RTT distributions of the paths crossing an
infrastructure before, during, and after an outage, split into paths
that kept using the infrastructure and paths that moved away: "During
the outage the median RTT rises by more than 100 msec for rerouted
paths ... After the outage, this RTT increase disappears."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ecdf import quantile
from repro.traceroute.mapping import HopMapper
from repro.traceroute.simulator import Traceroute


@dataclass
class RttComparison:
    """RTT samples for one phase, split by infrastructure usage."""

    phase: str  # "before" | "during" | "after"
    via_pop_ms: list[float] = field(default_factory=list)
    off_pop_ms: list[float] = field(default_factory=list)

    def median_via(self) -> float | None:
        return quantile(self.via_pop_ms, 0.5) if self.via_pop_ms else None

    def median_off(self) -> float | None:
        return quantile(self.off_pop_ms, 0.5) if self.off_pop_ms else None

def rtt_comparison(
    phase: str,
    traces: list[Traceroute],
    mapper: HopMapper,
    pop_kind: str,
    pop_map_id: str,
) -> RttComparison:
    """Split one phase's traces by whether they cross the PoP."""
    out = RttComparison(phase=phase)
    for trace in traces:
        if not trace.reached or trace.end_to_end_rtt_ms is None:
            continue
        bucket = (
            out.via_pop_ms
            if mapper.trace_crosses_pop(trace, pop_kind, pop_map_id)
            else out.off_pop_ms
        )
        bucket.append(trace.end_to_end_rtt_ms)
    return out

"""Public-reporting model (Figure 1's "Reported" series).

The paper compares detected outages against those publicly reported in
NANOG, the Outages list, Data Center Dynamics and Data Center Knowledge,
finding that only ~24 % of detected outages were reported, "missing most
of the incidents that occur outside the US and the UK".

The model reports each ground-truth infrastructure outage with a
probability depending on region and size: US/UK incidents and long
outages are far more likely to make the lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.outages.scenario import GroundTruthOutage
from repro.topology.entities import Topology

#: Reporting probability by (is US/UK, long outage >= 1 h).
REPORT_PROB = {
    (True, True): 0.65,
    (True, False): 0.30,
    (False, True): 0.22,
    (False, False): 0.06,
}

SOURCES = ("nanog", "outages-list", "datacenterdynamics", "datacenterknowledge")


@dataclass(frozen=True)
class ReportedOutage:
    """A mailing-list / news report of an incident."""

    truth: GroundTruthOutage
    source: str
    report_time: float  # reports lag the incident


@dataclass
class ReportingModel:
    """Samples the publicly visible subset of a scenario's truth."""

    topo: Topology
    seed: int = 0

    def _country_of(self, truth: GroundTruthOutage) -> str:
        if truth.kind == "facility":
            fac = self.topo.facilities.get(truth.target_id)
            return fac.city.country if fac else "?"
        if truth.kind == "ixp":
            ixp = self.topo.ixps.get(truth.target_id)
            return ixp.city.country if ixp else "?"
        return "?"

    def reports_for(
        self, truths: list[GroundTruthOutage]
    ) -> list[ReportedOutage]:
        rng = random.Random(self.seed ^ 0x4E905)
        out: list[ReportedOutage] = []
        for truth in truths:
            if truth.kind not in ("facility", "ixp"):
                continue
            country = self._country_of(truth)
            anglo = country in ("US", "GB")
            long_outage = truth.duration_s >= 3600.0
            if rng.random() < REPORT_PROB[(anglo, long_outage)]:
                out.append(
                    ReportedOutage(
                        truth=truth,
                        source=rng.choice(SOURCES),
                        report_time=truth.start + rng.uniform(600.0, 86400.0),
                    )
                )
        return out

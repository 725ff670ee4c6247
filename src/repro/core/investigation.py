"""Outage localisation: disambiguation and resolution raising (§4.3).

Given a PoP-level signal, find the physical epicenter:

* **Facility signals** — verify the near-end building first: if >=95 %
  of the baseline far-end ASes co-located in the tagged facility are
  affected, the near-end facility is the source.  Otherwise iterate over
  the facilities where the affected far-end ASes have a presence; if no
  facility converges, escalate to the common IXPs (Figure 2(c)).
* **IXP signals** — the fabric spans several buildings: if the affected
  members are contained in one building's tenant set, members housed
  only elsewhere are spared, and (nearly) all of the building's members
  are affected, refine the outage to that building (Figure 2(b): F2,
  not IX1).
* **City signals** — arbitrate among the city's facilities by
  *containment* (are the affected ASes tenants of the candidate?) and
  *saturation* (are the candidate's monitored members affected?), then
  try the city's IXPs, else report at city granularity.

The 5 % margin (``COLOCATION_MARGIN``) absorbs colocation-map
inaccuracies such as spurious AS-to-facility entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.colocation import ColocationMap
from repro.core.signals import SignalClassification
from repro.docmine.dictionary import PoP, PoPKind

#: "at least 95% of the paths with co-located ASes are affected".
COLOCATION_MARGIN = 0.95
#: Containment requirement for city-level arbitration: the candidate
#: must host at least this fraction of the affected far-end ASes.
CITY_CONTAINMENT = 0.70
#: Minimum score gap over the runner-up to call a unique epicenter.
DISCRIMINATION_GAP = 0.10


@dataclass
class InvestigationResult:
    """Localisation outcome for one PoP-level signal."""

    signal_pop: PoP
    located_pop: PoP | None
    method: str
    needs_dataplane: bool = False
    candidates_checked: list[str] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.located_pop is not None


class Investigator:
    """Implements signal disambiguation over the colocation map."""

    def __init__(self, colo: ColocationMap, margin: float = COLOCATION_MARGIN) -> None:
        if not 0.0 < margin <= 1.0:
            raise ValueError("margin must be in (0, 1]")
        self.colo = colo
        self.margin = margin

    # ------------------------------------------------------------------
    def investigate(
        self,
        classification: SignalClassification,
        baseline_far_ases: set[int],
        baseline_links: set[tuple[int | None, int | None]] | None = None,
        concurrent_pops: set[PoP] | None = None,
    ) -> InvestigationResult:
        """Locate the epicenter of a PoP-level signal.

        ``baseline_far_ases`` are the far-end ASes of the monitored
        baseline paths through the signal PoP (pre-outage state);
        ``baseline_links`` the monitored (near, far) pairs through it;
        ``concurrent_pops`` are the other PoPs with signals in the same
        binning interval.
        """
        pop = classification.pop
        if pop.kind is PoPKind.FACILITY:
            return self._investigate_facility(
                classification, baseline_far_ases, concurrent_pops or set()
            )
        if pop.kind is PoPKind.IXP:
            return self._investigate_ixp(
                classification, baseline_links or set(classification.links)
            )
        return self._investigate_city(classification, baseline_far_ases)

    # ------------------------------------------------------------------
    @staticmethod
    def _coverage(affected: set[int], population: set[int]) -> float:
        """Fraction of ``population`` that is affected (saturation)."""
        if not population:
            return 0.0
        return len(affected & population) / len(population)

    @staticmethod
    def _containment(affected: set[int], container: set[int]) -> float:
        """Fraction of ``affected`` inside ``container``."""
        if not affected:
            return 0.0
        return len(affected & container) / len(affected)

    # ------------------------------------------------------------------
    def _investigate_facility(
        self,
        c: SignalClassification,
        baseline_far: set[int],
        concurrent_pops: set[PoP],
    ) -> InvestigationResult:
        pop = c.pop
        affected_far = set(c.far_ases)
        checked: list[str] = []

        # Near-end facility test: all colocated far-end paths affected?
        colocated = baseline_far & self.colo.tenants(pop.pop_id)
        checked.append(f"near-end:{pop.pop_id}")
        if colocated and self._coverage(affected_far, colocated) >= self.margin:
            return InvestigationResult(
                signal_pop=pop,
                located_pop=pop,
                method="near-end",
                candidates_checked=checked,
            )

        # Far-end candidate facilities: where affected far ASes sit; a
        # candidate must itself show a concurrent signal if trackable.
        candidates: set[str] = set()
        for asn in affected_far:
            candidates.update(self.colo.facilities_of_as(asn))
        candidates.discard(pop.pop_id)
        concurrent_fac_ids = {
            p.pop_id for p in concurrent_pops if p.kind is PoPKind.FACILITY
        }
        scored: list[tuple[float, str]] = []
        for fac_id in sorted(candidates):
            tenants = self.colo.tenants(fac_id)
            population = baseline_far & tenants
            if len(population) < 2:
                continue
            checked.append(f"far-end:{fac_id}")
            saturation = self._coverage(affected_far, population)
            containment = self._containment(affected_far, tenants)
            # A candidate must host a clear majority of the affected
            # far-ends: at exactly half the evidence is split between
            # buildings and the IXP escalation below decides instead.
            if saturation >= self.margin and containment >= 0.6:
                if concurrent_fac_ids and fac_id not in concurrent_fac_ids:
                    continue
                scored.append((saturation + containment, fac_id))
        located = _unique_best(scored)
        if located is not None:
            return InvestigationResult(
                signal_pop=pop,
                located_pop=PoP(PoPKind.FACILITY, located),
                method="far-end",
                candidates_checked=checked,
            )

        # IXP escalation: common exchanges of near and far sides.
        common_ixps: set[str] = set()
        for near in c.near_ases:
            for far in affected_far:
                common_ixps.update(self.colo.common_ixps(near, far))
        ixp_scored: list[tuple[float, str]] = []
        for ixp_id in sorted(common_ixps):
            members = self.colo.ixp_members(ixp_id)
            population = baseline_far & members
            if len(population) < 2:
                continue
            checked.append(f"ixp:{ixp_id}")
            saturation = self._coverage(affected_far, population)
            containment = self._containment(affected_far, members)
            if saturation >= self.margin and containment >= 0.5:
                ixp_scored.append((saturation + containment, ixp_id))
        located = _unique_best(ixp_scored)
        if located is not None:
            return InvestigationResult(
                signal_pop=pop,
                located_pop=PoP(PoPKind.IXP, located),
                method="ixp-escalation",
                candidates_checked=checked,
            )
        # No convergence: resort to targeted traceroutes (Section 4.3).
        return InvestigationResult(
            signal_pop=pop,
            located_pop=None,
            method="unresolved",
            needs_dataplane=True,
            candidates_checked=checked,
        )

    # ------------------------------------------------------------------
    def _investigate_ixp(
        self,
        c: SignalClassification,
        baseline_links: set[tuple[int | None, int | None]],
    ) -> InvestigationResult:
        pop = c.pop
        checked: list[str] = []
        members = self.colo.ixp_members(pop.pop_id)
        fabric = sorted(self.colo.ixp_facilities(pop.pop_id))
        local_tenancy: set[int] = set()
        for fac_id in fabric:
            local_tenancy.update(self.colo.tenants(fac_id))

        def touches(link: tuple[int, int], tenants: set[int]) -> bool:
            return link[0] in tenants or link[1] in tenants

        # Remote peers have no tenancy anywhere on the fabric; their
        # links cannot discriminate between buildings (Section 6.4), so
        # the building attribution uses links whose both ends are
        # colocated somewhere on the fabric.
        affected_links = {
            (n, f)
            for n, f in c.links
            if n in local_tenancy and f in local_tenancy
        }
        known_baseline = {
            (n, f)
            for n, f in baseline_links
            if n in local_tenancy and f in local_tenancy
        }
        known_baseline.update(affected_links)
        scored: list[tuple[float, str]] = []
        for fac_id in fabric:
            tenants = self.colo.tenants(fac_id)
            if not members & tenants:
                continue
            checked.append(f"fabric:{fac_id}")
            if not affected_links:
                continue
            # explained: every affected link has an end in this building;
            # spared: links avoiding the building stayed up (Fig. 2(b));
            # saturation: how much of the building's own baseline died —
            # the tie-breaker when co-tenancy makes two buildings touch
            # the same affected links.
            explained = sum(
                1 for link in affected_links if touches(link, tenants)
            ) / len(affected_links)
            touching = {
                link for link in known_baseline if touches(link, tenants)
            }
            untouched = known_baseline - touching
            if not untouched:
                # No known link avoids the building, so none can show
                # that the rest of the fabric stayed up: no evidence.
                continue
            spared = 1.0 - len(affected_links & untouched) / len(untouched)
            saturation = (
                len(affected_links & touching) / len(touching) if touching else 0.0
            )
            if explained >= self.margin and spared >= self.margin:
                scored.append((explained + spared + saturation, fac_id))
        located = _unique_best(scored)
        if located is not None:
            return InvestigationResult(
                signal_pop=pop,
                located_pop=PoP(PoPKind.FACILITY, located),
                method="fabric-refinement",
                candidates_checked=checked,
            )
        # Affected members span multiple buildings: whole-IXP outage.
        return InvestigationResult(
            signal_pop=pop,
            located_pop=pop,
            method="ixp-wide",
            candidates_checked=checked,
        )

    # ------------------------------------------------------------------
    def _investigate_city(
        self, c: SignalClassification, baseline_far: set[int]
    ) -> InvestigationResult:
        pop = c.pop
        affected_far = set(c.far_ases) or set(c.affected_ases)
        checked: list[str] = []
        scored: list[tuple[float, str]] = []
        for fac_id in sorted(self.colo.facilities_in_city(pop.pop_id)):
            tenants = self.colo.tenants(fac_id)
            population = baseline_far & tenants
            if len(population) < 2:
                continue
            checked.append(f"city-fac:{fac_id}")
            containment = self._containment(affected_far, tenants)
            saturation = self._coverage(affected_far, population)
            if containment >= CITY_CONTAINMENT:
                scored.append((containment + saturation, fac_id))
        located = _unique_best(scored)
        if located is not None:
            return InvestigationResult(
                signal_pop=pop,
                located_pop=PoP(PoPKind.FACILITY, located),
                method="city-to-facility",
                candidates_checked=checked,
            )
        ixp_scored: list[tuple[float, str]] = []
        for ixp_id in sorted(self.colo.ixps_in_city(pop.pop_id)):
            members = self.colo.ixp_members(ixp_id)
            population = baseline_far & members
            if len(population) < 2:
                continue
            checked.append(f"city-ixp:{ixp_id}")
            containment = self._containment(affected_far, members)
            saturation = self._coverage(affected_far, population)
            if containment >= CITY_CONTAINMENT and saturation >= self.margin:
                ixp_scored.append((containment + saturation, ixp_id))
        located = _unique_best(ixp_scored)
        if located is not None:
            return InvestigationResult(
                signal_pop=pop,
                located_pop=PoP(PoPKind.IXP, located),
                method="city-to-ixp",
                candidates_checked=checked,
            )
        # Neither a facility nor an IXP explains the city signal.  True
        # city-scale outages surface as multiple converged epicenters
        # (the city abstraction of Section 4.3); an inexplicable city
        # signal alone is handed to targeted traceroutes instead.
        return InvestigationResult(
            signal_pop=pop,
            located_pop=None,
            method="unresolved",
            needs_dataplane=True,
            candidates_checked=checked,
        )


def _unique_best(
    scored: list[tuple[float, str]], gap: float = DISCRIMINATION_GAP
) -> str | None:
    """The clear winner among scored candidates, or None if ambiguous."""
    if not scored:
        return None
    ranked = sorted(scored, key=lambda sc: (-sc[0], sc[1]))
    if len(ranked) == 1:
        return ranked[0][1]
    if ranked[0][0] - ranked[1][0] >= gap:
        return ranked[0][1]
    return None

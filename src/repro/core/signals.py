"""Outage-signal classification (Section 4.3).

Aggregates the per-AS signals of one binning interval per PoP and
decides the granularity of the triggering incident:

* **link-level** — three or fewer distinct ASes involved ("we require
  that more than three different ASes have to be affected to trigger an
  investigation");
* **AS-level** — all affected links intersect at a single common AS;
* **operator-level** — all affected links include ASes of one
  organization (sibling ASes, mapped via an AS-to-organization dataset);
* **PoP-level** — at least three non-sibling near-end and three
  non-sibling far-end ASes, disjoint, i.e. at least three distinct
  AS-/operator-level incidents coincide at the PoP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import OutageSignal, SignalType
from repro.docmine.dictionary import PoP

#: PoP-level rule: >=3 disjoint non-sibling ASes on each link end.
MIN_POP_LEVEL_ASES = 3


@dataclass
class SignalClassification:
    """Aggregated, classified signal for one PoP in one bin."""

    pop: PoP
    signal_type: SignalType
    bin_start: float
    bin_end: float
    near_ases: set[int] = field(default_factory=set)
    far_ases: set[int] = field(default_factory=set)
    links: set[tuple[int | None, int | None]] = field(default_factory=set)
    signals: list[OutageSignal] = field(default_factory=list)
    common_asn: int | None = None
    common_org: str | None = None

    @property
    def affected_ases(self) -> set[int]:
        return self.near_ases | self.far_ases


def _orgs_of(ases: set[int], as2org: dict[int, str]) -> set[str]:
    return {as2org.get(asn, f"org-as{asn}") for asn in ases}


def classify_signals(
    signals: list[OutageSignal],
    as2org: dict[int, str],
    min_pop_ases: int = MIN_POP_LEVEL_ASES,
) -> list[SignalClassification]:
    """Classify all signals of one binning interval, grouped per PoP."""
    by_pop: dict[PoP, list[OutageSignal]] = {}
    for signal in signals:
        by_pop.setdefault(signal.pop, []).append(signal)

    out: list[SignalClassification] = []
    for pop in sorted(by_pop, key=str):
        group = by_pop[pop]
        links: set[tuple[int | None, int | None]] = set()
        for signal in group:
            links.update(signal.links)
        near = {n for n, _ in links if n is not None}
        far = {f for _, f in links if f is not None}
        result = SignalClassification(
            pop=pop,
            signal_type=SignalType.LINK,
            bin_start=min(s.bin_start for s in group),
            bin_end=max(s.bin_end for s in group),
            near_ases=near,
            far_ases=far,
            links=links,
            signals=group,
        )
        result.signal_type = _classify_one(result, as2org, min_pop_ases)
        out.append(result)
    return out


def _classify_one(
    c: SignalClassification, as2org: dict[int, str], min_pop_ases: int
) -> SignalType:
    distinct = c.affected_ases
    if len(distinct) <= min_pop_ases:
        return SignalType.LINK

    # AS-level: a single AS common to every affected link.
    for candidate in sorted(distinct):
        if all(candidate in link for link in c.links):
            c.common_asn = candidate
            return SignalType.AS

    # Operator-level: one organization touching every link.
    orgs = sorted(_orgs_of(distinct, as2org))
    for org in orgs:
        members = {a for a in distinct if as2org.get(a, f"org-as{a}") == org}
        if all(members & {n, f} for n, f in c.links):
            c.common_org = org
            return SignalType.OPERATOR

    # PoP-level: >=3 disjoint non-sibling orgs on each end.
    near_orgs = _orgs_of(c.near_ases, as2org)
    far_orgs = _orgs_of(c.far_ases - c.near_ases, as2org)
    if (
        len(near_orgs) >= min_pop_ases
        and len(far_orgs) >= min_pop_ases
    ):
        return SignalType.POP
    # Enough ASes but insufficient independence: conservative AS-level.
    return SignalType.AS

"""Unit tests for signal classification and investigation (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.bgp.messages import ElemType
from repro.core.colocation import ColocationMap, MapFacility, MapIXP
from repro.core.events import OutageSignal, SignalType
from repro.core.input import PoPTag
from repro.core.investigation import Investigator
from repro.core.monitor import MonitorParams, OutageMonitor
from repro.core.signals import SignalClassification, classify_signals
from repro.docmine.dictionary import PoP, PoPKind

from _tagged_rows import TaggedPath, observe, prime

POP_F1 = PoP(PoPKind.FACILITY, "mf1")
POP_IX = PoP(PoPKind.IXP, "mix1")
POP_CITY = PoP(PoPKind.CITY, "London")


def signal(pop, near, links, bin_start=0.0):
    return OutageSignal(
        pop=pop,
        near_asn=near,
        bin_start=bin_start,
        bin_end=bin_start + 60.0,
        diverted_paths=len(links),
        baseline_paths=max(len(links), 1) * 4,
        links=frozenset(links),
    )


def org_map(*asns, org=None):
    return {a: (org or f"org{a}") for a in asns}


def one_as_on_nine_of_ten_links():
    # AS99 is near on three links and far on six; (50, 60) avoids it.
    links = (
        {(99, f) for f in (40, 41, 42)}
        | {(n, 99) for n in range(10, 16)}
        | {(50, 60)}
    )
    return [signal(POP_F1, n, {(n, f)}) for n, f in links]


def paths_sharing_a_downstream_as():
    # Three links fail; every diverted path runs on through AS77, which
    # is on none of them.
    monitor = OutageMonitor(MonitorParams(t_fail=0.5))
    keys = [("rrc00", 1, f"10.0.{i}.0/24") for i in range(3)]
    for i, (near, far) in enumerate([(10, 40), (20, 50), (30, 60)]):
        prime(monitor, 
            TaggedPath(
                key=keys[i],
                time=0.0,
                elem_type=ElemType.ANNOUNCEMENT,
                as_path=(1, near, far, 77, 200 + i),
                tags=(PoPTag(pop=POP_F1, near_asn=near, far_asn=far),),
                afi=4,
            )
        )
    for k in keys:
        observe(monitor, 
            TaggedPath(
                key=k, time=10.0, elem_type=ElemType.WITHDRAWAL,
                as_path=(), tags=(), afi=4,
            )
        )
    return monitor.close_bin()


class TestClassification:
    def test_few_ases_is_link_level(self):
        signals = [signal(POP_F1, 10, {(10, 20)})]
        out = classify_signals(signals, org_map(10, 20))
        assert out[0].signal_type is SignalType.LINK

    def test_common_as_is_as_level(self):
        links = {(10, 99), (20, 99), (30, 99), (40, 99)}
        signals = [signal(POP_F1, n, {(n, 99)}) for n, _ in links]
        out = classify_signals(signals, org_map(10, 20, 30, 40, 99))
        assert out[0].signal_type is SignalType.AS
        assert out[0].common_asn == 99

    def test_dominant_as_with_collateral_still_as_level(self):
        # 10 links, 9 share AS99: no AS is on every link, and two far
        # orgs are too few for PoP-level, so the fall-through says AS.
        links = {(n, 99) for n in range(10, 19)} | {(50, 60)}
        signals = [signal(POP_F1, n, {(n, f)}) for n, f in links]
        as2org = org_map(*range(10, 19), 50, 60, 99)
        out = classify_signals(signals, as2org)
        assert out[0].signal_type is SignalType.AS
        assert out[0].common_asn is None

    @pytest.mark.parametrize(
        "make_signals",
        [one_as_on_nine_of_ten_links, paths_sharing_a_downstream_as],
        ids=["as-on-9-of-10-links", "shared-downstream-as"],
    )
    def test_pop_eligible_group_is_pop_level(self, make_signals):
        # AS-level needs one AS on every affected link (Section 4.3);
        # with >=3 near and >=3 far orgs the group is PoP-level.
        signals = make_signals()
        ases = {a for s in signals for link in s.links for a in link}
        out = classify_signals(signals, org_map(*ases))
        assert [(c.signal_type, c.common_asn) for c in out] == [
            (SignalType.POP, None)
        ]

    def test_operator_level_for_siblings(self):
        # All links touch one of the siblings {97, 98, 99} of one org.
        links = {(10, 97), (20, 98), (30, 99), (40, 97)}
        as2org = org_map(10, 20, 30, 40)
        as2org.update({97: "megacorp", 98: "megacorp", 99: "megacorp"})
        signals = [signal(POP_F1, n, {(n, f)}) for n, f in links]
        out = classify_signals(signals, as2org)
        assert out[0].signal_type is SignalType.OPERATOR
        assert out[0].common_org == "megacorp"

    def test_pop_level_requires_disjoint_diversity(self):
        links = {(10, 40), (20, 50), (30, 60)}
        signals = [signal(POP_F1, n, {(n, f)}) for n, f in links]
        out = classify_signals(signals, org_map(10, 20, 30, 40, 50, 60))
        assert out[0].signal_type is SignalType.POP

    def test_sibling_near_ends_do_not_count_twice(self):
        # Three near-ends but two share an org: only 2 near orgs.
        links = {(10, 40), (11, 50), (30, 60)}
        as2org = {10: "a", 11: "a", 30: "b", 40: "x", 50: "y", 60: "z"}
        signals = [signal(POP_F1, n, {(n, f)}) for n, f in links]
        out = classify_signals(signals, as2org)
        assert out[0].signal_type is not SignalType.POP

    def test_signals_grouped_per_pop(self):
        signals = [
            signal(POP_F1, 10, {(10, 40)}),
            signal(POP_IX, 20, {(20, 50)}),
        ]
        out = classify_signals(signals, org_map(10, 20, 40, 50))
        assert {c.pop for c in out} == {POP_F1, POP_IX}


def make_colo() -> ColocationMap:
    """Two-building fabric (mf1, mf2) + one IXP; mf3 in another city.

    Tenants: mf1 = {10, 20, 30}, mf2 = {40, 50, 60}, mf3 = {70, 80, 90}.
    IXP members: everyone in mf1+mf2 plus remote AS99.
    """
    colo = ColocationMap()
    colo.facilities["mf1"] = MapFacility(
        map_id="mf1", city_name="London", country="GB",
        tenants={10, 20, 30, 25}, fac_id_hints={"f1"},
    )
    colo.facilities["mf2"] = MapFacility(
        map_id="mf2", city_name="London", country="GB",
        tenants={40, 50, 60}, fac_id_hints={"f2"},
    )
    colo.facilities["mf3"] = MapFacility(
        map_id="mf3", city_name="Amsterdam", country="NL",
        tenants={70, 80, 90}, fac_id_hints={"f3"},
    )
    colo.ixps["mix1"] = MapIXP(
        map_id="mix1", city_name="London", country="GB",
        members={10, 20, 30, 40, 50, 60, 99},
        facility_map_ids={"mf1", "mf2"}, ixp_id_hints={"ix1"},
    )
    colo.reindex()
    return colo


def classification(pop, links, stype=SignalType.POP):
    near = {n for n, _ in links}
    far = {f for _, f in links}
    return SignalClassification(
        pop=pop,
        signal_type=stype,
        bin_start=0.0,
        bin_end=60.0,
        near_ases=near,
        far_ases=far,
        links=set(links),
    )


class TestInvestigation:
    def test_near_end_facility_confirmed(self):
        colo = make_colo()
        inv = Investigator(colo)
        # Facility signal at mf1; all colocated far-ends affected.
        links = {(10, 20), (10, 30), (20, 30), (30, 10)}
        c = classification(POP_F1.__class__(PoPKind.FACILITY, "mf1"), links)
        result = inv.investigate(c, baseline_far_ases={10, 20, 30})
        assert result.converged
        assert result.located_pop.pop_id == "mf1"
        assert result.method == "near-end"

    def test_far_end_facility_identified(self):
        colo = make_colo()
        inv = Investigator(colo)
        # Signal at mf1 but only far-ends colocated in mf2 affected:
        # classic Figure 2(c) cross-building situation.
        links = {(10, 40), (20, 50), (30, 60)}
        c = classification(PoP(PoPKind.FACILITY, "mf1"), links)
        baseline_far = {20, 30, 40, 50, 60}  # includes unaffected locals
        result = inv.investigate(c, baseline_far)
        assert result.converged
        assert result.located_pop == PoP(PoPKind.FACILITY, "mf2")
        assert result.method == "far-end"

    def test_ixp_escalation_when_no_facility_converges(self):
        colo = make_colo()
        inv = Investigator(colo)
        # Affected far-ends span both buildings evenly; the PNI partner
        # AS25 at mf1 stays up so the near-end test fails, and neither
        # building wins the far-end arbitration — the common IXP does.
        links = {(10, 20), (10, 30), (10, 40), (10, 50)}
        c = classification(PoP(PoPKind.FACILITY, "mf1"), links)
        baseline_far = {20, 30, 40, 50, 25}
        result = inv.investigate(c, baseline_far)
        assert result.converged
        assert result.located_pop == PoP(PoPKind.IXP, "mix1")
        assert result.method == "ixp-escalation"

    def test_ixp_signal_refined_to_building(self):
        colo = make_colo()
        inv = Investigator(colo)
        # Only links touching mf1 members died; links among mf2 members
        # stayed up: Figure 2(b), outage at the building not the IXP.
        affected = {(10, 40), (20, 50), (30, 60), (10, 20)}
        baseline = affected | {(40, 50), (50, 60), (40, 60)}
        c = classification(POP_IX, affected)
        result = inv.investigate(c, {f for _, f in baseline}, baseline)
        assert result.converged
        assert result.located_pop == PoP(PoPKind.FACILITY, "mf1")
        assert result.method == "fabric-refinement"

    def test_ixp_wide_when_no_link_avoids_the_building(self):
        colo = make_colo()
        inv = Investigator(colo)
        # Every known link touches mf1, so none can show that links
        # avoiding mf1 stayed up: Figure 2(b) has no evidence here.
        affected = {(10, 40), (20, 50), (30, 60), (10, 20)}
        c = classification(POP_IX, affected)
        result = inv.investigate(c, {f for _, f in affected}, set(affected))
        assert result.converged
        assert result.located_pop == POP_IX
        assert result.method == "ixp-wide"

    def test_ixp_wide_when_both_buildings_hit(self):
        colo = make_colo()
        inv = Investigator(colo)
        affected = {(10, 40), (20, 50), (30, 60), (40, 50), (50, 60), (10, 20)}
        c = classification(POP_IX, affected)
        result = inv.investigate(c, {f for _, f in affected}, set(affected))
        assert result.converged
        assert result.located_pop == POP_IX
        assert result.method == "ixp-wide"

    def test_city_signal_resolved_to_facility(self):
        colo = make_colo()
        inv = Investigator(colo)
        links = {(10, 20), (20, 30), (30, 10)}
        c = classification(POP_CITY, links)
        result = inv.investigate(c, baseline_far_ases={10, 20, 30, 40, 50})
        assert result.converged
        assert result.located_pop == PoP(PoPKind.FACILITY, "mf1")

    def test_unexplainable_city_signal_needs_dataplane(self):
        colo = make_colo()
        inv = Investigator(colo)
        # Affected set scattered over unrelated ASes.
        links = {(10, 70), (40, 80), (99, 90)}
        c = classification(POP_CITY, links)
        result = inv.investigate(c, baseline_far_ases={70, 80, 90})
        assert not result.converged
        assert result.needs_dataplane

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            Investigator(make_colo(), margin=0.0)

    def test_remote_member_links_do_not_block_refinement(self):
        colo = make_colo()
        inv = Investigator(colo)
        # AS99 is a remote member (no tenancy): its dead link must not
        # stop the building attribution.
        affected = {(10, 40), (20, 50), (30, 60), (10, 20), (99, 10)}
        baseline = affected | {(40, 50), (50, 60)}
        c = classification(POP_IX, affected)
        result = inv.investigate(c, {f for _, f in baseline}, baseline)
        assert result.converged
        assert result.located_pop == PoP(PoPKind.FACILITY, "mf1")

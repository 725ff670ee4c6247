"""Figure 8: localisation accuracy, durations, and the AMS-IX case.

* 8a — community-based facility mapping vs ground truth for the largest
  community-tagging ASes (paper: <5% of interconnections missed, no
  wrong locations);
* 8b — outage-duration CDFs for facilities vs IXPs with uptime lines
  (paper: median ~17 min, 40% > 1 h, IXP outages longer);
* 8c — the AMS-IX outage seen at facility/IXP/city community
  granularities (the IXP's own tag shows the deepest dip).
"""

from __future__ import annotations

import pytest
from conftest import write_table

from repro.analysis.durations import (
    annual_downtime,
    duration_stats,
    durations_by_kind,
    uptime_fraction,
)
from repro.analysis.ecdf import quantile
from repro.docmine.dictionary import PoPKind
from repro.topology.communities import TagKind


def test_fig8a_groundtruth_mapping(benchmark, world):
    """Per AS link: facilities from communities vs ground truth."""
    topo = world.topo
    taggers = sorted(
        (a for a, r in topo.ases.items() if r.scheme is not None
         and TagKind.FACILITY in r.scheme.granularities()),
        key=lambda a: -len(topo.as_facilities[a]),
    )[:4]

    def analyse():
        total_links = 0
        fully_mapped = 0
        missed_facilities = 0
        total_facilities = 0
        for asn in taggers:
            scheme = topo.ases[asn].scheme
            assert scheme is not None
            tagged_facs = {
                tag.target_id
                for tag in scheme.ingress.values()
                if tag.kind is TagKind.FACILITY
            }
            neighbors = topo.customers(asn) | topo.providers[asn] | {
                b for pair in topo.peers if asn in pair for b in pair if b != asn
            }
            for neighbor in sorted(neighbors):
                truth_facs = {
                    f
                    for f in topo.common_facilities(asn, neighbor)
                    if frozenset((asn, neighbor)) in topo.pnis
                    and f in topo.pnis[frozenset((asn, neighbor))]
                }
                for ixp_id in topo.common_ixps(asn, neighbor):
                    port = topo.ixp_ports[(ixp_id, asn)]
                    truth_facs.add(port.facility_id)
                if not truth_facs:
                    continue
                total_links += 1
                mapped = truth_facs & tagged_facs
                total_facilities += len(truth_facs)
                missed_facilities += len(truth_facs - tagged_facs)
                if mapped == truth_facs:
                    fully_mapped += 1
        return total_links, fully_mapped, total_facilities, missed_facilities

    total_links, fully_mapped, total_facs, missed = benchmark(analyse)
    coverage = 1.0 - missed / max(1, total_facs)
    lines = [
        f"ground-truth AS links analysed: {total_links}",
        f"links with every facility mapped: {fully_mapped}"
        f" ({fully_mapped / max(1, total_links):.1%})",
        f"facility-level coverage: {coverage:.1%} (paper: >95%)",
    ]
    write_table("fig8a_groundtruth", lines)
    print("\n".join(lines))
    assert total_links >= 30
    assert coverage >= 0.95


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP 1b, open half: facility durations still run past IXP"
        " ones (a path back under another PathKey, or back before its"
        " record began watching it, never counts as returned)"
    ),
)
def test_fig8b_outage_durations(benchmark, history_run):
    records = [r for r in history_run["records"] if r.duration_s is not None]

    def analyse():
        by_kind = durations_by_kind(records)
        downtime = annual_downtime(records, window_years=5.0)
        return by_kind, downtime

    by_kind, downtime = benchmark(analyse)
    fac = by_kind[PoPKind.FACILITY]
    ixp = by_kind[PoPKind.IXP]
    all_durations = fac + ixp
    stats = duration_stats(all_durations)
    lines = [
        f"outages with measured duration: {stats.count}",
        f"median duration: {stats.median_min:.0f} min (paper: ~17 min)",
        f"fraction > 1 h: {stats.over_1h_fraction:.0%} (paper: ~40%)",
        f"facility median: {quantile(fac, 0.5) / 60:.0f} min"
        f" | IXP median: {quantile(ixp, 0.5) / 60:.0f} min (IXP longer)",
    ]
    for nines in ("99.9", "99.99", "99.999"):
        lines.append(
            f"targets meeting {nines}% uptime: "
            f"{uptime_fraction(downtime, nines):.0%}"
        )
    write_table("fig8b_durations", lines)
    print("\n".join(lines))

    assert fac and ixp
    # IXP outages last longer than facility outages (paper finding).
    assert quantile(ixp, 0.5) > quantile(fac, 0.5)
    # Heavy tail: a sizeable fraction exceeds one hour.
    assert 0.15 <= stats.over_1h_fraction <= 0.8
    # Uptime classes: fewer targets meet more nines.
    assert uptime_fraction(downtime, "99.9") >= uptime_fraction(
        downtime, "99.999"
    )


def test_fig8c_amsix_granularities(benchmark, amsix_run):
    """Path-change fraction per community granularity around t0."""
    world = amsix_run["world"]
    kepler = amsix_run["kepler"]
    t0 = amsix_run["t0"]
    ams_map = world.map_ixp_id("ams-ix")

    def analyse():
        dips: dict[str, float] = {}
        for c in kepler.signal_log:
            if abs(c.bin_start - t0) > 600.0:
                continue
            fraction = max(
                (s.fraction for s in c.signals), default=0.0
            )
            if c.pop.kind is PoPKind.IXP and c.pop.pop_id == ams_map:
                dips["ams-ix"] = max(dips.get("ams-ix", 0.0), fraction)
            elif c.pop.kind is PoPKind.CITY and c.pop.pop_id == "Amsterdam":
                dips["amsterdam"] = max(dips.get("amsterdam", 0.0), fraction)
            elif c.pop.kind is PoPKind.FACILITY:
                fac = world.colo.facilities.get(c.pop.pop_id)
                if fac is not None and fac.city_name == "Amsterdam":
                    dips["facility"] = max(dips.get("facility", 0.0), fraction)
        return dips

    dips = benchmark(analyse)
    lines = [
        f"max diverted fraction at {name}: {value:.0%}"
        for name, value in sorted(dips.items())
    ]
    write_table("fig8c_amsix", lines)
    print("\n".join(lines))

    # The incident is visible at the IXP granularity with a deep dip,
    # and visible-but-shallower at the city aggregation (Figure 8c).
    assert dips.get("ams-ix", 0.0) >= 0.8
    if "amsterdam" in dips:
        assert dips["ams-ix"] >= dips["amsterdam"]
    # Detection: exactly one AMS-IX outage record, at IXP granularity.
    records = amsix_run["records"]
    ams_records = [
        r
        for r in records
        if r.located_pop.kind is PoPKind.IXP and r.located_pop.pop_id == ams_map
    ]
    assert len(ams_records) == 1

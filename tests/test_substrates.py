"""Tests for traceroute, traffic, outage-scenario and analysis substrates."""

from __future__ import annotations

import pytest

from repro.analysis.adoption import AdoptionModel
from repro.analysis.coverage import (
    continent_coverage,
    dictionary_geo_spread,
    locatable_ases,
    trackability_profile,
)
from repro.analysis.durations import (
    annual_downtime,
    duration_stats,
    uptime_fraction,
)
from repro.analysis.ecdf import fraction_at_least, quantile
from repro.core.events import OutageRecord
from repro.docmine.dictionary import PoP, PoPKind
from repro.outages.case_studies import (
    amsix_outage_scenario,
    london_dual_outage_scenario,
)
from repro.outages.history import HistoryParams, generate_history, semester_of
from repro.outages.reports import ReportingModel
from repro.traceroute.addressing import AddressPlan
from repro.traceroute.platform import (
    MeasurementPlatform,
    RateLimitExceeded,
)
from repro.traceroute.simulator import TracerouteSimulator
from repro.traffic.diurnal import diurnal_multiplier
from repro.traffic.matrix import TrafficMatrix


class TestAddressPlan:
    def test_every_member_port_has_lan_address(self, world):
        plan = AddressPlan(world.topo)
        for ixp_id, members in world.topo.ixp_members.items():
            lan = plan._ixp_lan.get(ixp_id)
            assert lan is not None
            for asn in members:
                ip = plan.port_ip(ixp_id, asn)
                assert ip is not None
                assert ip.startswith(lan.rsplit(".", 1)[0])

    def test_router_interfaces_resolvable(self, world):
        plan = AddressPlan(world.topo)
        asn = next(iter(world.topo.as_facilities))
        for fac_id in world.topo.as_facilities[asn]:
            ip = plan.router_ip(asn, fac_id)
            assert ip is not None
            info = plan.lookup(ip)
            assert info is not None
            assert info.asn == asn and info.facility_id == fac_id

    def test_deterministic(self, world):
        a = AddressPlan(world.topo)
        b = AddressPlan(world.topo)
        assert a._by_ip == b._by_ip


class TestTracerouteSimulator:
    @pytest.fixture()
    def sim(self, fresh_world):
        return TracerouteSimulator(
            fresh_world.engine, AddressPlan(fresh_world.topo), seed=3
        )

    def test_trace_reaches_destination(self, fresh_world, sim):
        origins = [a for a, r in fresh_world.topo.ases.items() if r.originates]
        trace = sim.trace(origins[0], origins[5], 0.0)
        assert trace.reached
        assert trace.hops[-1].asn == origins[5]

    def test_rtt_monotonic_along_path(self, fresh_world, sim):
        origins = [a for a, r in fresh_world.topo.ases.items() if r.originates]
        trace = sim.trace(origins[0], origins[9], 0.0)
        rtts = [h.rtt_ms for h in trace.hops]
        assert rtts == sorted(rtts)

    def test_trace_respects_failure_time(self, fresh_world, sim):
        from repro.routing.events import FacilityFailure, FacilityRecovery

        world = fresh_world
        victim = "th-north"
        world.engine.apply_event(FacilityFailure(victim), 1000.0)
        world.engine.apply_event(FacilityRecovery(victim), 2000.0)
        # Pick a pair whose healthy path crossed the victim facility.
        pair = None
        for (v, o), state in world.engine.healthy.items():
            if any(
                victim in (ic.facility_a, ic.facility_b)
                for ic in state.interconnections
            ):
                pair = (v, o)
                break
        assert pair is not None
        before = sim.trace(pair[0], pair[1], 500.0)
        during = sim.trace(pair[0], pair[1], 1500.0)
        after = sim.trace(pair[0], pair[1], 2500.0)
        def crosses(trace) -> bool:
            return any(hop.facility_id == victim for hop in trace.hops)

        assert crosses(before)
        assert not crosses(during)
        assert crosses(after)

    def test_one_route_table_per_destination_and_log_position(
        self, small_topo, monkeypatch
    ):
        """A campaign re-probing one failure state computes each
        destination's table once; a probe time on the other side of an
        event drops them, and every trace still follows the route a
        from-scratch computation gives for its own time."""
        from _route_oracle import oracle_routes
        from repro.routing.engine import CollectorLayout, RoutingEngine
        from repro.routing.events import FacilityFailure, FacilityRecovery
        from repro.routing.policy import AdjacencyIndex
        from repro.traceroute import simulator as simulator_module

        engine = RoutingEngine(small_topo, layout=CollectorLayout({"rrc00": (10, 20)}))
        engine.apply_event(FacilityFailure("f2"), 1000.0)
        engine.apply_event(FacilityRecovery("f2"), 2000.0)
        sim = TracerouteSimulator(engine, AddressPlan(small_topo), seed=1)
        computed = []
        real = simulator_module.route_table

        def counting(index, dst, down):
            computed.append(dst)
            return real(index, dst, down)

        monkeypatch.setattr(simulator_module, "route_table", counting)
        scratch = AdjacencyIndex(small_topo, engine.adjacencies)

        def check(src, dst, when):
            failures = engine.failures_at(when)
            scratch.set_failures(failures)
            info = oracle_routes(scratch, dst, frozenset(failures.ases)).get(src)
            trace = sim.trace(src, dst, when)
            assert trace.reached == (info is not None)
            if info is not None:
                assert trace.as_path == info.path[1:]

        for src in (10, 20, 30, 60):
            check(src, 40, 1500.0)
            check(src, 50, 1700.0)
        assert computed == [40, 50]  # mid-outage: one table each
        check(10, 40, 500.0)  # before the failure: another position
        check(20, 40, 999.0)
        assert computed == [40, 50, 40]
        check(10, 40, 1500.0)  # back inside the outage: dropped, recomputed
        assert computed == [40, 50, 40, 40]
        # An event applied later than every probe moves no position ...
        engine.apply_event(FacilityFailure("f1"), 3000.0)
        check(20, 40, 1999.0)
        assert computed == [40, 50, 40, 40]
        # ... and the engine's own availability cache is left as it was.
        check(10, 50, 3500.0)
        assert not engine.index.up(10, 30) and engine.index.up(10, 50)


class TestPlatform:
    def test_rate_limit_enforced(self, fresh_world):
        sim = TracerouteSimulator(
            fresh_world.engine, AddressPlan(fresh_world.topo)
        )
        platform = MeasurementPlatform(simulator=sim, daily_credits=25)
        probe = platform.probes[0]
        dst = next(
            a for a, r in fresh_world.topo.ases.items() if r.originates
        )
        for _ in range(2):
            platform.traceroute(probe, dst, 0.0)
        with pytest.raises(RateLimitExceeded):
            platform.traceroute(probe, dst, 0.0)

    def test_credits_recover_after_window(self, fresh_world):
        sim = TracerouteSimulator(
            fresh_world.engine, AddressPlan(fresh_world.topo)
        )
        platform = MeasurementPlatform(simulator=sim, daily_credits=25)
        probe = platform.probes[0]
        dst = next(a for a, r in fresh_world.topo.ases.items() if r.originates)
        platform.traceroute(probe, dst, 0.0)
        platform.traceroute(probe, dst, 0.0)
        # A day later the budget is fresh.
        platform.traceroute(probe, dst, 90000.0)


class TestTraffic:
    def test_matrix_total_calibrated(self, small_topo):
        matrix = TrafficMatrix(small_topo, total_gbps=100.0)
        assert matrix.total() == pytest.approx(100.0, rel=1e-6)

    def test_content_sources_more_than_access(self, small_topo):
        matrix = TrafficMatrix(small_topo)
        # AS40 is content, AS30/50 access: content->access demand must
        # on aggregate exceed the reverse.
        c2a = matrix.demand(40, 30) + matrix.demand(40, 50)
        a2c = matrix.demand(30, 40) + matrix.demand(50, 40)
        assert c2a > a2c

    def test_diurnal_mean_near_one(self):
        samples = [diurnal_multiplier(t * 3600.0) for t in range(24)]
        assert sum(samples) / len(samples) == pytest.approx(1.0, abs=0.02)
        assert max(samples) > 1.2 and min(samples) < 0.8

    def test_demand_zero_for_unknown_pair(self, small_topo):
        matrix = TrafficMatrix(small_topo)
        assert matrix.demand(10, 999) == 0.0


class TestOutageScenarios:
    def test_history_counts(self, world):
        params = HistoryParams(seed=4)
        scenario = generate_history(world.topo, params)
        infra = scenario.infrastructure_truth()
        fac = [t for t in infra if t.kind == "facility"]
        ixp = [t for t in infra if t.kind == "ixp"]
        assert len(fac) >= params.n_facility_outages
        assert len(ixp) == params.n_ixp_outages

    def test_history_duration_distribution(self, world):
        scenario = generate_history(world.topo, HistoryParams(seed=4))
        durations = [t.duration_s for t in scenario.infrastructure_truth()]
        stats = duration_stats(durations)
        # Paper: median ~17 min, ~40 % over an hour.
        assert 8 * 60 <= stats.median_s <= 80 * 60
        assert 0.25 <= stats.over_1h_fraction <= 0.60

    def test_ixp_outages_longer(self, world):
        scenario = generate_history(world.topo, HistoryParams(seed=4))
        infra = scenario.infrastructure_truth()
        fac = [t.duration_s for t in infra if t.kind == "facility"]
        ixp = [t.duration_s for t in infra if t.kind == "ixp"]
        assert quantile(ixp, 0.5) > quantile(fac, 0.5)

    def test_events_sorted_and_paired(self, world):
        scenario = generate_history(world.topo, HistoryParams(seed=4))
        times = [t for t, _ in scenario.timed_events]
        assert times == sorted(times)

    def test_reporting_fraction_matches_paper(self, world):
        scenario = generate_history(world.topo, HistoryParams(seed=4))
        model = ReportingModel(world.topo, seed=4)
        infra = [t for t in scenario.truth if t.kind in ("facility", "ixp")]
        fraction = len(model.reports_for(infra)) / len(infra)
        assert 0.15 <= fraction <= 0.35  # paper: ~24 %

    def test_reporting_biased_to_us_uk(self, world):
        scenario = generate_history(world.topo, HistoryParams(seed=4))
        model = ReportingModel(world.topo, seed=4)
        infra = scenario.infrastructure_truth()
        reports = model.reports_for(infra)
        def is_anglo(t):
            return model._country_of(t) in ("US", "GB")
        anglo_total = sum(1 for t in infra if is_anglo(t))
        anglo_reported = sum(1 for r in reports if is_anglo(r.truth))
        rest_total = len(infra) - anglo_total
        rest_reported = len(reports) - anglo_reported
        assert anglo_total and rest_total
        assert (anglo_reported / anglo_total) > (rest_reported / rest_total)

    def test_semester_binning(self):
        import calendar

        assert semester_of(calendar.timegm((2014, 3, 1, 0, 0, 0))) == "2014H1"
        assert semester_of(calendar.timegm((2014, 9, 1, 0, 0, 0))) == "2014H2"

    def test_case_studies_reference_flagships(self, world):
        ams = amsix_outage_scenario()
        assert ams.truth[0].target_id == "ams-ix"
        london = london_dual_outage_scenario(world.topo)
        targets = {t.target_id for t in london.truth}
        assert {"tc-hex89", "th-north"} <= targets
        kinds = [t.kind for t in london.truth]
        assert "as" in kinds  # the time-B trap


class TestAnalysis:
    def test_quantile_interpolation(self):
        assert quantile([0.0, 10.0], 0.5) == pytest.approx(5.0)
        assert quantile([5.0], 0.9) == 5.0
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_fraction_at_least(self):
        assert fraction_at_least([1, 2, 3, 4], 3) == 0.5
        assert fraction_at_least([], 3) == 0.0

    def test_duration_stats(self):
        stats = duration_stats([600.0] * 6 + [7200.0] * 4)
        assert stats.over_1h_fraction == pytest.approx(0.4)
        assert stats.median_s == 600.0

    def test_uptime_fraction(self):
        downtime = {"a": 60.0, "b": 10 * 3600.0}
        assert uptime_fraction(downtime, "99.9") == 0.5
        assert uptime_fraction(downtime, "99.999") == 0.5
        assert uptime_fraction({}, "99.9") == 1.0

    def test_annual_downtime_accumulates(self):
        pop = PoP(PoPKind.FACILITY, "x")
        records = [
            OutageRecord(signal_pop=pop, located_pop=pop, start=0.0, end=600.0),
            OutageRecord(signal_pop=pop, located_pop=pop, start=9000.0, end=9600.0),
        ]
        downtime = annual_downtime(records, window_years=2.0)
        assert downtime[str(pop)] == pytest.approx(600.0)

    def test_adoption_model_matches_figure3(self):
        series = AdoptionModel(seed=1).series()
        first, last = series[0], series[-1]
        assert last.unique_asns / first.unique_asns >= 1.8
        assert last.unique_values / first.unique_values >= 2.5
        assert last.unique_values > 40_000
        years = [p.year for p in series]
        assert years == sorted(years)

    def test_continent_coverage_rows(self, world):
        rows = continent_coverage(world.colo, locatable_ases(world.dictionary))
        by_cont = {r.continent: r for r in rows}
        assert "EU" in by_cont and "NA" in by_cont
        assert by_cont["EU"].all_facilities > by_cont["NA"].all_facilities
        for row in rows:
            assert row.all_facilities >= row.over_5_members >= row.trackable

    def test_trackability_profile_monotone(self, world):
        profile = trackability_profile(
            world.colo, locatable_ases(world.dictionary)
        )
        for _, total, mapped, trackable in profile:
            assert mapped <= total
            assert trackable == (mapped >= 6)

    def test_geo_spread_europe_heavy(self, world):
        spread = dictionary_geo_spread(world.dictionary, world.colo)
        eu = sum(spread.get("EU", {}).values())
        total = sum(sum(v.values()) for v in spread.values())
        assert eu / total >= 0.4

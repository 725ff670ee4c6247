"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ecdf import ecdf, quantile
from repro.bgp.communities import Community, parse_communities
from repro.bgp.sanitize import deprepend, has_as_loop, sanitize_path
from repro.bgp.stream import BGPStream
from repro.bgp.messages import BGPUpdate, ElemType
from repro.geo.cluster import cluster_points
from repro.geo.distance import haversine_km

asn_strategy = st.integers(min_value=0, max_value=0xFFFF)
value_strategy = st.integers(min_value=0, max_value=0xFFFF)
lat_strategy = st.floats(min_value=-89.9, max_value=89.9, allow_nan=False)
lon_strategy = st.floats(min_value=-179.9, max_value=179.9, allow_nan=False)
path_strategy = st.lists(
    st.integers(min_value=1, max_value=60000), min_size=1, max_size=12
)


class TestCommunityProperties:
    @given(asn_strategy, value_strategy)
    def test_parse_format_roundtrip(self, asn, value):
        community = Community(asn, value)
        assert Community.parse(str(community)) == community

    @given(st.lists(st.tuples(asn_strategy, value_strategy), max_size=8))
    def test_parse_communities_roundtrip(self, pairs):
        text = " ".join(f"{a}:{v}" for a, v in pairs)
        parsed = parse_communities(text)
        assert list(parsed) == [Community(a, v) for a, v in pairs]


class TestDistanceProperties:
    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    def test_symmetry_and_nonnegativity(self, lat1, lon1, lat2, lon2):
        d1 = haversine_km(lat1, lon1, lat2, lon2)
        d2 = haversine_km(lat2, lon2, lat1, lon1)
        assert d1 >= 0.0
        assert abs(d1 - d2) < 1e-6

    @given(lat_strategy, lon_strategy)
    def test_identity(self, lat, lon):
        assert haversine_km(lat, lon, lat, lon) < 1e-6

    @given(
        lat_strategy, lon_strategy, lat_strategy, lon_strategy,
        lat_strategy, lon_strategy,
    )
    @settings(max_examples=50)
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        d12 = haversine_km(lat1, lon1, lat2, lon2)
        d23 = haversine_km(lat2, lon2, lat3, lon3)
        d13 = haversine_km(lat1, lon1, lat3, lon3)
        assert d13 <= d12 + d23 + 1e-6


class TestSanitizeProperties:
    @given(path_strategy)
    def test_deprepend_idempotent(self, path):
        once = deprepend(path)
        assert deprepend(once) == once

    @given(path_strategy)
    def test_deprepend_no_consecutive_duplicates(self, path):
        out = deprepend(path)
        assert all(a != b for a, b in zip(out, out[1:]))

    @given(path_strategy)
    def test_sanitized_paths_are_loop_free(self, path):
        clean = sanitize_path(path)
        if clean is not None:
            assert not has_as_loop(clean)
            assert len(set(clean)) == len(clean)

    @given(path_strategy)
    def test_deprepend_preserves_as_set(self, path):
        assert set(deprepend(path)) == set(path)


class TestClusterProperties:
    coords = st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=4),
        st.tuples(lat_strategy, lon_strategy),
        min_size=1,
        max_size=10,
    )

    @given(coords)
    @settings(max_examples=40)
    def test_partition(self, points):
        clusters = cluster_points(points, radius_km=50.0)
        members = [m for c in clusters for m in c]
        assert sorted(members) == sorted(points)
        assert len(members) == len(set(members))

    @given(coords)
    @settings(max_examples=40)
    def test_close_pairs_share_cluster(self, points):
        clusters = cluster_points(points, radius_km=50.0)
        index = {m: i for i, c in enumerate(clusters) for m in c}
        names = sorted(points)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                d = haversine_km(*points[a], *points[b])
                if d <= 50.0:
                    assert index[a] == index[b]

    @given(coords)
    @settings(max_examples=20)
    def test_radius_monotonicity(self, points):
        small = cluster_points(points, radius_km=10.0)
        large = cluster_points(points, radius_km=1000.0)
        assert len(large) <= len(small)


class TestEcdfProperties:
    values = st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    )

    @given(values)
    def test_ecdf_monotone_and_bounded(self, xs):
        points = ecdf(xs)
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        vals = [v for v, _ in points]
        assert vals == sorted(vals)

    @given(values, st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_within_range(self, xs, q):
        result = quantile(xs, q)
        assert min(xs) <= result <= max(xs)

    @given(values)
    def test_median_between_extremes(self, xs):
        assert min(xs) <= quantile(xs, 0.5) <= max(xs)


class TestStreamProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), max_size=30))
    def test_stream_outputs_sorted(self, times):
        stream = BGPStream()
        for i, t in enumerate(times):
            stream.push(
                BGPUpdate(
                    time=t,
                    collector="c",
                    peer_asn=1,
                    prefix=f"10.0.{i % 256}.0/24",
                    elem_type=ElemType.ANNOUNCEMENT,
                    as_path=(1, 2),
                )
            )
        out = [e.time for e in iter(stream.pop, None)]
        assert out == sorted(out)
        assert len(out) == len(times)


class TestMonitorProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=30)
    def test_signal_fraction_consistency(self, baseline_n, divert_n):
        """Signals fire iff the diverted fraction crosses Tfail."""
        from repro.core.input import PoPTag, TaggedPath
        from repro.core.monitor import MonitorParams, OutageMonitor
        from repro.docmine.dictionary import PoP, PoPKind

        divert_n = min(divert_n, baseline_n)
        pop = PoP(PoPKind.FACILITY, "x")
        monitor = OutageMonitor(MonitorParams(t_fail=0.25))
        for i in range(baseline_n):
            key = ("c", 1, f"p{i}")
            monitor.prime(
                TaggedPath(
                    key=key, time=0.0, elem_type=ElemType.ANNOUNCEMENT,
                    as_path=(1, 5, 9),
                    tags=(PoPTag(pop=pop, near_asn=5, far_asn=9),), afi=4,
                )
            )
        for i in range(divert_n):
            monitor.observe(
                TaggedPath(
                    key=("c", 1, f"p{i}"), time=10.0,
                    elem_type=ElemType.WITHDRAWAL, as_path=(), tags=(), afi=4,
                )
            )
        signals = monitor.close_bin()
        expected = (divert_n / baseline_n) >= 0.25 and divert_n > 0
        assert bool(signals) == expected
        for signal in signals:
            assert 0.0 < signal.fraction <= 1.0

"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ecdf import quantile
from repro.bgp.sanitize import collapse_runs, sanitize_collapsed
from repro.bgp.messages import BGPUpdate, ElemType
from repro.geo.cluster import cluster_points
from repro.geo.distance import haversine_km
from repro.pipeline.ingest import merge_streams

from _sanitize_oracle import has_as_loop
from _tagged_rows import TaggedPath, observe, prime

lat_strategy = st.floats(min_value=-89.9, max_value=89.9, allow_nan=False)
lon_strategy = st.floats(min_value=-179.9, max_value=179.9, allow_nan=False)
path_strategy = st.lists(
    st.integers(min_value=1, max_value=60000), min_size=1, max_size=12
)


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
        once = collapse_runs(path)
        assert collapse_runs(once) == once

    @given(path_strategy)
    def test_deprepend_no_consecutive_duplicates(self, path):
        out = collapse_runs(path)
        assert all(a != b for a, b in zip(out, out[1:]))

    @given(path_strategy)
    def test_sanitized_paths_are_loop_free(self, path):
        clean = sanitize_collapsed(collapse_runs(path))
        if clean is not None:
            assert not has_as_loop(clean)
            assert len(set(clean)) == len(clean)

    @given(path_strategy)
    def test_deprepend_preserves_as_set(self, path):
        assert set(collapse_runs(path)) == set(path)


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

    @given(values, st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_within_range(self, xs, q):
        result = quantile(xs, q)
        assert min(xs) <= result <= max(xs)

    @given(values)
    def test_median_between_extremes(self, xs):
        assert min(xs) <= quantile(xs, 0.5) <= max(xs)


class TestStreamProperties:
    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False)),
            max_size=5,
        )
    )
    def test_stream_outputs_sorted(self, feeds):
        """Merging time-sorted collector feeds gives one sorted stream."""
        streams = [
            [
                BGPUpdate(
                    time=t,
                    collector=f"c{f}",
                    peer_asn=1,
                    prefix=f"10.0.{i % 256}.0/24",
                    elem_type=ElemType.ANNOUNCEMENT,
                    as_path=(1, 2),
                )
                for i, t in enumerate(sorted(times))
            ]
            for f, times in enumerate(feeds)
        ]
        out = [e.time for e in merge_streams(*streams)]
        assert out == sorted(out)
        assert len(out) == sum(map(len, feeds))


class TestMonitorProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=30)
    def test_signal_fraction_consistency(self, baseline_n, divert_n):
        """Signals fire iff the diverted fraction crosses Tfail."""
        from repro.core.input import PoPTag
        from repro.core.monitor import MonitorParams, OutageMonitor
        from repro.docmine.dictionary import PoP, PoPKind

        divert_n = min(divert_n, baseline_n)
        pop = PoP(PoPKind.FACILITY, "x")
        monitor = OutageMonitor(MonitorParams(t_fail=0.25))
        for i in range(baseline_n):
            key = ("c", 1, f"p{i}")
            prime(
                monitor,
                TaggedPath(
                    key=key, time=0.0, elem_type=ElemType.ANNOUNCEMENT,
                    as_path=(1, 5, 9),
                    tags=(PoPTag(pop=pop, near_asn=5, far_asn=9),), afi=4,
                )
            )
        for i in range(divert_n):
            observe(
                monitor,
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

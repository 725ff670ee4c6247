"""Tests for the geography substrate."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.geo.cities import CONTINENTS, WORLD_CITIES, city_by_name
from repro.geo.cluster import cluster_identifiers, cluster_points
from repro.geo.distance import EARTH_RADIUS_KM, fiber_rtt_ms, haversine_km, midpoint
from repro.geo.geocoder import Geocoder


class TestHaversine:
    def test_zero_distance_for_identical_points(self):
        assert haversine_km(52.0, 4.0, 52.0, 4.0) == pytest.approx(0.0, abs=1e-9)

    def test_known_distance_amsterdam_frankfurt(self):
        # The paper: "The two IXPs are 360 kilometers away."
        d = haversine_km(52.3702, 4.8952, 50.1109, 8.6821)
        assert 350.0 <= d <= 375.0

    def test_known_distance_london_new_york(self):
        d = haversine_km(51.5074, -0.1278, 40.7128, -74.0060)
        assert 5500.0 <= d <= 5620.0

    def test_symmetry(self):
        a = haversine_km(10.0, 20.0, -30.0, 140.0)
        b = haversine_km(-30.0, 140.0, 10.0, 20.0)
        assert a == pytest.approx(b)

    def test_antipodal_upper_bound(self):
        d = haversine_km(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-6)

    def test_latitude_out_of_range_raises(self):
        with pytest.raises(ValueError):
            haversine_km(95.0, 0.0, 0.0, 0.0)

    def test_longitude_out_of_range_raises(self):
        with pytest.raises(ValueError):
            haversine_km(0.0, 200.0, 0.0, 0.0)


class TestMidpoint:
    def test_midpoint_on_equator(self):
        lat, lon = midpoint(0.0, 0.0, 0.0, 90.0)
        assert lat == pytest.approx(0.0, abs=1e-6)
        assert lon == pytest.approx(45.0, abs=1e-6)

    def test_midpoint_longitude_normalised(self):
        lat, lon = midpoint(35.0, 170.0, 35.0, -170.0)
        assert -180.0 <= lon <= 180.0

    def test_midpoint_equidistant(self):
        lat, lon = midpoint(52.37, 4.90, 50.11, 8.68)
        d1 = haversine_km(52.37, 4.90, lat, lon)
        d2 = haversine_km(50.11, 8.68, lat, lon)
        assert d1 == pytest.approx(d2, rel=1e-3)


class TestFiberRtt:
    def test_zero_distance_zero_rtt(self):
        assert fiber_rtt_ms(0.0) == 0.0

    def test_monotonic_in_distance(self):
        assert fiber_rtt_ms(1000.0) < fiber_rtt_ms(2000.0)

    def test_transatlantic_ballpark(self):
        # ~5600 km should be in the tens of ms, not seconds.
        rtt = fiber_rtt_ms(5600.0)
        assert 50.0 <= rtt <= 120.0

    def test_negative_distance_raises(self):
        with pytest.raises(ValueError):
            fiber_rtt_ms(-1.0)


class TestGazetteer:
    def test_lookup_by_canonical_name(self):
        city = city_by_name("Amsterdam")
        assert city is not None and city.country == "NL"

    def test_lookup_by_iata(self):
        city = city_by_name("LHR")
        assert city is not None and city.name == "London"

    def test_lookup_by_alias_case_insensitive(self):
        city = city_by_name("nyc")
        assert city is not None and city.name == "New York"

    def test_unknown_identifier_returns_none(self):
        assert city_by_name("Atlantis") is None

    def test_continent_codes_cover_all_cities(self):
        assert {c.continent for c in WORLD_CITIES} <= set(CONTINENTS)

    def test_europe_dominates_like_the_paper(self):
        per = Counter(city.continent for city in WORLD_CITIES)
        assert per["EU"] > per["NA"] > per["AF"]

    def test_identifiers_unique_enough(self):
        # No canonical name should be claimed by two different cities.
        seen: dict[str, str] = {}
        for city in WORLD_CITIES:
            key = city.name.lower()
            assert key not in seen
            seen[key] = city.name


class TestGeocoder:
    def test_canonical_name_exact_coordinates(self):
        geocoder = Geocoder()
        result = geocoder.geocode("Amsterdam")
        assert result is not None
        assert result.lat == pytest.approx(52.3702)
        assert result.lon == pytest.approx(4.8952)

    def test_alias_within_offset_radius(self):
        geocoder = Geocoder(max_offset_km=6.0)
        canonical = geocoder.geocode("New York")
        alias = geocoder.geocode("NYC")
        assert canonical is not None and alias is not None
        d = haversine_km(canonical.lat, canonical.lon, alias.lat, alias.lon)
        assert 0.0 < d <= 6.5

    def test_alias_resolution_is_deterministic(self):
        a = Geocoder().geocode("JFK")
        b = Geocoder().geocode("JFK")
        assert a == b

    def test_unknown_identifier_none(self):
        assert Geocoder().geocode("Middle of Nowhere") is None

    def test_airport_location_type(self):
        result = Geocoder().geocode("JFK")
        assert result is not None and result.location_type == "airport"

    def test_caching_counts_queries_once(self):
        geocoder = Geocoder()
        geocoder.geocode("Paris")
        geocoder.geocode("Paris")
        assert geocoder.query_count == 1

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            Geocoder(max_offset_km=-1.0)


class TestClustering:
    def test_identifiers_of_same_city_cluster_together(self):
        clusters, unresolved = cluster_identifiers(
            ["New York", "NYC", "JFK", "London", "LHR"]
        )
        assert not unresolved
        by_member = {m: frozenset(c) for c in clusters for m in c}
        assert by_member["New York"] == by_member["NYC"] == by_member["JFK"]
        assert by_member["London"] == by_member["LHR"]
        assert by_member["London"] != by_member["NYC"]

    def test_unresolvable_identifiers_reported(self):
        clusters, unresolved = cluster_identifiers(["Paris", "Narnia"])
        assert unresolved == {"Narnia"}
        assert any("Paris" in c for c in clusters)

    def test_single_linkage_chains(self):
        # A-B within radius and B-C within radius chain into one cluster
        # even though A-C exceed it.
        points = {
            "a": (0.0, 0.0),
            "b": (0.0, 0.08),  # ~8.9 km east
            "c": (0.0, 0.16),  # ~8.9 km further
        }
        clusters = cluster_points(points, radius_km=10.0)
        assert len(clusters) == 1

    def test_distant_points_stay_apart(self):
        points = {"a": (0.0, 0.0), "b": (1.0, 1.0)}
        clusters = cluster_points(points, radius_km=10.0)
        assert len(clusters) == 2

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            cluster_points({"a": (0.0, 0.0)}, radius_km=-5.0)

    def test_deterministic_cluster_ordering(self):
        points = {"x": (0.0, 0.0), "y": (0.0, 0.01), "z": (40.0, 40.0)}
        assert cluster_points(points) == cluster_points(points)

"""Geography substrate.

Provides the world-city gazetteer, great-circle distances, an offline
geocoder that stands in for the Google Maps Geocoding API used in the paper
(Section 3.2), and the 10 km clustering used to unify location identifiers
("New York City", "NYC", "JFK") that refer to the same place.
"""

from repro.geo.cities import City, WORLD_CITIES, city_by_name
from repro.geo.cluster import CLUSTER_RADIUS_KM, cluster_identifiers
from repro.geo.distance import EARTH_RADIUS_KM, haversine_km
from repro.geo.geocoder import GeocodeResult, Geocoder

__all__ = [
    "City",
    "WORLD_CITIES",
    "city_by_name",
    "EARTH_RADIUS_KM",
    "haversine_km",
    "Geocoder",
    "GeocodeResult",
    "CLUSTER_RADIUS_KM",
    "cluster_identifiers",
]

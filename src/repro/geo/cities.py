"""World-city gazetteer.

A curated set of real metropolitan areas that host peering infrastructure,
with coordinates, IATA codes, common aliases, countries and continents.
The distribution deliberately mirrors the geography the paper reports
(Section 3.2, Figure 5; Table 1): Europe and North America dominate, with a
smaller tail in Asia/Pacific, South America and Africa.

The gazetteer is the ground truth behind the offline geocoder
(:mod:`repro.geo.geocoder`) and the topology builder
(:mod:`repro.topology.builder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class City:
    """A metropolitan area hosting peering infrastructure.

    ``aliases`` holds the alternative identifiers operators use in their
    community documentation: short forms, IATA airport codes, local
    spellings.  The paper resolves these through geocoding + clustering.
    """

    name: str
    country: str
    continent: str
    lat: float
    lon: float
    iata: str
    aliases: tuple[str, ...] = field(default=())

    def all_identifiers(self) -> tuple[str, ...]:
        """Every identifier that may denote this city in operator docs."""
        return (self.name, self.iata) + self.aliases


#: Continent codes used throughout the project.
CONTINENTS = ("EU", "NA", "AP", "SA", "AF")

WORLD_CITIES: tuple[City, ...] = (
    # --- Europe (the paper: 66% of location communities) ---
    City("Amsterdam", "NL", "EU", 52.3702, 4.8952, "AMS", ("AMS-NL", "Adam")),
    City("London", "GB", "EU", 51.5074, -0.1278, "LHR", ("LON", "LDN")),
    City("Frankfurt", "DE", "EU", 50.1109, 8.6821, "FRA", ("FFM", "Frankfurt am Main")),
    City("Paris", "FR", "EU", 48.8566, 2.3522, "CDG", ("PAR",)),
    City("Stockholm", "SE", "EU", 59.3293, 18.0686, "ARN", ("STO",)),
    City("Milan", "IT", "EU", 45.4642, 9.1900, "MXP", ("MIL", "Milano")),
    City("Madrid", "ES", "EU", 40.4168, -3.7038, "MAD", ()),
    City("Vienna", "AT", "EU", 48.2082, 16.3738, "VIE", ("Wien",)),
    City("Zurich", "CH", "EU", 47.3769, 8.5417, "ZRH", ("ZUR", "Zuerich")),
    City("Warsaw", "PL", "EU", 52.2297, 21.0122, "WAW", ("Warszawa",)),
    City("Prague", "CZ", "EU", 50.0755, 14.4378, "PRG", ("Praha",)),
    City("Copenhagen", "DK", "EU", 55.6761, 12.5683, "CPH", ("Kobenhavn",)),
    City("Dublin", "IE", "EU", 53.3498, -6.2603, "DUB", ()),
    City("Brussels", "BE", "EU", 50.8503, 4.3517, "BRU", ("BXL",)),
    City("Oslo", "NO", "EU", 59.9139, 10.7522, "OSL", ()),
    City("Helsinki", "FI", "EU", 60.1699, 24.9384, "HEL", ()),
    City("Lisbon", "PT", "EU", 38.7223, -9.1393, "LIS", ("Lisboa",)),
    City("Bucharest", "RO", "EU", 44.4268, 26.1025, "OTP", ("Bucuresti",)),
    City("Kyiv", "UA", "EU", 50.4501, 30.5234, "KBP", ("Kiev",)),
    City("Moscow", "RU", "EU", 55.7558, 37.6173, "DME", ("MOW", "MSK")),
    City("Manchester", "GB", "EU", 53.4808, -2.2426, "MAN", ()),
    City("Marseille", "FR", "EU", 43.2965, 5.3698, "MRS", ()),
    City("Munich", "DE", "EU", 48.1351, 11.5820, "MUC", ("Muenchen",)),
    City("Hamburg", "DE", "EU", 53.5511, 9.9937, "HAM", ()),
    City("Dusseldorf", "DE", "EU", 51.2277, 6.7735, "DUS", ("Duesseldorf",)),
    City("Rome", "IT", "EU", 41.9028, 12.4964, "FCO", ("Roma",)),
    City("Athens", "GR", "EU", 37.9838, 23.7275, "ATH", ()),
    City("Budapest", "HU", "EU", 47.4979, 19.0402, "BUD", ()),
    City("Sofia", "BG", "EU", 42.6977, 23.3219, "SOF", ()),
    City("Istanbul", "TR", "EU", 41.0082, 28.9784, "IST", ()),
    # --- North America (24.5%) ---
    City("New York", "US", "NA", 40.7128, -74.0060, "JFK", ("NYC", "New York City")),
    City("Ashburn", "US", "NA", 39.0438, -77.4874, "IAD", ("Washington DC", "WDC")),
    City("Chicago", "US", "NA", 41.8781, -87.6298, "ORD", ("CHI",)),
    City("Dallas", "US", "NA", 32.7767, -96.7970, "DFW", ("DAL",)),
    City("Los Angeles", "US", "NA", 34.0522, -118.2437, "LAX", ("LA",)),
    City("San Jose", "US", "NA", 37.3382, -121.8863, "SJC", ("Silicon Valley", "Palo Alto")),
    City("Seattle", "US", "NA", 47.6062, -122.3321, "SEA", ()),
    City("Miami", "US", "NA", 25.7617, -80.1918, "MIA", ()),
    City("Atlanta", "US", "NA", 33.7490, -84.3880, "ATL", ()),
    City("Toronto", "CA", "NA", 43.6532, -79.3832, "YYZ", ("TOR",)),
    City("Montreal", "CA", "NA", 45.5017, -73.5673, "YUL", ()),
    City("Denver", "US", "NA", 39.7392, -104.9903, "DEN", ()),
    City("Phoenix", "US", "NA", 33.4484, -112.0740, "PHX", ()),
    City("Boston", "US", "NA", 42.3601, -71.0589, "BOS", ()),
    # --- Asia / Pacific ---
    City("Tokyo", "JP", "AP", 35.6762, 139.6503, "NRT", ("TYO",)),
    City("Singapore", "SG", "AP", 1.3521, 103.8198, "SIN", ("SGP",)),
    City("Hong Kong", "HK", "AP", 22.3193, 114.1694, "HKG", ("HK",)),
    City("Sydney", "AU", "AP", -33.8688, 151.2093, "SYD", ()),
    City("Mumbai", "IN", "AP", 19.0760, 72.8777, "BOM", ("Bombay",)),
    City("Seoul", "KR", "AP", 37.5665, 126.9780, "ICN", ()),
    City("Osaka", "JP", "AP", 34.6937, 135.5023, "KIX", ()),
    City("Auckland", "NZ", "AP", -36.8485, 174.7633, "AKL", ()),
    # --- South America ---
    City("Sao Paulo", "BR", "SA", -23.5505, -46.6333, "GRU", ("SP", "Sampa")),
    City("Buenos Aires", "AR", "SA", -34.6037, -58.3816, "EZE", ("BA",)),
    City("Santiago", "CL", "SA", -33.4489, -70.6693, "SCL", ()),
    City("Bogota", "CO", "SA", 4.7110, -74.0721, "BOG", ()),
    # --- Africa ---
    City("Johannesburg", "ZA", "AF", -26.2041, 28.0473, "JNB", ("JHB", "Joburg")),
    City("Cape Town", "ZA", "AF", -33.9249, 18.4241, "CPT", ()),
    City("Nairobi", "KE", "AF", -1.2921, 36.8219, "NBO", ()),
    City("Lagos", "NG", "AF", 6.5244, 3.3792, "LOS", ()),
)

_BY_NAME: dict[str, City] = {}
for _city in WORLD_CITIES:
    for _ident in _city.all_identifiers():
        _BY_NAME.setdefault(_ident.lower(), _city)


def city_by_name(identifier: str) -> City | None:
    """Resolve a city by canonical name, IATA code, or alias.

    Lookup is case-insensitive.  Returns ``None`` when the identifier is
    unknown — callers must decide whether that is an error.
    """
    return _BY_NAME.get(identifier.strip().lower())


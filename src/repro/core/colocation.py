"""Colocation map construction (Section 3.3).

Merges the noisy colocation-database exports into a high-resolution map
of (i) AS-to-facility, (ii) AS-to-IXP and (iii) IXP-to-facility
relations:

* facilities are keyed by **postcode + country** — names are not
  standardized across sources;
* IXPs are keyed by **website URL** (falling back to city/country +
  normalised name);
* tenant/member lists are unioned across sources.

The map also answers Kepler's trackability question (Section 5.2): a
facility is trackable when at least ``MIN_TRACKABLE_MEMBERS`` of its
tenants can be located through dictionary communities.
"""

from __future__ import annotations

import re
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from repro.topology.sources import ColocationRecord, IXPRecord


def _normalize_tokens(text: str) -> tuple[str, ...]:
    """Lowercased alphanumeric tokens (local copy: avoids a docmine
    import cycle — docmine builds its NER gazetteer from this map)."""
    return tuple(t for t in re.split(r"[^a-z0-9]+", text.lower()) if t)

#: Minimum community-locatable members for trackability: 3 near-end +
#: 3 far-end disjoint ASes (Section 5.2).
MIN_TRACKABLE_MEMBERS = 6
#: What :meth:`ColocationMap.ixp_member_view` returns for an unknown IXP.
_NO_MEMBERS: frozenset[int] = frozenset()


@dataclass
class MapFacility:
    """One merged facility record."""

    map_id: str  # postcode|country merge key
    names: set[str] = field(default_factory=set)
    postcode: str = ""
    country: str = ""
    city_name: str = ""
    tenants: set[int] = field(default_factory=set)
    sources: set[str] = field(default_factory=set)
    #: Ground-truth hints carried through for *evaluation only*.
    fac_id_hints: set[str] = field(default_factory=set)


@dataclass
class MapIXP:
    """One merged IXP record."""

    map_id: str
    names: set[str] = field(default_factory=set)
    website: str = ""
    city_name: str = ""
    country: str = ""
    members: set[int] = field(default_factory=set)
    facility_map_ids: set[str] = field(default_factory=set)
    sources: set[str] = field(default_factory=set)
    ixp_id_hints: set[str] = field(default_factory=set)


def _facility_key(record: ColocationRecord) -> str:
    return f"{record.postcode}|{record.country}".lower().replace(" ", "")


def _ixp_key(record: IXPRecord) -> str:
    if record.website:
        return record.website.lower().rstrip("/")
    name = "-".join(_normalize_tokens(record.name))
    return f"{name}|{record.city_name}|{record.country}".lower()


@dataclass
class ColocationMap:
    """The merged map with Kepler's lookup operations."""

    facilities: dict[str, MapFacility] = field(default_factory=dict)
    ixps: dict[str, MapIXP] = field(default_factory=dict)
    _as_facilities: dict[int, set[str]] = field(default_factory=dict)
    _as_ixps: dict[int, set[str]] = field(default_factory=dict)

    def reindex(self) -> None:
        self._as_facilities.clear()
        self._as_ixps.clear()
        for map_id, fac in self.facilities.items():
            for asn in fac.tenants:
                self._as_facilities.setdefault(asn, set()).add(map_id)
        for map_id, ixp in self.ixps.items():
            for asn in ixp.members:
                self._as_ixps.setdefault(asn, set()).add(map_id)

    # ------------------------------------------------------------------
    def facilities_of_as(self, asn: int) -> set[str]:
        return set(self._as_facilities.get(asn, set()))

    def ixps_of_as(self, asn: int) -> set[str]:
        return set(self._as_ixps.get(asn, set()))

    def tenants(self, map_id: str) -> set[int]:
        fac = self.facilities.get(map_id)
        return set(fac.tenants) if fac else set()

    def ixp_members(self, map_id: str) -> set[int]:
        ixp = self.ixps.get(map_id)
        return set(ixp.members) if ixp else set()

    def ixp_member_view(self, map_id: str) -> AbstractSet[int]:
        """The IXP's member set itself, not a copy: for membership tests
        on hot paths.  Callers must not mutate it."""
        ixp = self.ixps.get(map_id)
        return ixp.members if ixp else _NO_MEMBERS

    def common_facilities(self, asn_a: int, asn_b: int) -> set[str]:
        return self.facilities_of_as(asn_a) & self.facilities_of_as(asn_b)

    def common_ixps(self, asn_a: int, asn_b: int) -> set[str]:
        return self.ixps_of_as(asn_a) & self.ixps_of_as(asn_b)

    def ixp_facilities(self, map_id: str) -> set[str]:
        ixp = self.ixps.get(map_id)
        return set(ixp.facility_map_ids) if ixp else set()

    def facilities_in_city(self, city_name: str) -> set[str]:
        return {
            map_id
            for map_id, fac in self.facilities.items()
            if fac.city_name == city_name
        }

    def ixps_in_city(self, city_name: str) -> set[str]:
        return {
            map_id
            for map_id, ixp in self.ixps.items()
            if ixp.city_name == city_name
        }

    # ------------------------------------------------------------------
    def trackable_facilities(
        self, locatable_ases: set[int], minimum: int = MIN_TRACKABLE_MEMBERS
    ) -> set[str]:
        """Facilities with >= ``minimum`` community-locatable tenants."""
        return {
            map_id
            for map_id, fac in self.facilities.items()
            if len(fac.tenants & locatable_ases) >= minimum
        }


def build_colocation_map(
    facility_records: list[ColocationRecord],
    ixp_records: list[IXPRecord],
) -> ColocationMap:
    """Merge database exports into one colocation map."""
    colo = ColocationMap()
    postcode_to_map_id: dict[str, str] = {}
    for record in facility_records:
        key = _facility_key(record)
        map_id = postcode_to_map_id.setdefault(key, key)
        fac = colo.facilities.setdefault(
            map_id,
            MapFacility(
                map_id=map_id,
                postcode=record.postcode,
                country=record.country,
                city_name=record.city_name,
            ),
        )
        fac.names.add(record.name)
        fac.tenants.update(record.tenants)
        fac.sources.add(record.source)
        fac.fac_id_hints.add(record.fac_id_hint)

    for record in ixp_records:
        key = _ixp_key(record)
        ixp = colo.ixps.setdefault(
            key,
            MapIXP(
                map_id=key,
                website=record.website,
                city_name=record.city_name,
                country=record.country,
            ),
        )
        ixp.names.add(record.name)
        ixp.members.update(record.members)
        ixp.sources.add(record.source)
        ixp.ixp_id_hints.add(record.ixp_id_hint)
        for postcode in record.facility_postcodes:
            fac_key = f"{postcode}|{record.country}".lower().replace(" ", "")
            if fac_key in colo.facilities:
                ixp.facility_map_ids.add(fac_key)

    colo.reindex()
    return colo

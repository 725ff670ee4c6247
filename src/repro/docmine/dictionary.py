"""Community dictionary construction (Section 3.2).

Pipeline, mirroring the paper stage for stage:

1. scrape documentation pages (IRR remarks, operator web pages);
2. extract community mentions by regular expression;
3. keep only lines documenting *inbound* communities (passive voice);
4. recognise named entities (cities / IXPs / facilities) with a
   gazetteer NER assembled from the colocation databases;
5. geocode city identifiers and cluster them within 10 km, assigning a
   single canonical location per cluster.

The result maps a :class:`~repro.bgp.communities.Community` to a
:class:`PoP` — the monitoring unit of Kepler.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bgp.communities import Community
from repro.docmine.corpus import DocumentPage

if TYPE_CHECKING:  # import cycle guard: core.colocation is runtime-free here
    from repro.core.colocation import ColocationMap
from repro.docmine.extractor import extract_mentions
from repro.docmine.ner import EntityKind, GazetteerNER
from repro.docmine.voice import Voice, classify_voice
from repro.geo.cluster import cluster_identifiers
from repro.geo.geocoder import Geocoder


class PoPKind(enum.Enum):
    """Granularity of a monitored point of presence."""

    CITY = "city"
    FACILITY = "facility"
    IXP = "ixp"


@dataclass(frozen=True)
class PoP:
    """A monitorable point of presence.

    ``pop_id`` is a canonical city name for CITY, a colocation-map
    facility id for FACILITY, and a colocation-map IXP id for IXP.
    """

    kind: PoPKind
    pop_id: str

    def __post_init__(self) -> None:
        # PoPs key the monitor's baseline/divergence dicts and ride in
        # update-pop sets on the per-element hot path; caching the hash
        # beats the generated dataclass __hash__ (field-tuple per call).
        object.__setattr__(self, "_hash", hash((self.kind, self.pop_id)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # String hashes differ per interpreter start: an unpickled PoP
        # must recompute its hash, not carry the writer's.
        return (PoP, (self.kind, self.pop_id))

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.pop_id}"


@dataclass(frozen=True)
class DictionaryEntry:
    """One dictionary row: what a community means and where it came from."""

    community: Community
    pop: PoP
    source_url: str
    surface: str  # matched entity text, for auditability


@dataclass
class CommunityDictionary:
    """The community dictionary plus route-server redistribution ASNs."""

    entries: dict[Community, DictionaryEntry] = field(default_factory=dict)
    #: route-server ASN -> IXP PoP (any community with this ASN in the
    #: top 16 bits marks the route as having traversed the IXP).
    rs_asn_to_pop: dict[int, PoP] = field(default_factory=dict)

    def lookup(self, community: Community) -> PoP | None:
        entry = self.entries.get(community)
        if entry is not None:
            return entry.pop
        return self.rs_asn_to_pop.get(community.asn)

    def pops(self) -> set[PoP]:
        out = {entry.pop for entry in self.entries.values()}
        out.update(self.rs_asn_to_pop.values())
        return out

    def covered_asns(self) -> set[int]:
        return {community.asn for community in self.entries}

    def size_by_kind(self) -> dict[PoPKind, int]:
        counts = {kind: 0 for kind in PoPKind}
        for entry in self.entries.values():
            counts[entry.pop.kind] += 1
        return counts

    def __len__(self) -> int:
        return len(self.entries)


def _build_ner(colo: ColocationMap) -> GazetteerNER:
    ner = GazetteerNER()
    for map_id, fac in colo.facilities.items():
        for name in fac.names:
            ner.add_facility_name(map_id, name)
    for map_id, ixp in colo.ixps.items():
        for name in ixp.names:
            ner.add_ixp_name(map_id, name)
    return ner


def build_dictionary(
    pages: list[DocumentPage],
    colo: ColocationMap,
    geocoder: Geocoder | None = None,
    rs_records: dict[int, str] | None = None,
) -> CommunityDictionary:
    """Run the full mining pipeline over documentation pages.

    ``rs_records`` maps route-server ASNs to colocation-map IXP ids; in
    the paper these come from IXP route-server documentation (RFC 7948
    operational pages) and PeeringDB records.
    """
    geocoder = geocoder or Geocoder()
    ner = _build_ner(colo)
    dictionary = CommunityDictionary()

    # Stage 1-4: collect (community, entity) pairs, voice-filtered.
    city_mentions: list[tuple[Community, str, str, str]] = []
    for page in pages:
        for mention in extract_mentions(page.text, expected_asn=page.asn):
            voice = classify_voice(mention.line)
            if voice is not Voice.PASSIVE:
                continue  # outbound/action or undecipherable: drop
            entities = ner.recognize(mention.residual)
            if not entities:
                continue
            # Most specific entity wins: facility > IXP > city.
            entity = min(
                entities,
                key=lambda e: {
                    EntityKind.FACILITY: 0,
                    EntityKind.IXP: 1,
                    EntityKind.CITY: 2,
                }[e.kind],
            )
            if entity.kind is EntityKind.FACILITY:
                pop = PoP(PoPKind.FACILITY, entity.canonical_id)
            elif entity.kind is EntityKind.IXP:
                pop = PoP(PoPKind.IXP, entity.canonical_id)
            else:
                # City identifiers are unified by geocode + cluster below.
                city_mentions.append(
                    (mention.community, entity.canonical_id, page.url, entity.surface)
                )
                continue
            dictionary.entries[mention.community] = DictionaryEntry(
                community=mention.community,
                pop=pop,
                source_url=page.url,
                surface=entity.surface,
            )

    # Stage 5: unify city identifiers (10 km clustering).
    identifiers = sorted({ident for _, ident, _, _ in city_mentions})
    clusters, _unresolved = cluster_identifiers(identifiers, geocoder)
    ident_to_canonical: dict[str, str] = {}
    for cluster in clusters:
        # Canonical name: the geocoder's locality name of any member.
        result = geocoder.geocode(min(cluster))
        canonical = result.canonical_name if result else min(cluster)
        for ident in cluster:
            ident_to_canonical[ident] = canonical
    for community, ident, url, surface in city_mentions:
        canonical = ident_to_canonical.get(ident)
        if canonical is None:
            continue
        dictionary.entries[community] = DictionaryEntry(
            community=community,
            pop=PoP(PoPKind.CITY, canonical),
            source_url=url,
            surface=surface,
        )

    if rs_records:
        for rs_asn, ixp_map_id in rs_records.items():
            dictionary.rs_asn_to_pop[rs_asn] = PoP(PoPKind.IXP, ixp_map_id)
    return dictionary

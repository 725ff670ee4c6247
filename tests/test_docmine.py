"""Tests for the documentation-mining pipeline."""

from __future__ import annotations

import pytest

from repro.bgp.communities import Community
from repro.core.colocation import build_colocation_map
from repro.docmine.corpus import DocumentPage, generate_corpus, render_scheme
from repro.docmine.dictionary import PoPKind, build_dictionary
from repro.docmine.extractor import extract_mentions
from repro.docmine.ner import EntityKind, GazetteerNER
from repro.docmine.scraper import WebScraper
from repro.docmine.tokenizer import normalize_tokens, split_lines
from repro.docmine.voice import Voice, classify_voice
from repro.topology.communities import TagKind
from repro.topology.sources import export_datacentermap, export_peeringdb


class TestTokenizer:
    def test_split_lines_strips_remarks_prefix(self):
        text = "remarks:   13030:100 - received at AMS\n\n  plain line  "
        assert split_lines(text) == ["13030:100 - received at AMS", "plain line"]

    def test_normalize_tokens_handles_punctuation(self):
        assert normalize_tokens("Harbour Exchange 8&9") == (
            "harbour", "exchange", "8", "9",
        )
        assert normalize_tokens("HARBOUR - EXCHANGE 8 9") == (
            "harbour", "exchange", "8", "9",
        )

    def test_normalize_empty(self):
        assert normalize_tokens("...") == ()


class TestVoice:
    @pytest.mark.parametrize(
        "line",
        [
            "routes received at Telehouse North",
            "prefix learned at AMS-IX",
            "tagged on routes accepted at LINX",
            "route was received at Equinix FR5",
        ],
    )
    def test_passive_lines(self, line):
        assert classify_voice(line) is Voice.PASSIVE

    @pytest.mark.parametrize(
        "line",
        [
            "announce to all peers at LINX",
            "use 100:1 to blackhole traffic",
            "do not announce to AMS-IX",
            "prepend twice at Telehouse North",
        ],
    )
    def test_active_lines(self, line):
        assert classify_voice(line) is Voice.ACTIVE

    def test_unknown_when_no_verbs(self):
        assert classify_voice("communities for customers") is Voice.UNKNOWN

    def test_leading_clause_wins(self):
        line = "routes received from peers we announce to upstreams"
        assert classify_voice(line) is Voice.PASSIVE


class TestExtractor:
    def test_extracts_community_and_residual(self):
        mentions = extract_mentions("13030:51904 - received at LAX1")
        assert len(mentions) == 1
        assert mentions[0].community == Community(13030, 51904)
        assert "received at LAX1" in mentions[0].residual
        assert "13030:51904" not in mentions[0].residual

    def test_expected_asn_filters_foreign_mentions(self):
        text = "our community 10:1 mirrors 20:5 of our upstream"
        mentions = extract_mentions(text, expected_asn=10)
        assert [m.community for m in mentions] == [Community(10, 1)]

    def test_rejects_overlong_values(self):
        assert extract_mentions("9999999:1 received at AMS") == []

    def test_multiple_mentions_per_line(self):
        mentions = extract_mentions("10:1 and 10:2 received at FRA")
        assert len(mentions) == 2

    def test_no_match_inside_longer_number(self):
        mentions = extract_mentions("ref 1:2:3 ignored")
        assert mentions == []


class TestNER:
    def _ner_with(self, facilities=(), ixps=()):
        ner = GazetteerNER()
        for map_id, name in facilities:
            ner.add_facility_name(map_id, name)
        for map_id, name in ixps:
            ner.add_ixp_name(map_id, name)
        return ner

    def test_city_recognition_with_alias(self):
        ner = self._ner_with()
        entities = ner.recognize("received at NYC from peers")
        kinds = {(e.kind, e.canonical_id) for e in entities}
        assert (EntityKind.CITY, "NYC") in kinds

    def test_facility_beats_city_on_overlap(self):
        ner = self._ner_with(facilities=[("map1", "Telehouse London")])
        entities = ner.recognize("received at Telehouse London")
        assert entities[0].kind is EntityKind.FACILITY

    def test_longest_match_wins(self):
        ner = self._ner_with(
            facilities=[("hex", "Harbour Exchange 8&9")],
            ixps=[("lx", "Harbour")],
        )
        entities = ner.recognize("learned at Harbour Exchange 8&9 site")
        assert entities[0].canonical_id == "hex"

    def test_mangled_source_names_match(self):
        # DataCenterMap styles the same building differently.
        ner = self._ner_with(facilities=[("map2", "EQUINIX - AM3")])
        entities = ner.recognize("routes received at equinix am3")
        assert entities and entities[0].canonical_id == "map2"

    def test_no_entities_in_plain_text(self):
        ner = self._ner_with()
        assert ner.recognize("set local-preference 80") == []


class TestCorpusAndDictionary:
    @pytest.fixture(scope="class")
    def mined(self, request):
        from repro.topology.builder import WorldParams, build_topology

        topo = build_topology(WorldParams(seed=5))
        fac_pdb, ixp_pdb = export_peeringdb(topo, seed=5)
        fac_dcm, ixp_dcm = export_datacentermap(topo, seed=5)
        colo = build_colocation_map(fac_pdb + fac_dcm, ixp_pdb + ixp_dcm)
        pages = generate_corpus(topo, seed=5, undocumented_rate=0.0)
        rs_records = {}
        for map_id, mixp in colo.ixps.items():
            for hint in mixp.ixp_id_hints:
                rs_records[topo.ixps[hint].rs_asn] = map_id
        dictionary = build_dictionary(pages, colo, rs_records=rs_records)
        return topo, colo, dictionary

    def test_corpus_covers_documenting_ases(self, mined):
        topo, _, _ = mined
        pages = generate_corpus(topo, seed=5, undocumented_rate=0.0)
        documented = {p.asn for p in pages}
        users = {a for a, r in topo.ases.items() if r.uses_communities}
        assert documented == users

    def test_undocumented_rate_creates_gaps(self, mined):
        topo, _, _ = mined
        pages = generate_corpus(topo, seed=5, undocumented_rate=0.5)
        users = {a for a, r in topo.ases.items() if r.uses_communities}
        assert len({p.asn for p in pages}) < len(users)

    def test_no_outbound_communities_in_dictionary(self, mined):
        topo, _, dictionary = mined
        for asn, rec in topo.ases.items():
            if rec.scheme is None:
                continue
            for value in rec.scheme.outbound:
                assert Community(asn, value) not in dictionary.entries, (
                    f"outbound community {asn}:{value} leaked into dictionary"
                )

    def test_high_precision_against_ground_truth(self, mined):
        topo, colo, dictionary = mined
        correct = wrong = 0
        for asn, rec in topo.ases.items():
            if rec.scheme is None:
                continue
            for value, tag in rec.scheme.ingress.items():
                entry = dictionary.entries.get(Community(asn, value))
                if entry is None:
                    continue
                ok = False
                if tag.kind is TagKind.CITY:
                    ok = (
                        entry.pop.kind is PoPKind.CITY
                        and entry.pop.pop_id == tag.target_id
                    )
                elif tag.kind is TagKind.FACILITY:
                    ok = entry.pop.kind is PoPKind.FACILITY and (
                        tag.target_id
                        in colo.facilities[entry.pop.pop_id].fac_id_hints
                    )
                else:
                    ok = entry.pop.kind is PoPKind.IXP and (
                        tag.target_id in colo.ixps[entry.pop.pop_id].ixp_id_hints
                    )
                correct += ok
                wrong += not ok
        assert correct / (correct + wrong) >= 0.95

    def test_recall_bounded_by_documentation(self, mined):
        topo, _, dictionary = mined
        total = sum(
            len(rec.scheme.ingress)
            for rec in topo.ases.values()
            if rec.scheme is not None
        )
        assert len(dictionary) / total >= 0.80

    def test_rs_asns_resolve_to_ixp_pops(self, mined):
        _, _, dictionary = mined
        for rs_asn, pop in dictionary.rs_asn_to_pop.items():
            assert pop.kind is PoPKind.IXP
            assert dictionary.lookup(Community(rs_asn, 12345)) == pop

    def test_size_by_kind_sums_to_total(self, mined):
        _, _, dictionary = mined
        assert sum(dictionary.size_by_kind().values()) == len(dictionary)

    def test_city_identifier_unification(self, mined):
        # All city entries must use canonical names, never aliases.
        _, _, dictionary = mined
        from repro.geo.cities import city_by_name

        for entry in dictionary.entries.values():
            if entry.pop.kind is PoPKind.CITY:
                city = city_by_name(entry.pop.pop_id)
                assert city is not None
                assert entry.pop.pop_id == city.name


class TestScraper:
    def _pages(self):
        return [
            DocumentPage(asn=1, source="irr", url="u1", text="a"),
            DocumentPage(asn=2, source="web", url="u2", text="b"),
        ]

    def test_crawl_returns_pages(self):
        scraper = WebScraper(self._pages(), failure_rate=0.0)
        assert len(scraper.crawl()) == 2

    def test_unknown_url_404(self):
        scraper = WebScraper(self._pages(), failure_rate=0.0)
        assert scraper.fetch("nope") is None
        assert scraper.failed_fetches == 1

    def test_transient_failures_counted(self):
        scraper = WebScraper(self._pages(), failure_rate=0.99, seed=1)
        scraper.crawl()
        assert scraper.failed_fetches >= 1

    def test_invalid_failure_rate(self):
        with pytest.raises(ValueError):
            WebScraper([], failure_rate=1.5)


class TestRenderScheme:
    def test_rendered_text_contains_all_ingress_values(self, small_topo):
        import random

        scheme = small_topo.ases[10].scheme
        assert scheme is not None
        text = render_scheme(random.Random(0), small_topo, scheme)
        for value in scheme.ingress:
            assert f"10:{value}" in text

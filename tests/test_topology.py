"""Tests for the topology substrate and its noisy exports."""

from __future__ import annotations

import pytest

from repro.bgp.communities import Community
from repro.topology.builder import WorldParams, build_topology
from repro.topology.communities import (
    CommunityScheme,
    CommunityTag,
    RouteServerScheme,
    TagKind,
)
from repro.topology.entities import ASTier, Topology
from repro.topology.sources import export_datacentermap, export_peeringdb


@pytest.fixture(scope="module")
def topo() -> Topology:
    return build_topology(WorldParams(seed=3))


class TestBuilderInvariants:
    def test_validates(self, topo):
        topo.validate()  # raises on violation

    def test_flagship_infrastructure_present(self, topo):
        for fac_id in ("sara-ams", "th-north", "th-east", "tc-hex89", "eqx-fr5"):
            assert fac_id in topo.facilities
        for ixp_id in ("ams-ix", "linx", "de-cix"):
            assert ixp_id in topo.ixps

    def test_amsix_fabric_includes_sara(self, topo):
        assert "sara-ams" in topo.ixps["ams-ix"].facility_ids

    def test_tier1_clique(self, topo):
        tier1 = [a for a, r in topo.ases.items() if r.tier is ASTier.TIER1]
        for i, a in enumerate(tier1):
            for b in tier1[i + 1 :]:
                assert frozenset((a, b)) in topo.peers

    def test_every_nontier1_has_provider(self, topo):
        for asn, rec in topo.ases.items():
            if rec.tier is not ASTier.TIER1:
                assert topo.providers[asn], f"AS{asn} has no provider"

    def test_provider_customer_share_facility(self, topo):
        # The builder guarantees a physical realisation for every
        # transit relationship.
        for asn, providers in topo.providers.items():
            for prov in providers:
                assert topo.pnis.get(frozenset((asn, prov))), (
                    f"transit AS{asn}->AS{prov} has no PNI"
                )

    def test_pnis_at_common_facilities(self, topo):
        for pair, facs in topo.pnis.items():
            a, b = sorted(pair)
            for fac_id in facs:
                assert fac_id in topo.as_facilities[a]
                assert fac_id in topo.as_facilities[b]

    def test_ixp_ports_are_on_fabric(self, topo):
        for (ixp_id, asn), port in topo.ixp_ports.items():
            assert port.facility_id in topo.ixps[ixp_id].facility_ids

    def test_remote_peering_rate_in_range(self, topo):
        ports = list(topo.ixp_ports.values())
        remote = sum(1 for p in ports if p.remote)
        assert 0.05 <= remote / len(ports) <= 0.35

    def test_local_members_are_tenants_of_port_building(self, topo):
        for (ixp_id, asn), port in topo.ixp_ports.items():
            if not port.remote:
                assert port.facility_id in topo.as_facilities[asn]

    def test_remote_members_have_resellers(self, topo):
        for port in topo.ixp_ports.values():
            if port.remote:
                assert port.reseller is not None

    def test_prefix_uniqueness(self, topo):
        seen: set[str] = set()
        for rec in topo.ases.values():
            for prefix in rec.prefixes_v4 + rec.prefixes_v6:
                assert prefix not in seen
                seen.add(prefix)

    def test_two_tier1s_without_communities(self, topo):
        tier1 = [r for r in topo.ases.values() if r.tier is ASTier.TIER1]
        non_users = [r for r in tier1 if not r.uses_communities]
        assert 1 <= len(non_users) <= 2

    def test_deterministic_for_seed(self):
        a = build_topology(WorldParams(seed=11))
        b = build_topology(WorldParams(seed=11))
        assert sorted(a.ases) == sorted(b.ases)
        assert a.pnis == b.pnis
        assert {k: v for k, v in a.ixp_members.items()} == b.ixp_members

    def test_different_seeds_differ(self):
        a = build_topology(WorldParams(seed=11))
        b = build_topology(WorldParams(seed=12))
        assert a.pnis != b.pnis

    def test_continental_skew_matches_table1(self, topo):
        by_cont: dict[str, int] = {}
        for fac in topo.facilities.values():
            by_cont[fac.city.continent] = by_cont.get(fac.city.continent, 0) + 1
        assert by_cont["EU"] > by_cont["NA"] > by_cont.get("AF", 0)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            WorldParams(n_tier1=1)
        with pytest.raises(ValueError):
            WorldParams(remote_peering_rate=1.5)


class TestCommunityScheme:
    def test_overlapping_values_rejected(self):
        with pytest.raises(ValueError):
            CommunityScheme(
                asn=1,
                ingress={5: CommunityTag(TagKind.CITY, "London")},
                outbound={5: "announce"},
            )

    def test_value_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CommunityScheme(
                asn=1, ingress={70000: CommunityTag(TagKind.CITY, "London")}
            )

    def test_community_for_lookup(self):
        scheme = CommunityScheme(
            asn=7, ingress={42: CommunityTag(TagKind.FACILITY, "f1")}
        )
        assert scheme.community_for(TagKind.FACILITY, "f1") == Community(7, 42)
        assert scheme.community_for(TagKind.FACILITY, "f2") is None

    def test_route_server_scheme_matches_by_asn(self):
        rs = RouteServerScheme(ixp_id="x", rs_asn=59000)
        assert rs.matches(Community(59000, 123))
        assert not rs.matches(Community(59001, 0))
        assert rs.marker().asn == 59000

    def test_granularities(self):
        scheme = CommunityScheme(
            asn=7,
            ingress={
                1: CommunityTag(TagKind.CITY, "Paris"),
                2: CommunityTag(TagKind.IXP, "ix"),
            },
        )
        assert scheme.granularities() == {TagKind.CITY, TagKind.IXP}


class TestTopologyAccessors:
    def test_common_facilities(self, topo):
        found_any = False
        for pair in list(topo.pnis)[:20]:
            a, b = sorted(pair)
            common = topo.common_facilities(a, b)
            assert topo.pnis[pair] <= common
            found_any = True
        assert found_any

    def test_customers_inverse_of_providers(self, topo):
        for asn, providers in topo.providers.items():
            for prov in providers:
                assert asn in topo.customers(prov)


class TestExports:
    def test_peeringdb_more_complete_than_dcm(self, topo):
        fac_pdb, ixp_pdb = export_peeringdb(topo, seed=3)
        fac_dcm, ixp_dcm = export_datacentermap(topo, seed=3)
        assert len(fac_pdb) > len(fac_dcm)
        assert len(ixp_pdb) >= len(ixp_dcm)

    def test_postcodes_preserved_for_merging(self, topo):
        fac_pdb, _ = export_peeringdb(topo, seed=3)
        for record in fac_pdb:
            truth = topo.facilities[record.fac_id_hint]
            assert record.postcode == truth.address.postcode
            assert record.country == truth.address.country

    def test_tenant_lists_are_subsets(self, topo):
        fac_pdb, _ = export_peeringdb(topo, seed=3)
        for record in fac_pdb:
            truth = topo.facility_tenants[record.fac_id_hint]
            assert set(record.tenants) <= truth

    def test_ixp_websites_stable_across_sources(self, topo):
        _, ixp_pdb = export_peeringdb(topo, seed=3)
        _, ixp_dcm = export_datacentermap(topo, seed=3)
        pdb_sites = {r.ixp_id_hint: r.website for r in ixp_pdb}
        for record in ixp_dcm:
            assert pdb_sites.get(record.ixp_id_hint, record.website) == record.website

    def test_exports_deterministic(self, topo):
        a = export_peeringdb(topo, seed=5)
        b = export_peeringdb(topo, seed=5)
        assert a == b

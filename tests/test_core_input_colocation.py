"""Tests for the input module and colocation map construction."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.communities import Community
from repro.bgp.messages import BGPUpdate, ElemType
from repro.core.colocation import (
    ColocationMap,
    MIN_TRACKABLE_MEMBERS,
    build_colocation_map,
)
from repro.core.input import COLLAPSE_KEY_HOPS, InputModule, PoPTag
from repro.core.serde import (
    _K_PRIMED,
    encode_batch,
    tag_elements_to_wire,
    tag_wire_batch,
    tagged_view,
)
from repro.docmine.dictionary import (
    CommunityDictionary,
    DictionaryEntry,
    PoP,
    PoPKind,
)
from repro.pipeline.events import PrimingUpdate
from repro.topology.sources import (
    ColocationRecord,
    IXPRecord,
    export_peeringdb,
)

from _sanitize_oracle import sanitize_path
from _tagged_rows import rows_of, tag_one


def make_dictionary() -> CommunityDictionary:
    d = CommunityDictionary()
    for community, pop in [
        (Community(10, 101), PoP(PoPKind.FACILITY, "mf1")),
        (Community(30, 301), PoP(PoPKind.CITY, "London")),
    ]:
        d.entries[community] = DictionaryEntry(
            community=community, pop=pop, source_url="test", surface="x"
        )
    d.rs_asn_to_pop[59900] = PoP(PoPKind.IXP, "mix1")
    return d


def make_colo() -> ColocationMap:
    records = [
        ColocationRecord(
            source="peeringdb", name="Test DC", operator="Test",
            street="1 st", postcode="E14 1AA", city_name="London",
            country="GB", tenants=(10, 20, 30), fac_id_hint="f1",
        )
    ]
    ixp_records = [
        IXPRecord(
            source="peeringdb", name="TEST-IX", website="https://t.ix",
            city_name="London", country="GB", members=(20, 30, 40),
            facility_postcodes=("E14 1AA",), ixp_id_hint="ix1",
        )
    ]
    colo = build_colocation_map(records, ixp_records)
    # Rename the IXP map id for the dictionary above.
    ixp = colo.ixps.pop("https://t.ix")
    ixp.map_id = "mix1"
    colo.ixps["mix1"] = ixp
    colo.reindex()
    return colo


def update(path, communities, withdraw=False, time=0.0, prefix="10.0.0.0/24"):
    return BGPUpdate(
        time=time,
        collector="rrc00",
        peer_asn=path[0] if path else 1,
        prefix=prefix,
        elem_type=ElemType.WITHDRAWAL if withdraw else ElemType.ANNOUNCEMENT,
        as_path=tuple(path),
        communities=tuple(communities),
    )


class TestInputModule:
    def _module(self):
        return InputModule(make_dictionary(), make_colo())

    def test_known_community_mapped_with_near_and_far(self):
        mod = self._module()
        tagged = tag_one(mod, update((1, 10, 30), [Community(10, 101)]))
        assert tagged is not None
        assert len(tagged.tags) == 1
        tag = tagged.tags[0]
        assert tag.pop == PoP(PoPKind.FACILITY, "mf1")
        assert tag.near_asn == 10
        assert tag.far_asn == 30

    def test_unknown_community_ignored(self):
        mod = self._module()
        tagged = tag_one(mod, update((1, 10, 30), [Community(999, 1)]))
        assert tagged is not None and tagged.tags == ()

    def test_offpath_community_ignored(self):
        # 10:101 is known but AS10 is not on the path: leaked community.
        mod = self._module()
        tagged = tag_one(mod, update((1, 2, 3), [Community(10, 101)]))
        assert tagged is not None and tagged.tags == ()

    def test_origin_tagger_has_no_far_end(self):
        mod = self._module()
        tagged = tag_one(mod, update((1, 10), [Community(10, 101)]))
        assert tagged is not None
        assert tagged.tags[0].far_asn is None

    def test_route_server_community_attributed_to_member_pair(self):
        mod = self._module()
        tagged = tag_one(mod, update((20, 30, 5), [Community(59900, 0)]))
        assert tagged is not None
        tag = tagged.tags[0]
        assert tag.pop == PoP(PoPKind.IXP, "mix1")
        assert (tag.near_asn, tag.far_asn) == (20, 30)

    def test_route_server_without_member_pair_unattributed(self):
        mod = self._module()
        tagged = tag_one(mod, update((1, 2, 3), [Community(59900, 0)]))
        assert tagged is not None
        tag = tagged.tags[0]
        assert tag.near_asn is None and tag.far_asn is None

    def test_route_server_tag_reads_members_without_copying(self, monkeypatch):
        mod = self._module()

        def copying(self, map_id):
            raise AssertionError("member set copied on the tagging path")

        monkeypatch.setattr(type(mod.colo), "ixp_members", copying)
        tagged = tag_one(mod, update((20, 30, 5), [Community(59900, 0)]))
        assert tagged is not None
        tag = tagged.tags[0]
        assert (tag.pop.pop_id, tag.near_asn, tag.far_asn) == ("mix1", 20, 30)
        assert mod.colo.ixp_member_view("mix1") is mod.colo.ixps["mix1"].members
        assert not mod.colo.ixp_member_view("no-such-ixp")

    def test_withdrawal_passes_through(self):
        mod = self._module()
        tagged = tag_one(mod, update((), [], withdraw=True))
        assert tagged is not None
        assert tagged.elem_type is ElemType.WITHDRAWAL

    def test_looped_path_discarded(self):
        mod = self._module()
        assert tag_one(mod, update((1, 2, 1), [])) is None
        assert mod.discarded_count == 1

    def test_prepending_cleaned_before_tagging(self):
        mod = self._module()
        tagged = tag_one(mod, update((1, 10, 10, 30), [Community(10, 101)]))
        assert tagged is not None
        assert tagged.as_path == (1, 10, 30)
        assert tagged.tags[0].far_asn == 30

    def test_duplicate_tags_deduplicated(self):
        mod = self._module()
        tagged = tag_one(mod, 
            update((1, 10, 30), [Community(10, 101), Community(10, 101)])
        )
        assert tagged is not None and len(tagged.tags) == 1


def _rows(tagged_batch):
    return rows_of(tagged_view(tagged_batch))  # the streams carry no state rows


def _via_wire_view(mod, chunk):
    return _rows(tag_elements_to_wire(mod, chunk))


def _via_wire_batch(mod, chunk):
    return _rows(tag_wire_batch(mod, encode_batch(chunk)))


_ENTRY_POINTS = (_via_wire_view, _via_wire_batch)


def _memo_stream(n=400):
    """Updates over 14 attribute pairs, three of them discards.

    Skewed picks against an 8-entry memo: hot pairs repeat inside a
    generation, cold ones return after their generation was dropped, and
    pairs age into the old generation and get promoted back.
    """
    rs, fac, city = Community(59900, 0), Community(10, 101), Community(30, 301)
    pairs = [
        ((1, 10, 30), [fac]),
        ((1, 10, 10, 10, 30), [fac]),
        ((2, 10, 30), [fac, city]),
        ((20, 30, 5), [rs]),
        ((20, 20, 30, 5), [rs, fac]),
        ((1, 2, 3), [rs]),
        ((1, 2, 3), [Community(999, 1)]),
        ((7, 30, 8), [city]),
        ((7, 30), [city]),
        ((9, 10, 30, 20), [fac, city, rs]),
        ((4, 5, 6), []),
        ((1, 2, 1), [fac]),  # loop
        ((1, 1, 2, 2, 1), []),  # loop behind prepending
        ((10, 64512, 30), [fac]),  # private ASN
    ]
    rng = random.Random(5)
    weights = [8, 6, 5, 4, 3, 3, 2, 2, 2, 1, 1, 3, 1, 2]
    stream = []
    for i in range(n):
        if i % 17 == 16:
            stream.append(update((), [], withdraw=True, time=float(i)))
            continue
        path, communities = rng.choices(pairs, weights)[0]
        stream.append(
            update(path, communities, time=float(i), prefix=f"10.0.{i % 5}.0/24")
        )
    return stream


def _priming_stream(n=400):
    """``_memo_stream`` with every other element a RIB path.

    The ``PrimingUpdate``s carry tagged, tagless (``(4, 5, 6)`` with no
    community, ``(1, 2, 3)`` with an unknown one), sanitiser-discarded
    (the loops) and withdrawn updates, interleaved with stream updates
    that share their memo entries.
    """
    return [
        PrimingUpdate(update=element) if i % 2 else element
        for i, element in enumerate(_memo_stream(n))
    ]


class TestMemoEntryPoints:
    """One memo, two ways in: same answers and same counters, in
    one-element chunks and in longer ones."""

    @staticmethod
    def _run(entry, stream, chunk):
        mod = InputModule(make_dictionary(), make_colo(), memo_max=8)
        tagged = []
        for start in range(0, len(stream), chunk):
            tagged.extend(entry(mod, stream[start : start + chunk]))
        counters = (
            mod.parsed_count,
            mod.discarded_count,
            mod.memo_hits,
            mod.memo_evictions,
        )
        return tagged, counters

    def test_entry_points_and_chunkings_agree(self):
        stream = _memo_stream()
        reference, counters = self._run(_via_wire_view, stream, 1)
        parsed, discarded, hits, evictions = counters
        # The stream does what the test needs it to do.
        assert parsed == len(reference) and discarded > 20
        assert hits > 50 and evictions > 50
        for entry in _ENTRY_POINTS:
            for chunk in (1, 3, len(stream)):
                tagged, got = self._run(entry, stream, chunk)
                assert tagged == reference, (entry.__name__, chunk)
                assert got == counters, (entry.__name__, chunk)

    def test_priming_rows_agree_with_the_stage(self):
        """Priming updates tag into ``_K_PRIMED`` rows on both entry
        points: tagless and withdrawn ones end at tagging (parsed, no
        row), sanitiser rejects count as discarded."""
        stream = _priming_stream()
        reference, counters = self._run(_via_wire_view, stream, 1)
        primes = [e.update for e in stream if isinstance(e, PrimingUpdate)]
        withdrawn = [u for u in primes if u.elem_type is ElemType.WITHDRAWAL]
        tagless = [u for u in primes if u.as_path in ((4, 5, 6), (1, 2, 3))]
        primed = [row for kind, row in reference if kind == _K_PRIMED]
        # The stream does what the test needs it to do.
        assert withdrawn and len(tagless) > 10
        assert 20 < len(primed) < len(primes) - len(withdrawn) - len(tagless)
        assert all(row.tags for row in primed)
        assert counters[1] > 20 and counters[2] > 50 and counters[3] > 50
        for entry in _ENTRY_POINTS:
            for chunk in (1, 3, len(stream)):
                tagged, got = self._run(entry, stream, chunk)
                assert tagged == reference, (entry.__name__, chunk)
                assert got == counters, (entry.__name__, chunk)

    def test_hoisted_probe_survives_rotation(self):
        """A key aged mid-batch is promoted, exactly as it is between
        one-element chunks."""
        a, b, c, d, e = (
            update((n, 10, 30), [Community(10, 101)]) for n in range(1, 6)
        )
        # gen_max is 2: c's insert rotates {a, b} into the old
        # generation, and the repeated a must be promoted out of it —
        # or d's rotation drops it and the last a is a full miss.
        batches = ([a, b, c, a, a], [d, e, a])
        scalar = InputModule(make_dictionary(), make_colo(), memo_max=4)
        for batch in batches:
            for element in batch:
                _via_wire_view(scalar, [element])
        assert scalar.memo_hits == 3
        for entry in _ENTRY_POINTS:
            mod = InputModule(make_dictionary(), make_colo(), memo_max=4)
            for batch in batches:
                assert len(entry(mod, batch)) == len(batch)
            assert mod.memo_hits == 3, entry.__name__
            assert mod.memo_evictions == scalar.memo_evictions


_TAGGERS = (
    tag_elements_to_wire,
    lambda mod, chunk: tag_wire_batch(mod, encode_batch(chunk)),
)


@pytest.mark.parametrize("tagger", _TAGGERS, ids=["objects", "wire_batch"])
class TestPairIdentity:
    """Each tagged row carries the memo's ``(clean path, tags)`` result
    object as ``t_pair``: the monitor keys its derived columns on that
    object's identity."""

    def test_repeated_pair_is_one_object_across_batches(self, tagger):
        mod = InputModule(make_dictionary(), make_colo())
        fac = [Community(10, 101)]
        first = tagger(mod, [update((1, 10, 30), fac, prefix="10.0.1.0/24")])
        second = tagger(
            mod,
            [
                update((2, 10, 30), fac),
                update((1, 10, 30), fac, time=1.0, prefix="10.0.2.0/24"),
                update((1, 10, 30), fac, time=2.0, prefix="10.0.3.0/24"),
            ],
        )
        pair = first.t_pair[0]
        assert pair == ((1, 10, 30), tag_one(mod, update((1, 10, 30), fac)).tags)
        assert second.t_pair[1] is pair and second.t_pair[2] is pair
        assert second.t_pair[0] is not pair

    def test_withdrawals_share_one_empty_pair(self, tagger):
        mod = InputModule(make_dictionary(), make_colo())
        chunks = (
            [
                update((), [], withdraw=True, prefix=f"10.0.{i}.0/24")
                for i in range(3)
            ],
            [
                update((1, 10, 30), [Community(10, 101)]),
                update((), [], withdraw=True, time=1.0),
            ],
        )
        withdrawn = []
        for chunk in chunks:
            batch = tagger(mod, chunk)
            withdrawn.extend(
                pair
                for pair, elem in zip(batch.t_pair, batch.t_elem)
                if elem is ElemType.WITHDRAWAL
            )
        assert len(withdrawn) == 4
        assert withdrawn[0] == ((), ())
        assert all(pair is withdrawn[0] for pair in withdrawn)

    def test_pairs_equal_by_value_after_a_mid_batch_rotation(self, tagger):
        stream = _memo_stream()
        mod = InputModule(make_dictionary(), make_colo(), memo_max=8)
        batch = tagger(mod, stream)
        # The batch rotated the memo many times over.
        assert mod.memo_rotations > 10
        unrotated = InputModule(make_dictionary(), make_colo())
        reference = [
            row for element in stream for _, row in _via_wire_view(unrotated, [element])
        ]
        assert len(batch.t_pair) == len(reference)
        for pair, row in zip(batch.t_pair, reference):
            assert pair == (row.as_path, row.tags)


class _CountingPath(tuple):
    """An AS path that counts how often it is hashed."""

    hashed = 0

    def __hash__(self):
        self.hashed += 1
        return super().__hash__()


class TestMissPathHashing:
    """A path over ``COLLAPSE_KEY_HOPS`` (645 hops on ``tagging_heavy``)
    is keyed by its run collapse, so the raw path is never hashed, on a
    miss or a hit.  A short path keeps its raw key: hashed once on a hit
    and at most three times on a miss (probe, old-generation probe,
    insert).  A non-timing guard on both entry points; the wire
    batch is counted from the tagger on, not from the codec's own
    table dedup."""

    @staticmethod
    def _hashes(entry, mod, path, communities=(Community(10, 101),)):
        counted = _CountingPath(path)
        # Not via ``update()``: ``tuple(path)`` would shed the subclass.
        element = BGPUpdate(
            time=0.0,
            collector="rrc00",
            peer_asn=path[0],
            prefix="10.0.0.0/24",
            elem_type=ElemType.ANNOUNCEMENT,
            as_path=counted,
            communities=communities,
        )
        if entry is _via_wire_batch:
            batch = encode_batch([element])
            before = counted.hashed
            rows = _rows(tag_wire_batch(mod, batch))
        else:
            before = 0
            rows = entry(mod, [element])
        assert len(rows) == 1
        return counted.hashed - before

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_hash_budget(self, entry):
        mod = InputModule(make_dictionary(), make_colo(), memo_max=4)
        prepended = (1,) + (10,) * 640 + (30,)
        short = (1, 10, 10, 30)
        assert len(prepended) > COLLAPSE_KEY_HOPS >= len(short)
        assert self._hashes(entry, mod, prepended) == 0  # miss
        assert self._hashes(entry, mod, prepended) == 0  # hit
        assert self._hashes(entry, mod, short) <= 2  # miss, no old gen
        assert self._hashes(entry, mod, short) == 1  # hit
        assert mod.memo_rotations == 0
        self._hashes(entry, mod, (3, 10, 30))
        assert mod.memo_rotations == 1  # the old generation now exists
        assert self._hashes(entry, mod, prepended) == 0  # old-gen promotion
        assert self._hashes(entry, mod, short) <= 3  # old-gen promotion
        assert self._hashes(entry, mod, short) == 1
        assert self._hashes(entry, mod, (4,) + prepended) == 0  # full miss
        assert self._hashes(entry, mod, (4,) + short) <= 3  # full miss
        assert mod.memo_rotations == 3
        assert mod.memo_hits == 5


_FAC, _CITY = PoP(PoPKind.FACILITY, "mf1"), PoP(PoPKind.CITY, "London")
_MIX = PoP(PoPKind.IXP, "mix1")
#: members of mix1 (``make_colo``), dictionary ASNs, bystanders and
#: reserved ASNs (documentation, private, AS_TRANS, 0).
_PATH_ASNS = st.sampled_from(
    (20, 30, 40, 10, 1, 2, 5, 64500, 64512, 23456, 0, 4200000001)
)


@st.composite
def _tagging_inputs(draw):
    """One announcement's path and communities.

    Paths are runs of one ASN, 1 to 200 hops long: prepending on either
    side of ``COLLAPSE_KEY_HOPS``, loops (one ASN in two runs apart) and
    reserved ASNs.  Communities mix location, route-server and decoy
    ones.
    """
    lengths = st.sampled_from((1, 1, 2, 30, COLLAPSE_KEY_HOPS, 200))
    runs = draw(
        st.lists(st.tuples(_PATH_ASNS, lengths), min_size=1, max_size=5)
    )
    path = tuple(asn for asn, length in runs for _ in range(length))
    community = st.one_of(
        st.sampled_from((Community(10, 101), Community(30, 301))),
        st.builds(Community, st.just(59900), st.integers(0, 3)),
        st.builds(Community, st.integers(65000, 65002), st.integers(0, 3)),
    )
    return path, tuple(draw(st.lists(community, max_size=4)))


@st.composite
def _tagging_streams(draw):
    """Picks from a few announcements: repeats age through the memo."""
    pool = draw(st.lists(_tagging_inputs(), min_size=1, max_size=10))
    picks = st.integers(0, len(pool) - 1)
    return [pool[i] for i in draw(st.lists(picks, min_size=1, max_size=60))]


def _reference_tags(path, communities):
    """Section 4.1 over ``make_dictionary``, with no memo or intern.

    A location community tags its PoP when its ASN is on the sanitised
    path, with the next hop towards the origin as the far end; a
    route-server community tags its IXP between the first adjacent
    on-path member pair, or unattributed.  The first tag per (PoP,
    near AS) wins.
    """
    location = {Community(10, 101): _FAC, Community(30, 301): _CITY}
    members = {20, 30, 40}
    tags: list[PoPTag] = []
    for community in communities:
        if community.asn == 59900:
            pair = next(
                (
                    (near, far)
                    for near, far in zip(path, path[1:])
                    if near in members and far in members
                ),
                (None, None),
            )
            tag = PoPTag(_MIX, *pair)
        elif community in location and community.asn in path:
            at = path.index(community.asn)
            far = path[at + 1] if at + 1 < len(path) else None
            tag = PoPTag(location[community], community.asn, far)
        else:
            continue
        if all((t.pop, t.near_asn) != (tag.pop, tag.near_asn) for t in tags):
            tags.append(tag)
    return tuple(tags)


def _live_tags(mod):
    """The tags of every memo entry, checked to be one object per value."""
    held: dict = {}
    for pair in (*mod._memo.values(), *mod._memo_old.values()):
        if pair is not None and pair[1]:
            assert held.setdefault(pair[1], pair[1]) is pair[1]
    return held


class TestTaggingMatchesReference:
    """Every entry point, memo rotating at ``memo_max=8``, against
    ``sanitize_path`` and a memo-less Section 4.1 reference."""

    @given(_tagging_streams())
    @example(  # an old-generation hit keeps its tags interned
        [((1, 10, 30), (Community(10, 101),))]
        + [((n, 5), ()) for n in (2, 3, 4, 20)]
        + [((1, 10, 30), (Community(10, 101),))]
        + [((n, 5), ()) for n in (40, 64, 65, 66)]
        + [((1, 10, 30), (Community(10, 101), Community(65000, 1)))]
    )
    @settings(max_examples=60, deadline=None)
    def test_pairs_match_the_reference(self, inputs):
        stream = [
            update(path, communities, time=float(i))
            for i, (path, communities) in enumerate(inputs)
        ]
        expected = []
        for path, communities in inputs:
            clean = sanitize_path(path)
            if clean is not None:
                expected.append((clean, _reference_tags(clean, communities)))
        for entry in _ENTRY_POINTS:
            for chunk in (1, len(stream)):
                mod = InputModule(make_dictionary(), make_colo(), memo_max=8)
                got = []
                for start in range(0, len(stream), chunk):
                    rows = entry(mod, stream[start : start + chunk])
                    got.extend((row.as_path, row.tags) for _, row in rows)
                    held = _live_tags(mod)
                    if chunk == 1 and rows and rows[0][1].tags:
                        # Equal tags are one object: the new row's is
                        # the one every live memo entry holds.
                        assert held[rows[0][1].tags] is rows[0][1].tags
                assert got == expected, (entry.__name__, chunk)


class TestBoundedTaggingCaches:
    def test_many_long_paths_stay_within_the_bounds(self):
        """Far more distinct long paths than ``memo_max``, two tags
        each: the memo and both intern tables keep their bounds, and no
        key holds a path longer than ``COLLAPSE_KEY_HOPS``."""
        memo_max = 8
        stream = [
            update(
                (1000 + i,) + (5,) * 200 + (10, 30, 2000 + i % 97),
                [Community(10, 101), Community(30, 301)],
                time=float(i),
            )
            for i in range(630)
        ]
        for entry in _ENTRY_POINTS:
            mod = InputModule(make_dictionary(), make_colo(), memo_max=memo_max)
            for start in range(0, len(stream), 7):
                assert len(entry(mod, stream[start : start + 7])) == 7
                assert len(mod._memo) + len(mod._memo_old) <= memo_max
                assert len(mod._tags) + len(mod._tags_old) <= memo_max
                assert len(mod._tag) + len(mod._tag_old) <= memo_max
                assert all(
                    len(path) <= COLLAPSE_KEY_HOPS
                    for path, _ in (*mod._memo, *mod._memo_old)
                )
            assert mod.memo_rotations > 100, entry.__name__


class TestColocationMap:
    def test_merge_by_postcode(self):
        records = [
            ColocationRecord(
                source="peeringdb", name="Telehouse North", operator="T",
                street="s", postcode="E14 9YY", city_name="London",
                country="GB", tenants=(1, 2), fac_id_hint="f1",
            ),
            ColocationRecord(
                source="datacentermap", name="TELEHOUSE - North", operator="T",
                street="s", postcode="E14 9YY", city_name="London",
                country="GB", tenants=(2, 3), fac_id_hint="f1",
            ),
        ]
        colo = build_colocation_map(records, [])
        assert len(colo.facilities) == 1
        fac = next(iter(colo.facilities.values()))
        assert fac.tenants == {1, 2, 3}
        assert fac.sources == {"peeringdb", "datacentermap"}

    def test_different_postcodes_stay_apart(self):
        records = [
            ColocationRecord(
                source="peeringdb", name="A", operator="a", street="s",
                postcode="P1", city_name="London", country="GB",
                tenants=(1,), fac_id_hint="fa",
            ),
            ColocationRecord(
                source="peeringdb", name="B", operator="b", street="s",
                postcode="P2", city_name="London", country="GB",
                tenants=(2,), fac_id_hint="fb",
            ),
        ]
        colo = build_colocation_map(records, [])
        assert len(colo.facilities) == 2

    def test_ixp_merge_by_website(self):
        recs = [
            IXPRecord(
                source="peeringdb", name="LINX", website="https://linx.net",
                city_name="London", country="GB", members=(1, 2),
                facility_postcodes=(), ixp_id_hint="linx",
            ),
            IXPRecord(
                source="datacentermap", name="LINX London",
                website="https://linx.net", city_name="London", country="GB",
                members=(2, 3), facility_postcodes=(), ixp_id_hint="linx",
            ),
        ]
        colo = build_colocation_map([], recs)
        assert len(colo.ixps) == 1
        assert next(iter(colo.ixps.values())).members == {1, 2, 3}

    def test_ixp_facility_links_resolved_via_postcodes(self):
        fac = ColocationRecord(
            source="peeringdb", name="DC", operator="d", street="s",
            postcode="E14 1AA", city_name="London", country="GB",
            tenants=(1,), fac_id_hint="f1",
        )
        ixp = IXPRecord(
            source="peeringdb", name="IX", website="https://ix.net",
            city_name="London", country="GB", members=(1,),
            facility_postcodes=("E14 1AA",), ixp_id_hint="ix1",
        )
        colo = build_colocation_map([fac], [ixp])
        ixp_rec = next(iter(colo.ixps.values()))
        assert len(ixp_rec.facility_map_ids) == 1

    def test_trackable_facilities_threshold(self):
        colo = make_colo()
        # 3 tenants, all locatable: still below MIN_TRACKABLE_MEMBERS.
        assert MIN_TRACKABLE_MEMBERS > 3
        assert colo.trackable_facilities({10, 20, 30}) == set()
        fac = next(iter(colo.facilities.values()))
        fac.tenants.update({40, 50, 60})
        colo.reindex()
        assert colo.trackable_facilities({10, 20, 30, 40, 50, 60})

    def test_reindex_consistency(self):
        colo = make_colo()
        for map_id, fac in colo.facilities.items():
            for asn in fac.tenants:
                assert map_id in colo.facilities_of_as(asn)

    def test_full_world_merge_quality(self, world):
        # Nearly every ground-truth facility must end up in the map
        # exactly once (postcode merging, no spurious splits).
        hint_counts: dict[str, int] = {}
        for fac in world.colo.facilities.values():
            for hint in fac.fac_id_hints:
                hint_counts[hint] = hint_counts.get(hint, 0) + 1
        assert all(count == 1 for count in hint_counts.values())
        coverage = len(hint_counts) / len(world.topo.facilities)
        assert coverage >= 0.9

    def test_full_world_tenant_union_superset_of_sources(self, world):
        fac_pdb, _ = export_peeringdb(world.topo, seed=world.seed)
        by_hint = {r.fac_id_hint: set(r.tenants) for r in fac_pdb}
        for fac in world.colo.facilities.values():
            for hint in fac.fac_id_hints:
                if hint in by_hint:
                    assert by_hint[hint] <= fac.tenants

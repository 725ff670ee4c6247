"""Kepler input module (Section 4.1).

Sanitizes BGP elements and maps attached communities to PoPs through the
community dictionary:

* a location community is attributed to the AS in its top 16 bits, which
  must appear on the AS path ("mapping the first two octets of the
  community to the same ASN hop in the path"); the far-end neighbor is
  the next hop towards the origin — the AS the route was received from;
* route-server communities place the IXP between the adjacent on-path
  member pair (the methodology of Giotsas & Zhou for IXP route servers),
  resolved through the colocation map.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.communities import communities_from_flat
from repro.bgp.messages import BGPUpdate, ElemType
from repro.bgp.sanitize import sanitize_path
from repro.core.colocation import ColocationMap
from repro.docmine.dictionary import CommunityDictionary, PoP

#: A monitored path unit: one vantage route for one prefix.
PathKey = tuple[str, int, str]  # (collector, peer_asn, prefix)


@dataclass(frozen=True)
class PoPTag:
    """One location annotation on a path."""

    pop: PoP
    near_asn: int | None  # AS that applied the ingress community
    far_asn: int | None  # neighbor the route was received from


@dataclass(frozen=True)
class TaggedPath:
    """A sanitized, location-annotated stream element."""

    key: PathKey
    time: float
    elem_type: ElemType
    as_path: tuple[int, ...]
    tags: tuple[PoPTag, ...]
    afi: int

    @property
    def is_withdrawal(self) -> bool:
        return self.elem_type is ElemType.WITHDRAWAL

    def pops(self) -> set[PoP]:
        return {tag.pop for tag in self.tags}

    def tag_for(self, pop: PoP) -> PoPTag | None:
        for tag in self.tags:
            if tag.pop == pop:
                return tag
        return None


#: Distinct (AS path, communities) pairs memoised before the oldest
#: generation is dropped.  BGP streams repeat the same attribute pairs
#: constantly (one peer re-announcing its table), so the hit rate is
#: high long before the bound is reached.
MEMO_MAX_ENTRIES = 65536

_MEMO_MISS = object()
#: what a withdrawal "tags" to: no path, no tags.  One shared object,
#: so every withdrawal row of a tagged batch carries the same pair.
WITHDRAWN: tuple[tuple[int, ...], tuple[PoPTag, ...]] = ((), ())
_TAGGED_NEW = TaggedPath.__new__


class InputModule:
    """Stateless update parser: BGPUpdate -> TaggedPath.

    Tagging is a pure function of the update's ``(as_path,
    communities)`` pair — the key, timestamp and prefix pass through
    untouched — so the sanitised path and derived tags are memoised
    per pair.  Repeated announcements from the same peers (the common
    case on a dense collector stream) skip sanitisation and the
    community walk entirely, and get back the *same* ``(clean path,
    tags)`` result object, which a tagged batch carries as the row's
    pair and the monitor keys its derived columns on.  The memo key is
    the pair of *id tuples* — the AS path and the flattened ``(asn,
    value, ...)`` community ints — so the columnar wire path can
    consult the same memo straight from a batch's interned community-id
    table without materialising ``Community`` objects at all.

    The memo is segmented into two generations: when the young
    generation fills, the old one is dropped and the young one ages
    into its place, so the working set survives every rotation (a
    wholesale clear restarted the hit rate from zero).  The memo is a
    derived cache, not state: it is never checkpointed and each
    process keeps its own.
    """

    def __init__(
        self,
        dictionary: CommunityDictionary,
        colo: ColocationMap,
        memo_max: int = MEMO_MAX_ENTRIES,
    ) -> None:
        self.dictionary = dictionary
        self.colo = colo
        self.parsed_count = 0
        self.discarded_count = 0
        self.memo_max = memo_max
        self.memo_hits = 0
        #: entries dropped by generation rotation (cache telemetry,
        #: surfaced as a metrics gauge — never checkpointed).
        self.memo_evictions = 0
        #: generation rotations so far; a batch tagger that keeps its
        #: own per-batch shortcut drops it when this moves.
        self.memo_rotations = 0
        #: (as_path ints, flat community ints) -> (clean path, tags),
        #: or None when the sanitizer discards the path.
        self._memo: dict[
            tuple[tuple[int, ...], tuple[int, ...]],
            tuple[tuple[int, ...], tuple[PoPTag, ...]] | None,
        ] = {}
        self._memo_old: dict = {}
        #: The hit-path probe, ``memo_probe(key, default)``: the young
        #: generation's ``dict.get``, valid for the module's lifetime
        #: because rotation empties that dict in place.  Batch loops
        #: hoist it and hand a missed key to :meth:`memo_miss`.
        self.memo_probe = self._memo.get
        self._gen_max = max(1, memo_max // 2)

    def process(self, update: BGPUpdate) -> TaggedPath | None:
        """Parse one update; ``None`` when the path must be discarded."""
        elem_type = update.elem_type
        if elem_type is ElemType.WITHDRAWAL:
            cached = WITHDRAWN
        else:
            communities = update.communities
            if len(communities) == 1:
                community = communities[0]
                memo_key = (
                    update.as_path,
                    (community.asn, community.value),
                )
            else:
                flat: list[int] = []
                for community in communities:
                    flat.append(community.asn)
                    flat.append(community.value)
                memo_key = (update.as_path, tuple(flat))
            cached = self.memo_probe(memo_key, _MEMO_MISS)
            if cached is not _MEMO_MISS:
                self.memo_hits += 1
            else:
                cached = self.memo_miss(memo_key, communities)
            if cached is None:
                self.discarded_count += 1
                return None
        self.parsed_count += 1
        tagged = _TAGGED_NEW(TaggedPath)
        fields = tagged.__dict__
        fields["key"] = (update.collector, update.peer_asn, update.prefix)
        fields["time"] = update.time
        fields["elem_type"] = elem_type
        fields["as_path"] = cached[0]
        fields["tags"] = cached[1]
        fields["afi"] = update.afi
        return tagged

    def memo_miss(
        self,
        memo_key: tuple[tuple[int, ...], tuple[int, ...]],
        communities=None,
    ) -> tuple[tuple[int, ...], tuple[PoPTag, ...]] | None:
        """Resolve a key the caller built and ``memo_probe`` just missed.

        The one miss routine behind all three entry points —
        ``process`` and serde's two batch taggers: an
        old-generation probe, else sanitise and map, then insert, so a
        miss hashes the raw AS path three times (the caller's probe
        included), twice while the old generation is empty.
        ``communities`` may be ``None`` (the columnar path): the
        objects are rebuilt from the key's flat ints only when tags
        must actually be computed.

        Rotation empties the young dict *in place* so that hoisted
        ``memo_probe`` references keep probing the young generation
        after a mid-batch rotation.
        """
        old = self._memo_old
        cached = old.get(memo_key, _MEMO_MISS) if old else _MEMO_MISS
        if cached is not _MEMO_MISS:
            self.memo_hits += 1
        else:
            clean = sanitize_path(memo_key[0])
            if clean is None:
                cached = None
            else:
                if communities is None:
                    communities = communities_from_flat(memo_key[1])
                cached = (clean, self._map_tags(clean, communities))
        memo = self._memo
        if len(memo) >= self._gen_max:
            self.memo_evictions += len(old)
            self.memo_rotations += 1
            self._memo_old = memo.copy()
            memo.clear()
        memo[memo_key] = cached
        return cached

    # ------------------------------------------------------------------
    def _map_tags(
        self, path: tuple[int, ...], communities
    ) -> tuple[PoPTag, ...]:
        tags: list[PoPTag] = []
        seen: set[tuple[PoP, int | None]] = set()
        entries = self.dictionary.entries
        rs_pops = self.dictionary.rs_asn_to_pop
        for community in communities:
            asn = community.asn
            rs_pop = rs_pops.get(asn)
            entry = entries.get(community)
            pop = rs_pop if entry is None else entry.pop
            if pop is None:
                continue
            if rs_pop is not None:
                tag = self._route_server_tag(pop, path)
            elif asn in path:
                idx = path.index(asn)  # sanitised: each ASN occurs once
                far = path[idx + 1] if idx + 1 < len(path) else None
                tag = PoPTag(pop=pop, near_asn=asn, far_asn=far)
            else:
                continue  # leaked community from an off-path AS
            dedup_key = (tag.pop, tag.near_asn)
            if dedup_key in seen:
                continue
            seen.add(dedup_key)
            tags.append(tag)
        return tuple(tags)

    def _route_server_tag(self, pop: PoP, path: tuple[int, ...]) -> PoPTag:
        """Attribute a route-server community to the member pair it joins."""
        members = self.colo.ixp_member_view(pop.pop_id)
        for near, far in zip(path, path[1:]):
            if near in members and far in members:
                return PoPTag(pop=pop, near_asn=near, far_asn=far)
        return PoPTag(pop=pop, near_asn=None, far_asn=None)

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

from repro.bgp.sanitize import collapse_runs, sanitize_collapsed
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


#: Distinct (AS path, communities) pairs memoised before the oldest
#: generation is dropped.  BGP streams repeat the same attribute pairs
#: constantly (one peer re-announcing its table), so the hit rate is
#: high long before the bound is reached.
MEMO_MAX_ENTRIES = 65536
#: Hops above which a path is keyed by its run collapse instead of
#: itself.  Only prepending makes a path this long, and there the raw
#: key costs more per miss (two or three hashes of every hop) and per
#: entry (the pinned raw tuple is, at 64 hops, as large as the rest of
#: an entry) than the collapse costs per hit.  Ordinary paths stay far
#: below it and keep the one-hash raw-key hit.
COLLAPSE_KEY_HOPS = 64

_MEMO_MISS = object()
#: what a withdrawal "tags" to: no path, no tags.  One shared object,
#: so every withdrawal row of a tagged batch carries the same pair.
WITHDRAWN: tuple[tuple[int, ...], tuple[PoPTag, ...]] = ((), ())


def _interned(young: dict, old: dict, key):
    """``key``'s value in a two-generation table, promoted if old."""
    value = young.get(key)
    if value is None and old:
        value = old.get(key)
        if value is not None:
            young[key] = value
    return value


class InputModule:
    """The tagging memo and dictionary tables behind serde's taggers.

    Tagging is a pure function of the update's *sanitised* path and its
    communities — the key, timestamp and prefix pass through untouched
    — so the sanitised path and derived tags are memoised per pair.
    Repeated announcements skip sanitisation and the community walk
    entirely, and get back the *same* ``(clean path, tags)`` result
    object, which a tagged batch carries as the row's pair.  The memo
    key is a pair of *int tuples*: the path, and the flattened ``(asn,
    value, ...)`` community ints, so both batch taggers
    (:func:`~repro.core.serde.tag_elements_to_wire` over stream
    objects, :func:`~repro.core.serde.tag_wire_batch` over a
    columnar batch's community-id table) probe one memo, and the
    community walk classifies those ints without a ``Community``
    object.  A path over :data:`COLLAPSE_KEY_HOPS` is keyed by its run
    collapse: prepending is the only thing that makes a path that long,
    and the sanitiser's verdict depends only on the collapse.

    Equal tags are one object: each tags tuple and each ``PoPTag`` is
    interned, so the monitor keys its derived columns on the identity
    of the tags alone (it never reads the path).

    The memo is segmented into two generations: when the young
    generation fills, the old one is dropped and the young one ages
    into its place, so the working set survives every rotation (a
    wholesale clear restarted the hit rate from zero).  Both intern
    tables rotate with it, and the tags of every memo entry stay
    interned while the entry lives.  The dictionary is read once, at
    construction.  The memo and the intern tables are derived caches,
    not state: they are never checkpointed and each process keeps its
    own.
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
        #: (path or its run collapse, flat community ints) -> (clean
        #: path, tags), or None when the sanitizer discards the path.
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
        #: The dictionary as ints: one ``PoP`` object per distinct PoP
        #: (``_pops``), indexed from location communities by ASN then
        #: value (``_loc``) and from route-server ASNs (``_rs``).
        self._pop_index: dict[PoP, int] = {}
        self._loc: dict[int, dict[int, int]] = {}
        for community, entry in dictionary.entries.items():
            self._loc.setdefault(community.asn, {})[community.value] = (
                self._pop_index.setdefault(entry.pop, len(self._pop_index))
            )
        self._rs = {
            asn: self._pop_index.setdefault(pop, len(self._pop_index))
            for asn, pop in dictionary.rs_asn_to_pop.items()
        }
        self._pops: list[PoP] = list(self._pop_index)
        #: Intern tables, two generations each: flat ``(pop index,
        #: near, far, ...)`` ints -> tags tuple, and one triple ->
        #: ``PoPTag``.
        self._tags: dict[tuple, tuple[PoPTag, ...]] = {}
        self._tags_old: dict[tuple, tuple[PoPTag, ...]] = {}
        self._tag: dict[tuple, PoPTag] = {}
        self._tag_old: dict[tuple, PoPTag] = {}

    def memo_miss(
        self,
        memo_key: tuple[tuple[int, ...], tuple[int, ...]],
        collapsed: bool = False,
    ) -> tuple[tuple[int, ...], tuple[PoPTag, ...]] | None:
        """Resolve a key the caller built and ``memo_probe`` just missed.

        The one miss routine behind serde's two batch taggers: an
        old-generation probe, else sanitise and map, then insert.  The key's path is
        the raw path, or its run collapse when ``collapsed`` (a path
        over :data:`COLLAPSE_KEY_HOPS`), which then takes only the
        sanitiser's verdicts.  A short raw path is hashed at most three
        times per miss (the caller's probe included), a collapsed one's
        raw path never.

        Rotation empties the young dict *in place* so that hoisted
        ``memo_probe`` references keep probing the young generation
        after a mid-batch rotation.  It comes before the new entry's
        tags are interned, so they land in the young intern generation
        beside the entry.
        """
        old = self._memo_old
        cached = old.get(memo_key, _MEMO_MISS) if old else _MEMO_MISS
        memo = self._memo
        if len(memo) >= self._gen_max:
            self.memo_evictions += len(old)
            self.memo_rotations += 1
            self._memo_old = memo.copy()
            memo.clear()
            self._tags_old, self._tags = self._tags, {}
            self._tag_old, self._tag = self._tag, {}
        if cached is not _MEMO_MISS:
            self.memo_hits += 1
            if cached is not None and cached[1]:
                # The promoted entry keeps its tags interned.
                self._tags[self._tags_key(cached[1])] = cached[1]
        else:
            path = memo_key[0]
            clean = sanitize_collapsed(
                path if collapsed else collapse_runs(path)
            )
            if clean is not None:
                cached = (clean, self._map_tags(clean, memo_key[1]))
            else:
                cached = None
        memo[memo_key] = cached
        return cached

    # ------------------------------------------------------------------
    def _map_tags(
        self, path: tuple[int, ...], flat: tuple[int, ...]
    ) -> tuple[PoPTag, ...]:
        """The interned tags of a sanitised path and its flat communities."""
        found: list = []  # (pop index, near, far) per tag, flattened
        seen: set[tuple[int, int | None]] = set()
        loc = self._loc
        rs = self._rs
        pairs = iter(flat)
        for asn, value in zip(pairs, pairs):
            values = loc.get(asn)
            pop = None if values is None else values.get(value)
            rs_pop = rs.get(asn)
            if rs_pop is not None:
                if pop is None:
                    pop = rs_pop
                near, far = self._member_pair(pop, path)
            elif pop is None:
                continue
            elif asn in path:
                near = asn
                idx = path.index(asn) + 1  # sanitised: each ASN occurs once
                far = path[idx] if idx < len(path) else None
            else:
                continue  # leaked community from an off-path AS
            if (pop, near) in seen:
                continue
            seen.add((pop, near))
            found += (pop, near, far)
        if not found:
            return ()
        key = tuple(found)
        tags = _interned(self._tags, self._tags_old, key)
        if tags is None:
            tags = self._tags[key] = tuple(
                self._pop_tag(key[i : i + 3]) for i in range(0, len(key), 3)
            )
        return tags

    def _pop_tag(self, triple: tuple) -> PoPTag:
        tag = _interned(self._tag, self._tag_old, triple)
        if tag is None:
            if len(self._tag) >= self._gen_max:
                self._tag_old, self._tag = self._tag, {}
            pop, near, far = triple
            tag = self._tag[triple] = PoPTag(self._pops[pop], near, far)
        return tag

    def _tags_key(self, tags: tuple[PoPTag, ...]) -> tuple:
        """The intern key :meth:`_map_tags` built ``tags`` under."""
        index = self._pop_index
        return tuple(
            x
            for tag in tags
            for x in (index[tag.pop], tag.near_asn, tag.far_asn)
        )

    def _member_pair(
        self, pop: int, path: tuple[int, ...]
    ) -> tuple[int | None, int | None]:
        """The on-path member pair a route-server community joins."""
        members = self.colo.ixp_member_view(self._pops[pop].pop_id)
        for near, far in zip(path, path[1:]):
            if near in members and far in members:
                return near, far
        return None, None

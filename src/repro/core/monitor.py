"""Kepler monitoring module (Section 4.2).

Maintains the stable-path baseline per monitored PoP, bins incoming
updates into 60-second intervals, and raises per-AS outage signals when
the fraction of an AS's baseline paths diverting from a PoP within one
bin exceeds ``Tfail``.

Divergence semantics (the paper's three change types):

* an explicit withdrawal of a baseline path;
* an announcement whose communities no longer tag the PoP — whether the
  AS path changed or not ("we consider changes to the community tag as
  route change even if the AS path remains unchanged");
* conversely, an AS-path change that *keeps* the PoP tag is **not** a
  divergence for that PoP.

State messages suspend the affected peer's paths so collector-session
resets do not masquerade as outages.

:class:`OutageMonitor` is one fold and one bin clock over one stream.
Every piece of its state except the bin clock and the feed-gap set is
keyed by PoP (baseline entries, stability candidates, per-bin
divergences), and the bin-close thresholds aggregate per (PoP, AS) —
never across PoPs.  That is what the optional ownership filter
``share=(w, n)`` rests on: a share keeps the per-PoP state of exactly
the PoPs with ``partition_of(pop, n) == w`` and computes exactly that
share of every bin close.  The shard-process runtime
(:mod:`repro.pipeline.parallel`) runs one share per worker and merges
the shares' bin-close signals under :func:`signal_sort_key` and their
checkpoint documents with :func:`merge_monitor_states`; the share tests
in ``tests/test_core_monitor.py`` pin both merges to the full
monitor's output.
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import dataclass, field

from repro.bgp.messages import BGPStateMessage, ElemType
from repro.core.events import OutageSignal
from repro.core.input import PathKey, PoPTag, TaggedPath
from repro.docmine.dictionary import PoP

#: Paper defaults.
BIN_INTERVAL_S = 60.0
STABLE_WINDOW_S = 2 * 24 * 3600.0
DEFAULT_T_FAIL = 0.10


def partition_of(pop: PoP, n_partitions: int) -> int:
    """Stable partition assignment of a PoP (identical across processes).

    Shard-process worker *w* of N owns the monitor state of exactly
    the PoPs with ``partition_of(pop, N) == w``.
    """
    return zlib.crc32(str(pop).encode("utf-8")) % n_partitions


def pop_sort_key(pop: PoP) -> tuple[str, str]:
    """Total order on PoPs used everywhere determinism matters."""
    return (pop.kind.value, pop.pop_id)


def signal_sort_key(signal: OutageSignal) -> tuple[str, str, int]:
    """The documented bin-close emission order: (PoP kind, PoP id, AS).

    ``close_bin`` emits the signals of one bin sorted under this key —
    an explicit contract rather than an artefact of dict iteration —
    which is what makes the shard driver's merge deterministic: each
    monitor share's bin-close list is sorted, and merging the shares'
    lists under the same key reproduces the full monitor's emission
    byte for byte.
    """
    return (signal.pop.kind.value, signal.pop.pop_id, signal.near_asn)


@dataclass
class MonitorParams:
    bin_interval_s: float = BIN_INTERVAL_S
    stable_window_s: float = STABLE_WINDOW_S
    t_fail: float = DEFAULT_T_FAIL

    def __post_init__(self) -> None:
        # Fail closed: a NaN or infinite bin width never closes a bin,
        # and a negative window promotes candidates before first seen.
        if not (math.isfinite(self.bin_interval_s) and self.bin_interval_s > 0):
            raise ValueError("bin_interval_s must be finite and positive")
        if not (math.isfinite(self.stable_window_s) and self.stable_window_s >= 0):
            raise ValueError("stable_window_s must be finite and non-negative")
        if not 0.0 < self.t_fail <= 1.0:
            raise ValueError("t_fail must be in (0, 1]")


@dataclass
class _BaselineEntry:
    near_asn: int | None
    far_asn: int | None
    since: float
    #: ASes on the monitored path (excluding the vantage), used to spot
    #: divergences caused by a common downstream AS (the Figure 9a
    #: time-B trap).
    path_ases: frozenset[int] = frozenset()


def _entry_to_json(entry: _BaselineEntry) -> list:
    return [
        entry.near_asn,
        entry.far_asn,
        entry.since,
        sorted(entry.path_ases),
    ]


@dataclass
class _TrackState:
    """Return-tracking for one open outage."""

    keys: set[PathKey]
    returned: set[PathKey] = field(default_factory=set)

    def fraction_returned(self) -> float:
        if not self.keys:
            return 1.0
        return len(self.returned) / len(self.keys)


#: Bits reserved for the PoP index in a packed (key, pop) pending id.
_POP_SHIFT = 20
_POP_MASK = (1 << _POP_SHIFT) - 1
#: Cap on the monitor's derived-column caches (tag columns, path
#: AS-sets); wholesale clear on overflow — they are pure caches.
_COLS_CACHE_MAX = 65536


def cross_bins(start: float, width: float, until: float) -> tuple[float, int]:
    """``while until >= start + width: start += width`` without the loop.

    Returns the final ``start``, bit-identical to the repeated float
    addition, and the number of additions.  Floats that share an ulp
    are its multiples, so each addition among them advances by one
    ``step`` (``width`` rounded to that grid: 60 s is on it) and a run
    is one exact multiply.  A pass jumps to ``until`` or to the end of
    the binade (epoch seconds 2004-2038 are one); the ``while`` checks
    the landed bin and takes the plain step across a binade edge, or
    where ``width`` ties between grid points and half-even alternates.
    """
    crossed = 0
    while until >= (nxt := start + width):
        k = 1
        ulp = math.ulp(start)
        tie = math.fmod(width, ulp) * 2.0 == ulp
        if start * nxt > 0.0 and math.ulp(nxt) == ulp and not tie:
            # Last float with this ulp in the direction of travel.
            last = ulp * (2**53 - 1) if start > 0.0 else -ulp * (2**52 + 1)
            step = nxt - start
            k = max(1, int((min(until, last) - start) / ulp) // int(step / ulp))
            nxt = start + k * step
        start = nxt
        crossed += k
    return start, crossed


class TaggedRun:
    """A deferred span of tagged rows inside a columnar batch view.

    The batch-native deferral unit: instead of materialising one
    ``TaggedPath`` per in-bin element, the monitoring stage appends one
    ``TaggedRun`` over the ``[start, stop)`` tagged-family rows of a
    :class:`~repro.core.serde.TaggedBatchView` to the monitor's event
    list.  The per-bin fold consumes it column to column —
    interleaving freely with plain ``TaggedPath`` objects in arrival
    order — so skippable steady-state rows never become objects at all.
    The view pins the batch columns alive for the life of the run.
    """

    __slots__ = ("view", "start", "stop")

    def __init__(self, view, start: int, stop: int) -> None:
        self.view = view
        self.start = start
        self.stop = stop


class OutageMonitor:
    """The stable-path monitor: one fold and one bin clock over a stream.

    Owns the bin clock, the feed-gap set, the deferred in-bin event
    buffer and the per-PoP state: baseline, stability candidates
    (pending heap), per-bin divergences and open-outage return
    tracking.

    ``share=(w, n)`` is the shard-process worker's ownership filter:
    the monitor then keeps baseline, pending and divergence state only
    for the PoPs with ``partition_of(pop, n) == w``, fed the full
    broadcast stream, and so computes exactly that share of every bin
    close (see :mod:`repro.pipeline.parallel`).  Baseline queries for
    other PoPs read empty.  Return tracking ignores the filter: a share
    sees the full stream, so it can track *any* PoP's diverted keys,
    which is what lets every worker track the signal PoP of every
    record.

    The hot per-element state is columnar: path keys and PoPs are
    interned to dense integer ids, and per-key PoP membership
    (baseline, pending, tracking) is an int bitmask in a dense list
    indexed by key id.  The per-bin fold therefore runs on C-speed
    list indexing and integer mask arithmetic; the object-shaped
    views (``baseline``, ``_pending`` entries) are only touched when
    an event actually changes state.  The intern tables grow with the
    key universe — the same order of memory as the baseline itself —
    and are rebuilt empty on :meth:`load_state`.
    """

    def __init__(
        self,
        params: MonitorParams | None = None,
        share: tuple[int, int] | None = None,
    ) -> None:
        self.params = params or MonitorParams()
        if share is not None:
            index, n = share
            if n < 1 or not 0 <= index < n:
                raise ValueError(f"invalid monitor share {share!r}")
        self.share = share
        #: collector peers currently in a feed gap.
        self._gapped: set[tuple[str, int]] = set()
        #: in-bin elements deferred for the grouped per-bin fold —
        #: ``TaggedPath`` objects and/or :class:`TaggedRun` column
        #: spans, in arrival order; the feed-gap admission check
        #: already ran at arrival time.  The list is cleared in place
        #: (never rebound): the monitoring stage's batch feeder holds
        #: a bound ``append`` across calls.
        self._events: list = []
        self._bin_start: float | None = None
        self.bins_processed = 0
        self._reset()

    def _reset(self) -> None:
        """Empty per-PoP state, caches and intern tables."""
        #: pop -> key -> entry (the stable baseline).
        self.baseline: dict[PoP, dict[PathKey, _BaselineEntry]] = {}
        #: running count of (pop, key) baseline entries.
        self.total_baseline_entries = 0
        #: key/PoP intern tables: id assignment order is arrival order
        #: and is never observable (all serialised forms use objects).
        self._key_ids: dict[PathKey, int] = {}
        self._keys: list[PathKey] = []
        self._pop_ids: dict[PoP, int] = {}
        self._pops: list[PoP] = []
        #: per-key PoP membership masks, indexed by key id: bit p set
        #: in ``_base_mask[k]`` iff ``_keys[k]`` has a baseline entry
        #: for ``_pops[p]`` (likewise pending candidates / tracking).
        self._base_mask: list[int] = []
        self._pend_mask: list[int] = []
        self._track_mask: list[int] = []
        #: reverse index (collector, peer) -> baseline keys of that peer,
        #: so feed-gap corrections touch only the gapped peers' paths.
        self._peer_keys: dict[tuple[str, int], set[PathKey]] = {}
        #: running per-AS baseline path counts per pop — each entry
        #: contributes one count to its near- and far-end AS.  Avoids the
        #: full baseline walk per diverted pop at every bin close.
        self._as_totals: dict[PoP, dict[int, int]] = {}
        #: stability candidates: packed (key_id << _POP_SHIFT | pop_id)
        #: -> plain ``(near_asn, far_asn, since, path_ases)`` tuple (the
        #: fold allocates one per candidate; a dataclass would double
        #: the cost of the hottest allocation in the system).
        self._pending: dict[
            int, tuple[int | None, int | None, float, frozenset[int]]
        ] = {}
        #: promotion queue: (since, tiebreak, packed_id); entries whose
        #: candidate was reset are invalidated lazily on pop.  The
        #: tiebreak is a plain int (not itertools.count) so taking a
        #: checkpoint never mutates the monitor.
        self._pending_heap: list[tuple[float, int, int]] = []
        self._heap_counter = 0
        #: derived-column caches keyed by id() of memo-shared tuples;
        #: the cached value holds a reference to its source object, so
        #: a live cache hit is always an identity hit.
        self._tags_cols: dict[int, tuple] = {}
        self._path_ases: dict[int, tuple] = {}
        #: divergences observed in the current bin (owned pops only).
        self._diverted: dict[PoP, set[PathKey]] = {}
        #: open-outage return tracking (any pop — see class docstring).
        self._tracking: dict[PoP, _TrackState] = {}
        #: diverted keys of the most recently closed bin, per owned PoP.
        self.last_diverted: dict[PoP, set[PathKey]] = {}
        #: elements the steady-state fast path discarded without
        #: touching any object state (fold telemetry, never
        #: checkpointed — surfaced as a metrics gauge).
        self.skipped_steady_state = 0

    @property
    def partitions(self) -> tuple[OutageMonitor]:
        """``(self,)``: the fold hook's lookup path.

        The ledger's tracer (``benchmarks/ledger/tracing.py``) wraps
        ``partitions[i].apply_events`` on the instance, which is why
        :meth:`_flush_events` looks ``apply_events`` up at call time.
        """
        return (self,)

    def owns(self, pop: PoP) -> bool:
        share = self.share
        return share is None or partition_of(pop, share[1]) == share[0]

    # ------------------------------------------------------------------
    # Interning (internal ids; never serialised)
    # ------------------------------------------------------------------
    def _intern_key(self, key: PathKey) -> int:
        idx = self._key_ids.get(key)
        if idx is None:
            idx = self._key_ids[key] = len(self._keys)
            self._keys.append(key)
            self._base_mask.append(0)
            self._pend_mask.append(0)
            self._track_mask.append(0)
        return idx

    def _intern_pop(self, pop: PoP) -> int:
        idx = self._pop_ids.get(pop)
        if idx is None:
            idx = self._pop_ids[pop] = len(self._pops)
            if idx >= _POP_MASK:
                raise OverflowError("too many distinct PoPs to intern")
            self._pops.append(pop)
        return idx

    def _tag_cols(self, tags: tuple[PoPTag, ...]) -> tuple:
        """Derived columns for one (memo-shared) tag tuple.

        Returns ``(tags, update_mask, owned)`` where ``update_mask``
        has the bit of every tagged PoP and ``owned`` holds one
        ``(pop_id, bit, near_asn, far_asn)`` row per owned tag.
        Cached per distinct tuple identity: the tagging memo shares
        tag tuples across elements, so the cache hit rate tracks the
        memo's.
        """
        cache = self._tags_cols
        if len(cache) > _COLS_CACHE_MAX:
            cache.clear()
        mask = 0
        owned = []
        for tag in tags:
            idx = self._intern_pop(tag.pop)
            bit = 1 << idx
            mask |= bit
            if self.owns(tag.pop):
                owned.append((idx, bit, tag.near_asn, tag.far_asn))
        cols = (tags, mask, tuple(owned))
        cache[id(tags)] = cols
        return cols

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def prime(self, tagged: TaggedPath) -> None:
        """Install a path's owned tags into the baseline (table dump)."""
        # Earlier stream elements must see the pre-prime baseline: fold
        # them before the install becomes visible.
        if self._events:
            self._flush_events()
        path_ases = frozenset(tagged.as_path[1:])
        for tag in tagged.tags:
            if self.owns(tag.pop):
                self._install(
                    tag.pop, tagged.key, tag.near_asn, tag.far_asn,
                    tagged.time, path_ases,
                )

    def observe_state(self, message: BGPStateMessage) -> None:
        peer = (message.collector, message.peer_asn)
        if message.is_session_loss:
            self._gapped.add(peer)
        elif message.is_session_recovery:
            self._gapped.discard(peer)

    def observe(self, tagged: TaggedPath) -> list[OutageSignal]:
        """Feed one tagged element; returns signals of any closed bins.

        In-bin elements are admitted (feed-gap check at arrival time)
        and deferred; the grouped fold over the whole bin runs at the
        close — or earlier, when a query needs divergence, pending or
        tracking state mid-bin.  The fold replays arrival order, so
        any flush prefix is state-identical to per-element application.
        """
        signals: list[OutageSignal] = []
        if self._bin_start is None:
            self._bin_start = self._bin_floor(tagged.time)
        width = self.params.bin_interval_s
        if tagged.time >= self._bin_start + width:
            signals = self.close_bin()
            if tagged.time >= self._bin_start + width:
                self._cross_empty_bins(tagged.time)
        key = tagged.key
        if (key[0], key[1]) not in self._gapped:
            self._events.append(tagged)
        return signals

    def _flush_events(self) -> None:
        """Fold the deferred in-bin elements."""
        events = self._events
        if not events:
            return
        batch = events[:]
        events.clear()
        self.apply_events(batch)

    def _bin_floor(self, time: float) -> float:
        width = self.params.bin_interval_s
        return (time // width) * width

    # ------------------------------------------------------------------
    # Baseline bookkeeping (the single install/remove choke points)
    # ------------------------------------------------------------------
    def _install(
        self,
        pop: PoP,
        key: PathKey,
        near_asn: int | None,
        far_asn: int | None,
        since: float,
        path_ases: frozenset[int],
    ) -> None:
        entries = self.baseline.setdefault(pop, {})
        old = entries.get(key)
        if old is not None:
            self._count_entry(pop, old, -1)
        else:
            self.total_baseline_entries += 1
        entry = _BaselineEntry(
            near_asn=near_asn,
            far_asn=far_asn,
            since=since,
            path_ases=path_ases,
        )
        entries[key] = entry
        self._count_entry(pop, entry, +1)
        self._base_mask[self._intern_key(key)] |= 1 << self._intern_pop(pop)
        self._peer_keys.setdefault((key[0], key[1]), set()).add(key)

    def _remove(self, pop: PoP, key: PathKey) -> None:
        entries = self.baseline.get(pop)
        if entries is not None:
            entry = entries.pop(key, None)
            if entry is not None:
                self._count_entry(pop, entry, -1)
                self.total_baseline_entries -= 1
            if not entries:
                self.baseline.pop(pop, None)
                self._as_totals.pop(pop, None)
        key_idx = self._key_ids.get(key)
        pop_idx = self._pop_ids.get(pop)
        if key_idx is not None and pop_idx is not None:
            bit = 1 << pop_idx
            mask = self._base_mask[key_idx]
            if mask & bit:
                mask &= ~bit
                self._base_mask[key_idx] = mask
                if not mask:
                    peer = (key[0], key[1])
                    keys = self._peer_keys.get(peer)
                    if keys is not None:
                        keys.discard(key)
                        if not keys:
                            self._peer_keys.pop(peer, None)

    def _count_entry(self, pop: PoP, entry: _BaselineEntry, delta: int) -> None:
        totals = self._as_totals.setdefault(pop, {})
        for subject in (entry.near_asn, entry.far_asn):
            if subject is None:
                continue
            updated = totals.get(subject, 0) + delta
            if updated <= 0:
                totals.pop(subject, None)
            else:
                totals[subject] = updated

    # ------------------------------------------------------------------
    # The per-bin fold
    # ------------------------------------------------------------------
    def apply_events(self, events) -> None:
        """Fold a run of admitted elements in arrival order.

        The columnar hot loop: per element it costs one intern lookup
        for the key, one identity-cache hit for the tag columns, and a
        handful of dense-list reads and bitmask tests.  The object
        structures (``_pending`` entries, divergence/tracking sets)
        are only touched when a mask test says the element changes
        state.  The feed-gap admission check already ran at arrival
        time (see :meth:`observe`).

        Each element makes the same transition it would alone —
        divergence against the baseline mask, return tracking,
        withdrawal-resets, stability-candidate add/reset — replayed in
        arrival order, so folding any prefix is state-identical to
        per-element application.  The object branch (``TaggedPath``)
        and the run branch (:class:`TaggedRun`) are two implementations
        of that one transition; the columnar property tests compare
        them.
        """
        key_ids_get = self._key_ids.get
        intern_key = self._intern_key
        base_mask = self._base_mask
        pend_mask = self._pend_mask
        track_mask = self._track_mask
        tags_cols_get = self._tags_cols.get
        tag_cols = self._tag_cols
        path_cache = self._path_ases
        pending = self._pending
        heap = self._pending_heap
        heappush = heapq.heappush
        counter = self._heap_counter
        pops = self._pops
        diverted = self._diverted
        tracking = self._tracking
        withdrawal = ElemType.WITHDRAWAL
        run_cls = TaggedRun
        shift = _POP_SHIFT
        skipped = 0
        for tagged in events:
            if type(tagged) is run_cls:
                # Batch-native fold: sweep the run's tagged columns in
                # place.  Same transitions as the object body below —
                # the skip decision needs only (key, tag identity,
                # element kind) and the candidate add needs (path,
                # time), all of which sit in the view's columns, so no
                # row ever materialises a TaggedPath.  The view's path
                # and tag-set tables are serde-interned: identical
                # values share objects across batches, keeping the
                # id()-keyed column caches hot.
                view = tagged.view
                start = tagged.start
                stop = tagged.stop
                paths = view.paths
                tagsets = view.tagsets
                # Per-batch withdrawal sentinel: ElemType member for
                # in-process batches, wire value string for IPC ones.
                wv = view.wv
                # The per-view cols table replaces the per-row
                # id()-keyed cache probe with a list index: tag-set
                # table entries repeat across rows, so each distinct
                # entry resolves its derived columns once per view.
                # One monitor folds a given view, so the table is that
                # monitor's (derived columns embed its share filter).
                cols_tab = view.cols
                if cols_tab is None:
                    cols_tab = view.cols = [None] * len(tagsets)
                for key, when, elem, path_idx, tags_idx in zip(
                    view.t_key[start:stop],
                    view.t_time[start:stop],
                    view.t_elem[start:stop],
                    view.t_path[start:stop],
                    view.t_tags[start:stop],
                ):
                    is_withdrawal = elem == wv
                    cols = cols_tab[tags_idx]
                    if cols is None:
                        tags = tagsets[tags_idx]
                        cols = tags_cols_get(id(tags))
                        if cols is None:
                            cols = tag_cols(tags)
                        cols_tab[tags_idx] = cols
                    update_mask = cols[1]
                    key_idx = key_ids_get(key)
                    if key_idx is None:
                        key_idx = intern_key(key)
                    kmask = base_mask[key_idx]
                    tmask = track_mask[key_idx]
                    pmask = pend_mask[key_idx]
                    if not tmask:
                        if is_withdrawal:
                            if not kmask and not pmask:
                                skipped += 1
                                continue
                        elif (
                            kmask | pmask
                        ) == update_mask and not (kmask & pmask):
                            skipped += 1
                            continue
                    if kmask:
                        div = kmask if is_withdrawal else kmask & ~update_mask
                        while div:
                            bit = div & -div
                            div ^= bit
                            pop = pops[bit.bit_length() - 1]
                            keys = diverted.get(pop)
                            if keys is None:
                                keys = diverted[pop] = set()
                            keys.add(key)
                    if tmask:
                        while tmask:
                            bit = tmask & -tmask
                            tmask ^= bit
                            track = tracking[pops[bit.bit_length() - 1]]
                            if not is_withdrawal and update_mask & bit:
                                track.returned.add(key)
                            else:
                                track.returned.discard(key)
                    if is_withdrawal:
                        if pmask:
                            packed_key = key_idx << shift
                            while pmask:
                                bit = pmask & -pmask
                                pmask ^= bit
                                del pending[
                                    packed_key | (bit.bit_length() - 1)
                                ]
                            pend_mask[key_idx] = 0
                        continue
                    new_mask = pmask
                    for pop_idx, bit, near_asn, far_asn in cols[2]:
                        if kmask & bit:
                            if new_mask & bit:
                                del pending[key_idx << shift | pop_idx]
                                new_mask &= ~bit
                            continue
                        if not (new_mask & bit):
                            path = paths[path_idx]
                            cached = path_cache.get(id(path))
                            if cached is None:
                                if len(path_cache) > _COLS_CACHE_MAX:
                                    path_cache.clear()
                                ases = frozenset(path[1:])
                                path_cache[id(path)] = (path, ases)
                            else:
                                ases = cached[1]
                            since = when
                            packed = key_idx << shift | pop_idx
                            pending[packed] = (near_asn, far_asn, since, ases)
                            counter += 1
                            heappush(heap, (since, counter, packed))
                            new_mask |= bit
                    stale = new_mask & ~update_mask
                    if stale:
                        packed_key = key_idx << shift
                        new_mask &= ~stale
                        while stale:
                            bit = stale & -stale
                            stale ^= bit
                            del pending[packed_key | (bit.bit_length() - 1)]
                    if new_mask != pmask:
                        pend_mask[key_idx] = new_mask
                continue
            source = tagged.__dict__
            key = source["key"]
            tags = source["tags"]
            is_withdrawal = source["elem_type"] is withdrawal
            cols = tags_cols_get(id(tags))
            if cols is None:
                cols = tag_cols(tags)
            update_mask = cols[1]
            key_idx = key_ids_get(key)
            if key_idx is None:
                key_idx = intern_key(key)
            kmask = base_mask[key_idx]
            tmask = track_mask[key_idx]
            pmask = pend_mask[key_idx]
            # Steady-state fast path: the element changes nothing.  An
            # announcement whose tags split exactly into baseline bits
            # (no divergence, no candidacy reset) and already-pending
            # bits (since keeps its first-seen time) is a no-op, as is
            # a withdrawal of a key with no state at all.  This is the
            # bulk of a stable stream: re-announcements of pending
            # candidates and of baseline paths.
            if not tmask:
                if is_withdrawal:
                    if not kmask and not pmask:
                        skipped += 1
                        continue
                elif (kmask | pmask) == update_mask and not (kmask & pmask):
                    skipped += 1
                    continue
            if kmask:
                # Divergence check against the baseline.
                div = kmask if is_withdrawal else kmask & ~update_mask
                while div:
                    bit = div & -div
                    div ^= bit
                    pop = pops[bit.bit_length() - 1]
                    keys = diverted.get(pop)
                    if keys is None:
                        keys = diverted[pop] = set()
                    keys.add(key)
            if tmask:
                # Return tracking for open outages (indexed: only pops
                # whose tracked key-set contains this key are touched).
                while tmask:
                    bit = tmask & -tmask
                    tmask ^= bit
                    track = tracking[pops[bit.bit_length() - 1]]
                    if not is_withdrawal and update_mask & bit:
                        track.returned.add(key)
                    else:
                        track.returned.discard(key)
            if is_withdrawal:
                # Stability candidates of a withdrawn key all reset.
                if pmask:
                    packed_key = key_idx << shift
                    while pmask:
                        bit = pmask & -pmask
                        pmask ^= bit
                        del pending[packed_key | (bit.bit_length() - 1)]
                    pend_mask[key_idx] = 0
                continue
            new_mask = pmask
            for pop_idx, bit, near_asn, far_asn in cols[2]:
                if kmask & bit:
                    # Already in the baseline: candidacy resets.
                    if new_mask & bit:
                        del pending[key_idx << shift | pop_idx]
                        new_mask &= ~bit
                    continue
                if not (new_mask & bit):
                    path = source["as_path"]
                    cached = path_cache.get(id(path))
                    if cached is None:
                        if len(path_cache) > _COLS_CACHE_MAX:
                            path_cache.clear()
                        ases = frozenset(path[1:])
                        path_cache[id(path)] = (path, ases)
                    else:
                        ases = cached[1]
                    since = source["time"]
                    packed = key_idx << shift | pop_idx
                    pending[packed] = (near_asn, far_asn, since, ases)
                    counter += 1
                    heappush(heap, (since, counter, packed))
                    new_mask |= bit
            # Tags that disappeared reset their pending candidacy.
            stale = new_mask & ~update_mask
            if stale:
                packed_key = key_idx << shift
                new_mask &= ~stale
                while stale:
                    bit = stale & -stale
                    stale ^= bit
                    del pending[packed_key | (bit.bit_length() - 1)]
            if new_mask != pmask:
                pend_mask[key_idx] = new_mask
        self._heap_counter = counter
        self.skipped_steady_state += skipped

    # ------------------------------------------------------------------
    # Bin closing
    # ------------------------------------------------------------------
    def close_bin(self) -> list[OutageSignal]:
        """Close the current bin, emit signals, advance to the next bin.

        Signals are emitted sorted under :func:`signal_sort_key` (PoPs
        in :func:`pop_sort_key` order, ASes ascending within a PoP).
        """
        if self._events:
            self._flush_events()
        if self._bin_start is None:
            return []
        bin_start = self._bin_start
        bin_end = bin_start + self.params.bin_interval_s
        signals: list[OutageSignal] = []
        self.last_diverted = {}
        for pop in sorted(self._diverted, key=pop_sort_key):
            diverted_keys = {
                k
                for k in self._diverted[pop]
                if (k[0], k[1]) not in self._gapped
            }
            entries = self.baseline.get(pop, {})
            if not entries:
                continue
            # Group per AS involved in the tagged link (Section 4.2:
            # "we group the paths based on the ASes that are involved in
            # the tagged links and determine outages per AS") — a path
            # counts under both its near- and far-end AS, so a small
            # member whose paths all die is caught even when a large AS
            # dominates the PoP's aggregate.  The running per-AS totals
            # are corrected for gapped peers' paths, which are excluded
            # from both numerator and denominator; when a gapped peer
            # carries more keys than the PoP's own baseline, rebuilding
            # from the PoP's entries is cheaper than subtracting.
            totals: dict[int, int] = self._as_totals.get(pop, {})
            if self._gapped:
                gapped_keys = sum(
                    len(self._peer_keys.get(peer, ())) for peer in self._gapped
                )
                if gapped_keys > len(entries):
                    totals = {}
                    for key, entry in entries.items():
                        if (key[0], key[1]) in self._gapped:
                            continue
                        for subject in (entry.near_asn, entry.far_asn):
                            if subject is not None:
                                totals[subject] = totals.get(subject, 0) + 1
                else:
                    totals = dict(totals)
                    for peer in self._gapped:
                        for key in self._peer_keys.get(peer, ()):
                            entry = entries.get(key)
                            if entry is None:
                                continue
                            for subject in (entry.near_asn, entry.far_asn):
                                if subject is not None:
                                    totals[subject] = totals.get(subject, 0) - 1
            diverted: dict[int, set[PathKey]] = {}
            for key in diverted_keys:
                entry = entries.get(key)
                if entry is None:
                    continue
                for subject in (entry.near_asn, entry.far_asn):
                    if subject is not None:
                        diverted.setdefault(subject, set()).add(key)
            for subject, keys in sorted(diverted.items()):
                total = totals.get(subject, 0)
                if total == 0:
                    continue
                if len(keys) / total < self.params.t_fail:
                    continue
                links = frozenset(
                    (entries[k].near_asn, entries[k].far_asn) for k in keys
                )
                signals.append(
                    OutageSignal(
                        pop=pop,
                        near_asn=subject,
                        bin_start=bin_start,
                        bin_end=bin_end,
                        diverted_paths=len(keys),
                        baseline_paths=total,
                        links=links,
                        path_as_sets=tuple(
                            entries[k].path_ases for k in sorted(keys)
                        ),
                    )
                )
            # "After each binning interval, we remove the changed paths
            # from the set of stable paths."
            self.last_diverted[pop] = set(diverted_keys)
            for key in diverted_keys:
                self._remove(pop, key)
        self._diverted.clear()
        self._promote_pending(bin_end)
        self._bin_start = bin_end
        self.bins_processed += 1
        return signals

    def _cross_empty_bins(self, until: float) -> None:
        """Close the run of empty bins before the bin holding ``until``.

        Right after :meth:`close_bin` nothing is deferred or diverted:
        stepping would emit nothing, empty ``last_diverted`` and promote
        in heap order up to the last bin end, as one promote call does.
        """
        self._bin_start, crossed = cross_bins(
            self._bin_start, self.params.bin_interval_s, until
        )
        self.last_diverted = {}
        self._promote_pending(self._bin_start)
        self.bins_processed += crossed

    def _promote_pending(self, now: float) -> None:
        # The heap yields candidates in first-seen order; entries whose
        # candidacy was reset since their push are skipped (their stored
        # ``since`` no longer matches the live entry).  Sustained
        # announce/withdraw churn leaves stale tuples behind faster
        # than promotion drains them, so compact when they dominate.
        if len(self._pending_heap) > max(4096, 4 * len(self._pending)):
            rebuilt = []
            for packed, entry in self._pending.items():
                self._heap_counter += 1
                rebuilt.append((entry[2], self._heap_counter, packed))
            heapq.heapify(rebuilt)
            self._pending_heap = rebuilt
        threshold = now - self.params.stable_window_s
        heap = self._pending_heap
        while heap and heap[0][0] <= threshold:
            since, _, packed = heapq.heappop(heap)
            entry = self._pending.get(packed)
            if entry is None or entry[2] != since:
                continue
            del self._pending[packed]
            self._pend_mask[packed >> _POP_SHIFT] &= ~(
                1 << (packed & _POP_MASK)
            )
            self._install(
                self._pops[packed & _POP_MASK],
                self._keys[packed >> _POP_SHIFT],
                *entry,
            )

    # ------------------------------------------------------------------
    # Open-outage return tracking (ownership-agnostic)
    # ------------------------------------------------------------------
    def start_tracking(self, pop: PoP, keys: set[PathKey]) -> None:
        if self._events:
            self._flush_events()
        existing = self._tracking.get(pop)
        if existing is not None:
            existing.keys.update(keys)
        else:
            self._tracking[pop] = _TrackState(keys=set(keys))
        bit = 1 << self._intern_pop(pop)
        for key in keys:
            self._track_mask[self._intern_key(key)] |= bit

    def returned_fraction(self, pop: PoP) -> float | None:
        if self._events:
            self._flush_events()
        track = self._tracking.get(pop)
        if track is None:
            return None
        return track.fraction_returned()

    def stop_tracking(self, pop: PoP) -> None:
        if self._events:
            self._flush_events()
        track = self._tracking.pop(pop, None)
        if track is None:
            return
        pop_idx = self._pop_ids.get(pop)
        if pop_idx is None:
            return
        clear = ~(1 << pop_idx)
        key_ids_get = self._key_ids.get
        track_mask = self._track_mask
        for key in track.keys:
            key_idx = key_ids_get(key)
            if key_idx is not None:
                track_mask[key_idx] &= clear

    # ------------------------------------------------------------------
    # Queries used by investigation / Kepler
    # ------------------------------------------------------------------
    def baseline_size(self, pop: PoP) -> int:
        return len(self.baseline.get(pop, {}))

    def baseline_links(self, pop: PoP) -> set[tuple[int | None, int | None]]:
        return {
            (entry.near_asn, entry.far_asn)
            for entry in self.baseline.get(pop, {}).values()
        }

    def baseline_far_ases(self, pop: PoP) -> set[int]:
        return {
            entry.far_asn
            for entry in self.baseline.get(pop, {}).values()
            if entry.far_asn is not None
        }

    @property
    def current_bin_start(self) -> float | None:
        return self._bin_start

    @property
    def pending_count(self) -> int:
        """Number of live stability candidates."""
        if self._events:
            self._flush_events()
        return len(self._pending)

    # ------------------------------------------------------------------
    # Checkpointing: one canonical document for every share layout
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the monitor state.

        The document is **canonical**: every list is sorted under
        explicit keys (:func:`pop_sort_key`, path-key order), so the
        shares of a shard-process run compose, through
        :func:`merge_monitor_states`, the same document as the full
        monitor, and the two are freely interchangeable on restore.
        Only primary state is stored; the reverse indexes and the
        promotion heap are rebuilt by :meth:`load_state` (promotion
        order is re-derived as (since, pop, key), which is
        output-equivalent — installs into different PoPs commute, and
        per-PoP baseline reads are key- or aggregate-based).
        """
        from repro.core.serde import key_to_json, pop_to_json

        if self._events:
            self._flush_events()
        keys = self._keys
        pops = self._pops
        baseline = [
            [
                pop_to_json(pop),
                [
                    [key_to_json(key), _entry_to_json(entries[key])]
                    for key in sorted(entries)
                ],
            ]
            for pop, entries in self.baseline.items()
        ]
        pending = [
            [
                pop_to_json(pops[packed & _POP_MASK]),
                key_to_json(keys[packed >> _POP_SHIFT]),
                [entry[0], entry[1], entry[2], sorted(entry[3])],
            ]
            for packed, entry in self._pending.items()
        ]
        diverted = [
            [pop_to_json(pop), sorted(key_to_json(k) for k in keys)]
            for pop, keys in self._diverted.items()
        ]
        tracking = [
            [
                pop_to_json(pop),
                sorted(key_to_json(k) for k in track.keys),
                sorted(key_to_json(k) for k in track.returned),
            ]
            for pop, track in self._tracking.items()
        ]
        last_diverted = [
            [pop_to_json(pop), sorted(key_to_json(k) for k in keys)]
            for pop, keys in self.last_diverted.items()
        ]
        baseline.sort(key=lambda item: item[0])
        pending.sort(key=lambda item: (item[0], item[1]))
        diverted.sort(key=lambda item: item[0])
        tracking.sort(key=lambda item: item[0])
        last_diverted.sort(key=lambda item: item[0])
        return {
            "baseline": baseline,
            "pending": pending,
            "gapped": sorted([c, p] for c, p in self._gapped),
            "diverted": diverted,
            "bin_start": self._bin_start,
            "tracking": tracking,
            "last_diverted": last_diverted,
            "bins_processed": self.bins_processed,
        }

    def load_state(self, state: dict) -> None:
        """Restore a canonical document written by any share layout.

        Baseline, pending, divergence and last-diverted entries of
        PoPs this monitor does not own are skipped — a share takes only
        its part of a full document.  Tracking entries all load
        (tracking is ownership-agnostic and cheap to maintain).
        """
        from repro.core.serde import key_from_json, pop_from_json

        self._events.clear()
        self._reset()
        self._gapped.clear()
        self._gapped.update((c, p) for c, p in state["gapped"])
        for pop_json, entries in state["baseline"]:
            pop = pop_from_json(pop_json)
            if not self.owns(pop):
                continue
            for key_json, (near, far, since, path_ases) in entries:
                self._install(
                    pop, key_from_json(key_json), near, far, since,
                    frozenset(path_ases),
                )
        # Pending entries re-enter the promotion heap in document order
        # — sorted by (pop, key) — but the heap orders by (since,
        # arrival), so maturation order is (since, pop, key):
        # deterministic, and output-equivalent to the live arrival
        # order (promotions of distinct (pop, key) pairs commute).
        for pop_json, key_json, (near, far, since, path_ases) in state["pending"]:
            pop = pop_from_json(pop_json)
            if not self.owns(pop):
                continue
            key_idx = self._intern_key(key_from_json(key_json))
            pop_idx = self._intern_pop(pop)
            packed = key_idx << _POP_SHIFT | pop_idx
            self._pending[packed] = (near, far, since, frozenset(path_ases))
            self._pend_mask[key_idx] |= 1 << pop_idx
            self._heap_counter += 1
            heapq.heappush(
                self._pending_heap, (since, self._heap_counter, packed)
            )
        for pop_json, keys in state["diverted"]:
            pop = pop_from_json(pop_json)
            if self.owns(pop):
                self._diverted[pop] = {key_from_json(k) for k in keys}
        self._bin_start = state["bin_start"]
        for pop_json, keys, returned in state["tracking"]:
            pop = pop_from_json(pop_json)
            self.start_tracking(pop, {key_from_json(k) for k in keys})
            self._tracking[pop].returned = {key_from_json(k) for k in returned}
        for pop_json, keys in state["last_diverted"]:
            pop = pop_from_json(pop_json)
            if self.owns(pop):
                self.last_diverted[pop] = {key_from_json(k) for k in keys}
        self.bins_processed = state["bins_processed"]


def merge_monitor_states(fragments: list[dict]) -> dict:
    """Compose monitor-share documents into the full document.

    Each fragment is the :meth:`OutageMonitor.state_dict` of one share
    (``share=(w, n)``) of one logical monitor, over disjoint PoP
    subsets.  List sections concatenate and re-sort under the
    canonical keys; tracking entries may be replicated across
    fragments (tracking is ownership-agnostic) and deduplicate by PoP;
    the clock fields must agree — the shares advance bins in lockstep
    by construction.
    """
    if not fragments:
        raise ValueError("no monitor fragments to merge")
    head = fragments[0]
    for other in fragments[1:]:
        if (
            other["bin_start"] != head["bin_start"]
            or other["bins_processed"] != head["bins_processed"]
            or other["gapped"] != head["gapped"]
        ):
            raise ValueError(
                "monitor share fragments disagree on shared state"
                " (bin clock or feed-gap set): shares out of sync"
            )
    merged: dict = {
        "bin_start": head["bin_start"],
        "bins_processed": head["bins_processed"],
        "gapped": head["gapped"],
    }
    for section in ("baseline", "pending", "diverted", "last_diverted"):
        rows = [row for fragment in fragments for row in fragment[section]]
        sort_key = (
            (lambda item: (item[0], item[1]))
            if section == "pending"
            else (lambda item: item[0])
        )
        rows.sort(key=sort_key)
        merged[section] = rows
    tracking: dict[str, list] = {}
    for fragment in fragments:
        for row in fragment["tracking"]:
            tracking.setdefault(repr(row[0]), row)
    merged["tracking"] = sorted(tracking.values(), key=lambda item: item[0])
    return merged

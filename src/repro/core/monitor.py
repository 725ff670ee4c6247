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
from dataclasses import dataclass

from repro.bgp.messages import BGPStateMessage, ElemType
from repro.core.events import OutageSignal
from repro.core.input import PathKey
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


def _tally(totals: dict[int, int], entry: tuple, delta: int) -> None:
    """Add ``delta`` to the path counts of a baseline entry's near- and
    far-end AS."""
    for asn in (entry[0], entry[1]):
        if asn is not None:
            totals[asn] = totals.get(asn, 0) + delta


#: Bits reserved for the PoP index in a packed (key, pop) pending id.
_POP_SHIFT = 20
_POP_MASK = (1 << _POP_SHIFT) - 1
#: Cap on the monitor's derived-column cache (one entry per distinct
#: tags object); wholesale clear on overflow — it is a pure cache.
_COLS_CACHE_MAX = 65536
#: Late-heap size below which stale entries are left for promotion to
#: skip.
_LATE_COMPACT_MIN = 4096
#: The gap set of a run deferred while no collector session is down.
_NO_GAP: frozenset = frozenset()


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
    """The fold's one deferral unit: rows ``[start, stop)`` of the
    tagged family of a :class:`~repro.core.serde.TaggedBatch`, and the
    monitor's feed-gap set when the run was deferred.

    The per-bin fold consumes it column to column, so skippable
    steady-state rows never become objects, and skips the rows whose
    peer is in ``gapped``.  State rows form their own runs, so that set
    is the one current at every row's arrival: the snapshot *is* the
    arrival-time admission check.  It stays a snapshot because the
    monitor replaces its gap set and never mutates it.  The view pins
    the batch columns alive for the life of the run.
    """

    __slots__ = ("view", "start", "stop", "gapped")

    def __init__(self, view, start: int, stop: int, gapped: frozenset) -> None:
        self.view = view
        self.start = start
        self.stop = stop
        self.gapped = gapped


class OutageMonitor:
    """The stable-path monitor: one fold and one bin clock over a stream.

    Owns the bin clock, the feed-gap set, the deferred in-bin event
    buffer and the per-PoP state: baseline, stability candidates
    (which are also the promotion queue) and per-bin divergences.  It
    decides nothing about open outages: it only reports rows of the
    paths the record stage watches (:meth:`watch`, :meth:`report`).

    ``share=(w, n)`` is the shard-process worker's ownership filter:
    the monitor then keeps baseline, pending and divergence state only
    for the PoPs with ``partition_of(pop, n) == w``, fed the full
    broadcast stream, and so computes exactly that share of every bin
    close (see :mod:`repro.pipeline.parallel`).  Baseline queries for
    other PoPs read empty.  Watches ignore the filter: a share sees the
    full stream, so it can report on *any* PoP's paths, which is what
    lets every worker's record stage watch every record.

    Path keys and PoPs are interned to dense integer ids, and all
    per-PoP state is keyed by them: the baseline store and its reverse
    indexes, the candidates and the bin's divergences.  Per-key PoP
    membership (baseline, pending, watched) is an int bitmask in a
    dense list indexed by key id, so the per-bin fold runs on list
    indexing and mask arithmetic, and a promotion moves the
    candidate's own tuple into the baseline.  ``PoP`` and ``PathKey``
    objects are looked up only at the boundary: signals, the
    ``baseline_*`` queries and the checkpoint document.  The intern
    tables grow with the key universe — the same order of memory as
    the baseline itself — and are rebuilt empty on :meth:`load_state`.
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
        #: collector peers currently in a feed gap.  Replaced on every
        #: change, never mutated: a deferred :class:`TaggedRun` holds
        #: the set current at its deferral.
        self._gapped: frozenset[tuple[str, int]] = _NO_GAP
        #: in-bin rows deferred for the grouped per-bin fold, as
        #: :class:`TaggedRun` column spans in arrival order.  The list
        #: is cleared in place (never rebound): the monitoring stage's
        #: batch feeder holds a bound ``append`` across calls.
        self._events: list = []
        self._bin_start: float | None = None
        self.bins_processed = 0
        self._reset()

    def _reset(self) -> None:
        """Empty per-PoP state, caches and intern tables."""
        #: the stable baseline: pop id -> key id -> ``(near_asn,
        #: far_asn, since)``.  A PoP with no entries has no dict.
        self._base: dict[int, dict[int, tuple]] = {}
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
        #: for ``_pops[p]`` (likewise pending candidates / watches).
        self._base_mask: list[int] = []
        self._pend_mask: list[int] = []
        self._track_mask: list[int] = []
        #: reverse index (collector, peer) -> ids of that peer's keys
        #: with a baseline entry at any PoP, so feed-gap corrections
        #: touch only the gapped peers' paths.
        self._peer_keys: dict[tuple[str, int], set[int]] = {}
        #: per pop id in ``_base``: AS -> baseline paths counting it —
        #: each entry counts once for its near- and once for its far-end
        #: AS — so a bin close does not walk the PoP's baseline.  An AS
        #: whose paths all left may stay at 0.
        self._totals: dict[int, dict[int, int]] = {}
        #: stability candidates: packed (key_id << _POP_SHIFT | pop_id)
        #: -> plain ``(near_asn, far_asn, since)`` tuple (the
        #: fold allocates one per candidate; a dataclass would double
        #: the cost of the hottest allocation in the system).  The dict
        #: is also the promotion queue: a candidate is inserted only
        #: while absent and a reset deletes it, so on a time-sorted
        #: stream insertion order is ``since`` order (see
        #: :meth:`_promote_pending`).
        self._pending: dict[int, tuple[int | None, int | None, float]] = {}
        #: newest ``since`` inserted in order; a candidate older than it
        #: is *late* and also goes on ``_late``.
        self._newest = -math.inf
        #: ``(since, packed)`` min-heap of late candidates, checked
        #: against the live entry on pop.  Empty on a sorted stream.
        self._late: list[tuple[float, int]] = []
        #: lower bound on every in-order candidate's ``since``: a
        #: promotion threshold below it has no prefix to scan.
        self._due_floor = -math.inf
        #: derived columns per tags tuple, keyed by its id() (see
        #: :meth:`_tag_cols`): the tagger interns tags, so equal tags
        #: are one object.  The cached value holds the tags, so a live
        #: cache hit is always an identity hit.
        self._cols: dict[int, list] = {}
        #: pop id -> ids of its baseline keys that diverted in the
        #: current bin (owned pops only).
        self._diverted: dict[int, set[int]] = {}
        #: open watches per (pop, key), any pop (see :meth:`watch`).
        self._watched: dict[tuple[PoP, PathKey], int] = {}
        #: per watched (pop, key) with a row since the last
        #: :meth:`report`: whether its latest row tags the pop.
        self._report: dict[tuple[PoP, PathKey], bool] = {}
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
            idx = self._intern_new_key(key)
        return idx

    def _intern_new_key(self, key: PathKey) -> int:
        """Intern a key the caller just missed in ``_key_ids``."""
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

    def _tag_cols(self, tags: tuple) -> list:
        """Derived columns for one (interned) tags tuple.

        Returns ``[tags, update_mask, owned]`` where ``update_mask``
        has the bit of every tagged PoP and ``owned`` holds one
        ``(pop_id, bit, near_asn, far_asn)`` row per owned tag.  Cached
        per tags identity: the tagger hands back one object per
        distinct tags value, whatever the path, so the cache misses
        once per tags value, not once per path.
        """
        cache = self._cols
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
        cols = [tags, mask, tuple(owned)]
        cache[id(tags)] = cols
        return cols

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def prime_row(self, key: PathKey, time: float, pair: tuple) -> None:
        """Install a primed row's owned tags into the baseline (table
        dump): no bin clock advance, no divergence accounting."""
        # Earlier stream elements must see the pre-prime baseline: fold
        # them before the install becomes visible.
        if self._events:
            self._flush_events()
        tags = pair[1]
        cols = self._cols.get(id(tags))
        if cols is None:
            cols = self._tag_cols(tags)
        owned = cols[2]
        if owned:
            key_idx = self._intern_key(key)
            for pop_idx, _, near_asn, far_asn in owned:
                self._install(pop_idx, key_idx, (near_asn, far_asn, time))

    def observe_state(self, message: BGPStateMessage) -> None:
        peer = (message.collector, message.peer_asn)
        if message.is_session_loss:
            self._gapped = self._gapped | {peer}
        elif message.is_session_recovery:
            self._gapped = self._gapped - {peer}

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
    def _install(self, pop_idx: int, key_idx: int, entry: tuple) -> None:
        """Make ``entry``, a ``(near_asn, far_asn, since)`` tuple, the
        baseline entry of a key at a PoP."""
        entries = self._base.get(pop_idx)
        if entries is None:
            entries = self._base[pop_idx] = {}
            totals = self._totals[pop_idx] = {}
        else:
            totals = self._totals[pop_idx]
        old = entries.get(key_idx)
        entries[key_idx] = entry
        if old is not None:
            _tally(totals, old, -1)
        else:
            self.total_baseline_entries += 1
            mask = self._base_mask[key_idx]
            if not mask:
                key = self._keys[key_idx]
                peer = (key[0], key[1])
                peer_keys = self._peer_keys.get(peer)
                if peer_keys is None:
                    self._peer_keys[peer] = {key_idx}
                else:
                    peer_keys.add(key_idx)
            self._base_mask[key_idx] = mask | 1 << pop_idx
        near, far, _ = entry
        if near is not None:
            totals[near] = totals.get(near, 0) + 1
        if far is not None:
            totals[far] = totals.get(far, 0) + 1

    def _remove(self, pop_idx: int, key_ids) -> None:
        """Drop the baseline entries of ``key_ids`` at a PoP."""
        entries = self._base.get(pop_idx)
        if entries is None:
            return
        totals = self._totals[pop_idx]
        base_mask = self._base_mask
        clear = ~(1 << pop_idx)
        for key_idx in key_ids:
            entry = entries.pop(key_idx, None)
            if entry is None:
                continue
            self.total_baseline_entries -= 1
            near, far, _ = entry
            if near is not None:
                totals[near] -= 1
            if far is not None:
                totals[far] -= 1
            mask = base_mask[key_idx] = base_mask[key_idx] & clear
            if not mask:
                key = self._keys[key_idx]
                peer = (key[0], key[1])
                peer_keys = self._peer_keys[peer]
                peer_keys.discard(key_idx)
                if not peer_keys:
                    del self._peer_keys[peer]
        if not entries:
            del self._base[pop_idx]
            del self._totals[pop_idx]

    # ------------------------------------------------------------------
    # The per-bin fold
    # ------------------------------------------------------------------
    def apply_events(self, runs) -> None:
        """Fold deferred :class:`TaggedRun` spans in arrival order.

        The columnar hot loop: per row it costs one intern lookup for
        the key, one identity-keyed lookup for the pair's derived
        columns, and a handful of dense-list reads and bitmask tests.
        The object structures (``_pending`` entries, divergence sets,
        the watch report) are only touched when a mask test says the
        row changes state.  A row whose peer is in its run's feed-gap
        snapshot is not admitted (see :class:`TaggedRun`).

        Each row makes the same transition it would alone — divergence
        against the baseline mask, the watch report, withdrawal-resets,
        stability-candidate add/reset — replayed in arrival order, so
        folding any prefix is state-identical to per-row application.
        ``tests/_fold_oracle.py`` states that transition with plain
        dicts and sets, and ``TestFoldOracle`` holds this loop to it.
        """
        key_ids_get = self._key_ids.get
        intern_new_key = self._intern_new_key
        base_mask = self._base_mask
        pend_mask = self._pend_mask
        track_mask = self._track_mask
        cols_get = self._cols.get
        tag_cols = self._tag_cols
        pending = self._pending
        late = self._late
        newest = self._newest
        pops = self._pops
        diverted = self._diverted
        report = self._report
        withdrawal = ElemType.WITHDRAWAL
        shift = _POP_SHIFT
        skipped = 0
        for run in runs:
            view = run.view
            start = run.start
            stop = run.stop
            gapped = run.gapped
            for key, when, elem, pair in zip(
                view.t_key[start:stop],
                view.t_time[start:stop],
                view.t_elem[start:stop],
                view.t_pair[start:stop],
            ):
                if gapped and (key[0], key[1]) in gapped:
                    continue  # feed gap: absence of data, not a change
                if elem is withdrawal:
                    # A withdrawal is an announcement that tags no PoP:
                    # every baseline bit diverges, every candidacy resets.
                    update_mask = 0
                    owned = ()
                else:
                    cols = cols_get(id(pair[1]))
                    if cols is None:
                        cols = tag_cols(pair[1])
                    update_mask = cols[1]
                    owned = cols[2]
                key_idx = key_ids_get(key)
                if key_idx is None:
                    # A first-seen key has no state, so a row that tags
                    # no PoP is a steady-state skip (below) and needs no
                    # intern.
                    if not update_mask:
                        skipped += 1
                        continue
                    key_idx = intern_new_key(key)
                kmask = base_mask[key_idx]
                tmask = track_mask[key_idx]
                pmask = pend_mask[key_idx]
                # Steady-state fast path: the row changes nothing.  A row
                # whose tags split exactly into baseline bits (no
                # divergence, no candidacy reset) and already-pending
                # bits (since keeps its first-seen time) is a no-op —
                # for a withdrawal, one of a key with no state at all.
                # This is the bulk of a stable stream: re-announcements
                # of pending candidates and of baseline paths.
                if not tmask and (kmask | pmask) == update_mask and not (
                    kmask & pmask
                ):
                    skipped += 1
                    continue
                if kmask:
                    # Divergence check against the baseline.
                    div = kmask & ~update_mask
                    while div:
                        bit = div & -div
                        div ^= bit
                        pop_idx = bit.bit_length() - 1
                        keys = diverted.get(pop_idx)
                        if keys is None:
                            keys = diverted[pop_idx] = set()
                        keys.add(key_idx)
                while tmask:
                    # Watched by an open outage at this pop: the latest
                    # row's verdict is what the report carries.
                    bit = tmask & -tmask
                    tmask ^= bit
                    report[pops[bit.bit_length() - 1], key] = (
                        update_mask & bit
                    ) != 0
                new_mask = pmask
                for pop_idx, bit, near_asn, far_asn in owned:
                    if kmask & bit:
                        # Already in the baseline: candidacy resets.
                        if new_mask & bit:
                            del pending[key_idx << shift | pop_idx]
                            new_mask &= ~bit
                        continue
                    if not (new_mask & bit):
                        packed = key_idx << shift | pop_idx
                        pending[packed] = (near_asn, far_asn, when)
                        if when < newest:
                            heapq.heappush(late, (when, packed))
                        else:
                            newest = when
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
        self._newest = newest
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
        t_fail = self.params.t_fail
        pops = self._pops
        keys = self._keys
        gapped = self._gapped
        # Removals below touch only non-gapped keys, so the gapped
        # peers' baseline keys stay the same over the whole close.
        gapped_keys = sum(len(self._peer_keys.get(peer, ())) for peer in gapped)
        signals: list[OutageSignal] = []
        for pop_idx in sorted(self._diverted, key=lambda p: pop_sort_key(pops[p])):
            changed = self._diverted[pop_idx]
            if gapped:
                changed = {
                    k for k in changed if (keys[k][0], keys[k][1]) not in gapped
                }
            entries = self._base.get(pop_idx)
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
            totals = self._totals[pop_idx]
            if gapped_keys > len(entries):
                totals = {}
                for key_idx, entry in entries.items():
                    if (keys[key_idx][0], keys[key_idx][1]) not in gapped:
                        _tally(totals, entry, 1)
            elif gapped_keys:
                totals = dict(totals)
                for peer in gapped:
                    for key_idx in self._peer_keys.get(peer, ()):
                        entry = entries.get(key_idx)
                        if entry is not None:
                            _tally(totals, entry, -1)
            diverted: dict[int, list[int]] = {}
            for key_idx in changed:
                entry = entries.get(key_idx)
                if entry is None:
                    continue
                near, far, _ = entry
                if near is not None:
                    diverted.setdefault(near, []).append(key_idx)
                if far is not None and far != near:
                    diverted.setdefault(far, []).append(key_idx)
            for subject, hit in sorted(diverted.items()):
                total = totals.get(subject, 0)
                if total == 0 or len(hit) / total < t_fail:
                    continue
                counted = sorted(hit, key=keys.__getitem__)
                signals.append(
                    OutageSignal(
                        pop=pops[pop_idx],
                        near_asn=subject,
                        bin_start=bin_start,
                        bin_end=bin_end,
                        diverted_paths=len(hit),
                        baseline_paths=total,
                        links=frozenset(
                            (entries[k][0], entries[k][1]) for k in counted
                        ),
                        keys=tuple(keys[k] for k in counted),
                    )
                )
            # "After each binning interval, we remove the changed paths
            # from the set of stable paths."
            self._remove(pop_idx, changed)
        self._diverted.clear()
        self._promote_pending(bin_end)
        self._bin_start = bin_end
        self.bins_processed += 1
        return signals

    def close_bins(self, until: float) -> list[OutageSignal]:
        """Close the current bin, then the empty bins before the one
        holding ``until``; returns the closed bin's signals.

        Called with ``until`` at or past the current bin's end, before
        the row at ``until`` is deferred: the close reads rows of its
        own bin only.  The empty bins emit nothing, and crossing them
        promotes every candidate due by the last bin end, as one
        promote call does.
        """
        signals = self.close_bin()
        width = self.params.bin_interval_s
        if until >= self._bin_start + width:
            self._bin_start, crossed = cross_bins(self._bin_start, width, until)
            self._promote_pending(self._bin_start)
            self.bins_processed += crossed
        return signals

    def _promote_pending(self, now: float) -> None:
        """Install every candidate first seen at or before ``now - W``.

        In-order candidates sit in ``_pending`` in ``since`` order, so
        the due ones are a prefix of it; a late candidate may sit behind
        one that is not due yet, and ``_late`` holds it in ``since``
        order.  Draining both promotes exactly the due set.  Promotions
        of distinct (pop, key) pairs commute, so their order is not
        observable.
        """
        pending = self._pending
        late = self._late
        if len(late) > max(_LATE_COMPACT_MIN, 2 * len(pending)):
            # Resets leave stale late entries behind; drop them once
            # they dominate.
            late[:] = [
                item for item in late
                if (entry := pending.get(item[1])) is not None
                and entry[2] == item[0]
            ]
            heapq.heapify(late)
        threshold = now - self.params.stable_window_s
        if threshold < self._due_floor and not (
            late and late[0][0] <= threshold
        ):
            return
        due = []
        floor = self._newest
        for packed, entry in pending.items():
            if entry[2] > threshold:
                floor = entry[2]
                break
            due.append(packed)
        self._due_floor = floor
        for packed in due:
            self._promote(packed, pending.pop(packed))
        while late and late[0][0] <= threshold:
            since, packed = heapq.heappop(late)
            entry = pending.get(packed)
            if entry is not None and entry[2] == since:
                del pending[packed]
                self._promote(packed, entry)

    def _promote(self, packed: int, entry: tuple) -> None:
        """Move a candidate, already out of ``_pending``, into the baseline."""
        key_idx = packed >> _POP_SHIFT
        pop_idx = packed & _POP_MASK
        self._pend_mask[key_idx] &= ~(1 << pop_idx)
        self._install(pop_idx, key_idx, entry)

    # ------------------------------------------------------------------
    # Watched paths of open outages (ownership-agnostic)
    # ------------------------------------------------------------------
    def watch(self, pop: PoP, keys) -> None:
        """Open one more watch on each ``(pop, key)``.

        Rows that arrive from now on for a watched pair are reported
        (:meth:`report`); rows deferred before the call fold first, so
        they never are.
        """
        if self._events:
            self._flush_events()
        watched = self._watched
        track_mask = self._track_mask
        bit = 1 << self._intern_pop(pop)
        for key in keys:
            count = watched.get((pop, key), 0)
            watched[pop, key] = count + 1
            if not count:
                track_mask[self._intern_key(key)] |= bit

    def unwatch(self, pop: PoP, keys) -> None:
        """Release one watch on each ``(pop, key)``; the last release
        stops its reports.  Rows deferred before the call fold first."""
        if self._events:
            self._flush_events()
        watched = self._watched
        clear = ~(1 << self._pop_ids[pop])
        for key in keys:
            count = watched.pop((pop, key)) - 1
            if count:
                watched[pop, key] = count
            else:
                self._track_mask[self._key_ids[key]] &= clear

    def report(self) -> dict[tuple[PoP, PathKey], bool]:
        """Take the report: for each watched ``(pop, key)`` that had a
        row since the last call, whether its latest row tags ``pop``
        (a withdrawal tags nothing; a gapped peer's rows are not
        admitted).  Deferred rows fold first."""
        if self._events:
            self._flush_events()
        report = self._report
        self._report = {}
        return report

    # ------------------------------------------------------------------
    # Queries used by investigation / Kepler
    # ------------------------------------------------------------------
    def _entries(self, pop: PoP) -> dict[int, tuple]:
        """The baseline entries of ``pop`` by key id (empty if none)."""
        return self._base.get(self._pop_ids.get(pop), {})

    def baseline_links(self, pop: PoP) -> set[tuple[int | None, int | None]]:
        return {(near, far) for near, far, _ in self._entries(pop).values()}

    def baseline_far_ases(self, pop: PoP) -> set[int]:
        return {
            far for _, far, _ in self._entries(pop).values() if far is not None
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
        promotion queue are rebuilt by :meth:`load_state` (promotion
        order is re-derived as (since, pop, key), which is
        output-equivalent — installs into different PoPs commute, and
        per-PoP baseline reads are key- or aggregate-based).  Watches
        and the report are not stored: their owner, the record stage,
        takes the report before it serialises and re-opens its watches
        on load.
        """
        from repro.core.serde import key_to_json, pop_to_json

        if self._events:
            self._flush_events()
        keys = self._keys
        pops = self._pops
        baseline = [
            [
                pop_to_json(pops[pop_idx]),
                [
                    [key_to_json(keys[k]), list(entries[k])]
                    for k in sorted(entries, key=keys.__getitem__)
                ],
            ]
            for pop_idx, entries in self._base.items()
        ]
        pending = [
            [
                pop_to_json(pops[packed & _POP_MASK]),
                key_to_json(keys[packed >> _POP_SHIFT]),
                list(entry),
            ]
            for packed, entry in self._pending.items()
        ]
        diverted = [
            [pop_to_json(pops[pop_idx]), sorted(key_to_json(keys[k]) for k in ids)]
            for pop_idx, ids in self._diverted.items()
        ]
        baseline.sort(key=lambda item: item[0])
        pending.sort(key=lambda item: (item[0], item[1]))
        diverted.sort(key=lambda item: item[0])
        return {
            "baseline": baseline,
            "pending": pending,
            "gapped": sorted([c, p] for c, p in self._gapped),
            "diverted": diverted,
            "bin_start": self._bin_start,
            "bins_processed": self.bins_processed,
        }

    def load_state(self, state: dict) -> None:
        """Restore a canonical document written by any share layout.

        Baseline, pending and divergence entries of PoPs this monitor
        does not own are skipped — a share takes only its part of a
        full document.  Watches start empty.
        """
        from repro.core.serde import key_from_json, pop_from_json

        self._events.clear()
        self._reset()
        self._gapped = frozenset((c, p) for c, p in state["gapped"])
        for pop_json, entries in state["baseline"]:
            pop = pop_from_json(pop_json)
            if not self.owns(pop):
                continue
            pop_idx = self._intern_pop(pop)
            for key_json, (near, far, since) in entries:
                key_idx = self._intern_key(key_from_json(key_json))
                self._install(pop_idx, key_idx, (near, far, since))
        # Pending entries enter the queue in (since, pop, key) order:
        # the document is sorted by (pop, key) and the sort is stable.
        # Deterministic, and output-equivalent to the live arrival
        # order (promotions of distinct (pop, key) pairs commute).
        for pop_json, key_json, (near, far, since) in sorted(
            state["pending"], key=lambda row: row[2][2]
        ):
            pop = pop_from_json(pop_json)
            if not self.owns(pop):
                continue
            key_idx = self._intern_key(key_from_json(key_json))
            pop_idx = self._intern_pop(pop)
            self._pending[key_idx << _POP_SHIFT | pop_idx] = (near, far, since)
            self._pend_mask[key_idx] |= 1 << pop_idx
            self._newest = since
        for pop_json, keys in state["diverted"]:
            pop = pop_from_json(pop_json)
            if self.owns(pop):
                self._diverted[self._intern_pop(pop)] = {
                    self._intern_key(key_from_json(k)) for k in keys
                }
        self._bin_start = state["bin_start"]
        self.bins_processed = state["bins_processed"]


def merge_monitor_states(fragments: list[dict]) -> dict:
    """Compose monitor-share documents into the full document.

    Each fragment is the :meth:`OutageMonitor.state_dict` of one share
    (``share=(w, n)``) of one logical monitor, over disjoint PoP
    subsets.  List sections concatenate and re-sort under the
    canonical keys; the clock fields must agree — the shares advance bins in lockstep
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
    for section in ("baseline", "pending", "diverted"):
        rows = [row for fragment in fragments for row in fragment[section]]
        sort_key = (
            (lambda item: (item[0], item[1]))
            if section == "pending"
            else (lambda item: item[0])
        )
        rows.sort(key=sort_key)
        merged[section] = rows
    return merged

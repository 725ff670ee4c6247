"""JSON serialisation of Kepler's core value types, and the IPC codec.

Checkpointing a mid-stream detector (see
:meth:`repro.core.kepler.Kepler.snapshot`) serialises every stage's
state to a versioned JSON document.  The encoders here are the shared
vocabulary of that format: each core value type gets a compact,
order-preserving JSON shape, and each decoder rebuilds an object that
compares equal to the original — set-valued fields restore to equal
sets, tuples to tuples — so a restored detector continues the stream
byte-identically.

The stream half of the vocabulary is also the inter-process codec.  It
carries exactly what ingest admits
(:class:`~repro.pipeline.ingest.IngestStage`): ``BGPUpdate``,
``BGPStateMessage`` and ``PrimingUpdate``, and every byte that crosses
a process boundary is produced behind that gate.  Transport is
*columnar*: :func:`encode_batch` turns a chunk into a struct-of-arrays
batch ``(kinds, u_rows, s_rows, path_tab, comm_tab)`` — parallel field
columns per element family plus per-batch AS-path / community tables —
and :func:`decode_batch` rebuilds the elements with one table decode
per distinct value instead of one per element.  Anything outside the
vocabulary fails closed: a ``TypeError`` naming the type on encode, a
``ValueError`` on an unknown kind code on decode.

:func:`tag_wire_batch` runs the tagging stage *on the batch itself*:
the community→PoP derivation becomes a bulk pass over the id columns
(the input module's memo is keyed on these table tuples), so
repeated attribute pairs inside a batch cost one dict probe and never
materialise an intermediate ``BGPUpdate``.

Tagging ends the wire encoding.  Both taggers (:func:`tag_wire_batch`
over a columnar batch, :func:`tag_elements_to_wire` over stream
objects) build one :class:`TaggedBatch`, which the monitor reads
through :func:`tagged_view` in the process that tagged it.  It is
never marshalled.

Conventions:

* a :class:`~repro.docmine.dictionary.PoP` is ``[kind, pop_id]``;
* a :data:`~repro.core.input.PathKey` is ``[collector, peer, prefix]``;
* sets are stored as sorted lists (stable diffs, deterministic output);
* ``None`` stays ``null``.
"""

from __future__ import annotations

import re
from typing import Any

from repro.bgp.communities import (
    communities_from_flat,
    community_intern_stats,
)
from repro.bgp.messages import (
    BGPStateMessage,
    BGPUpdate,
    ElemType,
    SessionState,
)
from repro.bgp.sanitize import collapse_runs
from repro.core.dataplane import ValidationOutcome
from repro.core.events import OutageRecord, OutageSignal, SignalType
from repro.core.input import (
    COLLAPSE_KEY_HOPS,
    WITHDRAWN,
    PathKey,
)
from repro.core.signals import SignalClassification
from repro.docmine.dictionary import PoP, PoPKind


# ----------------------------------------------------------------------
# Atoms
# ----------------------------------------------------------------------
def pop_to_json(pop: PoP) -> list[str]:
    return [pop.kind.value, pop.pop_id]


def pop_from_json(data: list[str]) -> PoP:
    kind, pop_id = data
    return PoP(kind=PoPKind(kind), pop_id=pop_id)


def key_to_json(key: PathKey) -> list[Any]:
    return list(key)


def key_from_json(data: list[Any]) -> PathKey:
    collector, peer_asn, prefix = data
    return (collector, peer_asn, prefix)


def link_to_json(link: tuple[int | None, int | None]) -> list[int | None]:
    return [link[0], link[1]]


def link_from_json(data: list[int | None]) -> tuple[int | None, int | None]:
    return (data[0], data[1])


def links_to_json(
    links: "set[tuple[int | None, int | None]] | frozenset",
) -> list[list[int | None]]:
    return [link_to_json(link) for link in sorted(links, key=_link_sort)]


def _link_sort(link: tuple[int | None, int | None]) -> tuple:
    return (link[0] is None, link[0] or 0, link[1] is None, link[1] or 0)


# ----------------------------------------------------------------------
# Signals and classifications
# ----------------------------------------------------------------------
def signal_to_json(signal: OutageSignal) -> dict[str, Any]:
    return {
        "pop": pop_to_json(signal.pop),
        "near_asn": signal.near_asn,
        "bin_start": signal.bin_start,
        "bin_end": signal.bin_end,
        "diverted_paths": signal.diverted_paths,
        "baseline_paths": signal.baseline_paths,
        "links": links_to_json(signal.links),
        "keys": [key_to_json(k) for k in signal.keys],
    }


def signal_from_json(data: dict[str, Any]) -> OutageSignal:
    return OutageSignal(
        pop=pop_from_json(data["pop"]),
        near_asn=data["near_asn"],
        bin_start=data["bin_start"],
        bin_end=data["bin_end"],
        diverted_paths=data["diverted_paths"],
        baseline_paths=data["baseline_paths"],
        links=frozenset(link_from_json(lk) for lk in data["links"]),
        keys=tuple(key_from_json(k) for k in data["keys"]),
    )


def classification_to_json(c: SignalClassification) -> dict[str, Any]:
    return {
        "pop": pop_to_json(c.pop),
        "signal_type": c.signal_type.value,
        "bin_start": c.bin_start,
        "bin_end": c.bin_end,
        "near_ases": sorted(c.near_ases),
        "far_ases": sorted(c.far_ases),
        "links": links_to_json(c.links),
        "signals": [signal_to_json(s) for s in c.signals],
        "common_asn": c.common_asn,
        "common_org": c.common_org,
    }


def classification_from_json(data: dict[str, Any]) -> SignalClassification:
    return SignalClassification(
        pop=pop_from_json(data["pop"]),
        signal_type=SignalType(data["signal_type"]),
        bin_start=data["bin_start"],
        bin_end=data["bin_end"],
        near_ases=set(data["near_ases"]),
        far_ases=set(data["far_ases"]),
        links={link_from_json(lk) for lk in data["links"]},
        signals=[signal_from_json(s) for s in data["signals"]],
        common_asn=data["common_asn"],
        common_org=data["common_org"],
    )


# ----------------------------------------------------------------------
# Records and outcomes
# ----------------------------------------------------------------------
def record_to_json(record: OutageRecord) -> dict[str, Any]:
    return {
        "signal_pop": pop_to_json(record.signal_pop),
        "located_pop": pop_to_json(record.located_pop),
        "start": record.start,
        "end": record.end,
        "affected_ases": sorted(record.affected_ases),
        "affected_links": links_to_json(record.affected_links),
        "method": record.method,
        "confirmed_by_dataplane": record.confirmed_by_dataplane,
        "city_scope": record.city_scope,
        "merged_incidents": record.merged_incidents,
        "notes": list(record.notes),
    }


def record_from_json(data: dict[str, Any]) -> OutageRecord:
    return OutageRecord(
        signal_pop=pop_from_json(data["signal_pop"]),
        located_pop=pop_from_json(data["located_pop"]),
        start=data["start"],
        end=data["end"],
        affected_ases=set(data["affected_ases"]),
        affected_links={link_from_json(lk) for lk in data["affected_links"]},
        method=data["method"],
        confirmed_by_dataplane=data["confirmed_by_dataplane"],
        city_scope=data["city_scope"],
        merged_incidents=data["merged_incidents"],
        notes=list(data["notes"]),
    )


def outcome_to_json(outcome: ValidationOutcome) -> str:
    return outcome.value


def outcome_from_json(data: str) -> ValidationOutcome:
    return ValidationOutcome(data)


# ----------------------------------------------------------------------
# Stream elements (the inter-process transport vocabulary)
# ----------------------------------------------------------------------
_ELEM_TYPES = {e.value: e for e in ElemType}
_SESSION_STATES = {s.value: s for s in SessionState}
# Enum member -> value dictionaries: attribute access on an enum member
# goes through a descriptor (~10x a dict hit) and the encoders below
# run per element on the multiprocess transport path.
_ELEM_VALUE = {e: e.value for e in ElemType}
_W_VALUE = ElemType.WITHDRAWAL.value
_SESSION_VALUE = {s: s.value for s in SessionState}

# The stream decoders below are on the multiprocess runtime's per-
# element hot path, so they rebuild the frozen dataclasses through
# ``object.__new__`` and a direct field fill — skipping the generated
# ``__init__``'s per-field ``object.__setattr__`` calls and the
# ``__post_init__`` validation, which already ran when the encoded
# object was built.  ``BGPUpdate``/``BGPStateMessage`` are slotted (no
# ``__dict__``), so their fills go through the slot member descriptors,
# cached here once; a descriptor ``__set__`` bypasses the frozen
# ``__setattr__``.  Communities are interned in
# :mod:`repro.bgp.communities`, where the input module can reach the
# table without importing this one.


def _slot_setters(cls, names: tuple[str, ...]) -> tuple:
    return tuple(cls.__dict__[name].__set__ for name in names)


(
    _SET_U_TIME,
    _SET_U_COLL,
    _SET_U_PEER,
    _SET_U_PFX,
    _SET_U_ELEM,
    _SET_U_PATH,
    _SET_U_COMM,
    _SET_U_AFI,
) = _slot_setters(
    BGPUpdate,
    (
        "time",
        "collector",
        "peer_asn",
        "prefix",
        "elem_type",
        "as_path",
        "communities",
        "afi",
    ),
)
(
    _SET_S_TIME,
    _SET_S_COLL,
    _SET_S_PEER,
    _SET_S_OLD,
    _SET_S_NEW,
) = _slot_setters(
    BGPStateMessage,
    ("time", "collector", "peer_asn", "old_state", "new_state"),
)


def intern_stats() -> dict[str, dict[str, int]]:
    """Size/cap/eviction counters of the community intern table.

    The update decoders rebuild ``Community`` objects through it; the
    numbers feed the ``intern_community_*`` metrics gauges so operators
    can see churn (a high eviction count means the vocabulary exceeds
    the cap).
    """
    return {"community": community_intern_stats()}


def state_message_from_json(data: list[Any]) -> BGPStateMessage:
    message = object.__new__(BGPStateMessage)
    time_, coll, peer, old, new = data
    _SET_S_TIME(message, time_)
    _SET_S_COLL(message, coll)
    _SET_S_PEER(message, peer)
    _SET_S_OLD(message, _SESSION_STATES[old])
    _SET_S_NEW(message, _SESSION_STATES[new])
    return message


# ----------------------------------------------------------------------
# Admission vocabulary: what the encoders accept
# ----------------------------------------------------------------------
# ``PrimingUpdate`` lives in repro.pipeline.events, whose package
# imports this module — resolved lazily once, then cached.
_PRIMING_UPDATE = None


def _priming_cls():
    global _PRIMING_UPDATE
    if _PRIMING_UPDATE is None:
        from repro.pipeline.events import PrimingUpdate

        _PRIMING_UPDATE = PrimingUpdate
    return _PRIMING_UPDATE


def _not_admitted(element: Any) -> TypeError:
    return TypeError(
        f"{type(element).__name__} is not in the wire vocabulary: ingest"
        " admits BGPUpdate, BGPStateMessage and PrimingUpdate only"
    )


# ----------------------------------------------------------------------
# Columnar batches: struct-of-arrays bulk transport
# ----------------------------------------------------------------------
# A raw batch is one tuple of parallel columns instead of a list of
# per-element envelopes:
#
#   (kinds, u_rows, s_rows, path_tab, comm_tab)
#
# ``kinds`` is a bytes string of per-element kind codes preserving slot
# order across the families.  ``u_rows``/``s_rows`` are tuples of
# parallel field columns for the update (stream and priming) and
# state-message families; AS paths and flattened community ints are
# stored once each in the per-batch tables and referenced by column
# index.  Everything marshals natively.  The two tagged kinds exist only
# in a process-local :class:`TaggedBatch`.
_K_UPDATE = 0
_K_PRIMING = 1
_K_STATE = 2
_K_TAGGED = 3
_K_PRIMED = 4
#: The kind codes of a raw batch (``bytes.translate`` deletes them, so
#: whatever survives is a stray).
_RAW_KINDS = bytes((_K_UPDATE, _K_PRIMING, _K_STATE))


def _check_raw_kinds(kinds: bytes) -> None:
    stray = kinds.translate(None, _RAW_KINDS)
    if stray:
        raise ValueError(f"unknown batch kind code {stray[0]}")


def encode_batch(elements: list) -> tuple:
    """Encode a chunk of admitted stream elements as one columnar batch.

    Table dedup is id-first: streams repeat the same path/community
    tuples constantly (often literally the same objects, via the
    tagging memo or the community intern), so the common probe is one
    ``id()`` dict hit with a value-keyed dict behind it for equal-but-
    distinct objects.  Raises ``TypeError`` naming any element type
    ingest does not admit; subclasses of the admitted types encode.
    """
    priming_update = _priming_cls()
    kinds = bytearray()
    append_kind = kinds.append
    u_time: list = []
    u_coll: list = []
    u_peer: list = []
    u_pfx: list = []
    u_elem: list = []
    u_path: list = []
    u_comm: list = []
    u_afi: list = []
    s_time: list = []
    s_coll: list = []
    s_peer: list = []
    s_old: list = []
    s_new: list = []
    path_tab: list = []
    comm_tab: list = []
    path_ids: dict = {}
    path_vals: dict = {}
    comm_ids: dict = {}
    comm_vals: dict = {}
    elem_value = _ELEM_VALUE
    session_value = _SESSION_VALUE

    def path_index(path) -> int:
        index = path_ids.get(id(path))
        if index is None:
            index = path_vals.get(path)
            if index is None:
                index = len(path_tab)
                path_tab.append(path)
                path_vals[path] = index
            path_ids[id(path)] = index
        return index

    def comm_index(communities) -> int:
        index = comm_ids.get(id(communities))
        if index is None:
            flat: list[int] = []
            for community in communities:
                flat.append(community.asn)
                flat.append(community.value)
            key = tuple(flat)
            index = comm_vals.get(key)
            if index is None:
                index = len(comm_tab)
                comm_tab.append(key)
                comm_vals[key] = index
            comm_ids[id(communities)] = index
        return index

    def add_update(update, kind: int) -> None:
        append_kind(kind)
        u_time.append(update.time)
        u_coll.append(update.collector)
        u_peer.append(update.peer_asn)
        u_pfx.append(update.prefix)
        u_elem.append(elem_value[update.elem_type])
        u_path.append(path_index(update.as_path))
        u_comm.append(comm_index(update.communities))
        u_afi.append(update.afi)

    def add_state(message) -> None:
        append_kind(_K_STATE)
        s_time.append(message.time)
        s_coll.append(message.collector)
        s_peer.append(message.peer_asn)
        s_old.append(session_value[message.old_state])
        s_new.append(session_value[message.new_state])

    for element in elements:
        cls = type(element)
        if cls is BGPUpdate:
            add_update(element, _K_UPDATE)
        elif cls is priming_update:
            add_update(element.update, _K_PRIMING)
        elif cls is BGPStateMessage:
            add_state(element)
        elif isinstance(element, BGPUpdate):
            add_update(element, _K_UPDATE)
        elif isinstance(element, BGPStateMessage):
            add_state(element)
        elif isinstance(element, priming_update):
            add_update(element.update, _K_PRIMING)
        else:
            raise _not_admitted(element)

    return (
        bytes(kinds),
        (u_time, u_coll, u_peer, u_pfx, u_elem, u_path, u_comm, u_afi),
        (s_time, s_coll, s_peer, s_old, s_new),
        path_tab,
        comm_tab,
    )


def decode_batch(batch: tuple) -> list:
    """Decode a columnar batch back to its element list, in slot order.

    Tables decode once up front — each distinct path once, community
    flats through the community intern — so equal attributes within
    one batch decode to one shared object; then each row is a straight
    field fill from its family's zipped columns.  Raises ``ValueError``
    on an unknown kind code before decoding anything.
    """
    priming_update = _priming_cls()
    kinds, u_rows, s_rows, path_tab, comm_tab = batch
    _check_raw_kinds(kinds)
    paths = [tuple(p) for p in path_tab]
    comms = [communities_from_flat(tuple(f)) for f in comm_tab]
    u_iter = zip(*u_rows)
    s_iter = zip(*s_rows)
    elem_types = _ELEM_TYPES
    session_states = _SESSION_STATES
    new = object.__new__
    update_cls = BGPUpdate
    state_cls = BGPStateMessage
    set_u_time, set_u_coll, set_u_peer, set_u_pfx = (
        _SET_U_TIME, _SET_U_COLL, _SET_U_PEER, _SET_U_PFX,
    )
    set_u_elem, set_u_path, set_u_comm, set_u_afi = (
        _SET_U_ELEM, _SET_U_PATH, _SET_U_COMM, _SET_U_AFI,
    )
    set_s_time, set_s_coll, set_s_peer, set_s_old, set_s_new = (
        _SET_S_TIME, _SET_S_COLL, _SET_S_PEER, _SET_S_OLD, _SET_S_NEW,
    )
    out: list = []
    append = out.append
    for kind in kinds:
        if kind <= _K_PRIMING:  # _K_UPDATE or _K_PRIMING
            time_, coll, peer, pfx, elem, pi, ci, afi = next(u_iter)
            update = new(update_cls)
            set_u_time(update, time_)
            set_u_coll(update, coll)
            set_u_peer(update, peer)
            set_u_pfx(update, pfx)
            set_u_elem(update, elem_types[elem])
            set_u_path(update, paths[pi])
            set_u_comm(update, comms[ci])
            set_u_afi(update, afi)
            append(
                update
                if kind == _K_UPDATE
                else priming_update(update=update)
            )
        else:  # _K_STATE
            time_, coll, peer, old, new_state = next(s_iter)
            message = new(state_cls)
            set_s_time(message, time_)
            set_s_coll(message, coll)
            set_s_peer(message, peer)
            set_s_old(message, session_states[old])
            set_s_new(message, session_states[new_state])
            append(message)
    return out


# ----------------------------------------------------------------------
# The tagged batch: tagger to monitor, in one process
# ----------------------------------------------------------------------
_PAIR_MISS = object()
#: A maximal run of one kind code in ``TaggedBatch.kinds``.
_SAME_KIND_RUN = re.compile(rb"(.)\1*", re.DOTALL)


class TaggedBatch:
    """One in-process tagged batch: what a tagger hands the monitor.

    Both taggers build one row by row.  Tagged rows (``_K_TAGGED``,
    ``_K_PRIMED``) are parallel columns — key tuples, times,
    ``ElemType`` members, afis — plus ``t_pair``: the tagging memo's own
    ``(clean path, tags)`` result object, shared across rows and
    batches for a repeated ``(path, communities)`` pair; every
    withdrawal row holds the one empty pair ``((), ())``.  The monitor
    keys its derived columns on the identity of the pair's tags, which
    the tagger interns.  State rows
    (``_K_STATE``) hold the ``BGPStateMessage`` itself.  The batch never
    leaves the process that tagged it, so nothing in it needs to be
    marshal-safe.

    :func:`tagged_view` groups the rows into maximal same-kind *runs*
    so the monitor's fold and its priming lane sweep whole column
    spans; no row is ever materialised as an object.
    """

    __slots__ = (
        "kinds", "t_key", "t_time", "t_elem", "t_pair", "t_afi", "states",
        "runs", "_run_pos",
    )

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.t_key: list = []
        self.t_time: list = []
        self.t_elem: list = []
        self.t_pair: list = []
        self.t_afi: list = []
        self.states: list = []
        #: ``(kind, slot_start, slot_stop, fam_start)`` runs, built by
        #: :func:`tagged_view`.
        self.runs: list = []
        self._run_pos = 0

    def __len__(self) -> int:
        return len(self.kinds)

    def add_tagged(self, kind: int, key, time_, elem, path, tags, afi) -> None:
        self.kinds.append(kind)
        self.t_key.append(key)
        self.t_time.append(time_)
        self.t_elem.append(elem)
        self.t_pair.append((path, tags))
        self.t_afi.append(afi)

    def add_state(self, message: BGPStateMessage) -> None:
        self.kinds.append(_K_STATE)
        self.states.append(message)

    def run_at(self, slot: int) -> tuple:
        """The ``(kind, slot_start, slot_stop, fam_start)`` run of a slot.

        Consumers resume monotonically (the barrier protocol hands the
        next slot back), so a forward cursor makes this amortised O(1);
        a backward seek rewinds to a full scan.
        """
        runs = self.runs
        pos = self._run_pos
        if runs[pos][1] > slot:
            pos = 0
        while runs[pos][2] <= slot:
            pos += 1
        self._run_pos = pos
        return runs[pos]


def tag_wire_batch(input_module, batch: tuple) -> TaggedBatch:
    """Run the tagging stage over a columnar batch, column to column.

    The equivalent of decode → :func:`tag_elements_to_wire`, with the
    intermediate objects elided: update rows never
    materialise a ``BGPUpdate``, and the community→PoP derivation is
    driven entirely by the batch's ``(path_idx, comm_idx)`` columns.
    A per-batch pair cache maps each distinct id pair to its memo
    result (or ``None``, a discard), so the first occurrence pays one
    memo probe against ``input_module`` — the same two-generation memo
    the object tagger uses, keyed on the very tuples sitting in the
    tables (a long path on its run collapse, by the same rule) — and
    every repeat is one dict hit.  Counters fold into the module's
    totals exactly as the object tagger counts them (the pair cache is
    dropped when the memo rotates mid-batch).

    Priming rows tag into ``_K_PRIMED`` rows (withdrawn and tagless ones
    end here) and state rows pass through.
    Raises ``ValueError`` on an unknown kind code before any counter or
    memo entry moves.
    """
    kinds, u_rows, s_rows, path_tab, comm_tab = batch
    _check_raw_kinds(kinds)
    u_iter = zip(*u_rows)
    s_iter = zip(*s_rows)
    out = TaggedBatch()
    append_kind = out.kinds.append
    t_key_append = out.t_key.append
    t_time_append = out.t_time.append
    t_elem_append = out.t_elem.append
    t_pair_append = out.t_pair.append
    t_afi_append = out.t_afi.append
    add_state = out.add_state
    elem_types = _ELEM_TYPES
    withdrawal_value = _W_VALUE
    withdrawal = ElemType.WITHDRAWAL
    withdrawn = WITHDRAWN
    pair_cache: dict = {}
    pair_get = pair_cache.get
    pair_miss = _PAIR_MISS
    memo_get = input_module.memo_probe
    memo_miss = input_module.memo_miss
    long_path = COLLAPSE_KEY_HOPS
    rotations = input_module.memo_rotations
    parsed = 0
    hits = 0
    discarded = 0
    for kind in kinds:
        if kind == _K_STATE:
            add_state(state_message_from_json(next(s_iter)))
            continue
        time_, coll, peer, pfx, elem, pi, ci, afi = next(u_iter)
        if elem == withdrawal_value:
            parsed += 1
            if kind == _K_PRIMING:
                continue  # untaggable: cannot seed a baseline
            append_kind(_K_TAGGED)
            t_key_append((coll, peer, pfx))
            t_time_append(time_)
            t_elem_append(withdrawal)
            t_pair_append(withdrawn)
            t_afi_append(afi)
            continue
        pair = pair_get((pi, ci), pair_miss)
        if pair is not pair_miss:
            hits += 1
        else:
            path = path_tab[pi]
            if len(path) > long_path:
                path = collapse_runs(path)
            memo_key = (path, comm_tab[ci])
            pair = memo_get(memo_key, pair_miss)
            if pair is not pair_miss:
                hits += 1
            else:
                pair = memo_miss(memo_key, len(path_tab[pi]) > long_path)
                if input_module.memo_rotations != rotations:
                    # Cached pairs aged into the old generation, where
                    # the object tagger would promote them on their
                    # next use: send them back to the memo.
                    rotations = input_module.memo_rotations
                    pair_cache.clear()
            pair_cache[(pi, ci)] = pair
        if pair is None:
            discarded += 1
            continue
        parsed += 1
        if kind == _K_PRIMING and not pair[1]:
            continue  # tagless priming path: no baseline to seed
        append_kind(_K_TAGGED if kind == _K_UPDATE else _K_PRIMED)
        t_key_append((coll, peer, pfx))
        t_time_append(time_)
        t_elem_append(elem_types[elem])
        t_pair_append(pair)
        t_afi_append(afi)
    input_module.parsed_count += parsed
    input_module.memo_hits += hits
    input_module.discarded_count += discarded
    return out


def tag_elements_to_wire(input_module, elements) -> TaggedBatch:
    """Tag a chunk of admitted stream *objects* into a :class:`TaggedBatch`.

    One pass over the elements that probes the tagging memo per
    ``(as_path, communities)`` pair and appends the memo result itself
    as the row's pair — no tagged row is ever an object.  An update the
    sanitiser discards ends here and counts as discarded; every other
    update, withdrawals included, counts as parsed.  A
    ``PrimingUpdate`` takes the update arm into a ``_K_PRIMED`` row
    (withdrawn and tagless ones end here: they cannot seed a baseline),
    and state messages pass through.
    Raises ``TypeError`` naming any element type ingest does not admit.
    """
    out = TaggedBatch()
    append_kind = out.kinds.append
    t_key_append = out.t_key.append
    t_time_append = out.t_time.append
    t_elem_append = out.t_elem.append
    t_pair_append = out.t_pair.append
    t_afi_append = out.t_afi.append
    add_state = out.add_state
    update_cls = BGPUpdate
    state_cls = BGPStateMessage
    priming_cls = _priming_cls()
    tagged_kind = _K_TAGGED
    primed_kind = _K_PRIMED
    withdrawal = ElemType.WITHDRAWAL
    withdrawn = WITHDRAWN
    memo_get = input_module.memo_probe
    memo_miss = input_module.memo_miss
    long_path = COLLAPSE_KEY_HOPS
    miss = _PAIR_MISS
    parsed = 0
    hits = 0
    discarded = 0
    for element in elements:
        kind = tagged_kind
        if type(element) is not update_cls:
            if isinstance(element, priming_cls):
                kind = primed_kind
                element = element.update
            elif isinstance(element, state_cls):
                add_state(element)
                continue
            elif not isinstance(element, update_cls):
                raise _not_admitted(element)
        elem_type = element.elem_type
        if elem_type is withdrawal:
            parsed += 1
            if kind == primed_kind:
                continue  # untaggable: cannot seed a baseline
            append_kind(kind)
            t_key_append(
                (element.collector, element.peer_asn, element.prefix)
            )
            t_time_append(element.time)
            t_elem_append(elem_type)
            t_pair_append(withdrawn)
            t_afi_append(element.afi)
            continue
        communities = element.communities
        if len(communities) == 1:
            community = communities[0]
            flat = (community.asn, community.value)
        else:
            flat = []
            for community in communities:
                flat.append(community.asn)
                flat.append(community.value)
            flat = tuple(flat)
        path = element.as_path
        if len(path) > long_path:
            path = collapse_runs(path)
        memo_key = (path, flat)
        pair = memo_get(memo_key, miss)
        if pair is not miss:
            hits += 1
        else:
            pair = memo_miss(memo_key, len(element.as_path) > long_path)
        if pair is None:
            discarded += 1
            continue
        parsed += 1
        if kind == primed_kind and not pair[1]:
            continue  # tagless priming path: no baseline to seed
        append_kind(kind)
        t_key_append(
            (element.collector, element.peer_asn, element.prefix)
        )
        t_time_append(element.time)
        t_elem_append(elem_type)
        t_pair_append(pair)
        t_afi_append(element.afi)
    input_module.parsed_count += parsed
    input_module.memo_hits += hits
    input_module.discarded_count += discarded
    return out


def tagged_view(batch: TaggedBatch) -> TaggedBatch:
    """Group a :class:`TaggedBatch`'s rows into runs for the monitor.

    Returns the batch itself with ``runs`` built (one C-speed regex
    sweep over ``kinds``).  Fails closed with ``ValueError`` on anything
    that is not a tagged batch — above all a raw columnar batch, whose
    update rows were never tagged.
    """
    if type(batch) is not TaggedBatch:
        raise ValueError(
            f"untagged batch ({type(batch).__name__}): tag it with"
            " tag_elements_to_wire or tag_wire_batch before the monitor"
        )
    kinds = batch.kinds
    runs: list = []
    t_at = s_at = 0
    for match in _SAME_KIND_RUN.finditer(kinds):
        i, j = match.span()
        kind = kinds[i]
        if kind == _K_STATE:
            fam = s_at
            s_at += j - i
        else:
            fam = t_at
            t_at += j - i
        runs.append((kind, i, j, fam))
    batch.runs = runs
    batch._run_pos = 0
    return batch

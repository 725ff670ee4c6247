"""JSON serialisation of Kepler's core value types.

Checkpointing a mid-stream detector (see
:meth:`repro.core.kepler.Kepler.snapshot`) serialises every stage's
state to a versioned JSON document.  The encoders here are the shared
vocabulary of that format: each core value type gets a compact,
order-preserving JSON shape, and each decoder rebuilds an object that
compares equal to the original — set-valued fields restore to equal
sets, tuples to tuples — so a restored detector continues the stream
byte-identically.

The same vocabulary doubles as the inter-process transport of the
multiprocess runtime (:mod:`repro.pipeline.parallel`): every element
type that can travel between pipeline stages — raw BGP elements,
tagged paths, priming envelopes, signal batches, control markers —
has an encoder, and :func:`element_to_wire` / :func:`element_from_wire`
wrap them in a tagged envelope so a queue consumer can dispatch without
guessing.

Bulk transport is *columnar*: :func:`encode_batch` turns a chunk of
stream elements into a struct-of-arrays batch — parallel field columns
per element family plus per-batch interned AS-path / community /
tag-set id tables — and :func:`decode_batch` rebuilds the elements
with one table decode per distinct value instead of one per element.
:func:`tag_wire_batch` runs the tagging stage *on the batch itself*:
the community→PoP derivation becomes a bulk pass over the interned id
columns (the input module's memo is keyed on exactly these id tuples),
so repeated attribute pairs inside a batch cost one dict probe and
never materialise an intermediate ``BGPUpdate``.

Tagging ends the wire encoding.  Both taggers (:func:`tag_wire_batch`
over a columnar batch, :func:`tag_elements_to_wire` over stream
objects) emit one *in-process* tagged batch — key tuples, ``ElemType``
members, a path table and a table of ``PoPTag`` tuples — which the
monitor reads through :func:`tagged_view` in the process that tagged
it.  It is never marshalled.

Conventions:

* a :class:`~repro.docmine.dictionary.PoP` is ``[kind, pop_id]``;
* a :data:`~repro.core.input.PathKey` is ``[collector, peer, prefix]``;
* sets are stored as sorted lists (stable diffs, deterministic output);
* ``None`` stays ``null``.
"""

from __future__ import annotations

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
from repro.core.dataplane import ValidationOutcome
from repro.core.events import OutageRecord, OutageSignal, SignalType
from repro.core.input import PathKey, PoPTag, TaggedPath
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
        "path_as_sets": [sorted(ps) for ps in signal.path_as_sets],
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
        path_as_sets=tuple(
            frozenset(ps) for ps in data["path_as_sets"]
        ),
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
_POPKIND_VALUE = {k: k.value for k in PoPKind}

# The stream decoders below are on the multiprocess runtime's per-
# element hot path (every BGP element crosses two process hops), so
# they rebuild the frozen dataclasses through ``object.__new__`` and a
# direct field fill — skipping the generated ``__init__``'s
# per-field ``object.__setattr__`` calls and the ``__post_init__``
# validation, which already ran when the encoded object was built.
# ``BGPUpdate``/``BGPStateMessage`` are slotted (no ``__dict__``), so
# their fills go through the slot member descriptors, cached here once;
# a descriptor ``__set__`` bypasses the frozen ``__setattr__`` just as
# the old ``__dict__`` store did.  ``TaggedPath`` (dict-based) keeps
# the ``__dict__`` fill.
# Small immutable values (communities, PoPs) are interned: streams
# repeat them constantly, and identical objects also make downstream
# set/dict operations cheaper.  The community table lives next to
# ``Community`` in :mod:`repro.bgp.communities`, where the input module
# can reach it without importing this one.
_INTERN_MAX = 65536
_POP_INTERN: dict[tuple[str, str], PoP] = {}
#: Cumulative entries dropped per intern table when a full table is
#: cleared (cache telemetry, surfaced through ``intern_stats`` and the
#: metrics gauges — never checkpointed, never part of pipeline state).
_INTERN_EVICTIONS = {"pop": 0, "path": 0, "tagset": 0}


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
    """Size/cap/eviction counters for every serde intern table.

    The tables are per-process derived caches; these numbers feed the
    ``serde_interns`` metrics gauge so operators can see churn (a high
    eviction count means the vocabulary exceeds the cap and cross-batch
    object sharing is degrading).
    """
    sizes = {
        "path": len(_PATH_INTERN),
        "pop": len(_POP_INTERN),
        "tagset": len(_TAGSET_INTERN),
    }
    stats = {"community": community_intern_stats()}
    for name, size in sizes.items():
        stats[name] = {
            "size": size,
            "cap": _INTERN_MAX,
            "evictions": _INTERN_EVICTIONS[name],
        }
    return stats


def _intern_pop(kind: str, pop_id: str) -> PoP:
    key = (kind, pop_id)
    pop = _POP_INTERN.get(key)
    if pop is None:
        if len(_POP_INTERN) >= _INTERN_MAX:
            _INTERN_EVICTIONS["pop"] += len(_POP_INTERN)
            _POP_INTERN.clear()
        pop = PoP(kind=PoPKind(kind), pop_id=pop_id)
        _POP_INTERN[key] = pop
    return pop


def update_to_json(update: BGPUpdate) -> list[Any]:
    # Transport notes: the AS path rides as its original tuple and the
    # communities flatten to one (asn, value, asn, value, ...) tuple —
    # marshal serialises tuples natively, so the hot path allocates no
    # per-community lists.  (JSON-dumping this shape still works;
    # tuples become arrays.)
    flat: list[int] = []
    for community in update.communities:
        flat.append(community.asn)
        flat.append(community.value)
    return [
        update.time,
        update.collector,
        update.peer_asn,
        update.prefix,
        _ELEM_VALUE[update.elem_type],
        update.as_path,
        tuple(flat),
        update.afi,
    ]


def update_from_json(data: list[Any]) -> BGPUpdate:
    update = object.__new__(BGPUpdate)
    time_, coll, peer, pfx, elem, path, flat, afi = data
    _SET_U_TIME(update, time_)
    _SET_U_COLL(update, coll)
    _SET_U_PEER(update, peer)
    _SET_U_PFX(update, pfx)
    _SET_U_ELEM(update, _ELEM_TYPES[elem])
    # tuple(t) on an exact tuple returns it unchanged (free); decoding
    # from a JSON list still lands on a proper tuple.
    _SET_U_PATH(update, tuple(path))
    _SET_U_COMM(update, communities_from_flat(flat))
    _SET_U_AFI(update, afi)
    return update


def state_message_to_json(message: BGPStateMessage) -> list[Any]:
    return [
        message.time,
        message.collector,
        message.peer_asn,
        _SESSION_VALUE[message.old_state],
        _SESSION_VALUE[message.new_state],
    ]


def state_message_from_json(data: list[Any]) -> BGPStateMessage:
    message = object.__new__(BGPStateMessage)
    time_, coll, peer, old, new = data
    _SET_S_TIME(message, time_)
    _SET_S_COLL(message, coll)
    _SET_S_PEER(message, peer)
    _SET_S_OLD(message, _SESSION_STATES[old])
    _SET_S_NEW(message, _SESSION_STATES[new])
    return message


def tagged_path_to_json(tagged: TaggedPath) -> list[Any]:
    # Tags flatten to one (kind, pop_id, near, far, ...) tuple, the
    # key and path ride as their original tuples (see update_to_json).
    flat: list[Any] = []
    for tag in tagged.tags:
        flat.append(_POPKIND_VALUE[tag.pop.kind])
        flat.append(tag.pop.pop_id)
        flat.append(tag.near_asn)
        flat.append(tag.far_asn)
    return [
        tagged.key,
        tagged.time,
        _ELEM_VALUE[tagged.elem_type],
        tagged.as_path,
        tuple(flat),
        tagged.afi,
    ]


def tagged_path_from_json(data: list[Any]) -> TaggedPath:
    key, time, elem, path, flat, afi = data
    tagged = object.__new__(TaggedPath)
    fields = tagged.__dict__
    fields["key"] = (key[0], key[1], key[2])
    fields["time"] = time
    fields["elem_type"] = _ELEM_TYPES[elem]
    fields["as_path"] = tuple(path)
    fields["afi"] = afi
    interned = _POP_INTERN.get
    built = []
    for i in range(0, len(flat), 4):
        tag = object.__new__(PoPTag)
        kind, pop_id = flat[i], flat[i + 1]
        tag.__dict__["pop"] = (
            interned((kind, pop_id)) or _intern_pop(kind, pop_id)
        )
        tag.__dict__["near_asn"] = flat[i + 2]
        tag.__dict__["far_asn"] = flat[i + 3]
        built.append(tag)
    fields["tags"] = tuple(built)
    return tagged


def signal_batch_to_json(signals: list[OutageSignal]) -> list[dict]:
    return [signal_to_json(s) for s in signals]


def signal_batch_from_json(data: list[dict]) -> list[OutageSignal]:
    return [signal_from_json(s) for s in data]


def wire_sort_key(wire: list[Any]) -> tuple[float, str, int, str]:
    """Stream sort key of an encoded raw element, without decoding it.

    Mirrors ``BGPUpdate.sort_key`` / ``BGPStateMessage.sort_key`` over
    the wire payload shape, so the ingest tier's merge coordinator can
    order batches published by forked feed workers (which ship encoded
    elements) without paying a decode per element.  Only the raw
    stream vocabulary (``"u"``/``"s"``) carries a stream position.
    """
    tag, payload = wire[0], wire[1]
    if tag == "u":
        return (payload[0], payload[1], payload[2], payload[3])
    if tag == "s":
        return (payload[0], payload[1], payload[2], "")
    raise ValueError(f"wire tag {tag!r} carries no stream sort key")


# ----------------------------------------------------------------------
# Wire envelope: [tag, payload] dispatch for queue transport
# ----------------------------------------------------------------------
# The pipeline event classes live in repro.pipeline.events, which
# imports this module's siblings — resolved lazily once, then cached
# in module globals (the envelope runs per element per process hop).
_EVENTS = None


def _event_types():
    global _EVENTS
    if _EVENTS is None:
        from repro.pipeline import events

        _EVENTS = (
            events.PrimingUpdate,
            events.PrimedPath,
            events.SignalBatch,
            events.BinAdvanced,
        )
    return _EVENTS


def element_to_wire(element: Any) -> list[Any]:
    """Encode one pipeline element as a tagged ``[tag, payload]`` pair.

    Covers the full inter-stage vocabulary of the upstream half of the
    pipeline (raw BGP elements, priming envelopes, tagged paths, signal
    batches, bin markers).  Anything else rides as an opaque ``"py"``
    payload — the multiprocessing queue pickles it like any object, so
    the pass-through stage contract survives process hops.
    """
    priming_update, primed_path, signal_batch, bin_advanced = _event_types()
    if isinstance(element, BGPUpdate):
        return ["u", update_to_json(element)]
    if isinstance(element, BGPStateMessage):
        return ["s", state_message_to_json(element)]
    if isinstance(element, TaggedPath):
        return ["t", tagged_path_to_json(element)]
    if isinstance(element, priming_update):
        return ["pu", update_to_json(element.update)]
    if isinstance(element, primed_path):
        return ["pp", tagged_path_to_json(element.path)]
    if isinstance(element, signal_batch):
        return ["sb", signal_batch_to_json(element.signals)]
    if isinstance(element, bin_advanced):
        return ["ba", element.now]
    return ["py", element]


def element_from_wire(wire: list[Any]) -> Any:
    """Decode a :func:`element_to_wire` envelope back to the element."""
    priming_update, primed_path, signal_batch, bin_advanced = _event_types()
    tag = wire[0]
    if tag == "u":
        return update_from_json(wire[1])
    if tag == "s":
        return state_message_from_json(wire[1])
    if tag == "t":
        return tagged_path_from_json(wire[1])
    if tag == "pu":
        return priming_update(update=update_from_json(wire[1]))
    if tag == "pp":
        return primed_path(path=tagged_path_from_json(wire[1]))
    if tag == "sb":
        return signal_batch(signals=signal_batch_from_json(wire[1]))
    if tag == "ba":
        return bin_advanced(now=wire[1])
    if tag == "py":
        return wire[1]
    raise ValueError(f"unknown wire tag {tag!r}")


# ----------------------------------------------------------------------
# Columnar batches: struct-of-arrays bulk transport
# ----------------------------------------------------------------------
# A batch is one tuple of parallel columns instead of a list of
# per-element envelopes:
#
#   (kinds, u_rows, t_rows, s_rows, path_tab, comm_tab, tag_tab, other)
#
# ``kinds`` is a bytes string of per-element kind codes preserving slot
# order across the families.  ``u_rows``/``t_rows``/``s_rows`` are
# tuples of parallel field columns for the update / tagged-path /
# state-message families; AS paths, flattened community ints and
# flattened tag quads are stored once each in the per-batch id tables
# and referenced by column index.  Everything marshals natively.
#
# Decoding interns table entries in the per-process tables below, so
# identical paths and tag sets decode to the *same* objects across
# batches — downstream ``id()``-keyed caches (the monitor's derived
# tag columns) hit across batch boundaries instead of once per batch.
_K_UPDATE = 0
_K_PRIMING = 1
_K_STATE = 2
_K_TAGGED = 3
_K_PRIMED = 4
_K_OTHER = 5

_PATH_INTERN: dict[tuple[int, ...], tuple[int, ...]] = {}
_TAGSET_INTERN: dict[tuple, tuple[PoPTag, ...]] = {}


def _intern_path(path: tuple[int, ...]) -> tuple[int, ...]:
    hit = _PATH_INTERN.get(path)
    if hit is None:
        if len(_PATH_INTERN) >= _INTERN_MAX:
            _INTERN_EVICTIONS["path"] += len(_PATH_INTERN)
            _PATH_INTERN.clear()
        _PATH_INTERN[path] = hit = path
    return hit


def _tagset_from_flat(flat: tuple) -> tuple[PoPTag, ...]:
    """Rebuild an interned ``PoPTag`` tuple from flat (kind, id, near, far) quads."""
    hit = _TAGSET_INTERN.get(flat)
    if hit is not None:
        return hit
    interned = _POP_INTERN.get
    built = []
    for i in range(0, len(flat), 4):
        tag = object.__new__(PoPTag)
        kind, pop_id = flat[i], flat[i + 1]
        fields = tag.__dict__
        fields["pop"] = interned((kind, pop_id)) or _intern_pop(kind, pop_id)
        fields["near_asn"] = flat[i + 2]
        fields["far_asn"] = flat[i + 3]
        built.append(tag)
    hit = tuple(built)
    if len(_TAGSET_INTERN) >= _INTERN_MAX:
        _INTERN_EVICTIONS["tagset"] += len(_TAGSET_INTERN)
        _TAGSET_INTERN.clear()
    _TAGSET_INTERN[flat] = hit
    return hit


def encode_batch(elements: list) -> tuple:
    """Encode a chunk of stream elements as one columnar batch.

    Table dedup is id-first: streams repeat the same path/community
    tuples constantly (often literally the same objects, via the
    tagging memo or the decode interns), so the common probe is one
    ``id()`` dict hit with a value-keyed dict behind it for equal-but-
    distinct objects.
    """
    priming_update, primed_path, _sb, _ba = _event_types()
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
    t_key: list = []
    t_time: list = []
    t_elem: list = []
    t_path: list = []
    t_tags: list = []
    t_afi: list = []
    s_time: list = []
    s_coll: list = []
    s_peer: list = []
    s_old: list = []
    s_new: list = []
    path_tab: list = []
    comm_tab: list = []
    tag_tab: list = []
    other: list = []
    path_ids: dict = {}
    path_vals: dict = {}
    comm_ids: dict = {}
    comm_vals: dict = {}
    tag_ids: dict = {}
    tag_vals: dict = {}
    elem_value = _ELEM_VALUE
    session_value = _SESSION_VALUE
    kind_value = _POPKIND_VALUE

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

    def tags_index(tags) -> int:
        index = tag_ids.get(id(tags))
        if index is None:
            flat: list = []
            for tag in tags:
                flat.append(kind_value[tag.pop.kind])
                flat.append(tag.pop.pop_id)
                flat.append(tag.near_asn)
                flat.append(tag.far_asn)
            key = tuple(flat)
            index = tag_vals.get(key)
            if index is None:
                index = len(tag_tab)
                tag_tab.append(key)
                tag_vals[key] = index
            tag_ids[id(tags)] = index
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

    def add_tagged(tagged, kind: int) -> None:
        source = tagged.__dict__
        append_kind(kind)
        t_key.append(source["key"])
        t_time.append(source["time"])
        t_elem.append(elem_value[source["elem_type"]])
        t_path.append(path_index(source["as_path"]))
        t_tags.append(tags_index(source["tags"]))
        t_afi.append(source["afi"])

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
        elif cls is TaggedPath:
            add_tagged(element, _K_TAGGED)
        elif cls is primed_path:
            add_tagged(element.path, _K_PRIMED)
        elif isinstance(element, BGPUpdate):
            add_update(element, _K_UPDATE)
        elif isinstance(element, BGPStateMessage):
            add_state(element)
        elif isinstance(element, TaggedPath):
            add_tagged(element, _K_TAGGED)
        elif isinstance(element, priming_update):
            add_update(element.update, _K_PRIMING)
        elif isinstance(element, primed_path):
            add_tagged(element.path, _K_PRIMED)
        else:
            append_kind(_K_OTHER)
            other.append(element_to_wire(element))

    return (
        bytes(kinds),
        (u_time, u_coll, u_peer, u_pfx, u_elem, u_path, u_comm, u_afi),
        (t_key, t_time, t_elem, t_path, t_tags, t_afi),
        (s_time, s_coll, s_peer, s_old, s_new),
        path_tab,
        comm_tab,
        tag_tab,
        other,
    )


def decode_batch(batch: tuple) -> list:
    """Decode a columnar batch back to its element list, in slot order.

    Tables decode once up front — paths through the path intern,
    community flats through the community intern, tag flats through the
    tag-set intern — then each row is a straight field fill from its
    family's zipped columns.
    """
    priming_update, primed_path, _sb, _ba = _event_types()
    kinds, u_rows, t_rows, s_rows, path_tab, comm_tab, tag_tab, other = batch
    paths = [_intern_path(tuple(p)) for p in path_tab]
    comms = [communities_from_flat(tuple(f)) for f in comm_tab]
    tagsets = [_tagset_from_flat(tuple(f)) for f in tag_tab]
    u_iter = zip(*u_rows)
    t_iter = zip(*t_rows)
    s_iter = zip(*s_rows)
    o_iter = iter(other)
    elem_types = _ELEM_TYPES
    session_states = _SESSION_STATES
    new = object.__new__
    update_cls = BGPUpdate
    tagged_cls = TaggedPath
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
        elif kind == _K_TAGGED or kind == _K_PRIMED:
            key, time_, elem, pi, ti, afi = next(t_iter)
            tagged = new(tagged_cls)
            fields = tagged.__dict__
            fields["key"] = (key[0], key[1], key[2])
            fields["time"] = time_
            fields["elem_type"] = elem_types[elem]
            fields["as_path"] = paths[pi]
            fields["tags"] = tagsets[ti]
            fields["afi"] = afi
            append(
                tagged if kind == _K_TAGGED else primed_path(path=tagged)
            )
        elif kind == _K_STATE:
            time_, coll, peer, old, new_state = next(s_iter)
            message = new(state_cls)
            set_s_time(message, time_)
            set_s_coll(message, coll)
            set_s_peer(message, peer)
            set_s_old(message, session_states[old])
            set_s_new(message, session_states[new_state])
            append(message)
        else:
            append(element_from_wire(next(o_iter)))
    return out


_PAIR_MISS = object()


class _TaggedOut:
    """Output columns of one in-process tagged batch (see
    :func:`tagged_view`).  Table slot 0 of both tables is the empty
    path / tag set that withdrawals point at."""

    __slots__ = (
        "kinds", "t_key", "t_time", "t_elem", "t_path", "t_tags", "t_afi",
        "s_rows", "paths", "tagsets", "other", "pair_ids", "keepalive",
    )

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.t_key: list = []
        self.t_time: list = []
        self.t_elem: list = []
        self.t_path: list = []
        self.t_tags: list = []
        self.t_afi: list = []
        self.s_rows: tuple = ([], [], [], [], [])
        self.paths: list = [()]
        self.tagsets: list = [()]
        self.other: list = []
        #: id(memo result) -> (path slot, tag-set slot).  The memo hands
        #: back the same (path, tags) pair object for repeated lookups,
        #: so repeats resolve both slots with one probe; new pairs
        #: append without value dedup (hashing tag-set tuples is pure
        #: overhead for a batch that never leaves the process).
        self.pair_ids: dict = {}
        #: memo results registered by id() stay alive for the batch — a
        #: memo rotation mid-batch could free one and recycle its id.
        self.keepalive: list = []

    def slots_of(self, cached: tuple) -> tuple[int, int]:
        """Table slots of a memo result ``(clean path, tags)``."""
        pair = self.pair_ids.get(id(cached))
        if pair is None:
            pair = (len(self.paths), len(self.tagsets))
            self.paths.append(cached[0])
            self.tagsets.append(cached[1])
            self.pair_ids[id(cached)] = pair
            self.keepalive.append(cached)
        return pair

    def add_tagged(self, kind: int, key, time_, elem, path, tags, afi) -> None:
        self.kinds.append(kind)
        self.t_key.append(key)
        self.t_time.append(time_)
        self.t_elem.append(elem)
        self.t_path.append(len(self.paths))
        self.paths.append(path)
        self.t_tags.append(len(self.tagsets))
        self.tagsets.append(tags)
        self.t_afi.append(afi)

    def add(self, element) -> None:
        """A fallback output as a row (the rare, generic path)."""
        primed_path = _event_types()[1]
        if isinstance(element, primed_path):
            kind, element = _K_PRIMED, element.path
        elif isinstance(element, TaggedPath):
            kind = _K_TAGGED
        elif isinstance(element, BGPStateMessage):
            self.kinds.append(_K_STATE)
            for column, value in zip(
                self.s_rows,
                (
                    element.time,
                    element.collector,
                    element.peer_asn,
                    _SESSION_VALUE[element.old_state],
                    _SESSION_VALUE[element.new_state],
                ),
            ):
                column.append(value)
            return
        else:
            self.kinds.append(_K_OTHER)
            self.other.append(element_to_wire(element))
            return
        source = element.__dict__
        self.add_tagged(
            kind, source["key"], source["time"], source["elem_type"],
            source["as_path"], source["tags"], source["afi"],
        )

    def batch(self) -> tuple:
        return (
            bytes(self.kinds),
            ((), (), (), (), (), (), (), ()),
            (self.t_key, self.t_time, self.t_elem, self.t_path, self.t_tags,
             self.t_afi),
            self.s_rows,
            self.paths,
            (),
            self.tagsets,
            self.other,
        )


def tag_wire_batch(input_module, batch: tuple, fallback=None) -> tuple:
    """Run the tagging stage over a columnar batch, column to column.

    The bulk equivalent of decode → ``TaggingStage.feed`` per element,
    with the intermediate objects elided: update rows never
    materialise a ``BGPUpdate``, and the community→PoP derivation is
    driven entirely by the batch's interned ``(path_idx, comm_idx)``
    columns.  A per-batch pair cache maps each distinct id pair to its
    output table slots (or a discard), so the first occurrence pays one
    memo probe against ``input_module`` — the same two-generation memo
    the scalar path uses, keyed on the very tuples sitting in the
    tables — and every repeat is one dict hit.  Counters fold into the
    module's totals exactly as the scalar path would have counted them
    (the pair cache is dropped when the memo rotates mid-batch).

    The output is the in-process tagged batch of
    :func:`tag_elements_to_wire`: it is consumed through
    :func:`tagged_view` by the process that tagged it and is never
    marshalled.  Elements outside the update families (``other``
    rows) go through ``fallback`` (e.g. ``TaggingStage.feed``) and
    keep their slot order; tagged rows pass through with their tables
    decoded.
    """
    kinds, u_rows, t_rows, s_rows, path_tab, comm_tab, tag_tab, other = batch
    u_iter = zip(*u_rows)
    t_iter = zip(*t_rows)
    s_iter = zip(*s_rows)
    o_iter = iter(other)
    out = _TaggedOut()
    append_kind = out.kinds.append
    t_key_append = out.t_key.append
    t_time_append = out.t_time.append
    t_elem_append = out.t_elem.append
    t_path_append = out.t_path.append
    t_tags_append = out.t_tags.append
    t_afi_append = out.t_afi.append
    tagsets = out.tagsets
    slots_of = out.slots_of
    elem_types = _ELEM_TYPES
    withdrawal_value = _W_VALUE
    withdrawal = ElemType.WITHDRAWAL
    pair_cache: dict = {}
    pair_get = pair_cache.get
    pair_miss = _PAIR_MISS
    memo_get = input_module.memo_probe
    memo_miss = input_module.memo_miss
    rotations = input_module.memo_rotations
    parsed = 0
    hits = 0
    discarded = 0
    for kind in kinds:
        if kind <= _K_PRIMING:  # _K_UPDATE or _K_PRIMING
            time_, coll, peer, pfx, elem, pi, ci, afi = next(u_iter)
            if elem == withdrawal_value:
                parsed += 1
                if kind == _K_PRIMING:
                    continue  # untaggable: cannot seed a baseline
                append_kind(_K_TAGGED)
                t_key_append((coll, peer, pfx))
                t_time_append(time_)
                t_elem_append(withdrawal)
                t_path_append(0)
                t_tags_append(0)
                t_afi_append(afi)
                continue
            pair = pair_get((pi, ci), pair_miss)
            if pair is not pair_miss:
                hits += 1
            else:
                memo_key = (path_tab[pi], comm_tab[ci])
                cached = memo_get(memo_key, pair_miss)
                if cached is not pair_miss:
                    hits += 1
                else:
                    cached = memo_miss(memo_key)
                    if input_module.memo_rotations != rotations:
                        # Cached pairs aged into the old generation,
                        # where the scalar path would promote them on
                        # their next use: send them back to the memo.
                        rotations = input_module.memo_rotations
                        pair_cache.clear()
                pair = None if cached is None else slots_of(cached)
                pair_cache[(pi, ci)] = pair
            if pair is None:
                discarded += 1
                continue
            parsed += 1
            if kind == _K_PRIMING and not tagsets[pair[1]]:
                continue  # tagless priming path: no baseline to seed
            append_kind(_K_TAGGED if kind == _K_UPDATE else _K_PRIMED)
            t_key_append((coll, peer, pfx))
            t_time_append(time_)
            t_elem_append(elem_types[elem])
            t_path_append(pair[0])
            t_tags_append(pair[1])
            t_afi_append(afi)
        elif kind == _K_TAGGED or kind == _K_PRIMED:
            key, time_, elem, pi, ti, afi = next(t_iter)
            out.add_tagged(
                kind,
                (key[0], key[1], key[2]),
                time_,
                elem_types[elem],
                _intern_path(tuple(path_tab[pi])),
                _tagset_from_flat(tuple(tag_tab[ti])),
                afi,
            )
        elif kind == _K_STATE:
            append_kind(_K_STATE)
            for column, value in zip(out.s_rows, next(s_iter)):
                column.append(value)
        else:
            wire = next(o_iter)
            if fallback is None:
                append_kind(_K_OTHER)
                out.other.append(wire)
            else:
                for produced in fallback(element_from_wire(wire)):
                    out.add(produced)
    input_module.parsed_count += parsed
    input_module.memo_hits += hits
    input_module.discarded_count += discarded
    return out.batch()


def tag_elements_to_wire(input_module, elements, fallback=None) -> tuple:
    """Tag a chunk of stream *objects* straight into a columnar batch.

    The fusion of ``InputModule.process`` per element and
    :func:`encode_batch`: one pass over the elements that probes the
    tagging memo per ``(as_path, communities)`` pair and appends the
    result directly to output tag columns — no ``TaggedPath`` is ever
    materialised.  Counters fold exactly as ``process`` counts them;
    elements outside ``BGPUpdate`` go through ``fallback`` (e.g.
    ``TaggingStage.feed``) and keep their slot order.  The output is
    the in-process tagged batch (see :func:`tagged_view`).
    """
    out = _TaggedOut()
    append_kind = out.kinds.append
    t_key_append = out.t_key.append
    t_time_append = out.t_time.append
    t_elem_append = out.t_elem.append
    t_path_append = out.t_path.append
    t_tags_append = out.t_tags.append
    t_afi_append = out.t_afi.append
    slots_of = out.slots_of
    pair_ids_get = out.pair_ids.get
    update_cls = BGPUpdate
    withdrawal = ElemType.WITHDRAWAL
    memo_get = input_module.memo_probe
    memo_miss = input_module.memo_miss
    miss = _PAIR_MISS
    parsed = 0
    hits = 0
    discarded = 0
    for element in elements:
        if type(element) is not update_cls:
            if fallback is None:
                append_kind(_K_OTHER)
                out.other.append(element_to_wire(element))
            else:
                for produced in fallback(element):
                    out.add(produced)
            continue
        elem_type = element.elem_type
        if elem_type is withdrawal:
            parsed += 1
            append_kind(_K_TAGGED)
            t_key_append(
                (element.collector, element.peer_asn, element.prefix)
            )
            t_time_append(element.time)
            t_elem_append(elem_type)
            t_path_append(0)
            t_tags_append(0)
            t_afi_append(element.afi)
            continue
        communities = element.communities
        if len(communities) == 1:
            community = communities[0]
            memo_key = (
                element.as_path,
                (community.asn, community.value),
            )
        else:
            flat: list[int] = []
            for community in communities:
                flat.append(community.asn)
                flat.append(community.value)
            memo_key = (element.as_path, tuple(flat))
        cached = memo_get(memo_key, miss)
        if cached is not miss:
            hits += 1
        else:
            cached = memo_miss(memo_key, communities)
        if cached is None:
            discarded += 1
            continue
        parsed += 1
        append_kind(_K_TAGGED)
        t_key_append(
            (element.collector, element.peer_asn, element.prefix)
        )
        t_time_append(element.time)
        t_elem_append(elem_type)
        pair = pair_ids_get(id(cached))
        if pair is None:
            pair = slots_of(cached)
        t_path_append(pair[0])
        t_tags_append(pair[1])
        t_afi_append(element.afi)
    input_module.parsed_count += parsed
    input_module.memo_hits += hits
    input_module.discarded_count += discarded
    return out.batch()


def wires_to_batch(wires: list) -> tuple:
    """Repack per-element wire envelopes as one columnar batch.

    The ingest tier's release path holds envelopes (feed workers sort
    by :func:`wire_sort_key` without decoding); this folds a released
    chunk into the columnar shape :func:`tag_wire_batch` consumes —
    straight column appends from the envelope payloads, no object
    materialisation.  Payload tuples survive ``marshal`` as tuples, so
    the table keys below are allocation-free on the hot path.
    """
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
    t_key: list = []
    t_time: list = []
    t_elem: list = []
    t_path: list = []
    t_tags: list = []
    t_afi: list = []
    s_time: list = []
    s_coll: list = []
    s_peer: list = []
    s_old: list = []
    s_new: list = []
    path_tab: list = []
    comm_tab: list = []
    tag_tab: list = []
    other: list = []
    path_vals: dict = {}
    comm_vals: dict = {}
    tag_vals: dict = {}
    for wire in wires:
        tag = wire[0]
        if tag == "u" or tag == "pu":
            time_, coll, peer, pfx, elem, path, flat, afi = wire[1]
            append_kind(_K_UPDATE if tag == "u" else _K_PRIMING)
            u_time.append(time_)
            u_coll.append(coll)
            u_peer.append(peer)
            u_pfx.append(pfx)
            u_elem.append(elem)
            path = tuple(path)
            pi = path_vals.get(path)
            if pi is None:
                pi = path_vals[path] = len(path_tab)
                path_tab.append(path)
            u_path.append(pi)
            flat = tuple(flat)
            ci = comm_vals.get(flat)
            if ci is None:
                ci = comm_vals[flat] = len(comm_tab)
                comm_tab.append(flat)
            u_comm.append(ci)
            u_afi.append(afi)
        elif tag == "s":
            time_, coll, peer, old, new_state = wire[1]
            append_kind(_K_STATE)
            s_time.append(time_)
            s_coll.append(coll)
            s_peer.append(peer)
            s_old.append(old)
            s_new.append(new_state)
        elif tag == "t" or tag == "pp":
            key, time_, elem, path, flat, afi = wire[1]
            append_kind(_K_TAGGED if tag == "t" else _K_PRIMED)
            t_key.append(tuple(key))
            t_time.append(time_)
            t_elem.append(elem)
            path = tuple(path)
            pi = path_vals.get(path)
            if pi is None:
                pi = path_vals[path] = len(path_tab)
                path_tab.append(path)
            t_path.append(pi)
            flat = tuple(flat)
            ti = tag_vals.get(flat)
            if ti is None:
                ti = tag_vals[flat] = len(tag_tab)
                tag_tab.append(flat)
            t_tags.append(ti)
            t_afi.append(afi)
        else:
            append_kind(_K_OTHER)
            other.append(wire)
    return (
        bytes(kinds),
        (u_time, u_coll, u_peer, u_pfx, u_elem, u_path, u_comm, u_afi),
        (t_key, t_time, t_elem, t_path, t_tags, t_afi),
        (s_time, s_coll, s_peer, s_old, s_new),
        path_tab,
        comm_tab,
        tag_tab,
        other,
    )


# ----------------------------------------------------------------------
# Column views: batch-native consumption without per-row objects
# ----------------------------------------------------------------------
class TaggedBatchView:
    """A cheap column view over an in-process tagged batch.

    Built by :func:`tagged_view` on the output of
    :func:`tag_wire_batch` / :func:`tag_elements_to_wire`.  Holds the
    path/tag-set tables plus the raw family columns, pre-grouped into
    maximal same-kind *runs* so a consumer can sweep whole column
    spans — the monitor's fold processes a run of tagged rows as one
    column sweep, and only the rare rows that need the object protocol
    (bin closers, primed paths, pass-throughs) are materialised, one at
    a time, by the ``*_at`` methods.
    """

    __slots__ = (
        "n",
        "kinds",
        "runs",
        "_run_pos",
        "t_key",
        "t_time",
        "t_elem",
        "t_path",
        "t_tags",
        "t_afi",
        "s_rows",
        "other",
        "paths",
        "tagsets",
        "cols",
    )

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

    def tagged_at(self, fam: int) -> TaggedPath:
        tagged = object.__new__(TaggedPath)
        fields = tagged.__dict__
        fields["key"] = self.t_key[fam]
        fields["time"] = self.t_time[fam]
        fields["elem_type"] = self.t_elem[fam]
        fields["as_path"] = self.paths[self.t_path[fam]]
        fields["tags"] = self.tagsets[self.t_tags[fam]]
        fields["afi"] = self.t_afi[fam]
        return tagged

    def state_at(self, fam: int) -> BGPStateMessage:
        message = object.__new__(BGPStateMessage)
        rows = self.s_rows
        _SET_S_TIME(message, rows[0][fam])
        _SET_S_COLL(message, rows[1][fam])
        _SET_S_PEER(message, rows[2][fam])
        _SET_S_OLD(message, _SESSION_STATES[rows[3][fam]])
        _SET_S_NEW(message, _SESSION_STATES[rows[4][fam]])
        return message

    def other_at(self, fam: int):
        return element_from_wire(self.other[fam])


def tagged_view(batch: tuple) -> TaggedBatchView:
    """Build a :class:`TaggedBatchView` over an in-process tagged batch.

    Both taggers emit one form: key tuples, ``ElemType`` members, a
    path table and a table of ``PoPTag`` tuples — the tagging memo's
    objects, shared across rows and batches.  A tagged batch never
    leaves the process that tagged it, so the view reads the tables as
    they are.  Fails closed with ``ValueError`` on anything else: raw
    updates (the batch was never tagged) or tagged rows in the flat
    marshal-safe encoding (an IPC batch that skipped
    :func:`tag_wire_batch`).
    """
    kinds, u_rows, t_rows, s_rows, path_tab, comm_tab, tag_tab, other = batch
    if u_rows[0]:
        raise ValueError(
            "batch holds untagged update rows: tag it before the monitor"
        )
    t_key, t_time, t_elem, t_path, t_tags, t_afi = t_rows
    if t_elem and type(t_elem[0]) is not ElemType:
        raise ValueError(
            "tagged rows are in the wire encoding: decode them with"
            " tag_wire_batch before the monitor"
        )
    view = TaggedBatchView()
    n = view.n = len(kinds)
    view.kinds = kinds
    view.cols = None  # consumer-owned per-tag-set cache (see monitor)
    view.paths = path_tab
    view.tagsets = tag_tab
    view.t_key = t_key
    view.t_time = t_time
    view.t_elem = t_elem
    view.t_path = t_path
    view.t_tags = t_tags
    view.t_afi = t_afi
    view.s_rows = s_rows
    view.other = other
    runs: list = []
    t_at = s_at = o_at = 0
    i = 0
    while i < n:
        kind = kinds[i]
        j = i + 1
        while j < n and kinds[j] == kind:
            j += 1
        if kind == _K_TAGGED or kind == _K_PRIMED:
            fam = t_at
            t_at += j - i
        elif kind == _K_STATE:
            fam = s_at
            s_at += j - i
        else:
            fam = o_at
            o_at += j - i
        runs.append((kind, i, j, fam))
        i = j
    view.runs = runs
    view._run_pos = 0
    return view

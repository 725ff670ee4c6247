"""The per-element wire envelope the columnar codec is checked against.

``element_to_wire`` wraps one admitted element in a ``[tag, payload]``
pair (``"u"`` update, ``"s"`` state message, ``"pu"`` priming update)
and ``element_from_wire`` rebuilds it through the public constructors.
It is the reference form of ``repro.core.serde.encode_batch`` /
``decode_batch`` (tests/test_columnar_properties.py) and refuses what
ingest does not admit, as the codec does (tests/test_admission_gate.py).
Slow on purpose: one list per element, no tables, no interning.
"""

from __future__ import annotations

from typing import Any

from repro.bgp.communities import Community
from repro.bgp.messages import BGPStateMessage, BGPUpdate, ElemType, SessionState
from repro.pipeline.events import PrimingUpdate


def _update_payload(update: BGPUpdate) -> list[Any]:
    flat: list[int] = []
    for community in update.communities:
        flat.extend((community.asn, community.value))
    return [
        update.time,
        update.collector,
        update.peer_asn,
        update.prefix,
        update.elem_type.value,
        update.as_path,
        tuple(flat),
        update.afi,
    ]


def _update(payload: list[Any]) -> BGPUpdate:
    time, collector, peer, prefix, elem, path, flat, afi = payload
    return BGPUpdate(
        time=time,
        collector=collector,
        peer_asn=peer,
        prefix=prefix,
        elem_type=ElemType(elem),
        as_path=tuple(path),
        communities=tuple(
            Community(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)
        ),
        afi=afi,
    )


def element_to_wire(element: Any) -> list[Any]:
    """One admitted element as ``[tag, payload]``; ``TypeError`` otherwise."""
    if isinstance(element, BGPUpdate):
        return ["u", _update_payload(element)]
    if isinstance(element, BGPStateMessage):
        return [
            "s",
            [
                element.time,
                element.collector,
                element.peer_asn,
                element.old_state.value,
                element.new_state.value,
            ],
        ]
    if isinstance(element, PrimingUpdate):
        return ["pu", _update_payload(element.update)]
    raise TypeError(
        f"{type(element).__name__} is not in the wire vocabulary: ingest"
        " admits BGPUpdate, BGPStateMessage and PrimingUpdate only"
    )


def element_from_wire(wire: list[Any]) -> Any:
    """Rebuild the element of an :func:`element_to_wire` envelope."""
    tag, payload = wire
    if tag == "u":
        return _update(payload)
    if tag == "s":
        time, collector, peer, old, new = payload
        return BGPStateMessage(
            time=time,
            collector=collector,
            peer_asn=peer,
            old_state=SessionState(old),
            new_state=SessionState(new),
        )
    if tag == "pu":
        return PrimingUpdate(update=_update(payload))
    raise ValueError(f"unknown wire tag {tag!r}")

"""The BGP communities attribute (RFC 1997) and its textual form.

A community is two 16-bit values ``X:Y``; by convention X is the ASN of
the operator that set it and Y an operator-defined value (Section 3.2).
Extended communities (RFC 4360) widen the value space; we model the
subset relevant to the paper: a 32-bit administrator field.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Community:
    """A standard ``X:Y`` BGP community."""

    asn: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.asn <= 0xFFFFFFFF:
            raise ValueError(f"community ASN {self.asn} out of range")
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"community value {self.value} out of range")
        # Communities are dict keys on the tagging hot path; the
        # generated dataclass __hash__ rebuilds a field tuple per call.
        object.__setattr__(self, "_hash", hash((self.asn, self.value)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


#: Interned communities by ``(asn, value)``: streams repeat them
#: constantly, and identical objects make downstream set/dict operations
#: cheaper.  A per-process derived cache, cleared wholesale at the cap;
#: the eviction count is telemetry only.
_INTERN_MAX = 65536
_COMMUNITY_INTERN: dict[tuple[int, int], Community] = {}
_intern_evictions = 0


def _intern_community(asn: int, value: int) -> Community:
    global _intern_evictions
    key = (asn, value)
    community = _COMMUNITY_INTERN.get(key)
    if community is None:
        if len(_COMMUNITY_INTERN) >= _INTERN_MAX:
            _intern_evictions += len(_COMMUNITY_INTERN)
            _COMMUNITY_INTERN.clear()
        community = object.__new__(Community)
        community.__dict__["asn"] = asn
        community.__dict__["value"] = value
        community.__dict__["_hash"] = hash(key)
        _COMMUNITY_INTERN[key] = community
    return community


def communities_from_flat(flat: tuple[int, ...]) -> tuple[Community, ...]:
    """Rebuild an interned ``Community`` tuple from flat ``(asn, value)`` ints."""
    interned = _COMMUNITY_INTERN.get
    return tuple(
        interned((flat[i], flat[i + 1]))
        or _intern_community(flat[i], flat[i + 1])
        for i in range(0, len(flat), 2)
    )


def community_intern_stats() -> dict[str, int]:
    """Size/cap/eviction counters of the community intern table."""
    return {
        "size": len(_COMMUNITY_INTERN),
        "cap": _INTERN_MAX,
        "evictions": _intern_evictions,
    }


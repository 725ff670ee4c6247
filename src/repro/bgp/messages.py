"""BGP message model: announcements, withdrawals, and state messages.

Mirrors the record shape BGPStream exposes (Section 4.1): every element
carries a timestamp, the collector and collector-peer that observed it,
and — for announcements — the AS path and communities attribute.  State
messages signal collector-session resets, which Kepler must use to
discard intervals with gaps in the feed (Section 4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.bgp.communities import Community


class ElemType(enum.Enum):
    """Kind of a BGP stream element."""

    ANNOUNCEMENT = "A"
    WITHDRAWAL = "W"
    STATE = "S"
    RIB = "R"  # table-dump entry used for baseline snapshots


class SessionState(enum.Enum):
    """BGP FSM states relevant to feed-gap detection."""

    ESTABLISHED = "established"
    IDLE = "idle"
    CONNECT = "connect"
    ACTIVE = "active"


@dataclass(frozen=True, slots=True)
class BGPUpdate:
    """A single routing update element.

    ``peer_asn`` is the collector peer (vantage point) whose session
    produced the element.  For withdrawals ``as_path`` and
    ``communities`` are empty by definition.

    Slotted: stream elements exist by the hundred thousand per run, so
    the per-instance ``__dict__`` is the single largest memory cost of
    a batch in flight.  Serde decoders fill instances through the slot
    descriptors directly (see ``core/serde.py``).
    """

    time: float  # seconds since epoch (simulation clock)
    collector: str
    peer_asn: int
    prefix: str
    elem_type: ElemType
    as_path: tuple[int, ...] = ()
    communities: tuple[Community, ...] = ()
    afi: int = 4  # 4 = IPv4, 6 = IPv6

    def __post_init__(self) -> None:
        if self.afi not in (4, 6):
            raise ValueError(f"afi must be 4 or 6, got {self.afi}")
        if self.elem_type is ElemType.STATE:
            # Ingest would count it as an announcement: a session change
            # is a BGPStateMessage.
            raise ValueError("a session state change is a BGPStateMessage")
        if self.elem_type is ElemType.WITHDRAWAL and self.as_path:
            raise ValueError("withdrawals carry no AS path")
        if self.elem_type in (ElemType.ANNOUNCEMENT, ElemType.RIB) and not self.as_path:
            raise ValueError("announcements must carry an AS path")

    def sort_key(self) -> tuple[float, str, int, str]:
        return (self.time, self.collector, self.peer_asn, self.prefix)


@dataclass(frozen=True, slots=True)
class BGPStateMessage:
    """A collector-session state change (Section 4.2 gap handling)."""

    time: float
    collector: str
    peer_asn: int
    old_state: SessionState
    new_state: SessionState

    @property
    def is_session_loss(self) -> bool:
        return (
            self.old_state is SessionState.ESTABLISHED
            and self.new_state is not SessionState.ESTABLISHED
        )

    @property
    def is_session_recovery(self) -> bool:
        return (
            self.old_state is not SessionState.ESTABLISHED
            and self.new_state is SessionState.ESTABLISHED
        )

    def sort_key(self) -> tuple[float, str, int, str]:
        return (self.time, self.collector, self.peer_asn, "")


#: Union type alias for stream elements.
StreamElement = BGPUpdate | BGPStateMessage

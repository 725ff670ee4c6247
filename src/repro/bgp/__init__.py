"""BGP substrate.

Message model (announcements, withdrawals, state messages), the
communities attribute, path sanitization, per-collector RIBs, route
collectors and a BGPStream-like merged, time-sorted feed (Section 4.1).
"""

from repro.bgp.communities import Community, parse_communities
from repro.bgp.messages import (
    BGPStateMessage,
    BGPUpdate,
    ElemType,
    SessionState,
)
from repro.bgp.sanitize import (
    deprepend,
    has_as_loop,
    is_private_asn,
    is_special_purpose_asn,
    sanitize_path,
)
from repro.bgp.rib import RoutingInformationBase
from repro.bgp.collector import Collector, CollectorPeer
from repro.bgp.stream import BGPStream

__all__ = [
    "Community",
    "parse_communities",
    "BGPUpdate",
    "BGPStateMessage",
    "ElemType",
    "SessionState",
    "deprepend",
    "has_as_loop",
    "is_private_asn",
    "is_special_purpose_asn",
    "sanitize_path",
    "RoutingInformationBase",
    "Collector",
    "CollectorPeer",
    "BGPStream",
]

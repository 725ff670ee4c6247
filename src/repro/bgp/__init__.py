"""BGP substrate.

Message model (announcements, withdrawals, state messages), the
communities attribute and path sanitization (Section 4.1).
"""

from repro.bgp.communities import Community
from repro.bgp.messages import (
    BGPStateMessage,
    BGPUpdate,
    ElemType,
    SessionState,
)
from repro.bgp.sanitize import is_private_asn, is_special_purpose_asn

__all__ = [
    "Community",
    "BGPUpdate",
    "BGPStateMessage",
    "ElemType",
    "SessionState",
    "is_private_asn",
    "is_special_purpose_asn",
]

"""Routing Information Base keyed by (collector peer, prefix).

Each collector peer contributes one best route per prefix; the RIB tracks
the latest announcement/withdrawal per (peer, prefix) key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.communities import Community
from repro.bgp.messages import BGPUpdate, ElemType


@dataclass(frozen=True)
class RibEntry:
    """Current best route of one collector peer for one prefix."""

    time: float
    peer_asn: int
    prefix: str
    as_path: tuple[int, ...]
    communities: tuple[Community, ...]
    afi: int = 4


@dataclass
class RoutingInformationBase:
    """RIB for a single collector."""

    collector: str
    _entries: dict[tuple[int, str], RibEntry] = field(default_factory=dict)

    def apply(self, update: BGPUpdate) -> RibEntry | None:
        """Apply an update; return the new entry (None for withdrawal).

        State messages are not routes and must not be passed here.
        """
        if update.collector != self.collector:
            raise ValueError(
                f"update for collector {update.collector!r} applied to"
                f" {self.collector!r}"
            )
        key = (update.peer_asn, update.prefix)
        if update.elem_type is ElemType.WITHDRAWAL:
            self._entries.pop(key, None)
            return None
        if update.elem_type is ElemType.STATE:
            raise ValueError("state messages cannot be applied to a RIB")
        entry = RibEntry(
            time=update.time,
            peer_asn=update.peer_asn,
            prefix=update.prefix,
            as_path=update.as_path,
            communities=update.communities,
            afi=update.afi,
        )
        self._entries[key] = entry
        return entry

    def lookup(self, peer_asn: int, prefix: str) -> RibEntry | None:
        return self._entries.get((peer_asn, prefix))

    def entries(self) -> list[RibEntry]:
        """Snapshot of all entries, deterministically ordered."""
        return [self._entries[k] for k in sorted(self._entries)]

    def prefixes(self) -> set[str]:
        return {prefix for _, prefix in self._entries}

    def __len__(self) -> int:
        return len(self._entries)

"""Route collectors (RouteViews / RIPE RIS stand-ins).

A collector maintains BGP sessions with a set of vantage-point ASes
("collector peers") and timestamps the elements it receives.  Real feeds
arrive with a 5-15 minute publication lag (Section 4.4); the collector
models that lag so data-plane confirmation logic has the same race to
handle as the production system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bgp.messages import BGPUpdate
from repro.bgp.rib import RoutingInformationBase

#: Publication lag bounds, seconds (the paper: "5 to 15 minute lag").
MIN_FEED_LAG_S = 300.0
MAX_FEED_LAG_S = 900.0


@dataclass(frozen=True)
class CollectorPeer:
    """A vantage point feeding a collector."""

    peer_asn: int
    collector: str
    #: Full-feed peers export their whole table; partial peers a subset.
    full_feed: bool = True


@dataclass
class Collector:
    """One route collector with its peers, RIB, and publication lag."""

    name: str
    peers: list[CollectorPeer] = field(default_factory=list)
    lag_seed: int = 0
    apply_lag: bool = False
    rib: RoutingInformationBase = field(init=False)
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.rib = RoutingInformationBase(self.name)
        self._rng = random.Random(self.lag_seed)

    def has_peer(self, peer_asn: int) -> bool:
        return any(p.peer_asn == peer_asn for p in self.peers)

    # ------------------------------------------------------------------
    def publication_time(self, event_time: float) -> float:
        """Feed timestamp after publication lag (if enabled)."""
        if not self.apply_lag:
            return event_time
        return event_time + self._rng.uniform(MIN_FEED_LAG_S, MAX_FEED_LAG_S)

    def observe(self, update: BGPUpdate) -> BGPUpdate:
        """Record an update from a peer; return the published element."""
        if not self.has_peer(update.peer_asn):
            raise ValueError(
                f"collector {self.name} has no peer AS{update.peer_asn}"
            )
        self.rib.apply(update)
        published_time = self.publication_time(update.time)
        if published_time == update.time:
            return update
        return BGPUpdate(
            time=published_time,
            collector=update.collector,
            peer_asn=update.peer_asn,
            prefix=update.prefix,
            elem_type=update.elem_type,
            as_path=update.as_path,
            communities=update.communities,
            afi=update.afi,
        )

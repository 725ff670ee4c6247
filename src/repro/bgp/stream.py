"""BGPStream-like merged, time-sorted feed (Section 4.1).

"For the continuous BGP data we use BGPStream to decouple Kepler from the
sources of BGP feeds, and thus obtain a unified feed of sorted BGP
records."

:class:`BGPStream` merges elements pushed from many collectors into one
queue popped in time order; a push behind the last popped time is
counted, not reordered.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.bgp.messages import StreamElement


@dataclass
class BGPStream:
    """Merge elements from many collectors into one sorted stream."""

    _heap: list[tuple[tuple[float, str, int, str], int, StreamElement]] = field(
        default_factory=list
    )
    _counter: Iterator[int] = field(default_factory=itertools.count, repr=False)
    _last_popped: float = float("-inf")
    #: Elements pushed with a sort key below the last *released* time.
    #: The stream cannot reorder already-popped history, so such an
    #: element will be popped after later-keyed ones — a collector
    #: clock problem the operator should see, not a condition the
    #: stream silently tolerates.
    late_pushes: int = 0

    def push(self, element: StreamElement) -> None:
        """Queue one element.  Elements may be pushed out of order.

        A push whose sort key lies below the time of the last element
        already popped arrives too late to be merged in order; it is
        still queued (it pops next) but counted in :attr:`late_pushes`.
        """
        key = element.sort_key()
        if key[0] < self._last_popped:
            self.late_pushes += 1
        heapq.heappush(self._heap, (key, next(self._counter), element))

    def __len__(self) -> int:
        return len(self._heap)

    def pop(self) -> StreamElement | None:
        """Pop the earliest queued element; ``None`` when empty."""
        if not self._heap:
            return None
        _, _, element = heapq.heappop(self._heap)
        self._last_popped = element.sort_key()[0]
        return element

    @property
    def last_time(self) -> float:
        return self._last_popped

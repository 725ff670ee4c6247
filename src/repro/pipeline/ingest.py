"""Ingest stage: stream merge and element-level sanity (Section 4.1).

BGPStream-style collectors each deliver a time-sorted element feed;
:func:`merge_streams` lazily merges any number of them into one sorted
stream without materialising the inputs.  The :class:`IngestStage`
then admits only well-formed elements, counting what flows through —
announcements, withdrawals, state messages — and how often the merged
stream violates time order (a collector clock problem the operator
should see, not a condition the detector silently tolerates).
"""

from __future__ import annotations

import heapq
import logging
from typing import Any, Iterable, Iterator

from repro.bgp.messages import BGPStateMessage, BGPUpdate, ElemType, StreamElement
from repro.pipeline.events import PrimingUpdate

logger = logging.getLogger("repro.pipeline.ingest")


def merge_streams(
    *streams: Iterable[StreamElement],
) -> Iterator[StreamElement]:
    """Lazily merge time-sorted element streams into one sorted stream."""
    return heapq.merge(*streams, key=lambda e: e.sort_key())


def split_by_collector(
    elements: Iterable[StreamElement],
) -> dict[str, list[StreamElement]]:
    """Partition a merged stream into per-collector feeds, order kept.

    The inverse of :func:`merge_streams`: merging the returned lists
    again (what :meth:`repro.core.kepler.Kepler.process_feeds` does)
    reproduces a stream sorted by ``sort_key`` exactly.
    """
    feeds: dict[str, list[StreamElement]] = {}
    for element in elements:
        feeds.setdefault(element.collector, []).append(element)
    return feeds


class IngestStage:
    """Admission control and accounting at the mouth of the pipeline."""

    name = "ingest"

    def __init__(self) -> None:
        self.announcements = 0
        self.withdrawals = 0
        self.state_messages = 0
        self.dropped = 0
        #: per-type breakdown of dropped elements, so operators can see
        #: *what* is being rejected, not just how many.
        self.dropped_types: dict[str, int] = {}
        self.out_of_order = 0
        self.priming_updates = 0
        #: the stream clock: time of the last admitted stream element.
        self.last_time: float | None = None

    def feed_batch(self, elements: list[Any]) -> list[Any]:
        """Admit a chunk: count every element, drop foreign objects.

        The common chunk is all ``BGPUpdate`` — counted with local
        tallies and returned as-is.  Priming updates (RIB-snapshot
        paths) are admitted outside the stream clock: table-dump
        timestamps say nothing about feed order.  The first element of
        an unknown type starts a copy of the chunk without it.
        """
        last = self.last_time
        announcements = withdrawals = out_of_order = 0
        withdrawal = ElemType.WITHDRAWAL
        out: list[Any] | None = None
        for index, element in enumerate(elements):
            if type(element) is BGPUpdate:
                if element.elem_type is withdrawal:
                    withdrawals += 1
                else:
                    announcements += 1
                elem_time = element.time
                if last is not None and elem_time < last:
                    out_of_order += 1
                last = elem_time
            elif isinstance(element, PrimingUpdate):
                self.priming_updates += 1
            elif isinstance(element, BGPStateMessage):
                self.state_messages += 1
                elem_time = element.time
                if last is not None and elem_time < last:
                    out_of_order += 1
                last = elem_time
            elif isinstance(element, BGPUpdate):
                if element.elem_type is withdrawal:
                    withdrawals += 1
                else:
                    announcements += 1
                elem_time = element.time
                if last is not None and elem_time < last:
                    out_of_order += 1
                last = elem_time
            else:
                self.dropped += 1
                type_name = type(element).__name__
                if type_name not in self.dropped_types:
                    logger.warning(
                        "ingest dropped element of unknown type %s", type_name
                    )
                self.dropped_types[type_name] = (
                    self.dropped_types.get(type_name, 0) + 1
                )
                if out is None:
                    out = list(elements[:index])
                continue
            if out is not None:
                out.append(element)
        self.announcements += announcements
        self.withdrawals += withdrawals
        self.out_of_order += out_of_order
        self.last_time = last
        return elements if out is None else out

    def state_dict(self) -> dict:
        return {
            "announcements": self.announcements,
            "withdrawals": self.withdrawals,
            "state_messages": self.state_messages,
            "dropped": self.dropped,
            "dropped_types": {
                name: self.dropped_types[name]
                for name in sorted(self.dropped_types)
            },
            "out_of_order": self.out_of_order,
            "priming_updates": self.priming_updates,
            "last_time": self.last_time,
        }

    def load_state(self, state: dict) -> None:
        self.announcements = state["announcements"]
        self.withdrawals = state["withdrawals"]
        self.state_messages = state["state_messages"]
        self.dropped = state["dropped"]
        self.dropped_types = dict(state["dropped_types"])
        self.out_of_order = state["out_of_order"]
        self.priming_updates = state["priming_updates"]
        self.last_time = state["last_time"]

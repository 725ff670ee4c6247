"""Tagged rows one at a time, for unit tests of the tagger and monitor.

The chain carries tagged rows only as columns of a
:class:`~repro.core.serde.TaggedBatch`: the tagger builds one per
chunk and the monitor folds it in place
(``BinningMonitorStage.feed_wire_run``).  Unit tests build rows one by
one, so this module gives a row an object form, :class:`TaggedPath`,
and puts it on that lane:

* :func:`tag_one` tags one update through ``tag_elements_to_wire``;
* :func:`prime` installs a row as a table-dump path (``prime_row``);
* :func:`feed` drives a monitoring stage over rows and state messages
  as one tagged batch (:func:`fold` over a batch the tagger built) and
  returns its bin closes, and :func:`observe` feeds one row to a monitor
  that way and returns the signals of the bins it closed — the bins
  close before the row is deferred;
* :func:`defer` defers a row into the open bin and closes nothing, for
  a driver that closes bins itself (``OutageMonitor.close_bins``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.messages import BGPStateMessage, ElemType
from repro.core.input import PathKey, PoPTag
from repro.core.monitor import TaggedRun
from repro.core.serde import (
    _K_PRIMED,
    _K_TAGGED,
    TaggedBatch,
    tag_elements_to_wire,
)
from repro.docmine.dictionary import PoP
from repro.pipeline.monitoring import BinningMonitorStage


@dataclass(frozen=True)
class TaggedPath:
    """One tagged row as an object: a sanitized, location-annotated
    stream element."""

    key: PathKey
    time: float
    elem_type: ElemType
    as_path: tuple[int, ...]
    tags: tuple[PoPTag, ...]
    afi: int

    def pops(self) -> set[PoP]:
        return {tag.pop for tag in self.tags}


def batch_of(elements, kind: int = _K_TAGGED) -> TaggedBatch:
    """Rows (and state messages) as one tagged batch, built with the
    batch's own row appenders."""
    batch = TaggedBatch()
    for element in elements:
        if isinstance(element, BGPStateMessage):
            batch.add_state(element)
            continue
        batch.add_tagged(
            kind, element.key, element.time, element.elem_type,
            element.as_path, element.tags, element.afi,
        )
    return batch


def feed(stage, elements) -> list:
    """Drive a monitoring stage over ``elements`` as one tagged batch;
    its ``(signals, advanced_to)`` bin closes, in order."""
    return fold(stage, batch_of(elements))


def fold(stage, batch: TaggedBatch) -> list:
    """Drive a monitoring stage over a tagged batch, resuming where each
    ``feed_wire_run`` call stops, as the chain does; its
    ``(signals, advanced_to)`` bin closes, in order."""
    view = stage.prepare_wire(batch)
    closes: list = []
    slot = 0
    while slot < len(view):
        emission, slot = stage.feed_wire_run(view, slot)
        if emission is not None:
            closes.append(emission)
    return closes


def rows_of(batch: TaggedBatch) -> list[tuple[int, TaggedPath]]:
    """``(kind, row)`` of every tagged or primed row of a batch."""
    out = []
    fam = 0
    for kind in batch.kinds:
        if kind in (_K_TAGGED, _K_PRIMED):
            path, tags = batch.t_pair[fam]
            out.append(
                (
                    kind,
                    TaggedPath(
                        key=batch.t_key[fam],
                        time=batch.t_time[fam],
                        elem_type=batch.t_elem[fam],
                        as_path=path,
                        tags=tags,
                        afi=batch.t_afi[fam],
                    ),
                )
            )
            fam += 1
    return out


def tag_one(input_module, update) -> TaggedPath | None:
    """One update tagged as the chain tags it; ``None`` when discarded."""
    rows = rows_of(tag_elements_to_wire(input_module, [update]))
    return rows[0][1] if rows else None


def prime(monitor, row: TaggedPath) -> None:
    """Install ``row``'s owned tags into the baseline."""
    monitor.prime_row(row.key, row.time, (row.as_path, row.tags))


def observe(monitor, row: TaggedPath) -> list:
    """Feed ``row`` as a one-row tagged batch; the closed bins' signals."""
    closes = feed(BinningMonitorStage(monitor), [row])
    return [s for signals, _ in closes for s in signals]


def defer(monitor, row: TaggedPath) -> None:
    """Defer ``row`` into the open bin (opening the first bin at its
    floor); the caller has closed every bin the row ends."""
    if monitor.current_bin_start is None:
        monitor._bin_start = monitor._bin_floor(row.time)
    monitor._events.append(TaggedRun(batch_of([row]), 0, 1, monitor._gapped))

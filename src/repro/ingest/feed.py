"""Per-collector feed workers: local admission at the mouth of the tier.

A feed worker owns one or more collectors.  It runs the admission and
accounting that used to happen once, serially, in the driver's
:class:`~repro.pipeline.ingest.IngestStage` — sanitising element types
and counting announcements / withdrawals / state messages / drops —
*locally*, per feed, and publishes the admitted elements as
seq-ordered batches stamped with a per-feed **low watermark**: a
promise that no element with a sort key at or below the watermark
remains unpublished by this feed.  The merge coordinator
(:mod:`repro.ingest.merge`) releases elements downstream only up to
the minimum watermark across feeds.

Two worker styles, mirroring :mod:`repro.pipeline.parallel`:

* **threads** (driver-routed mode): the driver demultiplexes an
  incoming element stream by collector (:func:`feed_of`) and ships
  per-feed chunks down bounded queues; each chunk carries a
  punctuation key — the global position of the chunk boundary — which
  becomes every feed's watermark, so an idle collector never stalls
  the merge;
* **forked processes** (source-driven mode): each worker inherits its
  collector sources at fork, pulls them directly, admits locally and
  serde-encodes what admission passed (``"u"``/``"s"``/``"pu"``
  envelopes, :func:`~repro.core.serde.element_to_wire`), and publishes
  marshal-packed wire batches — the driver never touches elements one
  by one, it only merges keys and forwards encoded batches downstream.
  Admission is the codec's gate: an element ingest does not admit is
  dropped and counted before it could reach the encoder.

All counters live in the per-feed admission stage
(:class:`~repro.pipeline.ingest.IngestStage` instances owned by the
tier) and are aggregated on read; forked workers ship their final
counter state home with their end-of-run message.
"""

from __future__ import annotations

import queue as queue_mod
import time
import traceback
import zlib
from collections.abc import Iterable

from repro import telemetry
from repro.bgp.messages import StreamElement
from repro.core.serde import element_to_wire
from repro.pipeline import faults
from repro.pipeline.ingest import IngestStage, merge_streams
from repro.pipeline.metrics import StageMetrics
from repro.pipeline.parallel import pack_wires

def feed_of(collector: str, n_feeds: int) -> int:
    """Stable feed assignment of a collector (identical across processes).

    The same CRC32 construction as
    :func:`repro.core.monitor.partition_of`, keyed by collector name:
    every element of one collector always lands on one feed, which is
    what makes the watermark merge's tie-break unobservable for real
    streams (equal sort keys imply equal collectors imply one feed).
    """
    return zlib.crc32(collector.encode("utf-8")) % n_feeds


def split_by_collector(
    elements: Iterable[StreamElement],
) -> dict[str, list[StreamElement]]:
    """Partition a merged stream into per-collector feeds, order kept.

    The inverse of the BGPStream merge: feeding the returned lists to
    :meth:`repro.core.kepler.Kepler.process_feeds` reproduces the
    merged stream exactly (see :mod:`repro.ingest.merge`).
    """
    feeds: dict[str, list[StreamElement]] = {}
    for element in elements:
        feeds.setdefault(element.collector, []).append(element)
    return feeds


# ----------------------------------------------------------------------
# Worker loops
# ----------------------------------------------------------------------
def chunk_feed_worker(
    fid: int,
    admission: IngestStage,
    meter: StageMetrics,
    in_q,
    out_q,
    cancel,
) -> None:
    """Thread worker for driver-routed chunks.

    Messages in: ``("elems", elements, punct_key)`` — admit the chunk,
    publish the admitted ``(key, element)`` entries with the chunk's
    punctuation as the watermark; ``("eor",)`` — acknowledge end of
    run and exit (workers are per-run).  The admission stage and meter
    are the tier's own per-feed objects (shared memory); the tier
    reads them only after the run joins.  ``cancel`` aborts at the
    next message boundary (the tier drains the queues, so no put can
    stay blocked).
    """
    feed = admission.feed
    armed = faults.arm("feed", fid, forked=False)
    try:
        while True:
            msg = in_q.get()
            if cancel.is_set():
                return
            kind = msg[0]
            if kind == "elems":
                elements, punct = msg[1], msg[2]
                if armed is not None:
                    armed.on_elements(len(elements))
                entries: list[tuple[tuple, StreamElement]] = []
                began = time.perf_counter()
                for element in elements:
                    for out in feed(element):
                        entries.append((out.sort_key(), out))
                meter.seconds += time.perf_counter() - began
                meter.fed += len(elements)
                meter.emitted += len(entries)
                watermark = punct
                if watermark is None and entries:
                    watermark = entries[-1][0]
                out_q.put(("batch", fid, entries, watermark))
            elif kind == "eor":
                out_q.put(("eor", fid, None))
                return
    except Exception:
        out_q.put(("err", fid, traceback.format_exc()))


def _feed_stream(
    sources: list[Iterable[StreamElement]],
) -> Iterable[StreamElement]:
    """One time-sorted stream for a feed that owns several collectors.

    A feed worker may be assigned more than one collector source; the
    worker merges them lazily by sort key (each source must itself be
    time-sorted), so the feed's low-watermark promise holds whatever
    the assignment.
    """
    if len(sources) == 1:
        return sources[0]
    return merge_streams(*sources)


def source_feed_worker(
    fid: int,
    sources: list[Iterable[StreamElement]],
    admission: IngestStage,
    meter: StageMetrics,
    out_q,
    batch_size: int,
    cancel,
) -> None:
    """Thread worker pulling collector sources directly (no routing hop).

    ``cancel`` aborts at the next batch boundary — bounded staleness:
    the tier's abort path drains the queue and joins this worker
    before touching the shared admission counters again.
    """
    feed = admission.feed
    armed = faults.arm("feed", fid, forked=False)
    entries: list[tuple[tuple, StreamElement]] = []
    try:
        began = time.perf_counter()
        fed = 0
        emitted = 0
        cancelled = cancel.is_set
        for element in _feed_stream(sources):
            if cancelled():
                return
            if armed is not None:
                armed.on_element()
            fed += 1
            for out in feed(element):
                emitted += 1
                entries.append((out.sort_key(), out))
            if len(entries) >= batch_size:
                # Flush the meter with every published batch, so a
                # cancelled run leaves counters and seconds consistent
                # with each other (they land in recovery snapshots).
                meter.seconds += time.perf_counter() - began
                meter.fed += fed
                meter.emitted += emitted
                fed = 0
                emitted = 0
                out_q.put(("batch", fid, entries, entries[-1][0]))
                entries = []
                began = time.perf_counter()
        meter.seconds += time.perf_counter() - began
        meter.fed += fed
        meter.emitted += emitted
        if cancel.is_set():
            return
        if entries:
            out_q.put(("batch", fid, entries, entries[-1][0]))
        out_q.put(("eor", fid, None))
    except Exception:
        out_q.put(("err", fid, traceback.format_exc()))


def source_feed_process(
    fid: int,
    sources: list[Iterable[StreamElement]],
    admission: IngestStage,
    meter: StageMetrics,
    out_q,
    batch_size: int,
) -> None:
    """Forked worker: admit **and serde-encode** sources locally.

    The fork inherited ``admission``/``meter`` (with their pre-run
    counts); the child advances its private copies and ships the final
    state home in the end-of-run message — the parent overwrites its
    copies, so totals compose exactly.  Batches are marshal-packed
    wire lists; the driver derives merge keys with
    :func:`repro.core.serde.wire_sort_key` instead of decoding.
    """
    feed = admission.feed
    armed = faults.arm("feed", fid, forked=True)
    wires: list[list] = []
    last_key: tuple | None = None
    # Live-metrics throttle, inherited by value at fork (see
    # repro.telemetry.set_live_interval).
    frame_interval = telemetry.live_interval()
    last_frame = time.monotonic()

    def live_frame(fed: int, emitted: int) -> None:
        """Best-effort running-counter frame; dropped if the driver lags."""
        nonlocal last_frame
        now = time.monotonic()
        if now - last_frame < frame_interval:
            return
        last_frame = now
        frame = {
            "ingest": admission.state_dict(),
            "meter": [
                meter.fed + fed,
                meter.emitted + emitted,
                meter.seconds,
            ],
        }
        try:
            out_q.put_nowait(("mtx", fid, frame))
        except queue_mod.Full:
            pass

    def publish(batch: list[list], watermark: tuple | None) -> None:
        payload = pack_wires(batch)
        if armed is not None:
            payload = armed.corrupt_payload(payload)
        out_q.put(("pbatch", fid, payload, watermark))

    try:
        began = time.perf_counter()
        fed = 0
        emitted = 0
        for element in _feed_stream(sources):
            if armed is not None:
                armed.on_element()
            fed += 1
            for out in feed(element):
                emitted += 1
                wires.append(element_to_wire(out))
                last_key = out.sort_key()
            if len(wires) >= batch_size:
                meter.seconds += time.perf_counter() - began
                publish(wires, last_key)
                wires = []
                live_frame(fed, emitted)
                began = time.perf_counter()
        meter.seconds += time.perf_counter() - began
        meter.fed += fed
        meter.emitted += emitted
        if wires:
            publish(wires, last_key)
        info = {
            "ingest": admission.state_dict(),
            "meter": [meter.fed, meter.emitted, meter.seconds],
        }
        out_q.put(("eor", fid, info))
    except Exception:
        out_q.put(("err", fid, traceback.format_exc()))

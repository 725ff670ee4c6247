"""Per-collector feed workers: local admission at the mouth of the tier.

A feed worker is a forked process that owns one or more collector
sources.  It inherits them at fork, pulls them directly, admits each
element on a fresh :class:`~repro.pipeline.ingest.IngestStage` that
starts from the driver stage's stream clock, serde-encodes what
admission passed (``"u"``/``"s"``/``"pu"`` envelopes,
:func:`~repro.core.serde.element_to_wire`) and publishes marshal-packed
wire batches stamped with a per-feed **low watermark**: a promise that
no element with a sort key at or below the watermark remains
unpublished by this feed.  The merge coordinator
(:mod:`repro.ingest.merge`) releases elements downstream only up to
the minimum watermark across feeds; the driver never touches elements
one by one, it only merges keys and forwards encoded batches.
Admission is the codec's gate: an element ingest does not admit is
dropped and counted before it could reach the encoder.

A worker ships its stage state and meter home with its end-of-run
message, and the tier adds them into the driver's ingest stage — the
one place admission is counted, under every layout.  Where the
platform cannot fork, :func:`merged_feed_stream` merges the same
sources in the driver instead.
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
from repro.pipeline.parallel import pack_wires

#: What ``process_feeds`` takes: ``{collector: source}`` or a bare
#: sequence of sources, each time-sorted.
Sources = dict[str, Iterable[StreamElement]] | Iterable[Iterable[StreamElement]]


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


def assign_feeds(
    sources: Sources,
    feeds: int,
) -> list[list[Iterable[StreamElement]]]:
    """Per-feed source lists for a ``process_feeds`` call.

    A mapping ``{collector: source}`` pins each source to
    ``feed_of(collector)``; a bare sequence of sources is assigned
    round-robin.
    """
    assignment: list[list] = [[] for _ in range(feeds)]
    if isinstance(sources, dict):
        for collector in sorted(sources):
            assignment[feed_of(collector, feeds)].append(sources[collector])
    else:
        for index, source in enumerate(sources):
            assignment[index % feeds].append(source)
    return assignment


def merged_feed_stream(
    sources: Sources,
    feeds: int,
) -> Iterable[StreamElement]:
    """The stream the watermark merge releases, merged in the driver.

    ``heapq.merge`` over the per-feed streams in feed order breaks
    full-key ties by feed index, per-feed FIFO — the merge's documented
    order — so feeding this to a runtime equals a forked
    ``process_feeds`` run.  The ingest tier's no-fork path and the
    supervisor's degraded path both run it.
    """
    return merge_streams(
        *(_feed_stream(owned) for owned in assign_feeds(sources, feeds) if owned)
    )


def _feed_stream(
    sources: list[Iterable[StreamElement]],
) -> Iterable[StreamElement]:
    """One time-sorted stream for a feed that owns several collectors.

    A feed may be assigned more than one collector source; it merges
    them lazily by sort key (each source must itself be time-sorted),
    so the feed's low-watermark promise holds whatever the assignment.
    """
    if len(sources) == 1:
        return sources[0]
    return merge_streams(*sources)


def source_feed_process(
    fid: int,
    sources: list[Iterable[StreamElement]],
    last_time: float | None,
    out_q,
    batch_size: int,
) -> None:
    """Forked worker: admit **and serde-encode** sources locally.

    Admission runs on a fresh stage holding the driver's clock
    ``last_time`` (so out-of-order accounting continues the stream);
    the final stage state and meter go home in the end-of-run message,
    where the tier adds them into the driver's stage.  Batches are
    marshal-packed wire lists; the driver derives merge keys with
    :func:`repro.core.serde.wire_sort_key` instead of decoding.
    """
    admission = IngestStage()
    admission.last_time = last_time
    feed = admission.feed
    armed = faults.arm("feed", fid)
    wires: list[list] = []
    last_key: tuple | None = None
    fed = emitted = 0
    seconds = 0.0
    # Live-metrics throttle, inherited by value at fork (see
    # repro.telemetry.set_live_interval).
    frame_interval = telemetry.live_interval()
    last_frame = time.monotonic()

    def counters() -> dict:
        return {
            "ingest": admission.state_dict(),
            "meter": [fed, emitted, seconds],
        }

    def live_frame() -> None:
        """Best-effort running-counter frame; dropped if the driver lags."""
        nonlocal last_frame
        now = time.monotonic()
        if now - last_frame < frame_interval:
            return
        last_frame = now
        try:
            out_q.put_nowait(("mtx", fid, counters()))
        except queue_mod.Full:
            pass

    def publish(batch: list[list], watermark: tuple | None) -> None:
        payload = pack_wires(batch)
        if armed is not None:
            payload = armed.corrupt_payload(payload)
        out_q.put(("pbatch", fid, payload, watermark))

    try:
        began = time.perf_counter()
        for element in _feed_stream(sources):
            if armed is not None:
                armed.on_element()
            fed += 1
            for out in feed(element):
                emitted += 1
                wires.append(element_to_wire(out))
                last_key = out.sort_key()
            if len(wires) >= batch_size:
                seconds += time.perf_counter() - began
                publish(wires, last_key)
                wires = []
                live_frame()
                began = time.perf_counter()
        seconds += time.perf_counter() - began
        if wires:
            publish(wires, last_key)
        out_q.put(("eor", fid, counters()))
    except Exception:
        out_q.put(("err", fid, traceback.format_exc()))

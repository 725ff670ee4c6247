"""The sharded collector ingest tier: feed workers + watermark merge.

Until PR 5, ingest — admission and the stream clock — was the one
serial stage left in the driver: every element of every collector
passed through one :class:`~repro.pipeline.ingest.IngestStage` hop
before anything else could happen.  This module makes ingest a tier
of its own:

.. code-block:: text

      collector feeds                 feed workers (threads/forks)
    ──────────────────              ───────────────────────────────
    rrc00 ── elements ──▶ feed 0:  admit + count (+ encode), publish
    rrc01 ── elements ──▶ feed 1:  seq batches with low watermarks
    rrc03 ── elements ──▶ feed 2:          │
                                           ▼
                              WatermarkMerge (min-watermark release,
                              bounded reorder window, late accounting)
                                           │  sorted element batches
                                           ▼
                              downstream runtime sink
                              (linear chain: feed_from(1),
                               shard processes: feed_admitted_wires)

* **Two delivery modes.**  ``feed_many`` (the historical
  ``Kepler.process`` path) demultiplexes an already-merged stream by
  collector onto per-run worker *threads* — useful because admission
  overlaps the downstream chain, and byte-identical to the driver
  ingest path because the merge's tie-break cannot trigger across
  collectors.  ``process_feeds`` takes per-collector sources and
  gives each feed worker its own — *forked* workers (where the
  platform allows) admit and serde-encode in parallel, and the driver
  merges keys and forwards encoded batches downstream without an
  element-by-element hop.
* **Backpressure, not buffering.**  Every queue is bounded; a fast
  feed eventually blocks publishing until the merge releases, and the
  driver only unblocks queues by pumping released elements through
  the detector.  One slow collector holds the watermark back (the
  stream must stay ordered) but can never cause silent reordering —
  an element arriving below the release cursor is surfaced through
  :attr:`~repro.ingest.merge.WatermarkMerge.late_elements`.
* **Workers are per-run.**  A run is one ``feed_many`` /
  ``process_feeds`` call; workers spawn lazily at the first stream
  element and join before the call returns.  The tier therefore
  composes with every runtime of :mod:`repro.pipeline.parallel` — no
  thread is alive when those runtimes fork their own workers — and
  every facade read or snapshot between calls observes a fully
  quiescent tier.
* **Layout-free checkpoints.**  The canonical document keeps exactly
  one ingest section — the sum of the per-feed admission counters
  plus the merge's release clock
  (:func:`repro.pipeline.checkpoint.compose_ingest_state`) — so a
  snapshot taken under any ``ingest_feeds`` layout restores into any
  other (including the driver ingest path, and vice versa).
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as queue_mod
import threading
import time
from typing import Any, Iterable

from repro.core.serde import wire_sort_key, wires_to_batch
from repro.ingest.feed import (
    chunk_feed_worker,
    feed_of,
    source_feed_process,
    source_feed_worker,
)
from repro.ingest.merge import WatermarkMerge
from repro.pipeline.checkpoint import (
    compose_ingest_state,
    split_ingest_state,
    zero_ingest_state,
)
from repro.pipeline.events import PrimingUpdate
from repro.pipeline.ingest import IngestStage
from repro.pipeline.liveness import (
    WorkerCrashError,
    WorkerDeathError,
    WorkerStallError,
    queue_depths,
    reap_workers,
)
from repro.pipeline.metrics import (
    PipelineMetrics,
    RecoveryStats,
    StageMetrics,
)
from repro.pipeline.parallel import (
    ShardProcessPipeline,
    fork_available,
    unpack_wires,
)

_LOG = logging.getLogger("repro.ingest.tier")

#: Elements routed per chunk in driver-routed mode (one punctuation,
#: one queue message per feed, per chunk).
ROUTE_CHUNK = 1024
#: Bounded queue depth, in batches — backpressure, not buffering.
FEED_QUEUE_DEPTH = 8
#: Poll interval for blocking waits (liveness checks in between).
WAIT_POLL_S = 0.002


# ----------------------------------------------------------------------
# Downstream sinks: where released elements enter the detector
# ----------------------------------------------------------------------
class ChainSink:
    """Feed released elements into the in-process chain after ingest.

    :class:`~repro.pipeline.runtime.StagePipeline` exposes
    ``feed_from(1, batch)``, entering at the tagging stage with the
    chain's barrier semantics intact.
    """

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline

    def feed_released(self, payloads: list, wired: bool) -> list:
        if wired:
            # Envelopes from forked feed workers fold straight into a
            # columnar batch and ride the chain's wire pair — tagging
            # and the monitor fold run column to column, and no object
            # materialises but the bin-closing rows.
            return self.pipeline.feed_wire_from(wires_to_batch(payloads))
        return self.pipeline.feed_from(1, payloads)

    def feed_primes(self, primes: list) -> list:
        return self.pipeline.feed_from(1, primes)

    def flush(self) -> list:
        return self.pipeline.flush()


class WireSink:
    """Forward released batches into a multiprocess runtime's buffer.

    Batches released by forked feed workers arrive *already* encoded
    as per-element envelopes (the merge coordinator sorts them by wire
    key without decoding) and the runtime decodes them once into its
    columnar shipping buffer; in-process feeds hand their elements
    over directly.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime

    def feed_released(self, payloads: list, wired: bool) -> list:
        if wired:
            return self.runtime.feed_admitted_wires(payloads)
        return self.runtime.feed_admitted(payloads)

    def feed_primes(self, primes: list) -> list:
        return self.runtime.feed_admitted(primes)

    def flush(self) -> list:
        return self.runtime.flush()


# ----------------------------------------------------------------------
# Run state (workers are per-run; see the module commentary)
# ----------------------------------------------------------------------
class _Run:
    """Bookkeeping for one delivery run."""

    def __init__(self, feeds: int, wired: bool) -> None:
        self.wired = wired
        #: per-feed publication queues (bounded): the feed's half of
        #: the reorder-window backpressure loop.
        self.out_qs: list = [None] * feeds
        self.in_qs: list = []
        self.workers: list = [None] * feeds
        self.pending: list[list] = [[] for _ in range(feeds)]
        self.pending_count = 0
        self.eor_seen: set[int] = set()
        #: set on abort: thread workers (which cannot be terminated)
        #: stop publishing and exit at their next batch boundary.
        self.cancel = threading.Event()


def _tail_key(batch: list) -> tuple | None:
    """Sort key of the last stream element in a routed sub-batch."""
    for element in reversed(batch):
        sort_key = getattr(element, "sort_key", None)
        if sort_key is not None:
            return sort_key()
    return None


# ----------------------------------------------------------------------
# The tier
# ----------------------------------------------------------------------
class IngestTier:
    """Per-feed admission + watermark merge, behind the pipeline surface.

    Presents ``feed`` / ``feed_many`` / ``flush`` (what
    :class:`~repro.core.kepler.Kepler` drives) plus ``process_feeds``
    for per-collector sources.  All entry points are synchronous: they
    return only when every element has cleared the tier — in-flight
    state never outlives a call, which is what keeps snapshots and
    facade reads exact without a tier-level drain protocol.
    """

    #: When set, a blocked pump that sees no feed progress for this
    #: long raises :class:`WorkerStallError` (see the parallel
    #: runtimes' attribute of the same name).
    stall_timeout_s: float | None = None

    def __init__(
        self,
        sink,
        feeds: int,
        batch_size: int = ROUTE_CHUNK,
        fork_feeds: bool | None = None,
    ) -> None:
        if feeds < 1:
            raise ValueError("the ingest tier needs >= 1 feed")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.sink = sink
        self.feeds = feeds
        self.batch_size = batch_size
        #: Whether ``process_feeds`` forks its feed workers (None =
        #: fork where the platform allows).  Forked feeds pay a serde
        #: hop per element, which buys core-parallel admission —
        #: worthwhile for attribute-heavy feeds; thread feeds pass
        #: references and suit light elements or wire-sink runtimes.
        self.fork_feeds = fork_available() if fork_feeds is None else fork_feeds
        #: Bounded reorder window, in entries per feed: the pump stops
        #: draining a feed that is this far ahead of the release
        #: frontier, so its bounded queue backpressures the worker.
        #: Must exceed one routed chunk, or a driver blocked shipping
        #: to one feed could starve the others' watermarks.
        self.reorder_limit = batch_size * FEED_QUEUE_DEPTH
        #: per-feed admission stages: the IngestStage counters, per feed.
        self.admissions = [IngestStage() for _ in range(feeds)]
        #: per-feed ingest metering (composed into the metrics view).
        self.meters = [StageMetrics(name="ingest") for _ in range(feeds)]
        #: driver-side metering of the priming passthrough.
        self.prime_meter = StageMetrics(name="ingest")
        #: priming updates admitted outside the stream clock (tier-level:
        #: primes bypass the feed workers and the merge).
        self.priming_updates = 0
        self.merge = WatermarkMerge(feeds)
        #: Set when a run was aborted (a feed worker failed): the
        #: stream has a hole at an unknown position, so the tier
        #: refuses further elements instead of silently resuming.
        self._failed = False
        #: monotonic instant the pump last made progress while blocked
        #: (``None`` = not currently blocked).
        self._idle_since: float | None = None
        #: latest live counter frame per forked feed worker ("mtx"
        #: messages); read by the live metrics view, dropped once the
        #: feed's end-of-run lands its authoritative counters.
        self._live_frames: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # StagePipeline-compatible surface
    # ------------------------------------------------------------------
    def feed(self, element: Any) -> list[Any]:
        """Push one element through the tier (primes pass straight through).

        Single elements take an inline fast path — admission on the
        owning feed's stage, merge-cursor bookkeeping, straight to the
        sink — which is exactly what a one-element run would release
        (the element is the run's only entry and its own watermark),
        without spinning a worker set up per call.
        """
        if isinstance(element, PrimingUpdate):
            return self._feed_primes([element])
        self._check_usable()
        collector = getattr(element, "collector", None)
        fid = 0 if collector is None else feed_of(collector, self.feeds)
        meter = self.meters[fid]
        began = time.perf_counter()
        outs = self.admissions[fid].feed(element)
        meter.seconds += time.perf_counter() - began
        meter.fed += 1
        meter.emitted += len(outs)
        if not outs:
            return []
        merge = self.merge
        for out in outs:
            key = out.sort_key()
            if merge.last_released is not None and key < merge.last_released:
                merge.late_elements += 1
            else:
                merge.last_released = key
            merge.released += 1
        return self.sink.feed_released(outs, wired=False)

    def feed_many(self, elements: Iterable[Any]) -> list[Any]:
        """Demultiplex a merged stream across the feed workers.

        Elements route to ``feed_of(collector)``; every chunk boundary
        broadcasts a punctuation key (the chunk's last stream
        position) so feeds that received nothing still advance their
        watermark and the merge releases incrementally.  Priming
        updates quiesce the current run and pass straight to the sink
        (consecutive ones as one batch), preserving their position in
        the fed order.
        """
        self._check_usable()
        outputs: list[Any] = []
        run: _Run | None = None
        primes: list[Any] = []
        feeds = self.feeds
        try:
            for element in elements:
                if isinstance(element, PrimingUpdate):
                    if run is not None:
                        outputs.extend(self._finish_run(run))
                        run = None
                    primes.append(element)
                    continue
                if primes:
                    outputs.extend(self._feed_primes(primes))
                    primes = []
                if run is None:
                    run = self._start_chunk_run()
                collector = getattr(element, "collector", None)
                fid = 0 if collector is None else feed_of(collector, feeds)
                run.pending[fid].append(element)
                run.pending_count += 1
                if run.pending_count >= self.batch_size:
                    outputs.extend(self._ship_chunk(run))
            if primes:
                outputs.extend(self._feed_primes(primes))
            if run is not None:
                outputs.extend(self._finish_run(run))
                run = None
        except BaseException:
            if run is not None:
                self._abort_run(run)
            raise
        return outputs

    def process_feeds(
        self,
        sources: "dict[str, Iterable[Any]] | Iterable[Iterable[Any]]",
    ) -> list[Any]:
        """Consume per-collector element sources concurrently.

        The canonical form is a mapping ``{collector: source}`` (what
        :func:`~repro.ingest.feed.split_by_collector` produces): each
        source is pinned to ``feed_of(collector)``, preserving the
        collector-per-feed invariant that makes the merge tie-break
        unobservable — output is then identical to
        :meth:`~repro.core.kepler.Kepler.process` on the pre-merged
        stream.  A bare sequence of sources is also accepted and
        assigned round-robin; if that splits one collector's equal
        sort keys across feeds, ties resolve by the documented
        ``(sort key, feed index)`` order instead of source order.  A
        feed owning several sources merges them lazily by sort key;
        each source must be time-sorted and carries stream elements
        only (prime through :meth:`Kepler.prime`).  Output order is
        the watermark merge over the per-feed streams — deterministic
        whatever the worker interleaving.  Where the platform can
        fork, the workers are forked processes that admit and encode
        in parallel.
        """
        self._check_usable()
        assignment: list[list] = [[] for _ in range(self.feeds)]
        if isinstance(sources, dict):
            for collector in sorted(sources):
                assignment[feed_of(collector, self.feeds)].append(
                    sources[collector]
                )
        else:
            for index, source in enumerate(sources):
                assignment[index % self.feeds].append(source)
        forked = self.fork_feeds and fork_available()
        run = _Run(self.feeds, wired=forked)
        self.merge.begin_run()
        ctx = multiprocessing.get_context("fork") if forked else None
        for fid in range(self.feeds):
            if not assignment[fid]:
                # No sources: the feed is vacuously done for this run.
                self.merge.end_of_run(fid)
                run.eor_seen.add(fid)
                continue
            if forked:
                out_q = ctx.Queue(FEED_QUEUE_DEPTH)
                worker = ctx.Process(
                    target=source_feed_process,
                    args=(
                        fid,
                        assignment[fid],
                        self.admissions[fid],
                        self.meters[fid],
                        out_q,
                        self.batch_size,
                    ),
                    daemon=True,
                    name=f"kepler-feed-{fid}",
                )
            else:
                out_q = queue_mod.Queue(FEED_QUEUE_DEPTH)
                worker = threading.Thread(
                    target=source_feed_worker,
                    args=(
                        fid,
                        assignment[fid],
                        self.admissions[fid],
                        self.meters[fid],
                        out_q,
                        self.batch_size,
                        run.cancel,
                    ),
                    daemon=True,
                    name=f"kepler-feed-{fid}",
                )
            run.out_qs[fid] = out_q
            run.workers[fid] = worker
            worker.start()
        outputs: list[Any] = []
        try:
            while len(run.eor_seen) < self.feeds:
                outputs.extend(self._pump(run, block=True))
            outputs.extend(self._deliver(run, self.merge.release()))
            if not self.merge.drained:
                raise RuntimeError(
                    "ingest merge failed to drain at end of run"
                    f" ({self.merge.buffered} entries held back)"
                )
        except BaseException:
            self._abort_run(run)
            raise
        for worker in run.workers:
            if worker is not None:
                worker.join()
        if forked:
            for out_q in run.out_qs:
                if out_q is not None:
                    out_q.close()
        return outputs

    def flush(self) -> list[Any]:
        """End of stream: nothing is buffered in the tier between calls."""
        return self.sink.flush()

    # ------------------------------------------------------------------
    # Driver-routed run machinery
    # ------------------------------------------------------------------
    def _start_chunk_run(self) -> _Run:
        run = _Run(self.feeds, wired=False)
        self.merge.begin_run()
        run.out_qs = [
            queue_mod.Queue(FEED_QUEUE_DEPTH) for _ in range(self.feeds)
        ]
        run.in_qs = [
            queue_mod.Queue(FEED_QUEUE_DEPTH) for _ in range(self.feeds)
        ]
        run.workers = [
            threading.Thread(
                target=chunk_feed_worker,
                args=(
                    fid,
                    self.admissions[fid],
                    self.meters[fid],
                    run.in_qs[fid],
                    run.out_qs[fid],
                    run.cancel,
                ),
                daemon=True,
                name=f"kepler-feed-{fid}",
            )
            for fid in range(self.feeds)
        ]
        for worker in run.workers:
            worker.start()
        return run

    def _ship_chunk(self, run: _Run) -> list[Any]:
        punct: tuple | None = None
        for batch in run.pending:
            key = _tail_key(batch)
            if key is not None and (punct is None or key > punct):
                punct = key
        outputs: list[Any] = []
        for fid in range(self.feeds):
            message = ("elems", run.pending[fid], punct)
            run.pending[fid] = []
            outputs.extend(self._put_checked(run, run.in_qs[fid], message))
        run.pending_count = 0
        outputs.extend(self._pump(run, block=False))
        return outputs

    def _finish_run(self, run: _Run) -> list[Any]:
        outputs: list[Any] = []
        if run.pending_count:
            outputs.extend(self._ship_chunk(run))
        for in_q in run.in_qs:
            outputs.extend(self._put_checked(run, in_q, ("eor",)))
        while len(run.eor_seen) < self.feeds:
            outputs.extend(self._pump(run, block=True))
        outputs.extend(self._deliver(run, self.merge.release()))
        for worker in run.workers:
            worker.join()
        if not self.merge.drained:
            raise RuntimeError(
                "ingest merge failed to drain at end of run"
                f" ({self.merge.buffered} entries held back)"
            )
        return outputs

    def _put_checked(self, run: _Run, in_q, message) -> list[Any]:
        """Non-blocking put that keeps the pipeline moving when full.

        A full feed queue means the workers are ahead of the merge:
        pump the return path (which releases elements downstream and
        thereby unblocks the workers' bounded output queue) and retry.
        """
        outputs: list[Any] = []
        while True:
            try:
                in_q.put_nowait(message)
                return outputs
            except queue_mod.Full:
                outputs.extend(self._pump(run, block=True))
                self._check_alive(run)

    def _pump(self, run: _Run, block: bool) -> list[Any]:
        """Sweep the publication queues, merge, release, deliver.

        The sweep skips a feed while its reorder buffer holds more
        than :attr:`reorder_limit` entries — that feed's bounded queue
        then fills and its worker blocks: the **bounded reorder
        window**.  Skipping is deadlock-free: a feed over the limit
        has buffered entries, so it is never the feed the release rule
        is waiting on — the blocking feed's queue always drains, its
        watermark advances, the release frontier moves and the
        skipped feed's buffer shrinks back under the limit.

        With ``block`` set, one bounded wait happens when a full sweep
        makes no progress (callers that need more messages loop);
        liveness is re-checked between waits.
        """
        outputs: list[Any] = []
        merge = self.merge
        limit = self.reorder_limit
        while True:
            progress = False
            for fid in range(self.feeds):
                out_q = run.out_qs[fid]
                if out_q is None or fid in run.eor_seen:
                    continue
                while merge.feed_buffered(fid) <= limit:
                    try:
                        msg = out_q.get_nowait()
                    except queue_mod.Empty:
                        break
                    progress = True
                    kind = msg[0]
                    if kind == "batch":
                        merge.push(fid, msg[2], msg[3])
                    elif kind == "pbatch":
                        try:
                            wires = unpack_wires(msg[2])
                            keyed = [
                                (wire_sort_key(wire), wire)
                                for wire in wires
                            ]
                        except Exception as exc:
                            # A corrupt wire payload is a worker-side
                            # data fault: recoverable (the run aborts
                            # and a supervisor can roll back), never a
                            # silent skip — the feed's watermark
                            # promise would break.
                            raise WorkerCrashError(
                                f"ingest feed {fid} published an"
                                f" undecodable wire batch: {exc!r}"
                            ) from exc
                        watermark = msg[3]
                        merge.push(
                            fid,
                            keyed,
                            tuple(watermark)
                            if watermark is not None
                            else None,
                        )
                    elif kind == "eor":
                        self._apply_eor(run, fid, msg[2])
                        break
                    elif kind == "mtx":
                        # Throttled live counter frame from a forked
                        # feed; never gates the run, only the live view.
                        self._live_frames[msg[1]] = msg[2]
                    elif kind == "err":
                        raise WorkerCrashError(
                            f"ingest feed worker failed:\n{msg[2]}"
                        )
            released = merge.release()
            if released:
                progress = True
                outputs.extend(self._deliver(run, released))
            if progress:
                self._idle_since = None
            if not block:
                return outputs
            if progress:
                return outputs
            self._check_alive(run)
            self._stall_tick(run)
            time.sleep(WAIT_POLL_S)

    def _apply_eor(self, run: _Run, fid: int, info) -> None:
        if info is not None:
            # A forked worker ships its counters home.
            self.admissions[fid].load_state(info["ingest"])
            meter = self.meters[fid]
            meter.fed, meter.emitted, meter.seconds = info["meter"]
        _LOG.debug(
            "feed %d end of run: fed=%d emitted=%d",
            fid,
            self.meters[fid].fed,
            self.meters[fid].emitted,
        )
        # The driver-side counters are authoritative from here on.
        self._live_frames.pop(fid, None)
        self.merge.end_of_run(fid)
        run.eor_seen.add(fid)

    def _deliver(self, run: _Run, payloads: list) -> list[Any]:
        if not payloads:
            return []
        return self.sink.feed_released(payloads, run.wired)

    def _check_usable(self) -> None:
        if self._failed:
            raise RuntimeError(
                "ingest tier is unusable after an aborted run (the"
                " stream has a hole at an unknown position); build a"
                " fresh detector or restore from a checkpoint"
            )

    def _abort_run(self, run: _Run) -> None:
        """Tear a failed run down without leaking into the next one.

        Forked workers are terminated; thread workers are cancelled
        and *joined* — unblocked by draining both ends of their
        bounded queues and posting end-of-run — so no worker is still
        mutating the shared per-feed admission counters once this
        returns.  Everything the merge still buffered from the
        abandoned run is discarded — it must never reach the detector
        — and the tier is poisoned for further *elements*: the stream
        now has a hole at an unknown position.  Taking a snapshot
        after an abort remains sound (and is the recovery path): the
        detector's state is a consistent prefix of the stream, and
        the workers are quiescent by the time this method returns.
        """
        self._failed = True
        run.cancel.set()
        for worker in run.workers:
            if worker is not None and hasattr(worker, "terminate"):
                worker.terminate()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = False
            for fid, worker in enumerate(run.workers):
                if (
                    worker is None
                    or hasattr(worker, "terminate")
                    or not worker.is_alive()
                ):
                    continue
                alive = True
                # Unblock a worker parked on either bounded queue.
                in_q = run.in_qs[fid] if fid < len(run.in_qs) else None
                if in_q is not None:
                    try:
                        while True:
                            in_q.get_nowait()
                    except queue_mod.Empty:
                        pass
                    try:
                        in_q.put_nowait(("eor",))
                    except queue_mod.Full:
                        pass
                out_q = run.out_qs[fid]
                if out_q is not None:
                    try:
                        while True:
                            out_q.get_nowait()
                    except queue_mod.Empty:
                        pass
                worker.join(timeout=0.05)
            if not alive:
                break
        reap_workers(
            [
                worker
                for worker in run.workers
                if worker is not None and hasattr(worker, "terminate")
            ],
            [q for q in run.out_qs if q is not None] if run.wired else (),
        )
        self.merge.discard_buffered()

    def _check_alive(self, run: _Run) -> None:
        # Workers post "err" before dying; a dead worker whose message
        # is still queued (or whose buffer is merely capped) surfaces
        # through the pump — only raise once its queue is quiet, its
        # buffer is drainable and the worker is truly gone.
        dead = [
            (worker.name, getattr(worker, "exitcode", None))
            for fid, worker in enumerate(run.workers)
            if worker is not None
            and not worker.is_alive()
            and fid not in run.eor_seen
            and run.out_qs[fid].empty()
            and self.merge.feed_buffered(fid) <= self.reorder_limit
        ]
        if dead:
            raise WorkerDeathError(
                dead,
                self._queue_depth_sample(run),
                pending_ctl=0,
                noun="ingest feed worker(s)",
            )

    def _stall_tick(self, run: _Run) -> None:
        """No progress this sweep: arm/advance the stall deadline."""
        timeout = self.stall_timeout_s
        if timeout is None:
            return
        now = time.monotonic()
        if self._idle_since is None:
            self._idle_since = now
            return
        stalled = now - self._idle_since
        if stalled >= timeout:
            raise WorkerStallError(
                stalled,
                timeout,
                self._queue_depth_sample(run),
                noun="ingest feed worker(s)",
            )

    @staticmethod
    def _queue_depth_sample(run: _Run) -> dict[str, int]:
        named = {
            f"out[{i}]": q for i, q in enumerate(run.out_qs) if q is not None
        }
        for i, q in enumerate(run.in_qs):
            named[f"in[{i}]"] = q
        return queue_depths(named)

    def _feed_primes(self, primes: list[Any]) -> list[Any]:
        self.priming_updates += len(primes)
        self.prime_meter.fed += len(primes)
        self.prime_meter.emitted += len(primes)
        return self.sink.feed_primes(primes)

    # ------------------------------------------------------------------
    # Checkpoint composition (the layout-free ingest section)
    # ------------------------------------------------------------------
    def composed_ingest_state(self) -> dict:
        return compose_ingest_state(
            [admission.state_dict() for admission in self.admissions],
            self.priming_updates,
            self.merge.last_time,
        )

    def composed_ingest_meter(self) -> tuple[int, int, float]:
        fed = self.prime_meter.fed
        emitted = self.prime_meter.emitted
        seconds = self.prime_meter.seconds
        for meter in self.meters:
            fed += meter.fed
            emitted += meter.emitted
            seconds += meter.seconds
        return fed, emitted, seconds

    # ------------------------------------------------------------------
    # Live (mid-run) views: best-effort, never gate the run
    # ------------------------------------------------------------------
    def live_ingest_meter(self) -> tuple[int, int, float]:
        """Running ingest totals: forked feeds contribute their latest
        piggybacked frame (the parent meters only update at end of
        run), thread/driver feeds read the shared meters directly."""
        frames = dict(self._live_frames)
        fed = self.prime_meter.fed
        emitted = self.prime_meter.emitted
        seconds = self.prime_meter.seconds
        for fid, meter in enumerate(self.meters):
            frame = frames.get(fid)
            if frame is not None:
                f, e, s = frame["meter"]
            else:
                f, e, s = meter.fed, meter.emitted, meter.seconds
            fed += f
            emitted += e
            seconds += s
        return fed, emitted, seconds

    def live_feed_view(self) -> dict[str, dict]:
        """Per-feed admission counters of the *running* tier.

        Sampled without synchronisation: forked feeds serve their last
        live frame, thread feeds the shared admission stage (a feed
        whose counters are mid-mutation is skipped rather than read
        torn — the next sample catches up).
        """
        frames = dict(self._live_frames)
        view: dict[str, dict] = {}
        for fid in range(self.feeds):
            frame = frames.get(fid)
            if frame is not None:
                doc = dict(frame["ingest"])
                fed, emitted, seconds = frame["meter"]
            else:
                try:
                    doc = self.admissions[fid].state_dict()
                except RuntimeError:  # counters mutating under our feet
                    continue
                meter = self.meters[fid]
                fed, emitted, seconds = (
                    meter.fed, meter.emitted, meter.seconds,
                )
            doc.pop("last_time", None)
            doc["fed"] = fed
            doc["emitted"] = emitted
            doc["seconds"] = seconds
            view[f"feed{fid}"] = doc
        return view

    def distribute_ingest_state(
        self, state: dict, meter: tuple[int, int, float]
    ) -> None:
        """Load a canonical ingest section into this feed layout.

        Also clears the aborted-run poison: a checkpoint restore
        rewinds the whole detector to a consistent stream position,
        so the hole an aborted run left no longer exists.
        """
        self._failed = False
        self._idle_since = None
        per_feed, priming = split_ingest_state(state, self.feeds)
        for admission, feed_state in zip(self.admissions, per_feed):
            admission.load_state(feed_state)
        self.priming_updates = priming
        self.merge.set_cursor(state["last_time"])
        self.merge.released = 0
        self.merge.late_elements = 0
        self.merge.peak_buffered = 0
        for index, stage_meter in enumerate(self.meters):
            stage_meter.fed, stage_meter.emitted, stage_meter.seconds = (
                meter if index == 0 else (0, 0, 0.0)
            )
        self.prime_meter.fed = 0
        self.prime_meter.emitted = 0
        self.prime_meter.seconds = 0.0

    def __repr__(self) -> str:
        return (
            f"IngestTier(feeds={self.feeds}, batch={self.batch_size},"
            f" merge={self.merge!r})"
        )


# ----------------------------------------------------------------------
# Facade wrapper: the tier behind the Kepler chain surface
# ----------------------------------------------------------------------
def _driver_ingest(inner) -> IngestStage:
    """The (bypassed) driver-side ingest stage of the wrapped runtime."""
    ingest = getattr(inner, "ingest", None)
    if ingest is not None:
        return ingest
    return inner.pipeline._ingest  # the shard-process runtime


def _driver_registry(inner) -> PipelineMetrics:
    """The registry holding the wrapped runtime's ingest metrics entry."""
    registry = getattr(inner.pipeline, "_registry", None)
    if registry is not None:
        return registry
    registry = getattr(inner, "upstream_metrics", None)
    if registry is not None:
        return registry
    return inner.metrics


class IngestKeplerPipeline:
    """Facade wrapper: the ingest tier around any chain runtime.

    Mirrors :class:`~repro.pipeline.KeplerPipeline` — the views
    delegate to the wrapped runtime (whose own wrappers run their
    drain barriers as needed; the tier itself is always quiescent
    between calls), and the checkpoint surface swaps the wrapped
    runtime's (bypassed, zero) ingest section for the tier's composed
    one.
    """

    def __init__(self, tier: IngestTier, inner) -> None:
        self.pipeline = tier
        self.tier = tier
        self.inner = inner
        self.cache = inner.cache

    # -- facade views ---------------------------------------------------
    @property
    def records(self):
        return self.inner.records

    @property
    def open(self):
        return self.inner.open

    @property
    def signal_log(self):
        return self.inner.signal_log

    @property
    def rejected(self):
        return self.inner.rejected

    @property
    def monitoring(self):
        return self.inner.monitoring

    @property
    def metrics(self) -> PipelineMetrics:
        view = self.inner.metrics
        if view is getattr(self.inner.pipeline, "metrics", None):
            # The linear chain exposes its *live* shared registry:
            # compose a copy before adding the tier counters.  Every
            # other runtime returns a freshly-composed view, which is
            # safe to annotate in place.
            composed = PipelineMetrics()
            for name in view.stages:
                composed.stage(name)
            composed.absorb(view)
            composed.absorb_bins(view)
            composed.recovery = RecoveryStats(**vars(view.recovery))
            view = composed
        handle = view.stage("ingest")
        fed, emitted, seconds = self.tier.composed_ingest_meter()
        handle.fed += fed
        handle.emitted += emitted
        handle.seconds += seconds
        return view

    def metrics_live(self) -> dict:
        """Live snapshot: wrapped runtime + tier admission, no drain.

        The wrapped runtime's driver-side ingest entry is bypassed
        (zero) under the tier, so the tier's running totals are added
        to the ingest stage row; ``snap["feeds"]`` carries the
        per-feed admission breakdown.
        """
        inner_live = getattr(self.inner, "metrics_live", None)
        if inner_live is not None:
            snap = inner_live()
        else:
            snap = self.inner.metrics.snapshot()
            snap.setdefault("depths", {})
        fed, emitted, seconds = self.tier.live_ingest_meter()
        for stage in snap.get("stages", []):
            if stage.get("name") == "ingest":
                stage["fed"] = stage.get("fed", 0) + fed
                stage["emitted"] = stage.get("emitted", 0) + emitted
                stage["seconds"] = stage.get("seconds", 0.0) + seconds
                break
        snap["feeds"] = self.tier.live_feed_view()
        return snap

    # -- lifecycle ------------------------------------------------------
    def process_feeds(self, sources: Iterable[Iterable[Any]]) -> list[Any]:
        return self.tier.process_feeds(sources)

    def finalize_records(self, end_time: float | None = None):
        return self.inner.finalize_records(end_time)

    def close(self) -> None:
        for target in (self.inner, self.inner.pipeline):
            close = getattr(target, "close", None)
            if close is not None:
                close()
                return

    # -- checkpointing --------------------------------------------------
    @staticmethod
    def _upstream_doc(doc: dict) -> dict:
        """The sub-document holding the ingest stage state/metrics."""
        return doc if "stages" in doc else doc["upstream"]

    def checkpoint_parts(self) -> dict:
        parts = self.inner.checkpoint_parts()
        doc = self._upstream_doc(parts["pipeline"])
        doc["stages"]["ingest"] = self.tier.composed_ingest_state()
        metrics = PipelineMetrics()
        metrics.load_state(doc["metrics"])
        handle = metrics.stage("ingest")
        fed, emitted, seconds = self.tier.composed_ingest_meter()
        handle.fed += fed
        handle.emitted += emitted
        handle.seconds += seconds
        doc["metrics"] = metrics.state_dict()
        return parts

    def restore_parts(self, parts: dict) -> None:
        self.inner.restore_parts(parts)
        doc = self._upstream_doc(parts["pipeline"])
        # The wrapped runtime just loaded the full ingest counters into
        # its driver-side stage and registry entry; under the tier both
        # are bypassed, so move the state where admission now happens —
        # otherwise the next composition would double count.
        metrics = PipelineMetrics()
        metrics.load_state(doc["metrics"])
        entry = metrics.stages.get("ingest")
        meter = (
            (entry.fed, entry.emitted, entry.seconds)
            if entry is not None
            else (0, 0, 0.0)
        )
        _driver_ingest(self.inner).load_state(zero_ingest_state())
        registry_entry = _driver_registry(self.inner).stages.get("ingest")
        if registry_entry is not None:
            registry_entry.fed = 0
            registry_entry.emitted = 0
            registry_entry.seconds = 0.0
        self.tier.distribute_ingest_state(doc["stages"]["ingest"], meter)


def build_ingest_kepler_pipeline(
    inner, feeds: int, batch_size: int = ROUTE_CHUNK
) -> IngestKeplerPipeline:
    """Wrap a chain runtime in the sharded collector ingest tier.

    ``inner`` is either runtime wrapper the facade builds (linear,
    shard-process); the sink is chosen to match — wire forwarding for
    the shard-process runtime, post-ingest chain entry for the linear
    chain.
    """
    runtime = inner.pipeline
    if isinstance(runtime, ShardProcessPipeline):
        sink = WireSink(runtime)
    else:
        sink = ChainSink(runtime)
    return IngestKeplerPipeline(IngestTier(sink, feeds, batch_size), inner)

"""The collector ingest tier: forked feed workers + watermark merge.

Kepler reads one time-ordered stream merged from many BGP collectors
(Section 4.1).  Parsing a collector's feed is the one stage that is
parallel by nature, so ``Kepler.process_feeds`` can hand each
collector's source to a forked feed worker:

.. code-block:: text

      collector sources                forked feed workers
    ──────────────────              ───────────────────────────────
    rrc00 ── elements ──▶ feed 0:  admit + count + encode, publish
    rrc01 ── elements ──▶ feed 1:  seq batches with low watermarks
    rrc03 ── elements ──▶ feed 2:          │
                                           ▼
                              WatermarkMerge (min-watermark release,
                              bounded reorder window, late accounting)
                                           │  sorted envelope batches
                                           ▼
                              runtime.feed_admitted_wires (linear
                              chain or shard processes)

* **One admission path.**  ``feed`` / ``feed_many`` / ``flush`` — what
  ``Kepler.process`` and ``prime`` drive — go straight to the wrapped
  runtime, whose driver :class:`~repro.pipeline.ingest.IngestStage`
  admits them exactly as under ``ingest_feeds=0``: output and
  checkpoint bytes never depend on the feed layout.  A forked worker
  admits on a fresh stage holding the driver stage's clock and ships
  its counters home at end of run; the tier adds them into the driver
  stage and sets its clock to the merge's release clock.  The
  checkpoint's ingest section is therefore the driver stage's own, in
  every layout.
* **Backpressure, not buffering.**  Every queue is bounded; a fast
  feed eventually blocks publishing until the merge releases, and the
  driver only unblocks queues by pumping released elements through
  the detector.  One slow collector holds the watermark back (the
  stream must stay ordered) but can never cause silent reordering —
  an element arriving below the release cursor is surfaced through
  :attr:`~repro.ingest.merge.WatermarkMerge.late_elements`.
* **Workers are per-run.**  A run is one ``process_feeds`` call;
  workers fork at its start and are joined before it returns, so
  every facade read or snapshot between calls observes a quiescent
  tier.  Where the platform cannot fork, the run merges the sources
  in the driver (:func:`~repro.ingest.feed.merged_feed_stream`).
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as queue_mod
import time
from typing import Any, Iterable

from repro.core.serde import wire_sort_key
from repro.ingest.feed import (
    Sources,
    assign_feeds,
    merged_feed_stream,
    source_feed_process,
)
from repro.ingest.merge import WatermarkMerge
from repro.pipeline import parallel
from repro.pipeline.ingest import IngestStage
from repro.pipeline.liveness import (
    WorkerCrashError,
    WorkerDeathError,
    WorkerStallError,
    queue_depths,
    reap_workers,
)

_LOG = logging.getLogger("repro.ingest.tier")

#: Admitted elements per batch a forked feed worker publishes.
PUBLISH_BATCH = 1024
#: Bounded queue depth, in batches — backpressure, not buffering.
FEED_QUEUE_DEPTH = 8
#: Poll interval for blocking waits (liveness checks in between).
WAIT_POLL_S = 0.002


class _Run:
    """Bookkeeping for one forked ``process_feeds`` run."""

    def __init__(self, feeds: int) -> None:
        #: per-feed publication queues (bounded): the feed's half of
        #: the reorder-window backpressure loop.
        self.out_qs: list = [None] * feeds
        self.workers: list = [None] * feeds
        self.eor_seen: set[int] = set()


class IngestTier:
    """Forked per-collector admission + watermark merge over a runtime.

    ``runtime`` is the wrapped runtime's feed surface (a
    :class:`~repro.pipeline.runtime.StagePipeline` or a
    :class:`~repro.pipeline.parallel.ShardProcessPipeline`); it must
    offer ``feed`` / ``feed_many`` / ``flush``, ``feed_admitted_wires``
    and ``admission()``.  All entry points are synchronous: they return
    only when every element has cleared the tier.
    """

    #: When set, a blocked pump that sees no feed progress for this
    #: long raises :class:`WorkerStallError` (see the parallel
    #: runtimes' attribute of the same name).
    stall_timeout_s: float | None = None

    def __init__(self, runtime, feeds: int) -> None:
        if feeds < 1:
            raise ValueError("the ingest tier needs >= 1 feed")
        self.runtime = runtime
        self.feeds = feeds
        #: Bounded reorder window, in entries per feed: the pump stops
        #: draining a feed that is this far ahead of the release
        #: frontier, so its bounded queue backpressures the worker.
        self.reorder_limit = PUBLISH_BATCH * FEED_QUEUE_DEPTH
        #: The release cursor persists across runs; a run re-anchors it
        #: on the driver stage's clock when the two differ.
        self.merge = WatermarkMerge(feeds)
        #: Set when a run was aborted (a feed worker failed): the
        #: stream has a hole at an unknown position, so the tier
        #: refuses further elements until a checkpoint restore.
        self._failed = False
        #: monotonic instant the pump last made progress while blocked
        #: (``None`` = not currently blocked).
        self._idle_since: float | None = None
        #: latest live counter frame per running feed worker ("mtx"
        #: messages), dropped at the feed's end of run.
        self._live_frames: dict[int, dict] = {}
        #: per-feed admission totals of finished forked runs, as
        #: ``(stage, [fed, emitted, seconds])`` — live telemetry only,
        #: never checkpointed.
        self._feed_totals: dict[int, tuple[IngestStage, list]] = {}

    # ------------------------------------------------------------------
    # StagePipeline-compatible surface: the driver ingest path
    # ------------------------------------------------------------------
    def feed(self, element: Any) -> list[Any]:
        self._check_usable()
        return self.runtime.feed(element)

    def feed_many(self, elements: Iterable[Any]) -> list[Any]:
        self._check_usable()
        return self.runtime.feed_many(elements)

    def flush(self) -> list[Any]:
        self._check_usable()
        return self.runtime.flush()

    def restored(self) -> None:
        """A checkpoint restore rewound the detector to a consistent
        stream position: the hole an aborted run left no longer exists."""
        self._failed = False
        self._idle_since = None

    # ------------------------------------------------------------------
    # Per-collector sources
    # ------------------------------------------------------------------
    def process_feeds(self, sources: Sources) -> list[Any]:
        """Consume per-collector element sources in forked feed workers.

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
        whatever the worker interleaving.  Where the platform cannot
        fork, the same merge runs in the driver
        (:func:`~repro.ingest.feed.merged_feed_stream`) into the wrapped
        runtime's ``feed_many``.
        """
        self._check_usable()
        if not parallel.fork_available():
            return self.runtime.feed_many(
                merged_feed_stream(sources, self.feeds)
            )
        assignment = assign_feeds(sources, self.feeds)
        stage, _ = self.runtime.admission()
        merge = self.merge
        if merge.last_time != stage.last_time:
            # Elements ran through the driver path (or a restore moved
            # the clock) since the last feed run.
            merge.set_cursor(stage.last_time)
        run = _Run(self.feeds)
        for fid in range(self.feeds):
            self._feed_totals.setdefault(fid, (IngestStage(), [0, 0, 0.0]))
        merge.begin_run()
        ctx = multiprocessing.get_context("fork")
        for fid in range(self.feeds):
            if not assignment[fid]:
                # No sources: the feed is vacuously done for this run.
                merge.end_of_run(fid)
                run.eor_seen.add(fid)
                continue
            out_q = ctx.Queue(FEED_QUEUE_DEPTH)
            worker = ctx.Process(
                target=source_feed_process,
                args=(
                    fid,
                    assignment[fid],
                    stage.last_time,
                    out_q,
                    PUBLISH_BATCH,
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
            outputs.extend(self._deliver(merge.release()))
            if not merge.drained:
                raise RuntimeError(
                    "ingest merge failed to drain at end of run"
                    f" ({merge.buffered} entries held back)"
                )
        except BaseException:
            self._abort_run(run)
            raise
        for worker in run.workers:
            if worker is not None:
                worker.join()
        for out_q in run.out_qs:
            if out_q is not None:
                out_q.close()
        stage.last_time = merge.last_time
        return outputs

    # ------------------------------------------------------------------
    # Forked run machinery
    # ------------------------------------------------------------------
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
                    if kind == "pbatch":
                        try:
                            wires = parallel.unpack_wires(msg[2])
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
                        # Throttled live counter frame; never gates the
                        # run, only the live view.
                        self._live_frames[msg[1]] = msg[2]
                    elif kind == "err":
                        raise WorkerCrashError(
                            f"ingest feed worker failed:\n{msg[2]}"
                        )
            released = merge.release()
            if released:
                progress = True
                outputs.extend(self._deliver(released))
            if progress:
                self._idle_since = None
            if not block or progress:
                return outputs
            self._check_alive(run)
            self._stall_tick(run)
            time.sleep(WAIT_POLL_S)

    def _apply_eor(self, run: _Run, fid: int, counts: dict) -> None:
        """Add a finished worker's counters into the driver stage."""
        stage, meter = self.runtime.admission()
        stage.absorb(counts["ingest"])
        fed, emitted, seconds = counts["meter"]
        meter.fed += fed
        meter.emitted += emitted
        meter.seconds += seconds
        total, total_meter = self._feed_totals[fid]
        total.absorb(counts["ingest"])
        for index, value in enumerate(counts["meter"]):
            total_meter[index] += value
        _LOG.debug("feed %d end of run: fed=%d emitted=%d", fid, fed, emitted)
        self._live_frames.pop(fid, None)
        self.merge.end_of_run(fid)
        run.eor_seen.add(fid)

    def _deliver(self, payloads: list) -> list[Any]:
        if not payloads:
            return []
        return self.runtime.feed_admitted_wires(payloads)

    def _check_usable(self) -> None:
        if self._failed:
            raise RuntimeError(
                "ingest tier is unusable after an aborted run (the"
                " stream has a hole at an unknown position); build a"
                " fresh detector or restore from a checkpoint"
            )

    def _abort_run(self, run: _Run) -> None:
        """Tear a failed run down without leaking into the next one.

        The workers are terminated and reaped.  Everything the merge
        still buffered from the abandoned run is discarded — it must
        never reach the detector — and the tier is poisoned for
        further elements: the stream now has a hole at an unknown
        position.  Taking a snapshot after an abort remains sound (and
        is the recovery path): the detector's state is a consistent
        prefix of the stream.
        """
        self._failed = True
        workers = [worker for worker in run.workers if worker is not None]
        for worker in workers:
            worker.terminate()
        reap_workers(workers, [q for q in run.out_qs if q is not None])
        self.merge.discard_buffered()
        self._live_frames.clear()

    def _check_alive(self, run: _Run) -> None:
        # Workers post "err" before dying; a dead worker whose message
        # is still queued (or whose buffer is merely capped) surfaces
        # through the pump — only raise once its queue is quiet, its
        # buffer is drainable and the worker is truly gone.
        dead = [
            (worker.name, worker.exitcode)
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
        return queue_depths(
            {f"out[{i}]": q for i, q in enumerate(run.out_qs) if q is not None}
        )

    # ------------------------------------------------------------------
    # Live (mid-run) views: best-effort, never gate the run
    # ------------------------------------------------------------------
    def live_ingest_meter(self) -> tuple[int, int, float]:
        """Running totals of the forked workers still in a run (the
        driver's ingest entry holds every finished one)."""
        fed = emitted = 0
        seconds = 0.0
        for frame in list(self._live_frames.values()):
            f, e, s = frame["meter"]
            fed += f
            emitted += e
            seconds += s
        return fed, emitted, seconds

    def live_feed_view(self) -> dict[str, dict]:
        """Per-feed admission totals of forked runs, running frame
        included.  Empty until a forked run happens: ``process`` has
        no feeds."""
        frames = dict(self._live_frames)
        view: dict[str, dict] = {}
        for fid, (total, meter) in sorted(self._feed_totals.items()):
            running = IngestStage()
            running.absorb(total.state_dict())
            fed, emitted, seconds = meter
            frame = frames.get(fid)
            if frame is not None:
                running.absorb(frame["ingest"])
                frame_fed, frame_emitted, frame_seconds = frame["meter"]
                fed += frame_fed
                emitted += frame_emitted
                seconds += frame_seconds
            doc = running.state_dict()
            del doc["last_time"]
            doc.update(fed=fed, emitted=emitted, seconds=seconds)
            view[f"feed{fid}"] = doc
        return view

    def __repr__(self) -> str:
        return f"IngestTier(feeds={self.feeds}, merge={self.merge!r})"


# ----------------------------------------------------------------------
# Facade wrapper: the tier around the Kepler chain surface
# ----------------------------------------------------------------------
class IngestKeplerPipeline:
    """Facade wrapper: the ingest tier around either chain runtime.

    Every view, the metrics and the checkpoint surface are the wrapped
    runtime's own (its driver ingest stage counts every element, in
    every layout); the tier adds ``process_feeds`` and the per-feed
    live telemetry.
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
    def metrics(self):
        return self.inner.metrics

    def metrics_live(self) -> dict:
        """Live snapshot: wrapped runtime + running feed workers, no drain.

        Forked workers count into the driver's ingest entry at end of
        run, so their running frames are added to the ingest stage
        row; ``snap["feeds"]`` carries the per-feed breakdown.
        """
        snap = self.inner.metrics_live()
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
    def process_feeds(self, sources: Sources) -> list[Any]:
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
    def checkpoint_parts(self) -> dict:
        return self.inner.checkpoint_parts()

    def restore_parts(self, parts: dict) -> None:
        self.inner.restore_parts(parts)
        self.tier.restored()


def build_ingest_kepler_pipeline(inner, feeds: int) -> IngestKeplerPipeline:
    """Wrap a chain runtime (linear or shard-process) in the ingest tier."""
    return IngestKeplerPipeline(IngestTier(inner.pipeline, feeds), inner)

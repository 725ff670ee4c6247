"""Crash-tolerant supervision: checkpoint-replay recovery over any runtime.

The shard-process runtime (:mod:`repro.pipeline.parallel`) fails
loudly — a SIGKILLed worker, a hung
queue or a poisoned wire batch surfaces as a
:class:`~repro.pipeline.liveness.RecoverableWorkerError` subclass and
the runtime is dead.  This module turns that death into *metered,
bounded-time, byte-exact recovery*:

* the supervisor journals every admitted element chunk since the last
  checkpoint into a bounded in-memory replay buffer, and takes
  **micro-checkpoints** (the layout-free v3 document, via the
  runtimes' drain-barrier ``checkpoint_parts``) every
  ``checkpoint_interval`` elements — at chunk boundaries, which the
  drain barrier aligns with the per-bin syncs;
* on a recoverable failure it tears the runtime down
  (:func:`~repro.pipeline.liveness.reap_workers` under a short
  deadline), rebuilds a fresh worker set through the ``build``
  factory after exponential backoff, restores the last checkpoint and
  replays the journal — the fired-flag protocol of
  :mod:`repro.pipeline.faults` (and real crashes being one-off)
  guarantees the replayed elements pass unharmed;
* after ``max_restarts`` failed recoveries it **degrades gracefully**:
  the ``fallback`` factory builds the in-process chain (no forked
  workers, no queues — nothing left to kill), the same checkpoint
  restores into it (the document is runtime-independent by
  construction) and the stream finishes linearly rather than raising;
* a quarantined batch (see the dead-letter path in
  :mod:`repro.pipeline.parallel`) is *recoverable data loss* under
  supervision: instead of continuing past the dropped elements, the
  supervisor rolls back to the last checkpoint and replays, so the
  supervised stream stays byte-identical to an unfaulted run.

Recovery is visible, not silent: ``restarts``, ``replayed_elements``,
``recovery_ms``, ``degraded`` and ``quarantined_batches`` surface
through :class:`~repro.pipeline.metrics.PipelineMetrics` (the
``recovery`` section of every snapshot) — telemetry only, never
checkpoint state, so faulted and unfaulted checkpoints stay
byte-identical.

Wire-up lives in :class:`repro.core.kepler.Kepler`:
``KeplerParams(supervised=True, recovery=RecoveryPolicy(...))`` wraps
whichever runtime the other knobs built.
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from typing import Any, Callable, Iterable

from repro.pipeline.liveness import PoisonedBatchError, RecoverableWorkerError
from repro.pipeline.metrics import PipelineMetrics, RecoveryStats
from repro.pipeline.parallel import DEAD_LETTER_CAP
from repro.pipeline.runtime import FEED_CHUNK
from repro.telemetry import TraceJournal

_LOG = logging.getLogger("repro.pipeline.supervisor")


class SupervisedPipeline:
    """The ``pipeline`` facade of a supervised runtime.

    Presents the :class:`~repro.pipeline.runtime.StagePipeline` feed
    surface (``feed`` / ``feed_many`` / ``flush``) while routing every
    call through the supervisor's journal-and-guard path.  ``feed_many``
    materialises the stream into journal-sized chunks — the journal
    must hold concrete elements to replay them.
    """

    def __init__(self, supervisor: "SupervisedKeplerPipeline") -> None:
        self._supervisor = supervisor

    def feed(self, element: Any) -> list[Any]:
        return self._supervisor._feed_chunk([element])

    def feed_many(self, elements: Iterable[Any]) -> list[Any]:
        supervisor = self._supervisor
        outs: list[Any] = []
        chunk: list[Any] = []
        for element in elements:
            chunk.append(element)
            if len(chunk) >= FEED_CHUNK:
                outs.extend(supervisor._feed_chunk(chunk))
                chunk = []
        if chunk:
            outs.extend(supervisor._feed_chunk(chunk))
        return outs

    def flush(self) -> list[Any]:
        return self._supervisor._flush()


class SupervisedKeplerPipeline:
    """Supervision wrapper with the standard stages-facade surface.

    ``build`` constructs the primary runtime (fresh stage state, fresh
    workers) and is called again for every restart; ``fallback``
    constructs the in-process degradation target.  Both must return a
    stages wrapper (``KeplerPipeline`` / ``ShardProcessKeplerPipeline``)
    whose checkpoint documents are
    mutually restorable — which they are: every runtime writes the
    linear layout, the repo-wide checkpoint contract.

    The wrapper is deliberately *not* transparent about incremental
    outputs: a chunk interrupted by a recovery returns ``[]`` (its
    outputs re-materialise inside the replay and are discarded) — the
    authoritative read surface is the facade views (``records``,
    ``signal_log``, ``finalize_records``), which are byte-identical to
    an unfaulted run.
    """

    def __init__(
        self,
        build: Callable[[], Any],
        fallback: Callable[[], Any] | None = None,
        policy: Any | None = None,
    ) -> None:
        if policy is None:
            from repro.core.kepler import RecoveryPolicy

            policy = RecoveryPolicy()
        self._build = build
        self._fallback = fallback if fallback is not None else build
        self.policy = policy
        self.recovery_stats = RecoveryStats()
        #: replay buffer: ``("elements", chunk)`` / ``("flush",)`` units
        #: since the last stored checkpoint.
        self._journal: list[tuple] = []
        self._journal_elements = 0
        #: supervised dead-letter mirror: quarantined batches harvested
        #: from the (about to be torn down) runtime before recovery.
        self.dead_letters: deque = deque(maxlen=DEAD_LETTER_CAP)
        #: supervision-lifecycle trace journal: checkpoints, failures,
        #: replays, degradation.  Supervisor-owned so events survive
        #: runtime rebuilds; telemetry only, never checkpoint state.
        self.trace = TraceJournal(pid_label="supervisor")
        self.inner = build()
        self._apply_policy()
        # The epoch checkpoint: a fresh runtime's (empty) document, so
        # a crash before the first interval still has a restore target.
        self._checkpoint = json.dumps(
            self.inner.checkpoint_parts(), sort_keys=True
        )
        self.pipeline = SupervisedPipeline(self)

    # ------------------------------------------------------------------
    # Runtime discovery: the knob surface of whatever ``build`` built
    # ------------------------------------------------------------------
    def _runtimes(self) -> list[Any]:
        """The built wrapper and its ``pipeline``, where they carry a
        supervision knob (the shard-process runtime's feed surface)."""
        return [
            obj
            for obj in (self.inner, self.inner.pipeline)
            if hasattr(type(obj), "stall_timeout_s") or hasattr(obj, "quarantined")
        ]

    def _apply_policy(self) -> None:
        """Arm the stall detector and shorten teardown on every runtime."""
        for runtime in self._runtimes():
            if hasattr(type(runtime), "stall_timeout_s"):
                runtime.stall_timeout_s = self.policy.stall_timeout_s
            if hasattr(type(runtime), "teardown_deadline_s"):
                runtime.teardown_deadline_s = self.policy.teardown_deadline_s

    def _quarantine_delta(self) -> int:
        """Quarantined batches on the *current* runtimes, dead letters
        harvested.

        Every positive delta is immediately consumed by a recovery
        (which tears the counted runtimes down), so the live counters
        always read "since the last rebuild".
        """
        total = 0
        for runtime in self._runtimes():
            count = getattr(runtime, "quarantined", 0)
            if count:
                total += count
                self.dead_letters.extend(
                    getattr(runtime, "dead_letters", ())
                )
        return total

    # ------------------------------------------------------------------
    # Journal + micro-checkpoints
    # ------------------------------------------------------------------
    def _feed_chunk(self, chunk: list[Any]) -> list[Any]:
        self._journal.append(("elements", chunk))
        self._journal_elements += len(chunk)
        outs = self._guarded(lambda inner: inner.pipeline.feed_many(chunk))
        self._maybe_checkpoint()
        return outs

    def _flush(self) -> list[Any]:
        self._journal.append(("flush",))
        outs = self._guarded(lambda inner: inner.pipeline.flush())
        # Always checkpoint after a flush: it is the natural quiescent
        # point, and it makes the finalize path cheap to guard.
        self._take_checkpoint()
        return outs

    def _maybe_checkpoint(self) -> None:
        trigger = self.policy.checkpoint_interval
        if self.policy.journal_limit is not None:
            trigger = min(trigger, self.policy.journal_limit)
        if self._journal_elements >= trigger:
            self._take_checkpoint()

    def _take_checkpoint(self) -> None:
        """Store a clean micro-checkpoint and clear the journal.

        A checkpoint is stored only when the drain barrier behind
        ``checkpoint_parts`` surfaces neither a worker failure nor a
        quarantine — a document must never bake in a skipped batch, or
        the byte-identity contract breaks silently.
        """
        for _ in range(self._attempt_budget()):
            try:
                parts = self.inner.checkpoint_parts()
            except RecoverableWorkerError as exc:
                self._recover(exc)
                continue
            delta = self._quarantine_delta()
            if delta:
                self.recovery_stats.quarantined_batches += delta
                self._recover(PoisonedBatchError(delta))
                continue
            self._checkpoint = json.dumps(parts, sort_keys=True)
            self.trace.emit(
                "checkpoint",
                "supervise",
                journal_elements=self._journal_elements,
                bytes=len(self._checkpoint),
            )
            self._journal.clear()
            self._journal_elements = 0
            return
        raise RuntimeError(
            "supervisor could not take a clean checkpoint after repeated"
            " recoveries"
        )

    # ------------------------------------------------------------------
    # Guard + recovery
    # ------------------------------------------------------------------
    def _attempt_budget(self) -> int:
        return max(3, self.policy.max_restarts + 2)

    def _guarded(self, op: Callable[[Any], list]) -> list:
        """Run a feed-side operation; recover (and drop its outputs) on
        failure."""
        try:
            result = op(self.inner)
        except RecoverableWorkerError as exc:
            self._recover(exc)
            return []
        delta = self._quarantine_delta()
        if delta:
            self.recovery_stats.quarantined_batches += delta
            self._recover(PoisonedBatchError(delta))
            return []
        return result

    def _guarded_read(self, op: Callable[[Any], Any]) -> Any:
        """Run a view read; recover and retry until it returns."""
        last: RecoverableWorkerError | None = None
        for _ in range(self._attempt_budget()):
            try:
                result = op(self.inner)
            except RecoverableWorkerError as exc:
                last = exc
                self._recover(exc)
                continue
            delta = self._quarantine_delta()
            if delta:
                self.recovery_stats.quarantined_batches += delta
                self._recover(PoisonedBatchError(delta))
                continue
            return result
        raise RuntimeError(
            "supervised view kept failing across recoveries"
        ) from last

    def _teardown(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is None:  # the in-process chains hold no resources
            return
        try:
            close()
        except BaseException:  # a dead runtime may fail its own close
            _LOG.debug("supervisor: teardown raised", exc_info=True)

    def _recover(self, cause: RecoverableWorkerError) -> None:
        """Tear down, rebuild, restore, replay — or degrade, or give up.

        ``restarts`` is cumulative across the run: every worker
        generation the supervisor buys counts against
        ``policy.max_restarts``, so a persistent fault exhausts the
        budget whether it fires during replay or across separate
        chunks.  With ``policy.degrade`` the exhausted budget buys the
        in-process fallback instead of an exception.
        """
        began = time.perf_counter()
        stats = self.recovery_stats
        policy = self.policy
        _LOG.warning("supervisor: recovering from %s", cause)
        self.trace.emit(
            "worker_failure",
            "supervise",
            cause=type(cause).__name__,
            journal_elements=self._journal_elements,
        )
        self._teardown()
        while True:
            stats.restarts += 1
            if stats.restarts > policy.max_restarts:
                if not policy.degrade:
                    stats.recovery_ms += (
                        time.perf_counter() - began
                    ) * 1000.0
                    raise cause
                if not stats.degraded:
                    stats.degraded = True
                    _LOG.warning(
                        "supervisor: restart budget (%d) exhausted;"
                        " degrading to the in-process fallback runtime",
                        policy.max_restarts,
                    )
                    self.trace.emit(
                        "degraded",
                        "supervise",
                        restarts=stats.restarts,
                    )
            delay = min(
                policy.backoff_cap_s,
                policy.backoff_base_s * (2.0 ** max(0, stats.restarts - 1)),
            )
            if delay > 0:
                time.sleep(delay)
            _LOG.warning(
                "supervisor: restart %d — rebuilding the %s runtime,"
                " replaying %d journal unit(s) (%d element(s))",
                stats.restarts,
                "fallback" if stats.degraded else "primary",
                len(self._journal),
                self._journal_elements,
            )
            try:
                self.inner = (
                    self._fallback() if stats.degraded else self._build()
                )
                self._apply_policy()
                self.inner.restore_parts(json.loads(self._checkpoint))
                replayed = self._replay()
            except RecoverableWorkerError as exc:
                _LOG.warning("supervisor: recovery attempt failed: %s", exc)
                self._teardown()
                continue
            delta = self._quarantine_delta()
            if delta:
                stats.quarantined_batches += delta
                _LOG.warning(
                    "supervisor: replay quarantined %d batch(es);"
                    " retrying recovery",
                    delta,
                )
                self._teardown()
                continue
            stats.replayed_elements += replayed
            break
        recovery_s = time.perf_counter() - began
        stats.recovery_ms += recovery_s * 1000.0
        self.trace.emit(
            "replay",
            "supervise",
            dur_s=recovery_s,
            restarts=stats.restarts,
            replayed=stats.replayed_elements,
            degraded=stats.degraded,
        )

    def _replay(self) -> int:
        """Re-feed the journal into the freshly restored runtime.

        Replay outputs are discarded: the restore rewound every
        counter and record to the checkpoint, so the replayed suffix
        re-materialises *inside* the runtime state exactly as the lost
        run did.
        """
        replayed = 0
        for unit in self._journal:
            kind = unit[0]
            if kind == "elements":
                self.inner.pipeline.feed_many(unit[1])
                replayed += len(unit[1])
            else:  # "flush"
                self.inner.pipeline.flush()
        return replayed

    # ------------------------------------------------------------------
    # Facade views (all guarded: reads run drain barriers on the
    # process runtimes and can themselves surface a dead worker)
    # ------------------------------------------------------------------
    @property
    def records(self):
        return self._guarded_read(lambda inner: inner.records)

    @property
    def open(self):
        return self._guarded_read(lambda inner: inner.open)

    @property
    def signal_log(self):
        return self._guarded_read(lambda inner: inner.signal_log)

    @property
    def rejected(self):
        return self._guarded_read(lambda inner: inner.rejected)

    @property
    def monitoring(self):
        return self._guarded_read(lambda inner: inner.monitoring)

    @property
    def cache(self):
        return self._guarded_read(lambda inner: inner.cache)

    @property
    def metrics(self) -> PipelineMetrics:
        view = self._guarded_read(lambda inner: inner.metrics)
        stats = self.recovery_stats
        view.recovery.restarts = stats.restarts
        view.recovery.replayed_elements = stats.replayed_elements
        view.recovery.recovery_ms = stats.recovery_ms
        view.recovery.degraded = stats.degraded
        # The runtime's own annotation counts one worker generation;
        # the supervised total spans every generation.
        view.recovery.quarantined_batches = stats.quarantined_batches
        return view

    def metrics_live(self) -> dict:
        """Live snapshot with the supervised recovery overlay.

        Unlike :attr:`metrics` this never guards, drains or triggers a
        recovery: sampling while the runtime is mid-rebuild (torn down
        between generations) returns a recovery-only snapshot instead
        of racing the recovery loop.
        """
        try:
            inner_live = getattr(self.inner, "metrics_live", None)
            if inner_live is not None:
                snap = inner_live()
            else:
                snap = self.inner.metrics.snapshot()
                snap.setdefault("depths", {})
                snap.setdefault(
                    "live", {"workers": 0, "workers_reporting": 0}
                )
        except Exception:
            # The runtime is being torn down / rebuilt under us.
            snap = {
                "stages": [],
                "bins": {},
                "gauges": {},
                "hists": {},
                "depths": {},
                "live": {"recovering": True},
            }
        stats = self.recovery_stats
        rec = dict(snap.get("recovery", {}))
        rec["restarts"] = stats.restarts
        rec["replayed_elements"] = stats.replayed_elements
        rec["recovery_ms"] = round(stats.recovery_ms, 3)
        rec["degraded"] = stats.degraded
        rec["quarantined_batches"] = stats.quarantined_batches
        snap["recovery"] = rec
        return snap

    def finalize_records(self, end_time: float | None = None):
        return self._guarded_read(
            lambda inner: inner.finalize_records(end_time)
        )

    # ------------------------------------------------------------------
    # Checkpoint surface
    # ------------------------------------------------------------------
    def checkpoint_parts(self) -> dict:
        self._take_checkpoint()
        return json.loads(self._checkpoint)

    def restore_parts(self, parts: dict) -> None:
        self._journal.clear()
        self._journal_elements = 0
        self._checkpoint = json.dumps(parts, sort_keys=True)
        try:
            self.inner.restore_parts(json.loads(self._checkpoint))
        except RecoverableWorkerError as exc:
            # _recover restores the just-stored checkpoint into the
            # fresh worker set (the journal is empty).
            self._recover(exc)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        stats = self.recovery_stats
        return (
            f"SupervisedKeplerPipeline(restarts={stats.restarts},"
            f" degraded={stats.degraded},"
            f" journal={self._journal_elements})"
        )

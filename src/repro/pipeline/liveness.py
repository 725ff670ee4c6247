"""Worker liveness: one error vocabulary, one teardown helper.

The shard-process runtime (:mod:`repro.pipeline.parallel`) watches a
set of forked worker processes through bounded queues.  This module is
its failure vocabulary and teardown:

* :class:`RecoverableWorkerError` is the contract with the supervision
  layer (:mod:`repro.pipeline.supervisor`): anything that subclasses
  it means "the runtime is dead but the *stream* is fine — tear down,
  restore the last checkpoint into fresh workers, replay".  Everything
  else still propagates as a plain error.
* :class:`WorkerDeathError` carries diagnostics, not just names: the
  ``exitcode`` of every dead worker (``-9`` for a SIGKILL), the
  last-seen depth of every runtime queue, and
  how many control messages were still pending — the three questions
  an operator asks first.
* :func:`reap_workers` is the single teardown helper: join with a
  configurable deadline, terminate the survivors, join again, close
  the queues.  Idempotent and safe on part-dead worker sets.
* :func:`drain_put` and :class:`ControlStash` are the bounded-queue
  send / control-message stash pattern: a driver must keep *pumping
  its return path* while a worker-bound queue is full (anything else
  deadlocks against its own backpressure), and any control message the
  pump drains while looking for data must be stashed, not dropped.
"""

from __future__ import annotations

import queue as queue_mod
from typing import Any, Callable, Iterable, Sequence


class RecoverableWorkerError(RuntimeError):
    """A runtime failure the supervision layer can recover from.

    The stream itself is intact (the driver holds the journal and the
    last checkpoint); only the worker set is gone.  Raisers must leave
    the runtime closed (or closeable) — the supervisor will not feed
    it again.
    """


class WorkerDeathError(RecoverableWorkerError):
    """One or more workers died without posting a result.

    ``dead`` is a list of ``(name, exitcode)`` pairs — ``exitcode`` is
    negative for a signal-terminated process (``-9`` = SIGKILL).
    ``queue_depths``
    maps queue names to their last-observed depth (``-1`` where the
    platform cannot report one), and ``pending_ctl`` counts control
    messages the driver was still holding for an in-progress barrier.
    """

    def __init__(
        self,
        dead: Sequence[tuple[str, int | None]],
        queue_depths: dict[str, int] | None = None,
        pending_ctl: int = 0,
        noun: str = "pipeline worker(s)",
    ) -> None:
        self.dead = list(dead)
        self.queue_depths = dict(queue_depths or {})
        self.pending_ctl = pending_ctl
        detail = ", ".join(
            f"{name} (exitcode {code})" for name, code in self.dead
        )
        super().__init__(
            f"{noun} died without a result: [{detail}];"
            f" queue depths {self.queue_depths},"
            f" {self.pending_ctl} pending control message(s)"
        )


class WorkerCrashError(RecoverableWorkerError):
    """A worker caught an exception and posted it before exiting."""


class WorkerStallError(RecoverableWorkerError):
    """A worker is alive but made no observable progress for too long.

    Raised by the driver pumps when ``stall_timeout_s`` is set and a
    blocked wait (empty return queue, full input queue) exceeds it —
    the hung-queue detector of the supervision layer.
    """

    def __init__(
        self,
        stalled_s: float,
        timeout_s: float,
        queue_depths: dict[str, int] | None = None,
        noun: str = "pipeline worker(s)",
    ) -> None:
        self.stalled_s = stalled_s
        self.timeout_s = timeout_s
        self.queue_depths = dict(queue_depths or {})
        super().__init__(
            f"{noun} made no progress for {stalled_s:.2f}s"
            f" (stall timeout {timeout_s:.2f}s);"
            f" queue depths {self.queue_depths}"
        )


class PoisonedBatchError(RecoverableWorkerError):
    """A batch was quarantined; the supervised stream must be replayed.

    Unsupervised runtimes *continue* past a quarantined batch (its
    elements are dropped into the dead-letter buffer); the supervisor
    instead treats the quarantine as recoverable data loss and rolls
    the stream back to the last checkpoint, where the replay — with
    the fault no longer firing — re-tags the same elements exactly.
    """

    def __init__(self, quarantined: int, noun: str = "runtime") -> None:
        self.quarantined = quarantined
        super().__init__(
            f"{noun} quarantined {quarantined} batch(es) since the last"
            " checkpoint; rolling back to recover the dropped elements"
        )


# ----------------------------------------------------------------------
class ControlStash:
    """Driver-side stash for control messages drained mid-pump.

    The driver pumps return queues looking for data; any control-plane
    message (acks, flush/finalize completions) it sees along the way is
    stashed here and later collected by kind.  Messages are tuples with
    the kind tag in slot 0 — the convention every runtime already uses.
    """

    def __init__(self) -> None:
        self._messages: list[tuple] = []

    def stash(self, message: tuple) -> None:
        self._messages.append(message)

    def pop(self, kind: str) -> list[tuple]:
        """Remove and return every stashed message of ``kind``, in order."""
        matched = [m for m in self._messages if m[0] == kind]
        if matched:
            self._messages = [m for m in self._messages if m[0] != kind]
        return matched

    def clear(self) -> None:
        self._messages.clear()

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self):
        return iter(self._messages)


def drain_put(q: Any, message: tuple, on_full: Callable[[], None]) -> None:
    """Put on a bounded queue without ever blocking the driver blind.

    Retries ``put_nowait`` and calls ``on_full()`` between attempts —
    the callback is the runtime's pump-and-tick step, so a full
    worker-bound queue drains the return path (freeing the workers)
    and feeds the stall detector instead of deadlocking on a blocking
    ``put``.
    """
    while True:
        try:
            q.put_nowait(message)
            return
        except queue_mod.Full:
            on_full()


def queue_depth(q: Any) -> int:
    """Best-effort depth of a multiprocessing queue (-1 unknown)."""
    try:
        return q.qsize()
    except (NotImplementedError, OSError):
        return -1


def queue_depths(named: dict[str, Any]) -> dict[str, int]:
    """Depth sample over a named queue set (for error diagnostics)."""
    return {name: queue_depth(q) for name, q in named.items()}


def worker_exits(procs: Iterable[Any]) -> list[tuple[str, int | None]]:
    """``(name, exitcode)`` for every non-alive worker in ``procs``."""
    return [(proc.name, proc.exitcode) for proc in procs if not proc.is_alive()]


def reap_workers(
    procs: Iterable[Any],
    queues: Iterable[Any] = (),
    deadline_s: float = 2.0,
) -> None:
    """Tear a worker set down: join, terminate survivors, close queues.

    The single teardown sequence every runtime ``close()`` uses: each
    worker gets ``deadline_s`` to exit on its own (they were sent stop
    messages, or are already dead), survivors are terminated and
    joined once more, and the queues' feeder threads are cancelled so
    interpreter shutdown never blocks on a queue a dead worker will
    never drain.  Idempotent.
    """
    procs = list(procs)
    for proc in procs:
        proc.join(timeout=deadline_s)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        if proc.is_alive():
            proc.join(timeout=deadline_s)
    for q in queues:
        cancel = getattr(q, "cancel_join_thread", None)
        if cancel is not None:
            cancel()
        close = getattr(q, "close", None)
        if close is not None:
            close()

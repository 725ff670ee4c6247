"""Worker liveness: one error vocabulary, one teardown helper.

The shard-process runtime (:mod:`repro.pipeline.parallel`) watches a
set of forked worker processes through bounded queues.  This module is
its failure vocabulary and teardown:

* :class:`WorkerDeathError` carries diagnostics, not just names: the
  ``exitcode`` of every dead worker (``-9`` for a SIGKILL), the
  last-seen depth of every runtime queue, and
  how many control messages were still pending — the three questions
  an operator asks first.
* :class:`WorkerCrashError` carries the traceback a worker posted
  before it exited.  Nothing restarts a worker or skips its input:
  either error closes the runtime and surfaces from the call that met
  it, as an exception in the in-process chain would.
* :func:`reap_workers` is the single teardown helper: join with a
  deadline, terminate the survivors, join again, close the queues.
  Idempotent and safe on part-dead worker sets.
* :func:`drain_put` and :class:`ControlStash` are the bounded-queue
  send / control-message stash pattern: a driver must keep *pumping
  its return path* while a worker-bound queue is full (anything else
  deadlocks against its own backpressure), and any control message the
  pump drains while looking for data must be stashed, not dropped.
"""

from __future__ import annotations

import queue as queue_mod
from typing import Any, Callable, Iterable, Sequence


class WorkerDeathError(RuntimeError):
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


class WorkerCrashError(RuntimeError):
    """A worker caught an exception and posted it before exiting.

    Stage code that raises and a wire batch the worker cannot unmarshal
    or tag end the worker alike; the message carries its traceback.
    """


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
    the callback is the runtime's pump-and-liveness step, so a full
    worker-bound queue drains the return path (freeing the workers)
    and notices a dead worker instead of deadlocking on a blocking
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


#: How long a worker gets to exit on its own at teardown, and again
#: after ``terminate``.
TEARDOWN_DEADLINE_S = 2.0


def reap_workers(procs: Iterable[Any], queues: Iterable[Any] = ()) -> None:
    """Tear a worker set down: join, terminate survivors, close queues.

    The single teardown sequence every runtime ``close()`` uses: each
    worker gets :data:`TEARDOWN_DEADLINE_S` to exit on its own (they
    were sent stop messages, or are already dead), survivors are
    terminated and joined once more, and the queues' feeder threads
    are cancelled so interpreter shutdown never blocks on a queue a
    dead worker will never drain.  Idempotent.
    """
    procs = list(procs)
    for proc in procs:
        proc.join(timeout=TEARDOWN_DEADLINE_S)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        if proc.is_alive():
            proc.join(timeout=TEARDOWN_DEADLINE_S)
    for q in queues:
        cancel = getattr(q, "cancel_join_thread", None)
        if cancel is not None:
            cancel()
        close = getattr(q, "close", None)
        if close is not None:
            close()

"""Deterministic fault injection for the shard-process runtime.

The chaos suite (and the recovery bench) needs to kill a worker at
element K, hang a queue, corrupt a wire batch or tamper with control
messages — *deterministically*, inside forked worker processes, and
without the fault re-firing after the supervisor restores and replays
the stream.  Every worker that arms itself is a forked shard worker
(:mod:`repro.pipeline.parallel`), so a kill is always a real
``SIGKILL``.  This module is that lever:

* a :class:`FaultPlan` is built in the driver **before** the runtime
  forks its workers; its per-``(spec, worker)`` fired flags are
  ``multiprocessing.Value`` cells, so a fault that fired in a worker
  stays fired in every *future* fork of the driver — a kill-at-K
  fault kills exactly one worker generation, and the recovery replay
  passes element K unharmed;
* workers :func:`arm` themselves at loop entry (a no-op returning
  ``None`` when no plan is installed — the hot path pays one ``is
  not None`` test) and call the armed hooks at their natural seams:
  :meth:`_ArmedFaults.on_elements` before processing a batch,
  :meth:`_ArmedFaults.corrupt_batch` on the decoded batch,
  :meth:`_ArmedFaults.on_control` before posting a barrier ack;
* ``once=False`` makes a fault *persistent*: it re-fires in every
  worker generation at the same element offset — the lever for the
  restart-exhaustion / graceful-degradation tests.

Fault kinds:

=============  ========================================================
``kill``       ``SIGKILL`` self (death without a result — the
               driver sees only the exitcode)
``stall``      sleep ``stall_s`` before processing (hung-queue
               detector fodder)
``corrupt``    replace the decoded wire batch with garbage, so
               tagging raises and the batch is quarantined
``drop_ctl``   swallow one control ack (the driver's barrier hangs
               until the stall detector fires)
``dup_ctl``    post one control ack twice (the driver must dedupe)
=============  ========================================================

Injection is test-only by design: nothing in this module runs unless
a plan was explicitly installed in the driver process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal as signal_mod
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Per-spec fired-flag slots; workers index by ``wid % _WORKER_SLOTS``.
_WORKER_SLOTS = 16
#: Worker families a spec can aim at (the scopes :func:`arm` is called
#: with, plus the wildcard) and the kinds the armed hooks read.
SCOPES = ("shard", "*")
KINDS = ("kill", "stall", "corrupt", "drop_ctl", "dup_ctl")


@dataclass
class FaultSpec:
    """One fault: where it arms, what it does, when it fires.

    ``scope`` picks the worker family — ``"shard"`` (shard-process
    runtime) or ``"*"`` (any); a scope or kind
    that names no seam is a ``ValueError``, because such a spec would
    never fire and its test would pass while injecting nothing.
    ``worker_id`` pins the fault to one worker
    (``None`` arms every worker of the scope — each fires
    independently, which for broadcast runtimes keeps the replicas
    consistent).  Element-count faults fire on the batch that carries
    the ``at_element``-th element *seen by that worker*; control
    faults fire on the first control message after the worker has
    seen ``at_element`` elements.  ``once`` faults fire
    one single time across all worker generations (the fired flag is
    fork-shared); persistent faults (``once=False``) re-fire in every
    generation.
    """

    scope: str = "*"
    kind: str = "kill"
    at_element: int = 1
    worker_id: int | None = None
    stall_s: float = 0.0
    once: bool = True

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ValueError(
                f"fault scope {self.scope!r} names no worker family"
                f" (expected one of {SCOPES})"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"fault kind {self.kind!r} is read by no hook"
                f" (expected one of {KINDS})"
            )


class FaultPlan:
    """A spec list plus fork-shared fired flags (build pre-fork)."""

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...]) -> None:
        self.specs = list(specs)
        # One flag per (spec, worker slot), allocated in the driver so
        # every fork — including post-recovery worker generations —
        # shares them.
        self._fired = [
            [multiprocessing.Value("i", 0) for _ in range(_WORKER_SLOTS)]
            for _ in self.specs
        ]
        #: observability: fired (spec_index, worker_id) pairs recorded
        #: driver-side are not needed — the flags themselves are the
        #: record.

    def fired(self, index: int, wid: int) -> bool:
        return bool(self._fired[index][wid % _WORKER_SLOTS].value)

    def _try_fire(self, index: int, wid: int, once: bool) -> bool:
        """Check-and-set the fired flag; persistent faults always fire."""
        if not once:
            return True
        flag = self._fired[index][wid % _WORKER_SLOTS]
        with flag.get_lock():
            if flag.value:
                return False
            flag.value = 1
        return True


_PLAN: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Install a plan in the driver (inherited by every later fork)."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    global _PLAN
    _PLAN = None


@contextmanager
def injected(plan: FaultPlan):
    """``with faults.injected(plan):`` — install for the block only."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


# ----------------------------------------------------------------------
class _ArmedFaults:
    """A worker's view of the plan: local element clock + hooks."""

    def __init__(self, plan: FaultPlan, scope: str, wid: int) -> None:
        self.plan = plan
        self.wid = wid
        self.seen = 0
        self._matched = [
            (index, spec)
            for index, spec in enumerate(plan.specs)
            if spec.scope in ("*", scope)
            and (spec.worker_id is None or spec.worker_id == wid)
        ]

    def _crossing(self, spec: FaultSpec, n: int) -> bool:
        return self.seen < spec.at_element <= self.seen + n

    # -- element-clock faults ------------------------------------------
    def on_elements(self, n: int) -> None:
        """Called with the element count of the batch about to process."""
        for index, spec in self._matched:
            if spec.kind not in ("kill", "stall"):
                continue
            if not self._crossing(spec, n):
                continue
            if not self.plan._try_fire(index, self.wid, spec.once):
                continue
            if spec.kind == "stall":
                time.sleep(spec.stall_s)
            else:
                # Death without a result: no cleanup, no "err" message.
                os.kill(os.getpid(), signal_mod.SIGKILL)
        self.seen += n

    # -- data-corruption faults ----------------------------------------
    def corrupt_batch(self, batch: tuple, n: int) -> tuple:
        """Maybe replace a decoded wire batch with garbage (pre-count).

        Runs *before* :meth:`on_elements` advances the clock, against
        the same crossing test, so a corrupt spec and a kill spec at
        the same offset target the same batch.
        """
        for index, spec in self._matched:
            if spec.kind != "corrupt" or not self._crossing(spec, n):
                continue
            if self.plan._try_fire(index, self.wid, spec.once):
                return ("corrupt-wire-batch",)
        return batch

    # -- control-plane faults ------------------------------------------
    def on_control(self) -> str | None:
        """``"drop"`` / ``"dup"`` / ``None`` for the next control ack.

        Fires on the first control message after the element clock has
        passed ``at_element`` — never on a barrier over an empty
        stream, so a runtime's construction-time sync stays clean.
        """
        for index, spec in self._matched:
            if spec.kind not in ("drop_ctl", "dup_ctl"):
                continue
            if self.seen < spec.at_element:
                continue
            if self.plan._try_fire(index, self.wid, spec.once):
                return "drop" if spec.kind == "drop_ctl" else "dup"
        return None


def arm(scope: str, wid: int) -> _ArmedFaults | None:
    """A worker arms itself at loop entry (``None`` = no plan, no cost)."""
    plan = _PLAN
    if plan is None:
        return None
    armed = _ArmedFaults(plan, scope, wid)
    return armed if armed._matched else None

"""Deterministic fault injection for the shard-process runtime.

The chaos suite needs to kill a worker at element K, corrupt a wire
batch or duplicate a control message — *deterministically*, inside
forked worker processes.  Every worker that arms itself is a forked
shard worker (:mod:`repro.pipeline.parallel`), so a kill is always a
real ``SIGKILL``.  This module is that lever:

* a :class:`FaultPlan` is installed in the driver **before** the
  runtime forks its workers, so every worker inherits it;
* workers :func:`arm` themselves at loop entry (a no-op returning
  ``None`` when no plan is installed — the hot path pays one ``is
  not None`` test) and call the armed hooks at their natural seams:
  :meth:`_ArmedFaults.on_elements` before processing a batch,
  :meth:`_ArmedFaults.corrupt_batch` on the decoded batch,
  :meth:`_ArmedFaults.on_control` before posting a barrier ack;
* each spec fires at most once per worker.

Fault kinds:

=============  ========================================================
``kill``       ``SIGKILL`` self (death without a result — the
               driver sees only the exitcode)
``corrupt``    replace the decoded wire batch with garbage, so
               tagging raises and the batch is quarantined
``dup_ctl``    post one control ack twice (the driver must dedupe)
=============  ========================================================

Injection is test-only by design: nothing in this module runs unless
a plan was explicitly installed in the driver process.
"""

from __future__ import annotations

import os
import signal as signal_mod
from contextlib import contextmanager
from dataclasses import dataclass

#: Worker families a spec can aim at (the scopes :func:`arm` is called
#: with, plus the wildcard) and the kinds the armed hooks read.
SCOPES = ("shard", "*")
KINDS = ("kill", "corrupt", "dup_ctl")


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
    seen ``at_element`` elements.
    """

    scope: str = "*"
    kind: str = "kill"
    at_element: int = 1
    worker_id: int | None = None

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
    """The spec list a driver installs before its runtime forks."""

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...]) -> None:
        self.specs = list(specs)


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
        self.seen = 0
        self._matched = [
            spec
            for spec in plan.specs
            if spec.scope in ("*", scope)
            and (spec.worker_id is None or spec.worker_id == wid)
        ]
        self._fired: set[int] = set()

    def _crossing(self, spec: FaultSpec, n: int) -> bool:
        return self.seen < spec.at_element <= self.seen + n

    def _fire(self, kinds: tuple[str, ...], due) -> FaultSpec | None:
        """The first matched spec of ``kinds`` that is ``due``, now fired."""
        for index, spec in enumerate(self._matched):
            if spec.kind in kinds and index not in self._fired and due(spec):
                self._fired.add(index)
                return spec
        return None

    # -- element-clock faults ------------------------------------------
    def on_elements(self, n: int) -> None:
        """Called with the element count of the batch about to process."""
        if self._fire(("kill",), lambda spec: self._crossing(spec, n)):
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
        if self._fire(("corrupt",), lambda spec: self._crossing(spec, n)):
            return ("corrupt-wire-batch",)
        return batch

    # -- control-plane faults ------------------------------------------
    def on_control(self) -> bool:
        """Whether to post the next control ack twice.

        Fires on the first control message after the element clock has
        passed ``at_element`` — never on a barrier over an empty
        stream, so a runtime's construction-time sync stays clean.
        """
        due = self._fire(("dup_ctl",), lambda spec: self.seen >= spec.at_element)
        return due is not None


def arm(scope: str, wid: int) -> _ArmedFaults | None:
    """A worker arms itself at loop entry (``None`` = no plan, no cost)."""
    plan = _PLAN
    if plan is None:
        return None
    armed = _ArmedFaults(plan, scope, wid)
    return armed if armed._matched else None

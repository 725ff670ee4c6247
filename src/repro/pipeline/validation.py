"""Data-plane validation stage and the per-bin probe memo (§4.4).

:class:`ValidationCache` memoises ``validator.validate(pop, bin_end)``
per (PoP, bin) — the monolithic detector probed a PoP twice in one bin
when a signal resolved via the data-plane fallback was validated again
in the record loop.  Targeted traceroute campaigns are the scarce
resource of the system (platform credits, §4.4), so each (PoP, bin)
is probed at most once; both the localisation fallback and this stage
share one cache.

:class:`ValidationStage` applies the final accept/drop decision to
located signals and returns :class:`~repro.pipeline.events.OutageCandidate`
items for the record lifecycle stage; at each bin advance the runtime
calls its :meth:`~ValidationStage.prune` to age the memo.
"""

from __future__ import annotations

import threading

from repro.core.dataplane import DataPlaneValidator, ValidationOutcome
from repro.core.signals import SignalClassification
from repro.docmine.dictionary import PoP
from repro.pipeline.events import LocatedSignal, OutageCandidate

#: Cache entries older than this are pruned (no bin is revisited after
#: the correlation window has moved past it; one hour is generous).
PRUNE_HORIZON_S = 3600.0


class ValidationCache:
    """Per-(PoP, bin-end) memo over a :class:`DataPlaneValidator`.

    Thread-safe: localisation and validation share one cache, and the
    at-most-one-probe-per-(PoP, bin) invariant must hold for whichever
    threads call it.
    A miss registers an in-flight marker under the lock, probes outside
    it (probes are slow — that is the point of the memo), and other
    callers of the same key wait on the marker instead of re-probing.
    """

    def __init__(self, validator: DataPlaneValidator) -> None:
        self.validator = validator
        self._memo: dict[tuple[PoP, float], ValidationOutcome] = {}
        self._lock = threading.Lock()
        self._inflight: dict[tuple[PoP, float], threading.Event] = {}
        self.probes = 0
        self.hits = 0

    def validate(self, pop: PoP, time: float) -> ValidationOutcome:
        key = (pop, time)
        while True:
            with self._lock:
                cached = self._memo.get(key)
                if cached is not None:
                    self.hits += 1
                    return cached
                pending = self._inflight.get(key)
                if pending is None:
                    pending = self._inflight[key] = threading.Event()
                    break
            # Another caller owns the probe; when it finishes, loop:
            # either the memo is filled, or the probe failed and this
            # caller takes ownership of the retry.
            pending.wait()
        try:
            outcome = self.validator.validate(pop, time)
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            pending.set()
            raise
        with self._lock:
            self.probes += 1
            self._memo[key] = outcome
            self._inflight.pop(key, None)
        pending.set()
        return outcome

    def prune(self, older_than: float) -> None:
        """Drop memo entries for bins ending before ``older_than``."""
        with self._lock:
            stale = [k for k in self._memo if k[1] < older_than]
            for key in stale:
                del self._memo[key]

    def state_dict(self) -> dict:
        from repro.core.serde import outcome_to_json, pop_to_json

        return {
            "memo": [
                [pop_to_json(pop), time, outcome_to_json(outcome)]
                for (pop, time), outcome in self._memo.items()
            ],
            "probes": self.probes,
            "hits": self.hits,
        }

    def load_state(self, state: dict) -> None:
        from repro.core.serde import outcome_from_json, pop_from_json

        self._memo = {
            (pop_from_json(pop), time): outcome_from_json(outcome)
            for pop, time, outcome in state["memo"]
        }
        self.probes = state["probes"]
        self.hits = state["hits"]


class ValidationStage:
    """Located signals -> OutageCandidate*, dropping data-plane rejects."""

    name = "validate"

    def __init__(
        self,
        cache: ValidationCache,
        *,
        drop_rejected: bool,
        rejected: list[SignalClassification],
    ) -> None:
        self.cache = cache
        self.drop_rejected = drop_rejected
        #: signals rejected by the data plane (shared with localisation
        #: so the facade exposes one chronological reject list).  The
        #: list and the probe memo are checkpointed beside the chain:
        #: the stage has no state of its own.
        self.rejected = rejected

    def feed(
        self, located_signals: list[LocatedSignal], city_scope: str | None
    ) -> list[OutageCandidate]:
        """Probe each located signal's epicenter; the candidates."""
        out: list[OutageCandidate] = []
        for located in located_signals:
            c = located.classification
            outcome = self.cache.validate(located.located, c.bin_end)
            if outcome is ValidationOutcome.REJECTED and self.drop_rejected:
                self.rejected.append(c)
                continue
            out.append(
                OutageCandidate(
                    classification=c,
                    located=located.located,
                    method=located.method,
                    outcome=outcome,
                    city_scope=city_scope,
                )
            )
        return out

    def prune(self, now: float) -> None:
        """The bin clock advanced to ``now``: age the probe memo."""
        self.cache.prune(now - PRUNE_HORIZON_S)

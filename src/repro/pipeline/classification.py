"""Classification stage: correlation window + per-AS rules (§4.3).

:meth:`ClassificationStage.feed` takes the signals of one bin close.
They are classified twice, as the monolithic detector did:

* **per bin** — feeding the sensitivity log (Figure 7a), every
  classification ever made;
* **over the correlation window** — one physical event's updates are
  spread over adjacent bins by BGP propagation jitter, so detection
  runs on the signals of the last ``correlation_window_s`` seconds.

Only PoP-level classifications of the window evaluation continue down
the pipeline, returned with the set of concurrently-signalling PoPs.
"""

from __future__ import annotations

from repro.core.events import OutageSignal, SignalType
from repro.core.signals import SignalClassification, classify_signals
from repro.docmine.dictionary import PoP


class ClassificationStage:
    """Signals -> PoP-level classifications + the concurrent PoPs."""

    name = "classify"

    def __init__(
        self,
        as2org: dict[int, str],
        *,
        min_pop_ases: int,
        correlation_window_s: float,
    ) -> None:
        self.as2org = as2org
        self.min_pop_ases = min_pop_ases
        self.correlation_window_s = correlation_window_s
        #: every classification ever made, for sensitivity analysis.
        self.signal_log: list[SignalClassification] = []
        #: sliding correlation window of raw signals.
        self._window: list[OutageSignal] = []

    def feed(
        self, signals: list[OutageSignal]
    ) -> tuple[list[SignalClassification], set[PoP]]:
        """Classify one bin close's signals (one or more); the window's
        PoP-level classifications and the set of their PoPs."""
        per_bin = classify_signals(
            signals, self.as2org, min_pop_ases=self.min_pop_ases
        )
        self.signal_log.extend(per_bin)
        # The window clock is the latest bin of the signals.
        now_bin = max(s.bin_start for s in signals)
        self._window.extend(signals)
        self._window = [
            s
            for s in self._window
            if now_bin - s.bin_start <= self.correlation_window_s
        ]
        classifications = classify_signals(
            self._window, self.as2org, min_pop_ases=self.min_pop_ases
        )
        pop_level = [
            c for c in classifications if c.signal_type is SignalType.POP
        ]
        return pop_level, {c.pop for c in pop_level}

    def state_dict(self) -> dict:
        from repro.core.serde import classification_to_json, signal_to_json

        return {
            "signal_log": [
                classification_to_json(c) for c in self.signal_log
            ],
            "window": [signal_to_json(s) for s in self._window],
        }

    def load_state(self, state: dict) -> None:
        from repro.core.serde import (
            classification_from_json,
            signal_from_json,
        )

        self.signal_log = [
            classification_from_json(c) for c in state["signal_log"]
        ]
        self._window = [signal_from_json(s) for s in state["window"]]

"""Localisation stage: investigation + city abstraction (§4.3).

For every PoP-level classification the investigator disambiguates the
epicenter over the colocation map.  Signals the map cannot resolve fall
back to targeted data-plane probing (through the shared
:class:`~repro.pipeline.validation.ValidationCache`): a confirming
probe keeps the signal at its observed PoP with method ``dataplane``;
anything else rejects it as a false positive.

The city abstraction then runs over the *located* epicenters of one
bin close: when several epicenters share one city in one evaluation,
the incident is flagged city-scoped (multiple buildings of one metro
failed together, Section 4.3).
"""

from __future__ import annotations

from repro.core.colocation import ColocationMap
from repro.core.dataplane import ValidationOutcome
from repro.core.investigation import Investigator
from repro.core.monitor import OutageMonitor
from repro.core.signals import SignalClassification
from repro.docmine.dictionary import PoP, PoPKind
from repro.pipeline.events import LocatedSignal
from repro.pipeline.validation import ValidationCache


class LocalisationStage:
    """PoP-level classifications -> located signals + city scope."""

    name = "localise"

    def __init__(
        self,
        investigator: Investigator,
        monitor: OutageMonitor,
        colo: ColocationMap,
        cache: ValidationCache,
        *,
        enable_investigation: bool,
        rejected: list[SignalClassification],
    ) -> None:
        self.investigator = investigator
        self.monitor = monitor
        self.colo = colo
        self.cache = cache
        self.enable_investigation = enable_investigation
        #: signals neither the map nor the data plane could substantiate.
        self.rejected = rejected

    def feed(
        self, pop_level: list[SignalClassification], concurrent: set[PoP]
    ) -> tuple[list[LocatedSignal], str | None]:
        """Locate each classification's epicenter; the located signals
        and their common city (``None`` unless two or more share one).

        ``concurrent`` is the set of PoPs with a simultaneous PoP-level
        signal: the investigator demands corroborating signals from
        candidate epicenters in it.
        """
        results: list[LocatedSignal] = []
        for c in pop_level:
            if not self.enable_investigation:
                results.append(LocatedSignal(c, c.pop, "signal-pop"))
                continue
            baseline_far = self.monitor.baseline_far_ases(c.pop) | {
                f for _, f in c.links if f is not None
            }
            baseline_links = self.monitor.baseline_links(c.pop) | set(c.links)
            result = self.investigator.investigate(
                c, baseline_far, baseline_links, concurrent
            )
            if result.converged:
                assert result.located_pop is not None
                results.append(
                    LocatedSignal(c, result.located_pop, result.method)
                )
                continue
            # Unresolved by the map: targeted traceroutes decide.
            outcome = self.cache.validate(c.pop, c.bin_end)
            if outcome is ValidationOutcome.CONFIRMED:
                results.append(LocatedSignal(c, c.pop, "dataplane"))
            else:
                self.rejected.append(c)
        return results, common_city(results, self.colo)

    def flush(self) -> None:
        """End of stream: nothing is buffered here.  The ledger tracer
        (``benchmarks/ledger/tracing.py``) times ``feed`` and ``flush``
        of every stage that holds the Kepler monitor."""


def common_city(
    results: list[LocatedSignal], colo: ColocationMap
) -> str | None:
    """City shared by all located epicenters of one bin close (>=2 of
    them)."""
    if len(results) < 2:
        return None
    cities: set[str] = set()
    for located in results:
        pop = located.located
        if pop.kind is PoPKind.FACILITY:
            fac = colo.facilities.get(pop.pop_id)
            cities.add(fac.city_name if fac else "?")
        elif pop.kind is PoPKind.IXP:
            ixp = colo.ixps.get(pop.pop_id)
            cities.add(ixp.city_name if ixp else "?")
        else:
            cities.add(pop.pop_id)
    if len(cities) == 1 and "?" not in cities:
        return next(iter(cities))
    return None

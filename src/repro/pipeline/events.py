"""Inter-stage element types of the Kepler pipeline.

Raw BGP elements (:class:`repro.bgp.messages.BGPUpdate`,
:class:`~repro.bgp.messages.BGPStateMessage`) and tagged paths
(:class:`repro.core.input.TaggedPath`) flow through the early stages
unchanged; the types below are produced as the stream is progressively
reduced from updates to outage records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.messages import BGPUpdate
from repro.core.dataplane import ValidationOutcome
from repro.core.events import OutageSignal
from repro.core.input import TaggedPath
from repro.core.signals import SignalClassification
from repro.docmine.dictionary import PoP


@dataclass(frozen=True)
class PrimingUpdate:
    """A RIB-snapshot update on its way into the stable baseline.

    Priming elements ride the ordinary ingest->tagging->monitor path (a
    detector can bootstrap from a live table transfer interleaved with
    stream elements), but they install paths into the baseline directly
    instead of advancing the binning clock or counting as divergences.
    """

    update: BGPUpdate


@dataclass(frozen=True)
class PrimedPath:
    """A tagged RIB path ready for direct baseline installation."""

    path: TaggedPath


@dataclass(frozen=True)
class BinAdvanced:
    """Control marker: the monitor moved to a new binning interval.

    Emitted *after* the closed bins' signals so downstream stages see
    signals first, then re-evaluate open outages at ``now`` — the same
    order the monolithic detector used.
    """

    now: float


@dataclass
class SignalBatch:
    """Per-AS outage signals of one or more just-closed bins."""

    signals: list[OutageSignal]


@dataclass
class ClassifiedBatch:
    """PoP-level classifications of one correlation-window evaluation.

    ``concurrent`` is the set of PoPs with a simultaneous PoP-level
    signal — localisation uses it to demand corroborating signals from
    candidate epicenters.
    """

    pop_level: list[SignalClassification]
    concurrent: set[PoP] = field(default_factory=set)


@dataclass
class LocatedSignal:
    """One PoP-level classification with its inferred epicenter."""

    classification: SignalClassification
    located: PoP
    method: str


@dataclass
class LocatedBatch:
    """All located epicenters of one evaluation, plus the city scope.

    ``city_scope`` is the city abstraction of Section 4.3: set when at
    least two epicenters of the batch share one city.
    """

    results: list[LocatedSignal]
    city_scope: str | None = None


@dataclass
class OutageCandidate:
    """A located, validated signal ready for record lifecycle handling.

    ``diverted_keys`` carries the signal PoP's just-diverted path keys
    when the candidate crosses a monitor-share boundary (the
    shard-process runtime ships them with the candidate, because the
    receiving record stage's monitor share does not own the signal
    PoP's ``last_diverted`` view).  ``None`` means "read the live
    monitor", which the in-process chains do.
    """

    classification: SignalClassification
    located: PoP
    method: str
    outcome: ValidationOutcome
    city_scope: str | None = None
    diverted_keys: frozenset | None = None

"""Inter-stage types of the Kepler pipeline.

Raw BGP elements (:class:`repro.bgp.messages.BGPUpdate`,
:class:`~repro.bgp.messages.BGPStateMessage`) and
:class:`PrimingUpdate` flow into the early stages, and the wire pair
carries tagged rows as one :class:`~repro.core.serde.TaggedBatch` per
chunk.  Each closed bin is then analysed by typed calls: the monitor
hands over its signals and the bin it advanced to, classification
returns PoP-level classifications and the set of PoPs signalling
together, localisation returns :class:`LocatedSignal` items and the
city scope, and validation returns :class:`OutageCandidate` items for
the record stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.messages import BGPUpdate
from repro.core.dataplane import ValidationOutcome
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


@dataclass
class LocatedSignal:
    """One PoP-level classification with its inferred epicenter."""

    classification: SignalClassification
    located: PoP
    method: str


@dataclass
class OutageCandidate:
    """A located, validated signal ready for record lifecycle handling.

    The record it opens or extends waits on the paths its
    classification's signals counted (``OutageSignal.keys``), so it
    needs nothing from the monitor's state at the time it arrives.
    """

    classification: SignalClassification
    located: PoP
    method: str
    outcome: ValidationOutcome
    city_scope: str | None = None

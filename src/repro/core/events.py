"""Outage signal and outage record types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.docmine.dictionary import PoP, PoPKind

if TYPE_CHECKING:
    from repro.core.input import PathKey


class SignalType(enum.Enum):
    """Granularity of an outage signal (Section 4.3)."""

    LINK = "link"
    AS = "as"
    OPERATOR = "operator"
    POP = "pop"


@dataclass(frozen=True, slots=True)
class OutageSignal:
    """One per-AS outage signal raised by the monitoring module.

    The fraction of this AS's baseline paths through ``pop`` that
    diverted within one binning interval exceeded Tfail.
    """

    pop: PoP
    near_asn: int | None
    bin_start: float
    bin_end: float
    diverted_paths: int
    baseline_paths: int
    #: affected (near-end, far-end) AS pairs, far-end None when unknown.
    links: frozenset[tuple[int | None, int | None]]
    #: the diverted paths it counted, sorted: what an outage opened on
    #: it waits on (§4.4).
    keys: tuple[PathKey, ...] = ()

    @property
    def fraction(self) -> float:
        if self.baseline_paths == 0:
            return 0.0
        return self.diverted_paths / self.baseline_paths


@dataclass(slots=True)
class OutageRecord:
    """A detected PoP-level outage, possibly refined by investigation.

    ``signal_pop`` is where the signal was observed (the community's
    granularity); ``located_pop`` is the inferred epicenter after
    disambiguation — e.g. a LINX IXP signal localised to the Telecity
    HEX 8/9 building (Section 6.2).
    """

    signal_pop: PoP
    located_pop: PoP
    start: float
    end: float | None = None
    affected_ases: set[int] = field(default_factory=set)
    affected_links: set[tuple[int | None, int | None]] = field(default_factory=set)
    method: str = ""
    confirmed_by_dataplane: bool | None = None
    city_scope: str | None = None
    merged_incidents: int = 1
    notes: list[str] = field(default_factory=list)

    @property
    def duration_s(self) -> float | None:
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def kind(self) -> PoPKind:
        return self.located_pop.kind

    def describe(self) -> str:
        dur = (
            f"{self.duration_s / 60.0:.1f} min"
            if self.duration_s is not None
            else "ongoing"
        )
        return (
            f"[{self.located_pop}] start={self.start:.0f} duration={dur}"
            f" ases={len(self.affected_ases)} method={self.method}"
        )

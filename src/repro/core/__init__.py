"""Kepler — the paper's primary contribution.

Passive detection, classification, localisation and validation of
peering-infrastructure outages from BGP community dynamics
(Sections 3.4 and 4).
"""

from repro.core.colocation import (
    ColocationMap,
    MapFacility,
    MapIXP,
    MIN_TRACKABLE_MEMBERS,
    build_colocation_map,
)
from repro.core.events import OutageRecord, OutageSignal, SignalType
from repro.core.input import InputModule, PoPTag
from repro.core.monitor import (
    MonitorParams,
    OutageMonitor,
    merge_monitor_states,
    partition_of,
    pop_sort_key,
    signal_sort_key,
)
from repro.core.signals import classify_signals, SignalClassification
from repro.core.investigation import Investigator, InvestigationResult
from repro.core.dataplane import DataPlaneValidator, NullValidator, ValidationOutcome
from repro.core.kepler import Kepler, KeplerParams

__all__ = [
    "ColocationMap",
    "MapFacility",
    "MapIXP",
    "MIN_TRACKABLE_MEMBERS",
    "build_colocation_map",
    "OutageRecord",
    "OutageSignal",
    "SignalType",
    "InputModule",
    "PoPTag",
    "MonitorParams",
    "OutageMonitor",
    "merge_monitor_states",
    "partition_of",
    "pop_sort_key",
    "signal_sort_key",
    "classify_signals",
    "SignalClassification",
    "Investigator",
    "InvestigationResult",
    "DataPlaneValidator",
    "NullValidator",
    "ValidationOutcome",
    "Kepler",
    "KeplerParams",
]

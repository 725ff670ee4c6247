"""Policy routing simulator.

Computes Gao-Rexford-compliant best paths over the ground-truth topology,
realises each AS adjacency through concrete physical interconnections
(PNIs, local and remote IXP ports), tags routes with ingress communities,
and re-converges on infrastructure events — emitting the BGP update
streams that Kepler consumes.
"""

from repro.routing.interconnection import (
    Adjacency,
    FailureState,
    Interconnection,
    InterconnectKind,
    build_adjacencies,
)
from repro.routing.policy import PathClass
from repro.routing.events import (
    ASFailure,
    ASRecovery,
    FacilityFailure,
    FacilityRecovery,
    InfraEvent,
    IXPFailure,
    IXPRecovery,
    LinkFailure,
    LinkRecovery,
    PartialFacilityFailure,
    PartialFacilityRecovery,
)
from repro.routing.engine import CollectorLayout, EngineParams, RoutingEngine

__all__ = [
    "Adjacency",
    "FailureState",
    "Interconnection",
    "InterconnectKind",
    "build_adjacencies",
    "PathClass",
    "InfraEvent",
    "FacilityFailure",
    "FacilityRecovery",
    "PartialFacilityFailure",
    "PartialFacilityRecovery",
    "IXPFailure",
    "IXPRecovery",
    "ASFailure",
    "ASRecovery",
    "LinkFailure",
    "LinkRecovery",
    "CollectorLayout",
    "EngineParams",
    "RoutingEngine",
]

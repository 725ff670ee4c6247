"""Analysis toolkit: statistics behind every table and figure."""

from repro.analysis.ecdf import quantile
from repro.analysis.durations import DurationStats, duration_stats, uptime_fraction
from repro.analysis.coverage import (
    continent_coverage,
    dictionary_geo_spread,
    trackability_profile,
)
from repro.analysis.adoption import AdoptionModel, AdoptionPoint
from repro.analysis.validation import ValidationScore, score_detections
from repro.analysis.remote_impact import RemoteImpact, remote_impact_analysis
from repro.analysis.rtt import RttComparison, rtt_comparison

__all__ = [
    "quantile",
    "DurationStats",
    "duration_stats",
    "uptime_fraction",
    "continent_coverage",
    "dictionary_geo_spread",
    "trackability_profile",
    "AdoptionModel",
    "AdoptionPoint",
    "ValidationScore",
    "score_detections",
    "RemoteImpact",
    "remote_impact_analysis",
    "RttComparison",
    "rtt_comparison",
]

"""The configuration surface: a new knob is a test diff, not a dataclass line."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.kepler import KeplerParams


def test_knob_census():
    # ROADMAP item 3 counts the layout knobs: today ``process_batch``,
    # ``shard_processes`` and ``feed_chunk`` (3); the target is one
    # (``feed_chunk``).  Adding a field here means moving away from it.
    assert {f.name for f in dataclasses.fields(KeplerParams)} == {
        "monitor",
        "min_pop_ases",
        "colocation_margin",
        "restore_fraction",
        "merge_gap_s",
        "drop_rejected",
        "enable_investigation",
        "correlation_window_s",
        "process_batch",
        "shard_processes",
        "feed_chunk",
    }
    assert len(dataclasses.fields(KeplerParams)) == 11


@pytest.mark.parametrize(
    "retired",
    ["shards", "shard_workers", "monitor_partitions", "transport"],
)
def test_retired_layout_knobs_are_type_errors(retired):
    with pytest.raises(TypeError, match=retired):
        KeplerParams(**{retired: 2})


@pytest.mark.parametrize("value", [-1, 1.5, False])
def test_retired_ingest_feeds_is_a_type_error(value):
    # The knob's old bad values are refused as loudly as its old good ones.
    with pytest.raises(TypeError, match="ingest_feeds"):
        KeplerParams(ingest_feeds=value)


@pytest.mark.parametrize("value", [True, False])
def test_retired_supervised_is_a_type_error(value):
    # Off as loudly as on: the runtime mode is gone, not defaulted.
    with pytest.raises(TypeError, match="supervised"):
        KeplerParams(supervised=value)


@pytest.mark.parametrize("value", [None, {"max_restarts": 0}])
def test_retired_recovery_is_a_type_error(value):
    # Its old "disabled" value is refused like a policy.
    with pytest.raises(TypeError, match="recovery"):
        KeplerParams(recovery=value)


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("shard_processes", 1),
        ("shard_processes", -3),
        ("shard_processes", 2.0),
        ("shard_processes", True),
    ],
)
def test_layout_knobs_fail_closed(field, value):
    with pytest.raises(ValueError, match=field):
        KeplerParams(**{field: value})


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("feed_chunk", 0),
        ("feed_chunk", 2.5),
        ("feed_chunk", True),
        ("process_batch", 0),
        ("process_batch", 64.0),
        ("process_batch", False),
        ("min_pop_ases", 0),
        ("min_pop_ases", 2.5),
        ("min_pop_ases", True),
        ("restore_fraction", 1.0),
        ("restore_fraction", -0.1),
        ("restore_fraction", float("nan")),
        ("restore_fraction", float("inf")),
        ("merge_gap_s", -1.0),
        ("merge_gap_s", float("nan")),
        ("merge_gap_s", float("inf")),
        ("correlation_window_s", -60.0),
        ("correlation_window_s", float("nan")),
        ("correlation_window_s", float("inf")),
    ],
)
def test_detection_and_chunk_knobs_fail_closed(field, value):
    with pytest.raises(ValueError, match=field):
        KeplerParams(**{field: value})


def test_edge_values_stay_legal():
    KeplerParams(shard_processes=0)
    KeplerParams(shard_processes=2)
    KeplerParams(
        feed_chunk=1,
        process_batch=1,
        min_pop_ases=1,
        restore_fraction=0.0,
        merge_gap_s=0.0,
        correlation_window_s=0.0,
    )
    KeplerParams(restore_fraction=0.999, merge_gap_s=0, correlation_window_s=0)

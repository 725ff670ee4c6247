"""The configuration surface: a new knob is a test diff, not a dataclass line."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.kepler import KeplerParams, RecoveryPolicy


def test_knob_census():
    # ROADMAP item 3 counts the layout knobs: today ``process_batch``,
    # ``shard_processes``, ``supervised``, ``recovery`` and
    # ``feed_chunk`` (5); the target is one (``feed_chunk``).
    # Adding a field here means moving away from it.
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
        "supervised",
        "recovery",
        "feed_chunk",
    }
    assert len(dataclasses.fields(KeplerParams)) == 13
    assert {f.name for f in dataclasses.fields(RecoveryPolicy)} == {
        "max_restarts",
        "checkpoint_interval",
        "journal_limit",
        "backoff_base_s",
        "backoff_cap_s",
        "stall_timeout_s",
        "teardown_deadline_s",
        "degrade",
    }


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


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("max_restarts", -1),
        ("max_restarts", True),
        ("checkpoint_interval", 0),
        ("checkpoint_interval", 8.5),
        ("journal_limit", 0),
        ("stall_timeout_s", 0),
        ("stall_timeout_s", -1.0),
        ("stall_timeout_s", float("inf")),
        ("stall_timeout_s", float("nan")),
        ("backoff_base_s", -0.1),
        ("backoff_cap_s", float("nan")),
        ("teardown_deadline_s", float("inf")),
    ],
)
def test_recovery_knobs_fail_closed(field, value):
    with pytest.raises(ValueError, match=field):
        RecoveryPolicy(**{field: value})


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
    RecoveryPolicy(
        max_restarts=0,
        checkpoint_interval=1,
        journal_limit=None,
        stall_timeout_s=None,
        backoff_base_s=0.0,
        backoff_cap_s=0.0,
        teardown_deadline_s=0.0,
    )
    RecoveryPolicy(journal_limit=1, stall_timeout_s=0.5)

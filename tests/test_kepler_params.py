"""The configuration surface: a new knob is a test diff, not a dataclass line."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.kepler import KeplerParams, RecoveryPolicy


def test_knob_census():
    # ROADMAP item 3 counts the layout knobs: today ``process_batch``,
    # ``shard_processes``, ``ingest_feeds``, ``supervised``,
    # ``recovery`` and ``feed_chunk`` (6); the target is at most four.
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
        "ingest_feeds",
        "supervised",
        "recovery",
        "feed_chunk",
    }
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
    "retired", ["shards", "shard_workers", "monitor_partitions", "transport"]
)
def test_retired_layout_knobs_are_type_errors(retired):
    with pytest.raises(TypeError, match=retired):
        KeplerParams(**{retired: 2})

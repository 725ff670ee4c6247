"""Checkpoint/resume: snapshot -> restore resumes byte-identically.

Property-based: a detector snapshotted at an *arbitrary* mid-stream
cut, serialised through JSON (as a new process would read it), and
restored into a freshly-constructed detector must finish the stream
with records and signal log identical to an uninterrupted run — on
two scenario worlds, with and without a data-plane validator.

The document is fail-closed (a malformed one raises ``ValueError`` and
leaves the detector as it was).  A version-3 document — the committed
fixture the retired thread-sharded runtime wrote — carries no signal
keys, so it cannot resume exactly and is refused by version, as is a
version-4 document, whose monitor entries still carry path AS sets, a
version-5 one, whose metrics still carry wall-clock seconds, and a
version-6 one, whose analysis-stage counts are in envelopes.  Two
runs of one replay prefix give byte-equal documents.  A cut
between a signal's bin and the arrival of the candidate it feeds
resumes to the uninterrupted output: the window's signals carry the
paths the record will wait on.  A PoP pickled by one interpreter start
matches the same PoP decoded by another.
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_oscillation_edges import LATE_END, late_kepler, late_replay
from test_process_feeds import needs_fork
from test_pipeline_equivalence import (
    FIRST_WORLD,
    SECOND_WORLD,
    DeterministicValidator,
    prepared,
    record_fields,
)
import repro
from repro.bgp.communities import Community
from repro.bgp.messages import BGPUpdate, ElemType
from repro.core.colocation import ColocationMap
from repro.core.kepler import CHECKPOINT_VERSION, Kepler, KeplerParams
from repro.core.monitor import MonitorParams
from repro.docmine.dictionary import (
    CommunityDictionary,
    DictionaryEntry,
    PoP,
    PoPKind,
)
from repro.scenarios import World, build_world

END_TIME = 80_000.0


@pytest.fixture(scope="module")
def world_a() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD)
    )


@pytest.fixture(scope="module")
def world_b() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=SECOND_WORLD.seed, world_params=SECOND_WORLD)
    )


def make_kepler(
    world: World, params: KeplerParams, with_validator: bool
) -> Kepler:
    return Kepler(
        dictionary=world.dictionary,
        colo=world.colo,
        as2org=world.as2org,
        params=params,
        validator=DeterministicValidator() if with_validator else None,
    )


#: Baselines keyed by (world seed, validator) — each hypothesis
#: example re-runs the resumed half only, not the uninterrupted run.
_baselines: dict[tuple, tuple[list, list]] = {}


def uninterrupted(
    replay: tuple[World, list, list],
    params: KeplerParams,
    with_validator: bool,
) -> tuple[list, list]:
    world, snapshot, elements = replay
    cache_key = (world.seed, with_validator)
    cached = _baselines.get(cache_key)
    if cached is not None:
        return cached
    detector = make_kepler(world, params, with_validator)
    detector.prime(snapshot)
    detector.process(elements)
    detector.finalize(end_time=END_TIME)
    result = (
        [record_fields(r) for r in detector.records],
        [
            (c.pop, c.signal_type, c.bin_start, c.bin_end)
            for c in detector.signal_log
        ],
    )
    _baselines[cache_key] = result
    return result


def resumed_at(
    replay: tuple[World, list, list],
    params: KeplerParams,
    with_validator: bool,
    cut: int,
) -> tuple[list, list]:
    """Run to ``cut``, snapshot, JSON round-trip, restore, finish."""
    world, snapshot, elements = replay
    first = make_kepler(world, params, with_validator)
    first.prime(snapshot)
    first.process(elements[:cut])
    blob = json.dumps(first.snapshot())

    second = make_kepler(world, params, with_validator)
    second.restore(json.loads(blob))
    second.process(elements[cut:])
    second.finalize(end_time=END_TIME)
    return (
        [record_fields(r) for r in second.records],
        [
            (c.pop, c.signal_type, c.bin_start, c.bin_end)
            for c in second.signal_log
        ],
    )


class TestRoundTripProperties:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    def test_world_a_with_dataplane(self, world_a, frac):
        params = KeplerParams()
        baseline = uninterrupted(world_a, params, True)
        cut = int(frac * len(world_a[2]))
        assert resumed_at(world_a, params, True, cut) == baseline

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    def test_world_b_control_plane(self, world_b, frac):
        params = KeplerParams()
        baseline = uninterrupted(world_b, params, False)
        cut = int(frac * len(world_b[2]))
        assert resumed_at(world_b, params, False, cut) == baseline


class TestCheckpointDocument:
    def test_snapshot_is_json_serialisable_and_versioned(self, world_a):
        world, snapshot, elements = world_a
        detector = make_kepler(world, KeplerParams(), False)
        detector.prime(snapshot)
        detector.process(elements[: len(elements) // 3])
        document = detector.snapshot()
        blob = json.dumps(document)
        parsed = json.loads(blob)
        assert parsed["format"] == "kepler-checkpoint"
        assert parsed["version"] == 7
        monitor = parsed["pipeline"]["stages"]["monitor"]["monitor"]
        assert "tracking" not in monitor and "shards" not in parsed
        assert parsed["primed_paths"] == detector.primed_paths

    def test_snapshot_is_read_only_and_idempotent(self, world_a):
        world, snapshot, elements = world_a
        detector = make_kepler(world, KeplerParams(), False)
        detector.prime(snapshot)
        detector.process(elements[: len(elements) // 3])
        # Operators checkpoint periodically: taking a snapshot must not
        # mutate the detector, so back-to-back documents are identical.
        first = json.dumps(detector.snapshot(), sort_keys=True)
        second = json.dumps(detector.snapshot(), sort_keys=True)
        assert first == second

    @pytest.mark.parametrize(
        "shard_processes",
        [0, pytest.param(2, marks=needs_fork)],
        ids=["linear", "shard_processes"],
    )
    def test_two_runs_of_one_prefix_give_byte_equal_snapshots(
        self, world_a, shard_processes
    ):
        # A checkpoint is the detector's state, not a measurement of
        # the run: no wall-clock field may make two runs differ.
        world, snapshot, elements = world_a
        documents = []
        for _ in range(2):
            detector = make_kepler(
                world, KeplerParams(shard_processes=shard_processes), False
            )
            try:
                detector.prime(snapshot)
                detector.process(elements[: len(elements) // 2])
                documents.append(json.dumps(detector.snapshot(), sort_keys=True))
            finally:
                detector.close()
        first, second = documents
        if first != second:  # no multi-MB difflib on failure
            at = next(i for i, (x, y) in enumerate(zip(first, second)) if x != y)
            pytest.fail(
                "two runs of one prefix differ at byte"
                f" {at}: {first[at - 60:at + 20]!r} vs {second[at - 60:at + 20]!r}"
            )

    def test_restore_rejects_wrong_version(self, world_a):
        world, _, _ = world_a
        detector = make_kepler(world, KeplerParams(), False)
        fresh = make_kepler(world, KeplerParams(), False)
        before = json.dumps(fresh.snapshot(), sort_keys=True)
        # Version 4 entries still carry path AS sets, version 5
        # metrics carry wall-clock seconds and version 6 metrics count
        # inter-stage envelopes: refused, not read.
        for version in (4, 5, 6, 99):
            document = detector.snapshot()
            document["version"] = version
            with pytest.raises(ValueError, match="version"):
                fresh.restore(document)
            assert json.dumps(fresh.snapshot(), sort_keys=True) == before

    def test_version_6_document_is_refused_and_changes_nothing(self, world_a):
        # A version-6 metrics section counts the analysis stages in
        # envelopes and bin markers; restoring it mid-stream would mix
        # its counts with this detector's own units.
        world, snapshot, elements = world_a
        detector = make_kepler(world, KeplerParams(), False)
        detector.prime(snapshot)
        detector.process(elements[: len(elements) // 2])
        document = detector.snapshot()
        document["version"] = 6
        detector.process(elements[len(elements) // 2 :])
        before = json.dumps(detector.snapshot(), sort_keys=True)
        with pytest.raises(ValueError, match="version 6 not supported"):
            detector.restore(document)
        assert json.dumps(detector.snapshot(), sort_keys=True) == before

    def test_restore_rejects_foreign_document(self, world_a):
        world, _, _ = world_a
        fresh = make_kepler(world, KeplerParams(), False)
        with pytest.raises(ValueError, match="checkpoint"):
            fresh.restore({"format": "something-else"})

    def test_restored_metrics_and_counters_survive(self, world_a):
        world, snapshot, elements = world_a
        detector = make_kepler(world, KeplerParams(), False)
        detector.prime(snapshot)
        detector.process(elements[: len(elements) // 2])
        blob = json.dumps(detector.snapshot())

        fresh = make_kepler(world, KeplerParams(), False)
        fresh.restore(json.loads(blob))
        assert fresh.primed_paths == detector.primed_paths
        assert (
            fresh.pipeline.ingest.announcements
            == detector.pipeline.ingest.announcements
        )
        assert (
            fresh.monitor.total_baseline_entries
            == detector.monitor.total_baseline_entries
        )
        assert (
            fresh.monitor.pending_count == detector.monitor.pending_count
        )
        original = detector.metrics.snapshot()
        restored = fresh.metrics.snapshot()
        # Bin-close latencies are run telemetry, not state: the
        # restored detector has closed no bin in its own process yet.
        timing = ("mean_latency_s", "max_latency_s")
        assert {
            k: v for k, v in original["bins"].items() if k not in timing
        } == {k: v for k, v in restored["bins"].items() if k not in timing}
        assert original["bins"]["max_latency_s"] > 0.0
        assert [restored["bins"][k] for k in timing] == [0.0, 0.0]
        assert [s["name"] for s in original["stages"]] == [
            s["name"] for s in restored["stages"]
        ]


# ----------------------------------------------------------------------
# A version-3 document, and malformed documents
# ----------------------------------------------------------------------
#: ``snapshot()`` of ``KeplerParams(shards=2)`` after ``REPLAY_CUT``
#: elements of :func:`synthetic_replay`, captured at commit ce153cb,
#: the last that had the thread-sharded runtime: a version-3 document.
SHARDED_FIXTURE = (
    pathlib.Path(__file__).parent / "fixtures" / "shards2_midstream.json"
)
REPLAY_CUT = 151
#: PoP index -> (down bin, up bin) of each full outage of that PoP.
REPLAY_OUTAGES = {
    0: [(3, 9), (30, 34)],
    1: [(5, 40)],
    2: [(7, 12)],
    3: [(14, 20)],
    4: [(15, 18)],
}
REPLAY_BINS = 50
VANTAGE = 9_000


def synthetic_replay() -> tuple[CommunityDictionary, list, list]:
    """Five facility PoPs (3 near x 3 far ASes, 18 paths each) failing
    and recovering on ``REPLAY_OUTAGES``; no world, no colocation map."""
    entries: dict[Community, DictionaryEntry] = {}

    def located(asn: int, value: int, pop_id: str) -> Community:
        community = Community(asn, value)
        entries[community] = DictionaryEntry(
            community=community,
            pop=PoP(PoPKind.FACILITY, pop_id),
            source_url="fixture://synthetic",
            surface=pop_id,
        )
        return community

    def update(time: float, route: tuple, announce: bool) -> BGPUpdate:
        prefix, path, community = route
        return BGPUpdate(
            time=time,
            collector="rrc00",
            peer_asn=VANTAGE,
            prefix=prefix,
            elem_type=(
                ElemType.ANNOUNCEMENT if announce else ElemType.WITHDRAWAL
            ),
            as_path=path if announce else (),
            communities=(community,) if announce else (),
        )

    priming: list[BGPUpdate] = []
    elements: list[BGPUpdate] = []
    for i, outages in REPLAY_OUTAGES.items():
        for j in range(3):
            near = 2000 + 10 * i + j
            community = located(near, 700 + i, f"fx-f{i}")
            for k in range(6):
                far = 2000 + 10 * i + 3 + k % 3
                route = (
                    f"10.{i}.{j}.{4 * k}/30",
                    (VANTAGE, near, far),
                    community,
                )
                priming.append(update(0.0, route, True))
                for down, up in outages:
                    elements.append(update(down * 60.0 + 5.0, route, False))
                    elements.append(update(up * 60.0 + 5.0, route, True))
    # One route outside every failing PoP, re-announced each minute,
    # keeps the monitor's event-driven bin clock ticking.
    ticker = (
        "10.99.0.0/24",
        (VANTAGE, 2990, 2991),
        located(2990, 799, "fx-ticker"),
    )
    elements.extend(
        update(b * 60.0 + 30.0, ticker, True) for b in range(REPLAY_BINS)
    )
    elements.sort(key=lambda e: e.time)
    return CommunityDictionary(entries=entries), priming, elements


def synthetic_kepler(dictionary: CommunityDictionary) -> Kepler:
    return Kepler(
        dictionary=dictionary,
        colo=ColocationMap(),
        as2org={},
        params=KeplerParams(
            monitor=MonitorParams(stable_window_s=120.0),
            enable_investigation=False,
        ),
        validator=DeterministicValidator(),
    )


@pytest.fixture(scope="module")
def sharded_document() -> dict:
    return json.loads(SHARDED_FIXTURE.read_text())


@pytest.fixture(scope="module")
def replay() -> tuple[CommunityDictionary, list, list]:
    return synthetic_replay()


def test_version_3_document_is_refused_and_changes_nothing(
    sharded_document, replay
):
    dictionary, priming, elements = replay
    # Its window signals hold no keys: the records they open could not
    # wait on their paths, so the document is refused, not resumed.
    assert sharded_document["version"] == 3
    window = [
        signal
        for chain in sharded_document["pipeline"]["chains"]
        for signal in chain["classify"]["window"]
    ]
    assert window and not any("keys" in signal for signal in window)
    detector = synthetic_kepler(dictionary)
    detector.prime(priming)
    detector.process(elements[:REPLAY_CUT])
    before = json.dumps(detector.snapshot(), sort_keys=True)
    with pytest.raises(ValueError, match="version 3 not supported"):
        detector.restore(copy.deepcopy(sharded_document))
    assert json.dumps(detector.snapshot(), sort_keys=True) == before


def _without(*path: str):
    def mutate(doc: dict) -> None:
        node = doc
        for name in path[:-1]:
            node = node[name]
        del node[path[-1]]

    return mutate


def _as_current(doc: dict) -> None:
    """Stamp a retired document with the current version."""
    doc["version"] = CHECKPOINT_VERSION
    doc["shards"] = 0


@pytest.mark.parametrize(
    "layout, mutate, field",
    [
        # A retired pipeline section under the current stamp still
        # fails on its shape.
        pytest.param("sharded", _as_current, "stages", id="sharded-as-shards=0"),
        *(
            pytest.param("linear", _without(*path), path[-1], id="no-" + path[-1])
            for path in (
                ("pipeline",),
                ("primed_paths",),
                ("pipeline", "stages"),
                ("pipeline", "metrics"),
            )
        ),
        # A version-3 document is refused by version whatever its shape.
        *(
            pytest.param(
                "sharded", _without("pipeline", name), "version", id="no-" + name
            )
            for name in ("upstream", "chains", "signal_log")
        ),
    ],
)
def test_malformed_document_is_refused_and_changes_nothing(
    sharded_document, replay, layout, mutate, field
):
    dictionary, priming, elements = replay
    detector = synthetic_kepler(dictionary)
    detector.prime(priming)
    detector.process(elements[:REPLAY_CUT])
    before = json.dumps(detector.snapshot(), sort_keys=True)
    # Either donor would move the detector if any of it were loaded.
    document = (
        synthetic_kepler(dictionary).snapshot()
        if layout == "linear"
        else copy.deepcopy(sharded_document)
    )
    mutate(document)
    with pytest.raises(ValueError, match=field):
        detector.restore(document)
    assert json.dumps(detector.snapshot(), sort_keys=True) == before


# ----------------------------------------------------------------------
# A cut between a signal's bin and its candidate's arrival
# ----------------------------------------------------------------------
def late_output(detector: Kepler) -> tuple[list, list]:
    return (
        [record_fields(r) for r in detector.records],
        [
            (c.pop, c.signal_type, c.bin_start, c.bin_end, c.signals)
            for c in detector.signal_log
        ],
    )


@pytest.mark.parametrize("cut_after", [65.0, 150.0])
def test_cut_before_the_candidate_resumes_to_the_same_record(cut_after):
    """The window's first signals are in the document, their candidate
    is not: the resumed record must wait on their paths all the same."""
    dictionary, priming, elements = late_replay("window")
    whole = late_kepler(dictionary)
    whole.prime(priming)
    whole.process(elements)
    whole.finalize(end_time=LATE_END)

    cut = next(i for i, e in enumerate(elements) if e.time > cut_after)
    first = late_kepler(dictionary)
    first.prime(priming)
    first.process(elements[:cut])
    document = json.loads(json.dumps(first.snapshot()))
    stages = document["pipeline"]["stages"]
    assert stages["classify"]["window"] and not stages["record"]["open"]
    assert all(signal["keys"] for signal in stages["classify"]["window"])

    second = late_kepler(dictionary)
    second.restore(document)
    second.process(elements[cut:])
    second.finalize(end_time=LATE_END)
    assert late_output(second) == late_output(whole)
    assert [(r.start, r.end) for r in second.records] == [(0.0, 360.0)]


# ----------------------------------------------------------------------
# Pickled deployment inputs under another interpreter start
# ----------------------------------------------------------------------
def test_pop_unpickled_under_another_hash_seed_finds_its_decoded_twin():
    """A resumed process unpickles its deployment inputs (dictionary,
    colocation map) and decodes PoPs from the checkpoint: the two must
    hash alike, or a record's watch never hears of its paths."""
    writer = (
        "import pickle, sys\n"
        "from repro.docmine.dictionary import PoP, PoPKind\n"
        "sys.stdout.buffer.write(pickle.dumps(PoP(PoPKind.IXP, 'ix-a')))\n"
    )
    reader = (
        "import pickle, sys\n"
        "from repro.core.serde import pop_from_json\n"
        "pop = pickle.loads(sys.stdin.buffer.read())\n"
        "sys.exit(0 if {pop} == {pop_from_json(['ixp', 'ix-a'])}"
        " and pop in {pop_from_json(['ixp', 'ix-a'])} else 1)\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])

    def run(code: str, seed: str, data: bytes = b"") -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, "-c", code], input=data, env=env,
            capture_output=True, timeout=60,
        )

    blob = run(writer, "1").stdout
    assert run(reader, "2", blob).returncode == 0

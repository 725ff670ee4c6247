"""The detector's output does not depend on the string-hash seed.

The per-bin analysis hands sets of PoPs from stage to stage (the
PoPs signalling together, the pops of a record's watch), and a set's
iteration order follows the interpreter's string-hash key.  Nothing
the detector writes may follow it: one world's deployment inputs
(dictionary, colocation map, AS-to-organisation map), its RIB and its
quickstart stream (a one-hour outage at Telehouse North) are pickled
once, replayed in two fresh interpreters at ``PYTHONHASHSEED`` 1 and
2, and the records and the mid-stream checkpoint document of the two
runs must be byte-equal.

The world is built here, once: its history itself depends on the hash
seed (``RoutingEngine._pair_roll``), which is why the inputs are
pickled instead of rebuilt in each interpreter.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys

import repro
from repro.routing.events import FacilityFailure, FacilityRecovery
from repro.scenarios import build_world

REPLAY = """\
import json, pickle, sys
from repro.core.kepler import Kepler
from repro.core.serde import record_to_json

with open(sys.argv[1], "rb") as handle:
    dictionary, colo, as2org, rib, stream = pickle.load(handle)
detector = Kepler(dictionary=dictionary, colo=colo, as2org=as2org)
detector.prime(rib)
detector.process(stream[: len(stream) // 2])
snapshot = json.dumps(detector.snapshot(), sort_keys=True)
detector.process(stream[len(stream) // 2 :])
records = detector.finalize(end_time=40_000.0)
assert records, "not vacuous: the outage must be detected"
sys.stdout.write(json.dumps([record_to_json(r) for r in records]))
sys.stdout.write("\\n")
sys.stdout.write(snapshot)
"""


def test_records_and_snapshot_equal_across_hash_seeds(tmp_path):
    world = build_world(seed=1)
    rib = world.rib_snapshot(0.0)
    stream = world.run_events(
        [
            (10_000.0, FacilityFailure("th-north")),
            (13_600.0, FacilityRecovery("th-north")),
        ]
    )
    inputs = tmp_path / "inputs.pickle"
    inputs.write_bytes(
        pickle.dumps((world.dictionary, world.colo, world.as2org, rib, stream))
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", REPLAY, str(inputs)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr.decode()[-2000:]
        outputs.append(run.stdout)
    first, second = outputs
    records, _, snapshot = first.partition(b"\n")
    assert records != b"[]" and snapshot
    if first != second:  # no multi-MB difflib on failure
        at = next(i for i, (x, y) in enumerate(zip(first, second)) if x != y)
        raise AssertionError(
            f"hash seeds 1 and 2 differ at byte {at}:"
            f" {first[at - 60:at + 20]!r} vs {second[at - 60:at + 20]!r}"
        )

"""Kepler performance ledger: one command, every named number.

    python benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--scale X] [--out FILE]
    python benchmarks/ledger/run.py --compare A.json B.json

Runs each selected workload (all five by default) in a fresh
subprocess, checks outputs, prints every metric by name with its unit
and ends with one JSON line: for a single workload the object the
benchmark contract expects (``correct`` / ``attempted`` / ``failed`` /
``metrics``), with the end-to-end metrics of an untraced run or the
per-layer metrics of a traced one.  ``--out`` writes the full ledger
document; a traced run also writes its spans next to it
(``FILE.spans.<workload>.json``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
# The program under test lives in src/; the ledger's own modules are
# flat files next to this one.
for entry in (str(REPO / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def declared() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Child: measure one workload in this process
# ----------------------------------------------------------------------
def child(args) -> int:
    import harness

    doc, spans = harness.run_workload(
        args.workload[0], args.seed, args.seconds, bool(args.trace), args.scale
    )
    if spans is not None and args.spans_out:
        pathlib.Path(args.spans_out).write_text(json.dumps(spans))
    print(json.dumps(doc))
    return 0


# ----------------------------------------------------------------------
# Parent: one subprocess per workload, table, ledger document
# ----------------------------------------------------------------------
def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _run_child(name: str, args) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    if args.scale is not None:
        command += ["--scale", str(args.scale)]
    if args.out and args.trace:
        command += ["--spans-out", f"{args.out}.spans.{name}.json"]
    # The routing engine iterates sets of strings, so the generated stream
    # depends on string hashing: pin it, or a seed is not reproducible.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env)
    if done.returncode != 0:
        raise SystemExit(f"workload {name}: subprocess exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _metrics_of(doc: dict) -> dict:
    """``name -> (value, unit)`` of the set this document holds."""
    if doc["traced"]:
        return {
            name: (entry["value"], entry["unit"])
            for name, entry in doc["per_layer"].items()
        }
    return {
        name: (entry["median"], entry["unit"])
        for name, entry in doc["end_to_end"].items()
    }


def _check_names(doc: dict, spec: dict) -> None:
    key = "per_layer" if doc["traced"] else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: unit for name, (_, unit) in _metrics_of(doc).items()}
    if doc[key] and got != want:
        diff = sorted(set(want.items()) ^ set(got.items()))
        raise SystemExit(f"{doc['workload']}: {key} metrics != BENCHMARK.json: {diff}")


def _print_workload(doc: dict) -> None:
    d = doc["detect"]
    print(
        f"\n== {doc['workload']} ({doc['loop']} loop, seed {doc['seed']},"
        f" scale {doc['scale']:.3g}, {doc['elements']} elements,"
        f" stream {doc['stream_digest']})"
    )
    print(
        f"   records {d.get('records')}  signal_log {d.get('signal_log')}"
        f"  rejected {d.get('rejected')}  truths {d.get('truths')}"
        f"  TP/FN/FP {d.get('true_positives')}/{d.get('false_negatives')}"
        f"/{d.get('false_positives')}"
    )
    print(
        f"   ops {doc['ops']}  failed_ops {doc['failed_ops']}"
        f"  missed_ops {doc['missed_ops']}  failed_share {doc['failed_share']:.4f}"
    )
    for failure in doc["failures"]:
        print(f"   FAILED: {failure}")
    if doc["traced"]:
        for name, entry in sorted(doc["per_layer"].items()):
            value = entry["value"]
            shown = "null" if value is None else f"{value:.6g}"
            note = f"  ({entry['reason']})" if entry.get("reason") else ""
            print(f"   {name:34s} {shown:>14s} {entry['unit']:6s} n={entry['n']}{note}")
        if doc.get("layer_share"):
            shares = "  ".join(
                f"{layer} {share:.1%}"
                for layer, share in sorted(
                    doc["layer_share"].items(), key=lambda kv: -kv[1]
                )
            )
            print(f"   share of traced process+finalize wall: {shares}")
        if doc.get("untraced_targets"):
            print(f"   spans could not reach: {', '.join(doc['untraced_targets'])}")
        return
    for name, e in doc["end_to_end"].items():
        print(
            f"   {name:18s} {e['median']:14.6g} {e['unit']:5s}"
            f" q1 {e['q1']:.6g}  q3 {e['q3']:.6g}  n={e['n']}"
        )
    for name, e in doc.get("info", {}).items():
        if name == "realtime_multiple":
            print(f"   {name:18s} {e:14.3f} x 20k el/s feed")
        else:
            print(f"   {name:18s} {e['median']:14.6g} {e['unit']:5s} (info) n={e['n']}")


def _contract_line(docs: list[dict]) -> dict:
    metrics = {}
    for doc in docs:
        prefix = "" if len(docs) == 1 else doc["workload"] + "/"
        for name, (value, unit) in _metrics_of(doc).items():
            # A probe whose layer was deleted reports null; the contract
            # line carries numbers only, and 0 is what a layer that does
            # not run reports everywhere else.
            metrics[prefix + name] = {
                "value": 0.0 if value is None else value,
                "unit": unit,
            }
    return {
        "correct": all(doc["correct"] for doc in docs),
        "attempted": sum(doc["ops"] for doc in docs),
        "failed": sum(doc["failed_ops"] for doc in docs),
        "metrics": metrics,
    }


def parent(args) -> int:
    from workloads import WORKLOADS

    spec = declared()
    names = args.workload or list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; have {sorted(WORKLOADS)}")
    docs = []
    for name in names:
        doc = _run_child(name, args)
        _check_names(doc, spec)
        _print_workload(doc)
        docs.append(doc)
    if args.out:
        ledger = {
            "meta": {
                "seed": args.seed,
                "seconds": args.seconds,
                "traced": bool(args.trace),
                "scale": args.scale,
                "cores": docs[0]["cores"],
                "python": platform.python_version(),
                "commit": _commit(),
            },
            "workloads": {doc["workload"]: doc for doc in docs},
        }
        pathlib.Path(args.out).write_text(json.dumps(ledger, indent=1))
    if not all(doc["per_layer" if doc["traced"] else "end_to_end"] for doc in docs):
        # Nothing was measured (the warm-up replay already failed).
        print("no result: a workload failed before it could be measured", file=sys.stderr)
        return 1
    print(json.dumps(_contract_line(docs)))
    return 0


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Table of B against A; exit 1 when any bound is exceeded."""
    spec = declared()
    rules = {m["name"]: m for m in spec["end_to_end"]}
    a = json.loads(pathlib.Path(path_a).read_text())["workloads"]
    b = json.loads(pathlib.Path(path_b).read_text())["workloads"]
    flagged = 0
    print(f"{'workload':15s} {'metric':34s} {'A':>14s} {'B':>14s} {'worse by':>9s} {'bound':>6s}")
    for name in a:
        if name not in b:
            print(f"{name:15s} missing from B")
            flagged += 1
            continue
        da, db = a[name], b[name]
        for metric, rule in rules.items():
            if metric not in da.get("end_to_end", {}) or metric not in db.get("end_to_end", {}):
                continue
            va = da["end_to_end"][metric]["median"]
            vb = db["end_to_end"][metric]["median"]
            worse = (vb - va) / va if rule["better"] == "lower" else (va - vb) / va
            verdict = ""
            if worse > rule["bound"]:
                verdict = "  REGRESSION"
                flagged += 1
            print(
                f"{name:15s} {metric:34s} {va:14.6g} {vb:14.6g} {worse:+9.1%}"
                f" {rule['bound']:6.0%}{verdict}"
            )
        verdict = ""
        if db["failed_share"] > da["failed_share"]:
            verdict = "  REGRESSION (may not rise)"
            flagged += 1
        print(
            f"{name:15s} {'failed_share':34s} {da['failed_share']:14.6g}"
            f" {db['failed_share']:14.6g}{verdict}"
        )
        for metric, ea in da.get("per_layer", {}).items():
            eb = db.get("per_layer", {}).get(metric)
            if eb is None or ea["value"] is None or eb["value"] is None:
                continue
            verdict = ""
            if ea["unit"] == "count" and ea["value"] != eb["value"]:
                verdict = "  COUNT DIFFERS"
                flagged += 1
            change = (eb["value"] - ea["value"]) / ea["value"] if ea["value"] else 0.0
            print(
                f"{name:15s} {metric:34s} {ea['value']:14.6g} {eb['value']:14.6g}"
                f" {change:+9.1%} {'':6s}{verdict}"
            )
    print(f"{flagged} flagged" if flagged else "within bounds")
    return 1 if flagged else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None, help="measuring phase per workload"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="multiple of the issue's nominal sizes (default: sized to the time cap)",
    )
    parser.add_argument("--out", help="write the ledger document here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.traced:
        args.trace = 1
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())

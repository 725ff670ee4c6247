"""Live metrics from a running multiprocess detector.

Runs the shard-process runtime (`KeplerParams(shard_processes=2)`) on
per-collector feeds (``kepler.process_feeds``), serves
``kepler.metrics_live()`` over HTTP from a daemon thread, and polls it
*while the stream is being processed* — no drain barrier, no effect on
the detector's output.

Endpoints (printed at startup):

- ``/metrics``       Prometheus text exposition
- ``/metrics.json``  the raw snapshot dict
- ``/trace``         Chrome trace-event JSON (open in Perfetto)

Run:  PYTHONPATH=src python examples/live_metrics.py
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

from repro import telemetry
from repro.core.kepler import KeplerParams
from repro.pipeline import split_by_collector
from repro.routing.events import FacilityFailure, FacilityRecovery
from repro.scenarios import build_world


def describe(snapshot: dict) -> str:
    stages = {s["name"]: s for s in snapshot.get("stages", [])}
    tagging = stages.get("tagging", {})
    live = snapshot.get("live", {})
    depths = snapshot.get("depths", {})
    parts = [
        f"tagged={tagging.get('fed', 0):>6}",
        f"workers={live.get('workers_reporting', 0)}/{live.get('workers', 0)}",
        f"sync_rounds={live.get('sync_rounds', 0):>4}",
        f"queued={sum(depths.values()) if depths else 0:>3}",
    ]
    p95 = snapshot.get("hists", {}).get("stage_ns.tagging", {}).get("p95")
    if p95 is not None:
        parts.append(f"tagging_p95={p95 / 1000.0:.1f}us/elem")
    return "  ".join(parts)


def main() -> None:
    # A frame per exchange so even this short run produces live data;
    # leave the default (0.25 s) for long-running deployments.
    telemetry.set_live_interval(0.0)

    print("Building world ...")
    world = build_world(seed=1)
    elements = world.run_events(
        [
            (10_000.0, FacilityFailure("th-north")),
            (13_600.0, FacilityRecovery("th-north")),
        ]
    )
    print(f"  {len(elements)} BGP stream elements generated")

    kepler = world.make_kepler(params=KeplerParams(shard_processes=2))
    kepler.prime(world.rib_snapshot(0.0))

    from repro.telemetry import MetricsEndpoint

    with MetricsEndpoint(kepler.metrics_live) as endpoint:
        print(f"Serving live metrics at {endpoint.url}/metrics\n")

        stop = threading.Event()

        def poll() -> None:
            while not stop.is_set():
                with urllib.request.urlopen(
                    endpoint.url + "/metrics.json", timeout=5
                ) as response:
                    snapshot = json.load(response)
                print("  live:", describe(snapshot))
                time.sleep(0.05)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        kepler.process_feeds(split_by_collector(elements))
        records = kepler.finalize(end_time=40_000.0)
        stop.set()
        poller.join(timeout=5)

        # One last scrape after the run drains: totals are final now.
        with urllib.request.urlopen(
            endpoint.url + "/metrics", timeout=5
        ) as response:
            text = response.read().decode()
        print("\nFinal Prometheus scrape (excerpt):")
        for line in text.splitlines():
            if line.startswith(("repro_stage_fed", "repro_hist_bin_close")):
                print("  " + line)

    kepler.close()
    print(f"\nDetected {len(records)} outage record(s):")
    for record in records:
        print(f"  {record.describe()}")


if __name__ == "__main__":
    main()

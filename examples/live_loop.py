"""A live operator's loop: one ``process`` call per element.

``Kepler.process`` stages what it is handed and runs the chain once per
60 s bin, so the per-element form costs the same as a chunked replay
and gives the same records.  ``metrics_live()["depths"]["staged"]``
(served here by a :class:`MetricsEndpoint`, polled from a thread while
the loop runs) shows how many elements are waiting for their bin.

Run:  PYTHONPATH=src python examples/live_loop.py
"""

from __future__ import annotations

import json
import threading
import urllib.request

from repro.routing.events import FacilityFailure, FacilityRecovery
from repro.scenarios import build_world
from repro.telemetry import MetricsEndpoint


def main() -> None:
    world = build_world(seed=1)
    priming = world.rib_snapshot(0.0)
    elements = world.run_events(
        [
            (10_000.0, FacilityFailure("th-north")),
            (13_600.0, FacilityRecovery("th-north")),
        ]
    )
    replay = world.make_kepler()
    replay.prime(priming)
    replay.process(elements)
    expected = [r.describe() for r in replay.finalize(end_time=40_000.0)]

    kepler = world.make_kepler()
    kepler.prime(priming)
    staged: list[int] = []
    stop, scraped = threading.Event(), threading.Event()
    with MetricsEndpoint(kepler.metrics_live) as endpoint:

        def scrape() -> int:
            with urllib.request.urlopen(
                endpoint.url + "/metrics.json", timeout=5
            ) as response:
                return json.load(response)["depths"]["staged"]

        def poll() -> None:
            while not stop.is_set():
                staged.append(scrape())
                scraped.set()

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        for index, elem in enumerate(elements):
            kepler.process([elem])
            if index % 1000 == 999:
                # Let a whole scrape land between two calls (the one
                # in flight may have sampled before this call returned).
                for _ in range(2):
                    scraped.clear()
                    scraped.wait(timeout=5)
        records = [r.describe() for r in kepler.finalize(end_time=40_000.0)]
        stop.set()
        poller.join(timeout=5)
        drained = scrape()

    assert records == expected, "per-element loop diverged from one-call replay"
    assert max(staged) > 0, "the poller never saw a staged element"
    assert drained == 0, "finalize left elements staged"
    print(f"{len(elements)} calls, {len(records)} record(s), same as one call:")
    for line in records:
        print(f"  {line}")
    print(f"staged depth over {len(staged)} scrapes: max {max(staged)}, now {drained}")


if __name__ == "__main__":
    main()

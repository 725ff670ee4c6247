"""The live telemetry plane (repro.telemetry + metrics wiring).

Four layers of guarantees:

* **Primitives**: mergeable log-bucket histograms with bounded
  quantile error and a marshal-safe wire form; the bounded trace
  journal with JSONL and Chrome trace-event exports.
* **Registry wiring**: gauge-name collisions are detected (warn-once)
  instead of silently clobbered; worker gauges are namespaced
  ``w{wid}.*`` on composition; histograms travel only in the metrics
  *sidecar* documents, never in checkpoint ``state_dict`` documents.
* **Exporters**: Prometheus text, JSONL sink and the stdlib HTTP
  endpoint render any snapshot (live or drained).
* **Acceptance**: ``Kepler.metrics_live()`` polled from a thread
  against a *running* ``shard_processes`` detector fed per-collector
  sources returns per-stage histograms and queue depths without a
  drain barrier — and the run's output stays byte-identical to the
  linear ground truth.
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
import urllib.request

import pytest

from test_pipeline_equivalence import (
    FIRST_WORLD,
    DeterministicValidator,
    prepared,
    record_fields,
)
from repro import telemetry
from repro.core.kepler import Kepler, KeplerParams
from repro.pipeline import fork_available, split_by_collector
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.parallel import (
    _adopt_worker_gauges,
    _load_with_batches,
    _worker_metrics_doc,
)
from repro.scenarios import World, build_world
from repro.telemetry import (
    LogHistogram,
    MetricsEndpoint,
    TraceJournal,
    prometheus_text,
)

END_TIME = 80_000.0


@pytest.fixture(scope="module")
def world_a() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD)
    )


def make_kepler(world: World, params: KeplerParams) -> Kepler:
    return Kepler(
        dictionary=world.dictionary,
        colo=world.colo,
        as2org=world.as2org,
        params=params,
        validator=DeterministicValidator(),
    )


def observed(detector: Kepler) -> tuple[list, list, list]:
    return (
        [record_fields(r) for r in detector.records],
        [
            (c.pop, c.signal_type, c.bin_start, c.bin_end)
            for c in detector.signal_log
        ],
        [(c.pop, c.bin_start) for c in detector.rejected],
    )


# ----------------------------------------------------------------------
# Log-bucket histograms
# ----------------------------------------------------------------------
def _record_all(hist: LogHistogram, values) -> None:
    for value in values:
        hist.record(value)


class TestLogHistogram:
    def test_quantiles_within_bucket_error(self):
        rng = random.Random(7)
        samples = [rng.lognormvariate(mu=8.0, sigma=2.0) for _ in range(5000)]
        hist = LogHistogram()
        _record_all(hist, samples)
        samples.sort()
        for q in (0.5, 0.95, 0.99):
            exact = samples[int(q * (len(samples) - 1))]
            approx = hist.quantile(q)
            # 4 sub-buckets per octave: bucket width 2**0.25, so the
            # midpoint is within ~9% of any sample in the bucket.
            assert abs(approx - exact) / exact < 0.10, (q, approx, exact)

    def test_merge_is_lossless(self):
        rng = random.Random(11)
        a, b = LogHistogram(), LogHistogram()
        xs = [rng.uniform(1e-6, 1e3) for _ in range(500)]
        ys = [rng.uniform(1e-6, 1e3) for _ in range(700)]
        _record_all(a, xs)
        _record_all(b, ys)
        both = LogHistogram()
        _record_all(both, xs + ys)
        a.merge(b)
        assert a.counts == both.counts
        assert a.count == both.count == 1200
        assert a.min == both.min and a.max == both.max

    def test_wire_round_trip(self):
        hist = LogHistogram()
        _record_all(hist, [0.001, 0.01, 0.25, 3.5, 3.5])
        back = LogHistogram.from_wire(hist.to_wire())
        assert back.counts == hist.counts
        assert back.as_dict() == hist.as_dict()
        # The wire form is marshal-safe: flat lists and scalars only.
        import marshal

        assert marshal.loads(marshal.dumps(hist.to_wire())) == hist.to_wire()

    def test_weighted_record_equals_repeated_record(self):
        # record(v, n) is n calls of record(v): same buckets, count,
        # extremes and quantiles, also after merge and over the wire
        # (the sum differs only by float association).
        weighted, repeated = LogHistogram(), LogHistogram()
        for value, n in ((7.3e-6, 185_000), (0.0, 3), (2.5e-4, 1), (0.02, 40)):
            weighted.record(value, n)
            for _ in range(n):
                repeated.record(value)
        merged_w, merged_r = LogHistogram(), LogHistogram()
        merged_w.record(1.5)
        merged_r.record(1.5)
        merged_w.merge(weighted)
        merged_r.merge(repeated)
        wire_w = LogHistogram.from_wire(merged_w.to_wire())
        wire_r = LogHistogram.from_wire(merged_r.to_wire())
        for got, want in (
            (weighted, repeated), (merged_w, merged_r), (wire_w, wire_r)
        ):
            assert got.counts == want.counts
            assert got.count == want.count
            assert (got.min, got.max) == (want.min, want.max)
            assert got.total == pytest.approx(want.total, rel=1e-9)
            for q in (0.0, 0.5, 0.95, 0.99, 1.0):
                assert got.quantile(q) == want.quantile(q)

    def test_empty_and_disabled(self):
        hist = LogHistogram()
        assert hist.as_dict() == {"count": 0}
        telemetry.set_enabled(False)
        try:
            hist.record(1.0)
            assert hist.count == 0
        finally:
            telemetry.set_enabled(True)
        hist.record(1.0)
        assert hist.count == 1

    def test_nonpositive_values_clamp(self):
        hist = LogHistogram()
        hist.record(0.0)
        hist.record(-5.0)
        assert hist.count == 2
        assert hist.quantile(0.5) > 0


# ----------------------------------------------------------------------
# Trace journal
# ----------------------------------------------------------------------
class TestTraceJournal:
    def test_chrome_trace_shapes(self):
        journal = TraceJournal(capacity=16, pid_label="driver")
        journal.emit("sync_round", "sync", dur_s=0.5, ts=100.0, signals=2)
        journal.emit("mark", "marker", ts=101.0)
        doc = json.loads(journal.to_chrome_trace())
        span, instant = doc["traceEvents"]
        assert span["ph"] == "X" and span["dur"] == 0.5 * 1e6
        assert span["ts"] == 100.0 * 1e6 and span["pid"] == "driver"
        assert instant["ph"] == "i" and instant["s"] == "p"

    def test_bounded_capacity_counts_drops(self):
        journal = TraceJournal(capacity=8)
        for i in range(12):
            journal.emit("e", seq=i)
        assert len(journal) == 8
        assert journal.dropped == 4
        assert [e["args"]["seq"] for e in journal] == list(range(4, 12))

    def test_disabled_emission_is_noop(self):
        journal = TraceJournal(capacity=8)
        telemetry.set_enabled(False)
        try:
            journal.emit("e")
        finally:
            telemetry.set_enabled(True)
        assert len(journal) == 0


# ----------------------------------------------------------------------
# Gauge collision detection + worker namespacing (satellite)
# ----------------------------------------------------------------------
class TestGaugeCollisions:
    def test_collision_warns_once_and_replaces(self, caplog):
        registry = PipelineMetrics()
        registry.gauge_source("memo_hits", lambda: 1)
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.metrics"):
            registry.gauge_source("memo_hits", lambda: 2)
            registry.gauge_source("memo_hits", lambda: 3)
        warnings = [r for r in caplog.records if "memo_hits" in r.message]
        assert len(warnings) == 1  # warn once per name
        assert registry.gauges()["memo_hits"] == 3  # latest wins

    def test_replace_is_silent(self, caplog):
        registry = PipelineMetrics()
        registry.gauge_source("evictions", lambda: 1)
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.metrics"):
            registry.gauge_source("evictions", lambda: 2, replace=True)
        assert not caplog.records
        assert registry.gauges()["evictions"] == 2

    def test_adopt_gauges_collision_warns(self, caplog):
        a, b = PipelineMetrics(), PipelineMetrics()
        a.gauge_source("intern_size", lambda: 10)
        b.gauge_source("intern_size", lambda: 20)
        composed = PipelineMetrics()
        composed.adopt_gauges(a)
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.metrics"):
            composed.adopt_gauges(b)
        assert any("intern_size" in r.message for r in caplog.records)

    def test_worker_gauges_are_namespaced(self):
        composed = PipelineMetrics()
        composed.gauge_source("memo_hits", lambda: 100)  # driver's own
        _adopt_worker_gauges(composed, 0, {"gauge_values": {"memo_hits": 7}})
        _adopt_worker_gauges(composed, 1, {"gauge_values": {"memo_hits": 9}})
        gauges = composed.gauges()
        assert gauges["memo_hits"] == 100  # driver value untouched
        assert gauges["w0.memo_hits"] == 7
        assert gauges["w1.memo_hits"] == 9


# ----------------------------------------------------------------------
# Checkpoint purity: telemetry never enters state_dict documents
# ----------------------------------------------------------------------
class TestCheckpointPurity:
    def _populated(self) -> PipelineMetrics:
        registry = PipelineMetrics()
        handle = registry.stage("tagging")
        handle.fed = 10
        handle.seconds = 0.5
        _record_all(handle.hist, [100.0, 200.0, 400.0])
        registry.hist("sync_round_s").record(0.01)
        registry.bins.record(0.002, 5, 1)
        registry.trace.emit("bin_close", "bin", dur_s=0.002)
        return registry

    def test_state_dict_carries_no_telemetry(self):
        doc = self._populated().state_dict()
        assert set(doc) == {"stages", "bins"}
        # No wall clock: busy seconds and bin-close latencies stay out.
        assert doc["stages"] == [["tagging", 10, 0]]
        assert "latency" not in json.dumps(doc)
        assert "hist" not in json.dumps(doc)
        # and it is JSON-stable (checkpoints are json.dumps'd).
        json.dumps(doc, sort_keys=True)

    def test_sidecar_round_trips_hists(self):
        registry = self._populated()
        doc = _worker_metrics_doc(registry)
        assert doc["hists"]["stage"]["tagging"][0] == 3  # count
        back = PipelineMetrics()
        _load_with_batches(back, doc)
        assert back.stages["tagging"].hist.count == 3
        assert back.hists["sync_round_s"].count == 1
        assert back.bins.hist.count == 1
        assert back.stages["tagging"].seconds == 0.5
        assert back.bins.total_latency_s == back.bins.max_latency_s == 0.002
        # load_state on the same doc ignores the sidecar keys entirely.
        fresh = PipelineMetrics()
        fresh.load_state(doc)
        assert fresh.stages["tagging"].hist.count == 0
        assert fresh.stages["tagging"].seconds == 0.0
        assert fresh.bins.max_latency_s == 0.0

    def test_reset_clears_hists(self):
        registry = self._populated()
        registry.reset()
        assert registry.stages["tagging"].hist.count == 0
        assert all(h.count == 0 for h in registry.hists.values())


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_snapshot() -> dict:
    return {
        "stages": [
            {
                "name": "tagging",
                "fed": 100,
                "emitted": 90,
                "seconds": 1.5,
                "batches": 4,
            }
        ],
        "bins": {"bins_closed": 7, "mean_latency_s": 0.002},
        "gauges": {"memo_hits": 42, "w0.memo_hits": 21},
        "hists": {
            "stage_ns.tagging": {
                "count": 3,
                "mean": 200.0,
                "min": 100.0,
                "max": 400.0,
                "p50": 190.0,
                "p95": 380.0,
                "p99": 398.0,
            }
        },
        "depths": {"in[0]": 2, "ret": 0},
    }


class TestExporters:
    def test_prometheus_text(self):
        text = prometheus_text(_sample_snapshot())
        assert 'repro_stage_fed_total{stage="tagging"} 100' in text
        assert "repro_bins_closed_total 7" in text
        assert 'repro_gauge{name="w0.memo_hits"} 21' in text
        assert "repro_hist_stage_ns_tagging_count 3" in text
        assert (
            'repro_hist_stage_ns_tagging{quantile="0.99"} 398.0' in text
        )
        assert 'repro_depth{edge="in[0]"} 2' in text

    def test_http_endpoint(self):
        journal = TraceJournal(capacity=8)
        journal.emit("bin_close", "bin", dur_s=0.1, ts=50.0)
        with MetricsEndpoint(
            _sample_snapshot, trace_source=lambda: journal
        ) as endpoint:
            prom = urllib.request.urlopen(
                endpoint.url + "/metrics", timeout=5
            )
            assert prom.status == 200
            assert b"repro_bins_closed_total 7" in prom.read()
            raw = urllib.request.urlopen(
                endpoint.url + "/metrics.json", timeout=5
            )
            assert json.load(raw)["gauges"]["memo_hits"] == 42
            trace = urllib.request.urlopen(
                endpoint.url + "/trace", timeout=5
            )
            doc = json.load(trace)
            assert doc["traceEvents"][0]["name"] == "bin_close"


# ----------------------------------------------------------------------
# Acceptance: live sampling of a running multiprocess detector
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not fork_available(),
    reason="the live-sampling acceptance targets the fork-based runtimes",
)
class TestMetricsLive:
    def test_running_shard_processes(self, world_a):
        world, snapshot, elements = world_a
        telemetry.set_live_interval(0.0)  # frame on every exchange
        try:
            base = make_kepler(world, KeplerParams())
            base.prime(snapshot)
            base.process(elements)
            base.finalize(end_time=END_TIME)
            expected = observed(base)

            detector = make_kepler(
                world,
                KeplerParams(shard_processes=2, process_batch=256),
            )
            samples: list[dict] = []
            errors: list[BaseException] = []
            stop = threading.Event()

            def poll() -> None:
                while not stop.is_set():
                    try:
                        samples.append(detector.metrics_live())
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
                    time.sleep(0.005)

            poller = threading.Thread(target=poll, daemon=True)
            try:
                detector.prime(snapshot)
                poller.start()
                detector.process_feeds(split_by_collector(elements))
                detector.finalize(end_time=END_TIME)
            finally:
                stop.set()
                poller.join(timeout=10)
            got = observed(detector)
            detector.close()

            assert not errors, errors[:1]
            assert got == expected  # sampling perturbed nothing
            assert len(samples) > 3
            # Mid-run samples carry the live sections without a drain.
            final = samples[-1]
            assert final["live"]["workers"] == 2
            hists = final["hists"]
            for name in ("stage_ns.tagging", "stage_ns.monitor",
                         "stage_ns.record", "sync_round_s"):
                assert {"p50", "p95", "p99"} <= set(hists[name]), name
            assert any("ret" in s["depths"] for s in samples)
            # Every sample is a JSON-serialisable export target.
            prometheus_text(final)
            json.dumps(final, sort_keys=True)
        finally:
            telemetry.set_live_interval(telemetry.DEFAULT_LIVE_INTERVAL_S)

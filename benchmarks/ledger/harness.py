"""One workload, measured: set-up, replays, correctness ops, metrics.

Runs inside the fresh subprocess ``run.py`` starts per workload, so
``ru_maxrss``, the serde intern tables and the tagging memo belong to
this workload alone.  The benchmark process is the load generator; the
in-process chain runs on this process's only thread.

Window rule: every count is the delta of ``kepler.metrics.snapshot()``
between the end of ``prime`` and the end of ``finalize``; priming is
reported on its own (``kepler.prime_us_per_path``).
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from repro import telemetry
from repro.core.kepler import KeplerParams

import probes
from tracing import GcTimer, Tracer, layer_self_ns
from workloads import FEED_RATE, PACED_SECONDS, WORKLOADS, Inputs, Workload

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
MAX_REPEATS = 40
#: Traced rounds of the open-loop workload (each: plain, traced, quiet).
TRACE_ROUNDS_OPEN = 2
#: Below this scale the streams are too short to hold a whole outage,
#: so the detector-output floors are not applied (the tests' scale).
FLOOR_MIN_SCALE = 0.05
LAG_QUANTILES = {
    "lag_p50_ms": 0.50,
    "lag_p95_ms": 0.95,
    "lag_p99_ms": 0.99,
    "lag_max_ms": 1.0,
}
STAGES = ("ingest", "tagging", "monitor", "classify", "localise", "validate", "record")


def cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def summarise(values: list[float], unit: str) -> dict:
    """Median, quartiles and n over repeats."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "unit": unit,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(math.ceil(q * len(sorted_values))) - 1)
    return sorted_values[max(0, index)]


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def _worker_clocks() -> list[int]:
    """CPU-time clock ids of the live forked workers (Linux).

    ``(~pid << 3) | 2`` is the kernel's per-process CPU clock for
    ``clock_gettime``: it reads a child's CPU time while the child is
    still running, which ``getrusage(RUSAGE_CHILDREN)`` cannot.
    """
    clocks = []
    for child in multiprocessing.active_children():
        clock = ((~child.pid) << 3) | 2
        try:
            time.clock_gettime(clock)
        except OSError:
            continue
        clocks.append(clock)
    return clocks


def _output_digest(kepler, records: list) -> str:
    """Digest of (records, signal_log, rejected): the identity op."""
    h = hashlib.blake2b(digest_size=12)
    for r in records:
        h.update(
            repr(
                (
                    str(r.signal_pop),
                    str(r.located_pop),
                    r.start,
                    r.end,
                    r.method,
                    sorted(r.affected_ases),
                    sorted(r.affected_links, key=repr),
                )
            ).encode()
        )
    for c in kepler.signal_log:
        h.update(
            repr((str(c.pop), c.signal_type.value, c.bin_start, c.bin_end)).encode()
        )
    for c in kepler.rejected:
        h.update(repr((str(c.pop), c.bin_start)).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# One replay
# ----------------------------------------------------------------------
@dataclass
class Replay:
    elements: int
    prime_s: float
    #: baseline paths ``prime`` installed.
    primed: int
    #: process + finalize wall time.
    wall_s: float
    #: time inside ``process`` calls (== wall minus finalize when closed).
    busy_s: float
    finalize_s: float
    #: process-tree CPU over the timed window (spin time excluded).
    cpu_s: float
    #: completion - due, seconds: per chunk (closed) or element (open).
    lags: list[float]
    #: call start - due time of its first element (open loop only).
    late: list[float]
    digest: str
    records: list
    n_signal_log: int
    n_rejected: int
    window: dict
    depth_max: int = 0
    driver_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    tracer: Tracer | None = None
    gc_pauses_ns: list[int] = field(default_factory=list)
    untraced: list[str] = field(default_factory=list)


def _stage_rows(snapshot: dict) -> dict:
    return {row["name"]: row for row in snapshot["stages"]}


def _memo_gauge(gauges: dict, name: str) -> float:
    """A tagging-memo gauge; under shard processes every worker tags the
    whole broadcast stream, so the per-worker mean is the comparable value."""
    workers = [v for k, v in gauges.items() if k.endswith("." + name)]
    return statistics.fmean(workers) if workers else gauges.get(name, 0)


def _window(before: dict, after: dict) -> dict:
    """Snapshot delta between end-of-prime and end-of-finalize."""
    prior = _stage_rows(before)
    stages = {}
    for name, row in _stage_rows(after).items():
        base = prior.get(name, {})
        stages[name] = {
            key: row[key] - base.get(key, 0)
            for key in ("fed", "emitted", "batches", "seconds")
        }
    g0, g1 = before["gauges"], after["gauges"]
    return {
        "stages": stages,
        "bins_closed": after["bins"]["bins_closed"] - before["bins"]["bins_closed"],
        "baseline_entries": after["bins"]["baseline_entries"],
        "pending_entries": after["bins"]["pending_entries"],
        "memo_hits": _memo_gauge(g1, "memo_hits") - _memo_gauge(g0, "memo_hits"),
        "memo_evictions": _memo_gauge(g1, "memo_evictions")
        - _memo_gauge(g0, "memo_evictions"),
        "skipped": g1.get("monitor_skipped_steady_state", 0)
        - g0.get("monitor_skipped_steady_state", 0),
        "put_stalls": g1.get("ring_send_stalls", 0) - g0.get("ring_send_stalls", 0),
        "hists": after.get("hists", {}),
    }


def _feed_closed(kepler, elements: list, chunk: int, sample) -> tuple[list, list, float]:
    """Closed loop: the next chunk is handed over when the call returns.

    A chunk is due the moment the previous call completes, so its lag
    (completion - due) is the service time of its call.
    """
    clock = time.perf_counter
    process = kepler.process
    lags = []
    for start in range(0, len(elements), chunk):
        began = clock()
        process(elements[start : start + chunk])
        lags.append(clock() - began)
        if sample is not None:
            sample()
    return lags, [], sum(lags)


def _feed_paced(kepler, elements: list, rate: float) -> tuple[list, list, float]:
    """Open loop: element *i* is due at ``i / rate`` on the wall clock.

    The feeder spins, hands ``process`` whatever is due (often 1-3
    elements) and stamps completion; an element's lag is the completion
    of the call that consumed it minus its due time, so a stall is
    charged to every element that became due while it lasted.
    """
    clock = time.perf_counter
    process = kepler.process
    n = len(elements)
    calls = []
    busy = 0.0
    fed = 0
    origin = clock()
    while fed < n:
        began = clock()
        due = min(n, int((began - origin) * rate) + 1)
        if due <= fed:
            continue
        process(elements[fed:due])
        ended = clock()
        busy += ended - began
        calls.append((fed, due, began - origin, ended - origin))
        fed = due
    lags, late = [], []
    for first, stop, began, ended in calls:
        late.append(began - first / rate)
        lags.extend(ended - index / rate for index in range(first, stop))
    return lags, late, busy


def replay(
    workload: Workload,
    inputs: Inputs,
    params: dict | None = None,
    traced: bool = False,
    telemetry_on: bool = True,
) -> Replay:
    """Fresh detector: prime (untimed), then timed process + finalize."""
    gc.collect()
    telemetry.set_enabled(telemetry_on)
    segments_before = _shm_segments()
    kepler = inputs.world.make_kepler(
        KeplerParams(**(workload.params if params is None else params))
    )
    try:
        tracer = Tracer() if traced else None
        untraced = tracer.attach(kepler) if tracer else []
        began = time.perf_counter()
        primed = kepler.prime(inputs.priming)
        prime_s = time.perf_counter() - began
        before = kepler.metrics.snapshot()
        clocks = _worker_clocks()
        depth_max = 0

        def sample_depth():
            nonlocal depth_max
            depths = kepler.metrics_live().get("depths", {})
            depth_max = max(depth_max, *depths.values(), 0)

        gc_timer = GcTimer()
        elements = inputs.elements
        worker_cpu = sum(time.clock_gettime(c) for c in clocks)
        cpu = time.process_time()
        started = time.perf_counter()
        with gc_timer:
            if workload.loop == "open":
                lags, late, busy = _feed_paced(kepler, elements, FEED_RATE)
            else:
                lags, late, busy = _feed_closed(
                    kepler,
                    elements,
                    kepler.params.feed_chunk,
                    sample_depth if traced and clocks else None,
                )
            fed_at = time.perf_counter()
            records = kepler.finalize(end_time=inputs.end_time)
        ended = time.perf_counter()
        driver_cpu = time.process_time() - cpu
        worker_cpu = sum(time.clock_gettime(c) for c in clocks) - worker_cpu
        # The open-loop feeder burns a core while nothing is due; that
        # spin is the load generator's, not the program's.
        spin_s = (fed_at - started) - busy
        after = kepler.metrics.snapshot()
        result = Replay(
            elements=len(elements),
            prime_s=prime_s,
            primed=primed,
            wall_s=ended - started,
            busy_s=busy,
            finalize_s=ended - fed_at,
            cpu_s=driver_cpu - spin_s + worker_cpu,
            lags=lags,
            late=late,
            digest=_output_digest(kepler, records),
            records=records,
            n_signal_log=len(kepler.signal_log),
            n_rejected=len(kepler.rejected),
            window=_window(before, after),
            depth_max=depth_max,
            driver_cpu_s=driver_cpu - spin_s,
            worker_cpu_s=worker_cpu,
            tracer=tracer,
            gc_pauses_ns=gc_timer.pauses_ns,
            untraced=untraced,
        )
    finally:
        kepler.close()
        telemetry.set_enabled(True)
    leaked = _shm_segments() - segments_before
    if leaked:
        raise RuntimeError(f"leaked shared-memory segments: {sorted(leaked)}")
    return result


# ----------------------------------------------------------------------
# Per-layer metrics of one traced replay
# ----------------------------------------------------------------------
def layer_metrics(run: Replay) -> dict[str, tuple[float, str]]:
    """``<layer>.<metric> -> (value, unit)`` for one traced replay.

    Stage times are span self times.  Where the stages run in forked
    workers (``run.untraced`` names ``pipeline.stages``) the spans cannot
    reach them and the program's own stage timers stand in.
    """
    window = run.window
    stages = window["stages"]
    tracer = run.tracer
    spans = tracer.self_times()
    self_ns = layer_self_ns(spans)
    spans_reach_stages = "pipeline.stages" not in run.untraced

    def stage_ns(name: str) -> float:
        if spans_reach_stages:
            return float(self_ns.get(name, 0))
        return stages.get(name, {}).get("seconds", 0.0) * 1e9

    def per_elem(ns: float, fed: int) -> float:
        return ns / fed if fed else 0.0

    out: dict[str, tuple[float, str]] = {}
    fed = {name: stages.get(name, {}).get("fed", 0) for name in STAGES}
    for name in STAGES:
        out[f"{name}.fed"] = (fed[name], "count")
        if name != "monitor":
            out[f"{name}.ns_per_elem"] = (per_elem(stage_ns(name), fed[name]), "ns")
    for name in ("tagging", "monitor"):
        row = stages.get(name, {})
        batches = row.get("batches", 0)
        out[f"{name}.emitted"] = (row.get("emitted", 0), "count")
        # Metered calls depend on timing in the open loop, so they are not
        # "count"s: --compare wants every count to repeat exactly.
        out[f"{name}.batches"] = (batches, "calls")
        out[f"{name}.mean_batch"] = (fed[name] / batches if batches else 0.0, "el/call")
    out["tagging.memo_hit_share"] = (
        window["memo_hits"] / fed["tagging"] if fed["tagging"] else 0.0,
        "ratio",
    )
    out["tagging.memo_evictions"] = (window["memo_evictions"], "count")

    close_hist = window["hists"].get("bin_close_s", {})
    if tracer.close_count:
        fold_ns = float(tracer.fold_ns)
        close_mean_us, close_p99_us = tracer.bin_close_us()
    else:
        # Forked monitor partitions: the program's bin-close histogram,
        # which includes the deferred fold the close triggers.
        fold_ns = 0.0
        close_mean_us = close_hist.get("mean", 0.0) * 1e6
        close_p99_us = close_hist.get("p99", 0.0) * 1e6
    out["monitor.fold_ns_per_elem"] = (per_elem(fold_ns, fed["monitor"]), "ns")
    out["monitor.skipped_share"] = (
        window["skipped"] / fed["monitor"] if fed["monitor"] else 0.0,
        "ratio",
    )
    out["monitor.bins_closed"] = (window["bins_closed"], "count")
    out["monitor.bin_close_us_mean"] = (close_mean_us, "us")
    out["monitor.bin_close_us_p99"] = (close_p99_us, "us")
    out["monitor.baseline_entries"] = (window["baseline_entries"], "count")
    out["monitor.pending_entries"] = (window["pending_entries"], "count")
    out["validate.rejected"] = (run.n_rejected, "count")
    out["record.records"] = (len(run.records), "count")

    process = spans.get("kepler.process", [0, 0, 0])
    out["runtime.dispatch_share"] = (
        process[2] / process[1] if process[1] and spans_reach_stages else 0.0,
        "ratio",
    )
    pauses = run.gc_pauses_ns
    out["runtime.gc_collections"] = (len(pauses), "runs")
    out["runtime.gc_pause_ms_total"] = (sum(pauses) / 1e6, "ms")
    out["runtime.gc_pause_ms_max"] = (max(pauses, default=0) / 1e6, "ms")
    out["runtime.feeder_late_p95_ms"] = (
        percentile(sorted(run.late), 0.95) * 1e3 if run.late else 0.0,
        "ms",
    )
    out["kepler.prime_us_per_path"] = (run.prime_s * 1e6 / max(1, run.primed), "us")
    out["kepler.finalize_ms"] = (run.finalize_s * 1e3, "ms")

    sync = window["hists"].get("sync_round_s", {})
    out["parallel.sync_rounds"] = (sync.get("count", 0), "count")
    out["parallel.driver_cpu_s"] = (run.driver_cpu_s if sync else 0.0, "s")
    out["parallel.worker_cpu_s"] = (run.worker_cpu_s, "s")
    out["parallel.drain_ms"] = (run.finalize_s * 1e3 if sync else 0.0, "ms")
    out["parallel.put_stalls"] = (window["put_stalls"], "calls")
    out["parallel.depth_max"] = (run.depth_max, "frames")
    return out


def layer_shares(run: Replay) -> dict[str, float]:
    """Share of the traced process+finalize wall time per layer."""
    spans = run.tracer.self_times()
    total = sum(
        spans.get(name, [0, 0, 0])[1] for name in ("kepler.process", "kepler.finalize")
    )
    if not total or "pipeline.stages" in run.untraced:
        return {}
    shares = {
        layer: ns / total
        for layer, ns in layer_self_ns(spans).items()
        if layer != "kepler"
    }
    shares["runtime"] = sum(
        spans.get(name, [0, 0, 0])[2] for name in ("kepler.process", "kepler.finalize")
    ) / total
    return shares


# ----------------------------------------------------------------------
# The whole run of one workload
# ----------------------------------------------------------------------
class Run:
    """Set-up, replays and the correctness ops of one workload."""

    def __init__(
        self, name: str, seed: int, seconds: float, scale: float | None, traced: bool
    ):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        if scale is None and self.workload.loop == "open":
            # The paced replays of a run share ``seconds`` between them.
            replays = TRACE_ROUNDS_OPEN * 3 if traced else self.workload.min_repeats
            scale = seconds / (replays * PACED_SECONDS)
        elif scale is None:
            scale = self.workload.cap_scale
        self.scale = scale
        #: check name -> passed.  One op per kind of check, not per
        #: replay: the number of replays depends on how fast the box is,
        #: and ``failed_share`` must repeat exactly for a given seed.
        self.checks = {"identity": True}
        self.failures: list[str] = []
        self.reference: Replay | None = None
        self.inputs: Inputs | None = None
        self.setup_s: list[float] = []

    def make_kepler(self):
        return self.inputs.world.make_kepler(KeplerParams(**self.workload.params))

    def set_up(self, times: int) -> None:
        """World build + stream generation + prime, ``times`` over."""
        for _ in range(times):
            if self.inputs is not None:
                self.inputs = None
                gc.unfreeze()
                gc.collect()
            began = time.perf_counter()
            self.inputs = self.workload.build(self.seed, self.scale)
            # The generator's element heap must not be walked by the
            # program's collections.
            gc.collect()
            gc.freeze()
            kepler = self.make_kepler()
            try:
                kepler.prime(self.inputs.priming)
            finally:
                kepler.close()
            self.setup_s.append(time.perf_counter() - began)

    def fail(self, check: str, what: str) -> None:
        self.checks[check] = False
        self.failures.append(f"{check}: {what}")

    def replay(self, check: str = "identity", **kwargs) -> Replay | None:
        """A replay must not raise, must not leak a ``psm_*`` segment,
        and its output digest must equal the reference replay's (the
        first one of this run); otherwise the op ``check`` has failed."""
        try:
            run = replay(self.workload, self.inputs, **kwargs)
        except Exception:  # a run that raises is a failed op, not a crash
            traceback.print_exc()
            self.fail(check, traceback.format_exc(limit=1).strip())
            return None
        if self.reference is None:
            self.reference = run
        elif run.digest != self.reference.digest:
            self.fail(check, f"digest {run.digest} != {self.reference.digest}")
        return run

    def timed_replays(self) -> list[Replay]:
        """Repeat for ``seconds`` (re-priming included), >= min_repeats."""
        runs: list[Replay] = []
        began = time.perf_counter()
        while len(runs) < MAX_REPEATS and (
            len(runs) < self.workload.min_repeats
            or (
                self.workload.loop == "closed"
                and time.perf_counter() - began < self.seconds
            )
        ):
            run = self.replay()
            if run is None:
                break
            runs.append(run)
        return runs

    def check_output(self) -> dict:
        """Detection ops and the detector-output floor."""
        ref = self.reference
        if ref is None:
            return {}
        tp, fn, fp = self.inputs.score(ref.records)
        if self.scale >= FLOOR_MIN_SCALE:
            floor = max(1, int(self.workload.min_records * min(1.0, self.scale)))
            self.checks["output_floor"] = True
            if len(ref.records) < floor:
                self.fail("output_floor", f"{len(ref.records)} records < {floor}")
        return {
            "truths": tp + fn,
            "true_positives": tp,
            "false_negatives": fn,
            "false_positives": fp,
            "records": len(ref.records),
            "signal_log": ref.n_signal_log,
            "rejected": ref.n_rejected,
            "output_digest": ref.digest,
        }

    def document(self, detect: dict) -> dict:
        missed = detect.get("false_negatives", 0) + detect.get("false_positives", 0)
        ops = len(self.checks) + detect.get("truths", 0)
        failed_ops = sum(not ok for ok in self.checks.values())
        return {
            "workload": self.workload.name,
            "loop": self.workload.loop,
            "seed": self.seed,
            "scale": self.scale,
            "seconds": self.seconds,
            "traced": self.traced,
            "cores": cores(),
            "elements": len(self.inputs.elements),
            "stream_digest": self.inputs.stream_digest(),
            "detect": detect,
            "ops": ops,
            "failed_ops": failed_ops,
            "missed_ops": missed,
            "failed_share": (failed_ops + missed) / ops,
            "correct": failed_ops == 0,
            "failures": self.failures,
        }


def _lag_summaries(runs: list[Replay]) -> dict[str, dict]:
    """The lag percentiles: each value is taken over the lags of all
    repeats pooled (more samples beyond the percentile), its quartiles
    over the per-repeat values."""
    per_run = [sorted(r.lags) for r in runs]
    pooled = sorted(lag for lags in per_run for lag in lags)
    out = {}
    for name, q in LAG_QUANTILES.items():
        entry = summarise([percentile(lags, q) * 1e3 for lags in per_run], "ms")
        entry["median"] = percentile(pooled, q) * 1e3
        out[name] = entry
    return out


def _peak_rss_mb() -> float:
    """``ru_maxrss`` of the largest process of this workload's tree."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


def _untraced_set(run: Run) -> dict:
    """The end-to-end metrics, plus the unbounded tail as ``info``."""
    runs = run.timed_replays()
    if not runs:
        return {"end_to_end": {}}
    per_s = [r.elements / _took(run, r) for r in runs]
    cpu = [r.cpu_s * 1e6 / r.elements for r in runs]
    return {
        "end_to_end": {
            "setup_s": summarise(run.setup_s, "s"),
            "elements_per_s": summarise(per_s, "el/s"),
            "cpu_s_per_melem": summarise(cpu, "s/Melem"),
            "peak_rss_mb": summarise([_peak_rss_mb()], "MB"),
        },
        "info": {
            **_lag_summaries(runs),
            "realtime_multiple": statistics.median(per_s) / FEED_RATE,
        },
    }


def _took(run: Run, r: Replay) -> float:
    """Open loop: the wall clock is the schedule's, so capacity is
    elements over the time spent inside process calls."""
    return r.busy_s if run.workload.loop == "open" else r.wall_s


def _per_layer(run: Run, plain: list, traced: list, quiet: list) -> dict:
    """Per-layer metrics: medians over the traced rounds, plus probes."""
    rounds = [layer_metrics(r) for r in traced]
    out: dict = {}
    for name, (_, unit) in rounds[0].items():
        values = [metrics[name][0] for metrics in rounds]
        out[name] = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    base = statistics.median(_took(run, r) for r in plain)
    out["trace.overhead_share"] = {
        "value": statistics.median(_took(run, r) for r in traced) / base - 1.0,
        "unit": "ratio",
        "n": len(traced),
    }
    out["telemetry.overhead_share"] = {
        "value": base / statistics.median(_took(run, r) for r in quiet) - 1.0,
        "unit": "ratio",
        "n": len(quiet),
    }
    for name, entry in _lag_summaries(plain).items():
        out[name] = {"value": entry["median"], "unit": "ms", "n": len(plain)}
    for name, entry in probes.run_probes(run.inputs, run.make_kepler).items():
        out[name] = {**entry, "n": probes.REPEATS}
    return out


def _traced_set(run: Run, warm: Replay) -> tuple[dict, dict | None]:
    """Interleaved rounds of three replays: untraced (telemetry at its
    shipped default), traced, and untraced with telemetry off."""
    if run.workload.loop == "open":
        rounds = TRACE_ROUNDS_OPEN
    else:
        rounds = min(5, max(2, int(run.seconds / (3.0 * (warm.prime_s + warm.wall_s)))))
    plain, with_spans, quiet = [], [], []
    for _ in range(rounds):
        for bucket, kwargs in (
            (plain, {}),
            (with_spans, {"traced": True}),
            (quiet, {"telemetry_on": False}),
        ):
            r = run.replay(**kwargs)
            if r is not None:
                bucket.append(r)
    if not (plain and with_spans and quiet):
        return {"per_layer": {}}, None
    last = with_spans[-1]
    return {
        "per_layer": _per_layer(run, plain, with_spans, quiet),
        "layer_share": layer_shares(last),
        "untraced_targets": last.untraced,
    }, last.tracer.columns()


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, scale: float | None
) -> tuple[dict, dict | None]:
    """Measure one workload; returns (result document, spans or None)."""
    run = Run(name, seed, seconds, scale, traced)
    run.set_up(1 if traced else SETUPS)
    warm = run.replay()  # untimed warm-up, and the digest reference
    measured, spans = {"per_layer" if traced else "end_to_end": {}}, None
    if warm is not None:
        if run.workload.params:
            # The runtime under test must agree with the linear chain.
            run.checks["linear_reference"] = True
            run.replay(check="linear_reference", params={})
        if traced:
            measured, spans = _traced_set(run, warm)
        else:
            measured = _untraced_set(run)
    return {**run.document(run.check_output()), **measured}, spans

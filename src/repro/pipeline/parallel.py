"""Shard-process runtime: end-to-end worker chains, no singleton monitor.

``KeplerParams(shard_processes=N)`` forks N worker processes, and every
worker runs the stateful stream stages

    tagging -> monitor share -> record

over the same broadcast element stream.  Worker *w*'s monitor is an
``OutageMonitor(params, share=(w, N))`` — it maintains the baseline,
pending and divergence state of exactly the PoPs with
``partition_of(pop, N) == w`` and computes exactly share *w* of every
bin close.  The per-bin analysis stages —
classification, localisation, validation — run *in the driver*, on
the merged global signal stream: they execute once per bin (not per
element), their cost is negligible next to the stream stages, and
centralising them collapses the bin-close barrier to a single fused
exchange per worker.

The driver therefore keeps:

* **ingest** (admission + the stream clock) and the broadcast fan-out
  of columnar element batches to every worker;
* the **analysis chain and its shared state** — the one
  classification window, the probe cache (at-most-one-probe-per-
  (PoP, bin) is structural: only the driver probes), the signal log
  and the reject list, all with exact linear-chain semantics since
  they process the same merged batches in the same order;
* the **per-bin sync** (the only cross-shard hop): bins close in
  lockstep on every worker (same stream, same clock), and each close
  is ONE fused exchange per worker —

      1. every worker ships, in a single message, its partial
         signals *and* everything the driver analysis needs from
         its monitor share: the baseline far-AS/link sets of
         the PoPs in its share of the correlation window ("bin")
      2. the driver merges the partials under the monitor's signal
         sort key (the linear close order), runs classification →
         localisation → validation against the shipped baselines
         (:func:`~repro.pipeline.runtime.analyse`, the linear
         chain's own function), and broadcasts the candidate list
         in linear emission order                     ("fin")
      3. every worker hands the full candidate list and the bin
         advanced to its record stage, and posts a fire-and-forget
         round-done marker that lets the driver prune its probe
         cache and round memos                        ("rdone")

Each worker prunes its shipped window share against its *local* bin
clock (the max bin_start among its own signals), which can only lag
the global clock — so the shipped read set is always a superset of
the PoPs the driver's window holds for that share, never a miss.

The **record lifecycle is replicated, not sharded**: every worker
applies the identical, globally-ordered candidate sequence, so all
record stages (and their return watches, reported on by the worker's
monitor share, which sees the full broadcast stream whatever PoPs
it owns) are byte-identical replicas.  The record stage is the
pipeline's cheapest stage by orders of magnitude, and replication
removes every cross-share monitor read a located-elsewhere record
would otherwise need: a candidate's signals carry the paths its
record waits on (``OutageSignal.keys``).

**Transport** is the columnar batch codec of :mod:`repro.core.serde`,
which carries exactly what ingest admits (updates, state messages,
priming updates): a batch ships as one struct-of-arrays tuple —
parallel field columns plus per-batch AS-path / community tables —
and marshals to one bytes object (both ends are forks of one
interpreter), so queue pickling degenerates to a memcpy.  Workers tag
*on the columns* (:func:`~repro.core.serde.tag_wire_batch`) into a
process-local :class:`~repro.core.serde.TaggedBatch`, which the
monitor folds in place.

Checkpoints compose the **linear canonical document** at a drain
barrier: worker 0's tagging/record states (replicas), the merged
monitor shares (`merge_monitor_states`), the driver's
classification document (log + window — already canonical, it IS the
linear stage), and the driver's ingest/cache/reject state — so a
shard-process snapshot restores into any runtime and vice versa.

Determinism caveat: the validator is treated as a pure function of
(PoP, time) — ``validate`` is memoised in the driver's cache
(exactly like every other runtime) and ``restored_fraction`` is
memoised per bin round, because the replicated record stages read
it once each.

Workers are forked (start method ``fork``), so the stages built in
the parent are inherited without pickling; each worker owns its copy
from then on.
"""

from __future__ import annotations

import marshal
import multiprocessing
import queue as queue_mod
import time
import traceback
from typing import Any, Iterable

from repro import telemetry
from repro.core.serde import encode_batch, tag_wire_batch
from repro.pipeline.liveness import (
    ControlStash,
    WorkerCrashError,
    WorkerDeathError,
    drain_put,
    queue_depths,
    reap_workers,
    worker_exits,
)
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.runtime import analyse, checkpoint_parts, restore_parts

#: Bounded input-queue depth (in batches) — backpressure, not buffering.
IN_QUEUE_DEPTH = 8
#: How long a blocked barrier waits between worker liveness checks.
WAIT_POLL_S = 5.0


def fork_available() -> bool:
    """Whether this platform can fork workers (the runtime requires it)."""
    return "fork" in multiprocessing.get_all_start_methods()


#: The wire-batch queue codec of the shard-process runtime.  The
#: serde wire format is pure builtins (tuples, lists, strings,
#: numbers), which ``marshal`` round-trips far faster than pickling the
#: nested structure — and the queue then pickles one opaque bytes object
#: instead of walking it again.  Safe here because both ends are forks
#: of one interpreter (marshal is version-specific by design).  There is
#: no pickle fallback: the codec carries only admitted elements, and
#: anything marshal cannot serialise raises its ``ValueError``.  The
#: driver encodes every payload itself, so a payload the worker cannot
#: read is a fault of the runtime: it ends the worker like any other
#: exception in stage code (see :func:`_shard_worker_loop`).
pack_wires = marshal.dumps
unpack_wires = marshal.loads


def _worker_metrics_doc(registry: PipelineMetrics) -> dict:
    """``state_dict`` plus the run telemetry the live views compose.

    Fold invocations (``batches``), stage busy ``seconds``, bin-close
    latencies (``latency_s``: total and max), gauges and histograms are
    run telemetry the checkpoint shape drops, but the live metrics
    views must compose them across processes so ``mean_batch`` and
    the timings read the same on every runtime; they ride the worker
    sync payload as sidecar keys that
    :meth:`PipelineMetrics.load_state` ignores.
    """
    doc = registry.state_dict()
    doc["batches"] = {
        m.name: m.batches for m in registry.stages.values()
    }
    doc["seconds"] = {
        m.name: m.seconds for m in registry.stages.values()
    }
    doc["latency_s"] = [
        registry.bins.total_latency_s,
        registry.bins.max_latency_s,
    ]
    doc["gauge_values"] = registry.gauges()
    doc["hists"] = registry.hists_to_wire()
    return doc


def _load_with_batches(registry: PipelineMetrics, doc: dict) -> None:
    """Restore a worker metrics payload including the telemetry sidecars."""
    registry.load_state(doc)
    counts = doc.get("batches", {})
    seconds = doc["seconds"]
    for name, metrics in registry.stages.items():
        metrics.batches = counts.get(name, 0)
        metrics.seconds = seconds.get(name, 0.0)
    registry.bins.total_latency_s, registry.bins.max_latency_s = doc["latency_s"]
    registry.load_hists_wire(doc.get("hists"))


def _adopt_worker_gauges(
    composed: PipelineMetrics, wid: int, doc: dict
) -> None:
    """Publish one worker's sampled gauges under a ``w{wid}.`` namespace.

    Worker gauges (memo/intern telemetry of *that* process) share names
    with the driver's own sources; registering them namespaced keeps
    per-process visibility without silent collisions.
    """
    for name, value in doc.get("gauge_values", {}).items():
        composed.gauge_source(
            f"w{wid}.{name}", lambda v=value: v, replace=True
        )


class _ShippedBaselines:
    """Driver-side monitor stand-in built from worker-shipped reads.

    The localisation stage reads exactly two things from the monitor:
    ``baseline_far_ases(pop)`` and ``baseline_links(pop)`` for the
    PoPs of the classifications it localises.  Those PoPs always sit
    in the correlation window, and each worker ships its window
    share's baseline sets inside its fused "bin" message — so the
    driver serves the reads from the merged shipment of the current
    round, with no monitor round trip at all.
    """

    def __init__(self) -> None:
        #: pop -> (far_ases, links), replaced every fused round.
        self.reads: dict = {}

    def baseline_far_ases(self, pop) -> set:
        return self.reads[pop][0]

    def baseline_links(self, pop) -> set:
        return self.reads[pop][1]


class _RemoteValidator:
    """Worker-side view of the driver's validator (record lifecycle).

    Only ``restored_fraction`` is exercised by the record stage; it is
    driver-memoised per (PoP, time) so the N record replicas observe
    one consistent read per evaluation.
    """

    def __init__(self) -> None:
        self.wid: int | None = None
        self._ret_q = None
        self._sync_q = None

    def connect(self, wid: int, ret_q, sync_q) -> None:
        self.wid = wid
        self._ret_q = ret_q
        self._sync_q = sync_q

    def restored_fraction(self, pop, time_):
        self._ret_q.put(("rf", self.wid, pop, time_))
        kind, payload = self._sync_q.get()
        if kind != "rf":  # pragma: no cover - protocol guard
            raise RuntimeError(f"expected rf reply, got {kind!r}")
        return payload

    def validate(self, pop, time_):  # pragma: no cover - not reachable
        raise RuntimeError(
            "shard workers validate through the driver probe cache"
        )


class _ShardWorkerChain:
    """The stage set one shard worker owns (built pre-fork).

    Only the stateful stream stages live here — tagging, the monitor
    share, the record replica.  The analysis stages run in the
    driver; ``correlation_window_s`` tells the worker how much of its
    own signal history the driver's window can still hold, i.e. which
    PoPs' baseline reads each fused "bin" message must ship.
    """

    def __init__(
        self,
        wid: int,
        tagging,
        monitoring,
        record,
        registry: PipelineMetrics,
        validator: _RemoteValidator,
        correlation_window_s: float,
    ) -> None:
        self.wid = wid
        self.tagging = tagging
        self.monitoring = monitoring
        self.record = record
        self.registry = registry
        self.validator = validator
        self.correlation_window_s = correlation_window_s


def _shard_worker_loop(
    chain: _ShardWorkerChain, in_q, sync_q, ret_q
) -> None:
    """One shard worker: stream stages over the broadcast element stream."""
    wid = chain.wid
    chain.validator.connect(wid, ret_q, sync_q)
    monitor = chain.monitoring.monitor
    tag_handle = chain.registry.stage(chain.tagging.name)
    mon_handle = chain.registry.stage(chain.monitoring.name)
    record_handle = chain.registry.stage(chain.record.name)
    sync_hist = chain.registry.hist("sync_round_s")
    window_s = chain.correlation_window_s
    round_id = 0
    frame_interval = telemetry.live_interval()
    last_frame = time.monotonic()

    def live_frame():
        """Throttled compact metrics frame, None between intervals."""
        nonlocal last_frame
        now = time.monotonic()
        if now - last_frame < frame_interval:
            return None
        last_frame = now
        return _worker_metrics_doc(chain.registry)

    #: this worker's share of the driver's correlation window — pruned
    #: against the *local* bin clock, which can only lag the global
    #: one, so the shipped read set is a superset of what the driver's
    #: window holds for this share.
    own_window: list = []

    def await_phase(expected: str):
        kind, *payload = sync_q.get()
        if kind != expected:  # pragma: no cover - protocol guard
            raise RuntimeError(
                f"worker {wid} expected {expected!r}, got {kind!r}"
            )
        return payload

    def sync_round(signals: list, advanced: float | None) -> None:
        # The fused bin exchange: one message up (partial signals plus
        # the baseline reads the driver analysis needs), one broadcast
        # back (the globally ordered candidate
        # list).  See the module docstring.
        nonlocal round_id
        round_id += 1
        own_window.extend(signals)
        reads: dict = {}
        if own_window:
            local_now = max(s.bin_start for s in own_window)
            horizon = local_now - window_s
            own_window[:] = [
                s for s in own_window if s.bin_start >= horizon
            ]
            far_ases = monitor.baseline_far_ases
            links = monitor.baseline_links
            for signal in own_window:
                pop = signal.pop
                if pop not in reads:
                    reads[pop] = (far_ases(pop), links(pop))
        # The live telemetry frame piggybacks on the fused exchange —
        # no extra message, at most one frame per live interval.
        began_round = time.perf_counter()
        ret_q.put(
            (
                "bin",
                wid,
                round_id,
                signals,
                advanced,
                reads,
                live_frame(),
            )
        )
        (candidates,) = await_phase("fin")
        sync_hist.record(time.perf_counter() - began_round)
        began = time.perf_counter()
        chain.record.feed(candidates, advanced)
        record_handle.meter(began, len(candidates), 0)
        ret_q.put(("rdone", wid, round_id))

    def consume_tagged(tagged) -> None:
        # Batch-native monitor sweep over the tagged batch's column
        # view: one fold invocation per metered batch (the same
        # accounting the linear chain uses); the per-bin sync round
        # runs per bin close, before the next slot advances the
        # monitor.
        began = time.perf_counter()
        view = chain.monitoring.prepare_wire(tagged)
        mon_handle.seconds += time.perf_counter() - began
        feed_wire_run = chain.monitoring.feed_wire_run
        slot, n = 0, len(view)
        while slot < n:
            began = time.perf_counter()
            emission, nxt = feed_wire_run(view, slot)
            mon_handle.meter(began, nxt - slot, len(emission[0]) if emission else 0)
            slot = nxt
            if emission is not None:
                sync_round(*emission)
        # Keep the driver's live cache warm even between bin closes
        # (the fused exchange is the primary carrier; this covers long
        # in-bin stretches).  Shares the sync-round frame throttle.
        frame = live_frame()
        if frame is not None:
            ret_q.put(("mtx", wid, frame))

    def handle_control(msg) -> None:
        nonlocal round_id
        kind = msg[0]
        if kind == "flush":
            began = time.perf_counter()
            signals = chain.monitoring.flush()
            mon_handle.seconds += time.perf_counter() - began
            mon_handle.emitted += len(signals)
            sync_round(signals, None)
            ret_q.put(("fdone", wid, msg[1]))
        elif kind == "finalize":
            records = chain.record.finalize(msg[2])
            ret_q.put(("final", wid, msg[1], records))
        elif kind == "ctl":
            # A bare barrier ack (sections=None) proves quiescence;
            # state ships only section by section as the driver
            # asked — serialising every worker's monitor baseline
            # on every drain would make routine reads (a primed
            # counter, the signal log) scale with detector state.
            sections = msg[2]
            info = None
            if sections is not None:
                info = {}
                for section in sections:
                    if section == "tagging":
                        info[section] = chain.tagging.state_dict()
                    elif section == "monitoring":
                        info[section] = chain.monitoring.state_dict()
                    elif section == "record":
                        info[section] = chain.record.state_dict()
                    elif section == "metrics":
                        info[section] = _worker_metrics_doc(
                            chain.registry
                        )
                    elif section == "primed":
                        info[section] = chain.monitoring.primed
            ret_q.put(("ack", msg[1], wid, info))
        elif kind == "load":
            from repro.core.serde import signal_from_json

            doc = msg[1]
            round_id = 0
            chain.registry.reset()
            if doc["metrics"] is not None:
                chain.registry.load_state(doc["metrics"])
            chain.tagging.load_state(doc["tagging"])
            chain.monitoring.load_state(doc["monitoring"])
            own_window[:] = [
                signal_from_json(s) for s in doc["window"]
            ]
            chain.record.load_state(doc["record"])

    # Any exception — in stage code, or on a batch the worker cannot
    # unmarshal or tag — ends the worker: it posts its traceback as
    # "err" and the driver raises it as a WorkerCrashError.
    try:
        while True:
            msg = in_q.get()
            kind = msg[0]
            if kind == "batch":
                batch = unpack_wires(msg[1])
                n = len(batch[0])
                began = time.perf_counter()
                tagged = tag_wire_batch(chain.tagging.input, batch)
                tag_handle.meter(began, n, len(tagged))
                consume_tagged(tagged)
            elif kind == "stop":
                return
            else:
                handle_control(msg)
    except Exception:
        ret_q.put(
            (
                "err",
                f"shard worker {wid} failed:\n{traceback.format_exc()}",
            )
        )


class ShardProcessPipeline:
    """Driver of N end-to-end shard worker processes: the one runtime
    object :class:`~repro.core.kepler.Kepler` holds under
    ``shard_processes``.

    Presents the chain's surface: ``feed_many`` / ``flush``, the facade
    views (``records``, ``open``, ``signal_log``, ``rejected``,
    ``primed``, ``metrics``, ``metrics_live``), ``checkpoint_parts`` /
    ``restore_parts``, ``finalize_records`` and ``close``.  The driver
    runs ingest, broadcasts encoded element batches to every worker,
    serves restored-fraction reads against the validator, and drives
    the per-bin sync-round phase protocol (see the module docstring).
    Every view but ``metrics_live`` drains the workers first.  The
    record stages are identical replicas, so the record views decode
    worker 0's state; the signal log, reject list and probe cache are
    the driver's.  ``state_dict`` composes the linear canonical
    pipeline document from the worker states.

    A worker that dies raises :class:`WorkerDeathError`, one that fails
    raises :class:`WorkerCrashError`; either closes the runtime first.
    """

    def __init__(
        self,
        chains: list[_ShardWorkerChain],
        ingest,
        registry: PipelineMetrics,
        cache,
        validator,
        classification,
        localisation,
        validation,
        baselines: _ShippedBaselines,
        rejected: list,
        batch_size: int,
    ) -> None:
        if len(chains) < 2:
            raise ValueError("the shard-process runtime needs >= 2 workers")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not fork_available():
            raise RuntimeError(
                "ShardProcessPipeline requires the 'fork' start method"
                " (unavailable on this platform); use the in-process"
                " runtime instead"
            )
        self.workers = len(chains)
        self.batch_size = batch_size
        self._ingest = ingest
        self._registry = registry
        self._ingest_handle = registry.stage(ingest.name)
        self.cache = cache
        self.validator = validator
        #: the driver-resident analysis chain (linear-chain semantics
        #: over the merged signal stream; see the module docstring).
        self._classification = classification
        self._localisation = localisation
        self._validation = validation
        self._analysis_m = [
            registry.stage(stage.name)
            for stage in (classification, localisation, validation)
        ]
        self._baselines = baselines
        #: chronological data-plane rejects, shared with the
        #: localisation and validation stages (read through
        #: :attr:`rejected`, which drains the workers first).
        self._rejected = rejected
        #: the records ``finalize_records`` returned, served by
        #: :attr:`records` from then on.
        self._finalized: list | None = None

        ctx = multiprocessing.get_context("fork")
        self._in_qs = [ctx.Queue(IN_QUEUE_DEPTH) for _ in chains]
        self._sync_qs = [ctx.Queue() for _ in chains]
        self._ret_q = ctx.Queue()
        self._procs = [
            ctx.Process(
                target=_shard_worker_loop,
                args=(chain, self._in_qs[w], self._sync_qs[w], self._ret_q),
                daemon=True,
                name=f"kepler-shard-{w}",
            )
            for w, chain in enumerate(chains)
        ]
        for proc in self._procs:
            proc.start()
        self._buffer: list[list] = []
        self._bid = 0
        self._fid = 0
        #: control messages ("ack"/"fdone"/"final") drained by _pump.
        #: A stash, not a return value: _put_checked pumps while
        #: retrying a full queue, and a control message consumed there
        #: must still reach the barrier loop that is waiting for it.
        self._ctl = ControlStash()
        #: per-round phase state, keyed by round id (lockstep workers
        #: mean at most one round is mid-phase; trailing "rdone"
        #: collection may briefly keep a second entry alive).
        self._rounds: dict[int, dict] = {}
        self._rf_memo: dict[tuple, float | None] = {}
        #: fused-sync counters: rounds completed, and driver→worker
        #: broadcasts sent inside them — the bench asserts their ratio
        #: is exactly one exchange per worker per bin.
        self.sync_rounds = 0
        self.sync_broadcasts = 0
        self._closed = False
        #: latest live metrics frame per worker — piggybacked on the
        #: fused "bin" exchange (and "mtx" messages between closes);
        #: read by :meth:`metrics_live` without a drain barrier.
        self._live_frames: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Facade views
    # ------------------------------------------------------------------
    def _worker0_records(self) -> dict:
        return self.sync(("record",))[0]["record"]

    @property
    def records(self) -> list:
        from repro.core.serde import record_from_json

        if self._finalized is not None:
            return self._finalized
        return [
            record_from_json(r) for r in self._worker0_records()["records"]
        ]

    @property
    def open(self) -> dict:
        from repro.core.serde import pop_from_json, record_from_json

        return {
            pop_from_json(pop): record_from_json(record)
            for pop, record, _ in self._worker0_records()["open"]
        }

    @property
    def signal_log(self) -> list:
        """The global chronological signal log (the driver stage's own)."""
        # Driver-side data: only quiescence is needed, not worker state.
        self.sync()
        return self._classification.signal_log

    @property
    def rejected(self) -> list:
        # Driver-side, but rejects may still be in flight inside sync
        # rounds (or element batches in the tail buffer): drain first.
        self.sync()
        return self._rejected

    @property
    def primed(self) -> int:
        """Baseline paths primed so far (every worker primes them all)."""
        return self.sync(("primed",))[0]["primed"]

    @property
    def metrics(self) -> PipelineMetrics:
        return self._compose_metrics(self.sync(("metrics",)))

    # ------------------------------------------------------------------
    # The chain's runtime surface
    # ------------------------------------------------------------------
    def feed_many(self, elements: Iterable[Any]) -> None:
        """Admit the elements in one ingest call, then broadcast every
        full ``batch_size`` slice of the admitted tail."""
        if type(elements) is not list:
            elements = list(elements)
        handle = self._ingest_handle
        began = time.perf_counter()
        admitted = self._ingest.feed_batch(elements)
        handle.meter(began, len(elements), len(admitted))
        buffer = self._buffer + admitted
        size = self.batch_size
        full = len(buffer) - len(buffer) % size
        self._buffer = buffer[full:]
        for start in range(0, full, size):
            self._broadcast_batch(encode_batch(buffer[start : start + size]))
            self._pump()
        self._pump()

    def flush(self) -> None:
        """Drain the stream, then run the end-of-stream trailing-bin round."""
        self._ship()
        self._fid += 1
        fid = self._fid
        message = ("flush", fid)
        for in_q in self._in_qs:
            self._put_checked(in_q, message)
        # A wid set, not a counter: duplicated round-trip messages must
        # not satisfy the barrier in place of a missing worker.
        done: set[int] = set()
        while True:
            done.update(
                msg[1] for msg in self._ctl.pop("fdone") if msg[2] == fid
            )
            if len(done) >= self.workers:
                break
            self._pump(block=True)

    # ------------------------------------------------------------------
    # Shipping and the message pump
    # ------------------------------------------------------------------
    def _ship(self) -> None:
        if not self._buffer:
            return
        batch = encode_batch(self._buffer)
        self._buffer = []
        self._broadcast_batch(batch)
        self._pump()

    def _broadcast_batch(self, batch: tuple) -> None:
        """Replicate one columnar batch to every worker's queue."""
        message = ("batch", pack_wires(batch))
        for in_q in self._in_qs:
            self._put_checked(in_q, message)

    def _put_checked(self, in_q, message) -> None:
        """Put that keeps serving round traffic while a queue is full.

        A worker with a full queue may be parked inside a sync-round
        phase or a probe read, waiting on the *driver* — so the wait
        here (:func:`drain_put`) blocks on the return queue (where
        service requests arrive, waking immediately), never on the
        input queue, and retries the put after each service pass.
        """
        drain_put(in_q, message, self._pump_blocked)

    def _pump_blocked(self) -> None:
        self._pump(block=True, timeout=0.05)
        self._check_alive()

    def _check_alive(self) -> None:
        dead = worker_exits(self._procs)
        if dead:
            depths = self._queue_depth_sample()
            pending = len(self._ctl)
            self.close()
            raise WorkerDeathError(
                dead, depths, pending_ctl=pending, noun="shard worker(s)"
            )

    def _queue_depth_sample(self) -> dict[str, int]:
        named = {f"in[{i}]": q for i, q in enumerate(self._in_qs)}
        for i, q in enumerate(self._sync_qs):
            named[f"sync[{i}]"] = q
        named["ret"] = self._ret_q
        return queue_depths(named)

    def _round(self, rid: int) -> dict:
        state = self._rounds.get(rid)
        if state is None:
            state = self._rounds[rid] = {
                "bin": {},
                "reads": {},
                "rdone": set(),
                "advanced": None,
            }
        return state

    def _pump(self, block: bool = False, timeout: float = WAIT_POLL_S) -> None:
        """Drain the return queue, driving round phases and serving reads.

        Control messages ("ack", "fdone", "final") are stashed on
        ``self._ctl`` for whichever barrier loop is collecting them —
        never returned and dropped, because pumps also happen inside
        ``_put_checked`` retries; everything else is handled in place.
        """
        while True:
            try:
                msg = (
                    self._ret_q.get(timeout=timeout)
                    if block
                    else self._ret_q.get_nowait()
                )
            except queue_mod.Empty:
                if block:
                    # One bounded wait per call: callers that need more
                    # messages loop, callers retrying a put must not
                    # hang on a quiet return queue.
                    self._check_alive()
                return
            block = False  # made progress: drain the rest lazily
            kind = msg[0]
            if kind == "bin":
                _, wid, rid, signals, advanced, reads, frame = msg
                if frame is not None:
                    self._live_frames[wid] = frame
                state = self._round(rid)
                state["bin"][wid] = signals
                state["reads"].update(reads)
                if advanced is not None:
                    state["advanced"] = advanced
                if len(state["bin"]) == self.workers:
                    self._finish_round(state)
            elif kind == "mtx":
                # Throttled live metrics frame between bin closes.
                self._live_frames[msg[1]] = msg[2]
            elif kind == "rdone":
                _, wid, rid = msg
                state = self._round(rid)
                state["rdone"].add(wid)
                if len(state["rdone"]) == self.workers:
                    if state["advanced"] is not None:
                        self._validation.prune(state["advanced"])
                    self._rf_memo.clear()
                    del self._rounds[rid]
            elif kind == "rf":
                _, wid, pop, time_ = msg
                memo_key = (pop, time_)
                if memo_key not in self._rf_memo:
                    self._rf_memo[memo_key] = self.validator.restored_fraction(
                        pop, time_
                    )
                self._sync_qs[wid].put(("rf", self._rf_memo[memo_key]))
            elif kind == "err":
                detail = msg[1]
                self.close()
                raise WorkerCrashError(
                    f"pipeline worker failed:\n{detail}"
                )
            else:
                self._ctl.stash(msg)

    def _finish_round(self, state: dict) -> None:
        """All partials in: run the driver analysis, broadcast once.

        The partials merge under the monitor's signal sort key — the
        exact order a singleton monitor's ``close_bin`` would emit —
        then flow through :func:`~repro.pipeline.runtime.analyse` over
        the driver's classification → localisation → validation stages
        with plain linear-chain semantics (window, probe cache, reject
        list are all the real, single objects).  A zero-signal round
        runs no stage, as on the linear chain, while still releasing
        the workers.
        """
        import heapq

        from repro.core.monitor import signal_sort_key

        round_began = time.perf_counter()
        bins = state["bin"]
        merged = list(
            heapq.merge(
                *(bins[w] for w in sorted(bins)), key=signal_sort_key
            )
        )
        self._baselines.reads = state["reads"]
        candidates = analyse(
            merged,
            self._classification,
            self._localisation,
            self._validation,
            self._analysis_m,
        )
        self.sync_rounds += 1
        self._registry.trace.emit(
            "sync_round",
            "sync",
            dur_s=time.perf_counter() - round_began,
            signals=len(merged),
            candidates=len(candidates),
            advanced=state["advanced"],
        )
        self.sync_broadcasts += 1
        for sync_q in self._sync_qs:
            sync_q.put(("fin", candidates))

    # ------------------------------------------------------------------
    # Drain barrier and worker-state collection
    # ------------------------------------------------------------------
    #: Worker state sections a checkpoint composition needs (the
    #: classification document is driver-resident).
    FULL_STATE = ("tagging", "monitoring", "record", "metrics")

    def sync(
        self, sections: tuple[str, ...] | None = None
    ) -> list[dict] | None:
        """Quiesce every worker, optionally collecting state sections.

        With ``sections=None`` the barrier is bare — it proves
        quiescence and returns ``None`` without serialising any worker
        state.  Otherwise the named sections of every worker's state
        come back in wid order (see the worker's ``"ctl"`` handler for
        the section vocabulary).
        """
        if self._closed:
            raise RuntimeError("pipeline is closed")
        self._ship()
        self._bid += 1
        bid = self._bid
        message = ("ctl", bid, sections)
        for in_q in self._in_qs:
            self._put_checked(in_q, message)
        # Keyed by wid: a duplicated ack must not stand in for a
        # missing worker's.
        acks: dict[int, Any] = {}
        while True:
            for msg in self._ctl.pop("ack"):
                if msg[1] == bid:
                    acks[msg[2]] = msg
            if len(acks) >= self.workers:
                break
            self._pump(block=True)
        if sections is None:
            return None
        return [acks[wid][3] for wid in sorted(acks)]

    def finalize_records(self, end_time: float | None = None) -> list:
        """Run the record-stage finalize on every (replica) worker.

        Ships the buffered element tail first, so a direct
        ``finalize_records`` call (without a prior ``flush``) still
        covers every element ever fed.
        """
        self._ship()
        self._fid += 1
        fid = self._fid
        message = ("finalize", fid, end_time)
        for in_q in self._in_qs:
            self._put_checked(in_q, message)
        finals: dict[int, list] = {}
        while True:
            for msg in self._ctl.pop("final"):
                if msg[2] == fid:
                    finals[msg[1]] = msg[3]
            if len(finals) >= self.workers:
                break
            self._pump(block=True)
        records = finals[0]
        for wid in range(1, self.workers):
            if finals[wid] != records:
                raise RuntimeError(
                    "record replicas diverged at finalize: worker"
                    f" {wid} disagrees with worker 0"
                )
        self._finalized = records
        return records

    # ------------------------------------------------------------------
    # Checkpointing: compose/distribute the linear canonical document
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        from repro.core.monitor import merge_monitor_states

        infos = self.sync(self.FULL_STATE)
        stages = {
            "ingest": self._ingest.state_dict(),
            "tagging": infos[0]["tagging"],
            "monitor": {
                "primed": infos[0]["monitoring"]["primed"],
                "monitor": merge_monitor_states(
                    [info["monitoring"]["monitor"] for info in infos]
                ),
            },
            # The driver stage IS the linear classification stage over
            # the merged signal stream; its document is canonical.
            "classify": self._classification.state_dict(),
            # Stateless: the probe cache and reject list are parts of
            # their own (see ``checkpoint_parts``).
            "localise": {},
            "validate": {},
            "record": infos[0]["record"],
        }
        return {
            "stages": stages,
            "metrics": self._compose_metrics(infos).state_dict(),
        }

    def _compose_metrics(self, infos: list[dict]) -> PipelineMetrics:
        """One registry over driver + workers.

        The driver registry carries ingest and the driver-resident
        analysis stages (classify/localise/validate) directly; tagging,
        monitor and record counters are per-worker replicas of the
        same logical work (take worker 0), except the monitor's
        ``emitted``: each worker emits its own share's signals and the
        shares partition them, so it is the sum over workers (after a
        restore worker 0 carries the document's count, the others
        start from zero).  Bin gauges: closes are lockstep (count from
        worker 0), the population gauges are per-share and sum to the
        global population, and close latencies sum (aggregate CPU
        across shares).
        """
        registries: dict[int, PipelineMetrics] = {}
        docs: dict[int, dict] = {}
        for wid, info in enumerate(infos):
            registry = PipelineMetrics()
            _load_with_batches(registry, info["metrics"])
            registries[wid] = registry
            docs[wid] = info["metrics"]
        return self._compose_worker_metrics(registries, docs)

    def _compose_worker_metrics(
        self,
        registries: dict[int, PipelineMetrics],
        docs: dict[int, dict],
    ) -> PipelineMetrics:
        """Compose driver registry + per-worker registries (keyed by wid).

        Shared by the drained composition (all workers, at a barrier)
        and the live composition (whichever workers have reported a
        frame, mid-run).
        """
        composed = PipelineMetrics()
        for name in (
            "ingest", "tagging", "monitor",
            "classify", "localise", "validate", "record",
        ):
            composed.stage(name)
        composed.absorb(self._registry)
        composed.adopt_gauges(self._registry)
        if registries:
            first = registries[min(registries)]
            for name in ("tagging", "monitor", "record"):
                entry = first.stages.get(name)
                if entry is not None:
                    handle = composed.stage(name)
                    handle.fed = entry.fed
                    handle.emitted = entry.emitted
                    handle.seconds = entry.seconds
                    handle.batches = entry.batches
                    handle.hist.merge(entry.hist)
            composed.stage("monitor").emitted = sum(
                registry.stage("monitor").emitted
                for registry in registries.values()
            )
            bins = composed.bins
            bins.count = first.bins.count
            for registry in registries.values():
                bins.total_latency_s += registry.bins.total_latency_s
                bins.max_latency_s = max(
                    bins.max_latency_s, registry.bins.max_latency_s
                )
                bins.last_baseline_entries += (
                    registry.bins.last_baseline_entries
                )
                bins.last_pending_entries += (
                    registry.bins.last_pending_entries
                )
                bins.hist.merge(registry.bins.hist)
                for name, hist in registry.hists.items():
                    if hist.count:
                        composed.hist(name).merge(hist)
        # Worker-resident gauges (e.g. the monitor's steady-state skip
        # counter) are per-share and sum to the global value; the
        # composed view serves the snapshot sampled at sync time.  Each
        # worker's own values stay visible under a ``w{wid}.`` prefix.
        seen = set(composed.gauges())
        totals: dict[str, float] = {}
        for wid, doc in docs.items():
            _adopt_worker_gauges(composed, wid, doc)
            for name, value in doc.get("gauge_values", {}).items():
                if name in seen:
                    continue
                totals[name] = totals.get(name, 0) + value
        for name, value in totals.items():
            composed.gauge_source(name, lambda value=value: value, replace=True)
        return composed

    def metrics_live(self) -> dict:
        """Live composed snapshot without a drain barrier.

        Combines the driver registry (always current) with the most
        recent metrics frame each worker piggybacked on the fused sync
        exchange (or a throttled ``"mtx"`` message between closes).
        Worker counters therefore trail the stream head by at most one
        reporting interval; ``snap["live"]`` says how many workers have
        reported so far.

        Thread-safe against the driving thread: reads only cached
        frames (never pumps the return queue, which would race the
        driver's round bookkeeping).
        """
        if self._closed:
            raise RuntimeError("pipeline is closed")
        frames = dict(self._live_frames)
        registries: dict[int, PipelineMetrics] = {}
        for wid in sorted(frames):
            registry = PipelineMetrics()
            _load_with_batches(registry, frames[wid])
            registries[wid] = registry
        composed = self._compose_worker_metrics(registries, frames)
        snap = composed.snapshot()
        snap["depths"] = self._queue_depth_sample()
        snap["live"] = {
            "workers": self.workers,
            "workers_reporting": len(frames),
            "sync_rounds": self.sync_rounds,
        }
        return snap

    #: Stage metrics entries the driver registry owns (the rest are
    #: composed from the worker registries).
    _DRIVER_STAGES = ("ingest", "classify", "localise", "validate")

    def load_state(self, state: dict) -> None:
        """Distribute a linear pipeline document across the workers."""
        from repro.core.monitor import partition_of
        from repro.core.serde import pop_from_json

        self.sync()  # quiesce in-flight batches first
        stages = state["stages"]
        self._ingest.load_state(stages["ingest"])
        self._classification.load_state(stages["classify"])
        self._baselines.reads = {}
        self._rounds.clear()
        self._rf_memo.clear()
        self._ctl.clear()
        # The driver registry keeps the entries of the driver-resident
        # stages; the stream-stage entries live in (and are re-composed
        # from) the worker registries.
        doc_metrics = PipelineMetrics()
        doc_metrics.load_state(state["metrics"])
        self._registry.reset()
        for name in self._DRIVER_STAGES:
            entry = doc_metrics.stages.get(name)
            if entry is not None:
                handle = self._registry.stage(name)
                handle.fed = entry.fed
                handle.emitted = entry.emitted
        worker0_metrics = {
            "stages": [
                [m.name, m.fed, m.emitted]
                for m in doc_metrics.stages.values()
                if m.name not in self._DRIVER_STAGES
            ],
            "bins": state["metrics"]["bins"],
        }
        for wid, in_q in enumerate(self._in_qs):
            window = [
                s
                for s in stages["classify"]["window"]
                if partition_of(pop_from_json(s["pop"]), self.workers) == wid
            ]
            self._put_checked(
                in_q,
                (
                    "load",
                    {
                        "tagging": stages["tagging"],
                        "monitoring": stages["monitor"],
                        "window": window,
                        "record": stages["record"],
                        "metrics": worker0_metrics if wid == 0 else None,
                    },
                ),
            )
        # A barrier both orders the loads before any later batch and
        # confirms the workers applied them.
        self.sync()

    def checkpoint_parts(self) -> dict:
        # ``self.rejected`` quiesces the workers before anything
        # serialises: the reject list and probe cache are live driver
        # objects that in-flight rounds (or the buffered element tail)
        # may still append to, and serialising first would take stage
        # state and shared views from two different stream positions.
        return checkpoint_parts(self.rejected, self.cache, self)

    def restore_parts(self, parts: dict) -> None:
        self._finalized = None
        # ``self.rejected`` drains in-flight rounds before the refill.
        restore_parts(parts, self.rejected, self.cache, self)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for in_q in self._in_qs:
            try:
                in_q.put_nowait(("stop",))
            except queue_mod.Full:
                pass
        reap_workers(self._procs, (*self._in_qs, *self._sync_qs, self._ret_q))

    def __repr__(self) -> str:
        return (
            f"ShardProcessPipeline(workers={self.workers},"
            f" batch={self.batch_size})"
        )


def build_shard_process_pipeline(
    input_module,
    monitor,
    investigator,
    validator,
    colo,
    as2org,
    min_pop_ases: int,
    correlation_window_s: float,
    restore_fraction: float,
    merge_gap_s: float,
    drop_rejected: bool,
    enable_investigation: bool,
    workers: int,
    *,
    batch_size: int,
) -> ShardProcessPipeline:
    """Wire and fork the end-to-end shard-process runtime.

    ``monitor`` supplies the :class:`~repro.core.monitor.MonitorParams`
    template; each worker gets its own monitor share
    (``OutageMonitor(monitor.params, share=(w, workers))``) built
    pre-fork, along with its record replica.  The driver keeps ingest,
    the analysis chain (classification → localisation → validation
    over the merged signal stream, reading shipped baselines), the
    probe cache over ``validator``, and the global views.
    """
    from repro.core.monitor import OutageMonitor
    from repro.pipeline.classification import ClassificationStage
    from repro.pipeline.ingest import IngestStage
    from repro.pipeline.localisation import LocalisationStage
    from repro.pipeline.monitoring import BinningMonitorStage
    from repro.pipeline.record import RecordStage
    from repro.pipeline.tagging import TaggingStage
    from repro.pipeline.validation import ValidationCache, ValidationStage

    registry = PipelineMetrics()
    registry.register_cache_gauges(input_module)
    cache = ValidationCache(validator)
    rejected: list = []
    tagging = TaggingStage(input_module)
    chains: list[_ShardWorkerChain] = []
    for wid in range(workers):
        worker_registry = PipelineMetrics()
        worker_registry.register_cache_gauges(input_module)
        worker_monitor = OutageMonitor(monitor.params, share=(wid, workers))
        remote_validator = _RemoteValidator()
        chains.append(
            _ShardWorkerChain(
                wid=wid,
                tagging=tagging,
                monitoring=BinningMonitorStage(
                    worker_monitor, metrics=worker_registry
                ),
                record=RecordStage(
                    worker_monitor,
                    remote_validator,
                    restore_fraction=restore_fraction,
                    merge_gap_s=merge_gap_s,
                ),
                registry=worker_registry,
                validator=remote_validator,
                correlation_window_s=correlation_window_s,
            )
        )
    baselines = _ShippedBaselines()
    return ShardProcessPipeline(
        chains=chains,
        ingest=IngestStage(),
        registry=registry,
        cache=cache,
        validator=validator,
        classification=ClassificationStage(
            as2org,
            min_pop_ases=min_pop_ases,
            correlation_window_s=correlation_window_s,
        ),
        localisation=LocalisationStage(
            investigator,
            baselines,
            colo,
            cache,
            enable_investigation=enable_investigation,
            rejected=rejected,
        ),
        validation=ValidationStage(
            cache,
            drop_rejected=drop_rejected,
            rejected=rejected,
        ),
        baselines=baselines,
        rejected=rejected,
        batch_size=batch_size,
    )

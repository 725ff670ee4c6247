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
         the PoPs in its share of the correlation window, and its
         monitor's last-diverted path keys            ("bin")
      2. the driver merges the partials under the monitor's signal
         sort key (the linear close order), runs classification →
         localisation → validation against the shipped baselines,
         stamps each candidate with its PoP's diverted keys, and
         broadcasts the candidate list in linear emission
         order                                        ("fin")
      3. every worker applies the full candidate list to its
         record stage, then the bin marker, and posts a fire-and-
         forget round-done marker that lets the driver prune its
         probe cache and round memos                  ("rdone")

Each worker prunes its shipped window share against its *local* bin
clock (the max bin_start among its own signals), which can only lag
the global clock — so the shipped read set is always a superset of
the PoPs the driver's window holds for that share, never a miss.

The **record lifecycle is replicated, not sharded**: every worker
applies the identical, globally-ordered candidate sequence, so all
record stages (and their return-tracking state, which lives in the
worker's monitor share and is fed by the full broadcast stream)
are byte-identical replicas.  The record stage is the pipeline's
cheapest stage by orders of magnitude, and replication removes every
cross-share monitor read a located-elsewhere record would
otherwise need — candidates carry their signal PoP's diverted keys
across the share boundary (``OutageCandidate.diverted_keys``,
stamped by the driver from the shipped last-diverted maps).

**Transport** is the columnar batch codec of the checkpoint serde
(:mod:`repro.core.serde`): a batch ships as one struct-of-arrays
tuple — parallel field columns plus per-batch interned AS-path /
community / tag-set id tables — and marshals to one bytes object
(both ends are forks of one interpreter), so queue pickling
degenerates to a memcpy.  Workers tag *on the columns*
(:func:`~repro.core.serde.tag_wire_batch`) and the monitor folds the
tagged columns in place.

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

import logging
import marshal
import multiprocessing
import queue as queue_mod
import time
import traceback
import zlib
from collections import deque
from typing import Any, Iterable

from repro import telemetry
from repro.core.serde import (
    decode_batch,
    encode_batch,
    tag_wire_batch,
    wires_to_batch,
)
from repro.pipeline import faults
from repro.pipeline.checkpoint import CheckpointableChain
from repro.pipeline.liveness import (
    ControlStash,
    PoisonedBatchError,
    WorkerCrashError,
    WorkerDeathError,
    WorkerStallError,
    drain_put,
    queue_depths,
    reap_workers,
    worker_exits,
)
from repro.pipeline.metrics import PipelineMetrics

_LOG = logging.getLogger("repro.pipeline.parallel")

#: Bounded input-queue depth (in batches) — backpressure, not buffering.
IN_QUEUE_DEPTH = 8
#: How long a blocked barrier waits between worker liveness checks.
WAIT_POLL_S = 5.0
#: Quarantined batches kept for inspection (the count is unbounded,
#: the payload buffer is not).
DEAD_LETTER_CAP = 16


def fork_available() -> bool:
    """Whether this platform can fork workers (the runtime requires it)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _pack(wires: list[list]) -> tuple[str, Any]:
    """Serialise a wire batch for the queue.

    The serde wire format is pure builtins (tuples, lists, strings,
    numbers), which ``marshal`` round-trips far faster than pickling
    the nested structure — and the queue then pickles one opaque bytes
    object instead of walking it again.  Safe here because both ends
    are forks of one interpreter (marshal is version-specific by
    design).  Batches carrying an opaque ``"py"`` pass-through element
    fall back to the queue's ordinary pickling.
    """
    try:
        return ("m", marshal.dumps(wires))
    except ValueError:
        return ("p", wires)


def _unpack(codec: str, payload: Any) -> list[list]:
    """Decode a wire payload; corrupt input surfaces as a quarantine.

    A torn or tampered payload must never crash the consumer with a
    bare unmarshal error — it raises :class:`PoisonedBatchError`, the
    vocabulary every quarantine/dead-letter/rollback path already
    speaks.
    """
    if codec == "m":
        try:
            return marshal.loads(payload)
        except (ValueError, EOFError, TypeError) as exc:
            raise PoisonedBatchError(
                1, noun=f"wire codec ({exc!r}; payload unreadable)"
            ) from exc
    if codec == "p":
        return payload
    raise PoisonedBatchError(
        1, noun=f"wire codec (unknown codec tag {codec!r})"
    )


#: Public names for the wire-batch codec, shared with the ingest tier
#: (:mod:`repro.ingest`): its forked feed workers publish the same
#: marshal-packed wire batches the shard-process runtime ships.
pack_wires = _pack
unpack_wires = _unpack


def _metrics_with_batches(registry: PipelineMetrics) -> dict:
    """``state_dict`` plus the per-stage fold-invocation counters.

    ``batches`` is run telemetry the checkpoint shape intentionally
    drops, but the live metrics views must compose it across processes
    so ``mean_batch`` reports fold invocations consistently on every
    runtime; it rides the worker sync payload as a sidecar key that
    :meth:`PipelineMetrics.load_state` ignores.
    """
    doc = registry.state_dict()
    doc["batches"] = {
        m.name: m.batches for m in registry.stages.values()
    }
    doc["gauge_values"] = registry.gauges()
    doc["hists"] = registry.hists_to_wire()
    return doc


def _load_with_batches(registry: PipelineMetrics, doc: dict) -> None:
    """Restore a worker metrics payload including the telemetry sidecars."""
    registry.load_state(doc)
    counts = doc.get("batches", {})
    for name, metrics in registry.stages.items():
        metrics.batches = counts.get(name, 0)
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


def _batch_signature(payload: Any) -> int:
    """Stable id of one wire payload (log-once / dedupe key)."""
    data = payload if isinstance(payload, bytes) else repr(payload).encode()
    return zlib.crc32(data)


def _poll_interval(stall_timeout_s: float | None) -> float:
    """Blocked-wait granularity: finer when a stall deadline is armed."""
    if stall_timeout_s is None:
        return WAIT_POLL_S
    return min(WAIT_POLL_S, max(0.01, stall_timeout_s / 4.0))


def _note_quarantine(
    runtime, signature: int, codec: str, payload: Any, detail: str
) -> None:
    """Driver-side dead-lettering of one poisoned wire batch.

    The count is the graceful-degradation metric
    (``PipelineMetrics.recovery.quarantined_batches`` on the composed
    views); the payload buffer is capped; the log fires once per batch
    signature so a replayed or rebroadcast poison batch cannot spam.
    """
    runtime.quarantined += 1
    runtime.dead_letters.append(
        {
            "signature": signature,
            "codec": codec,
            "payload": payload,
            "detail": detail,
        }
    )
    if signature not in runtime._quar_seen:
        runtime._quar_seen.add(signature)
        last = detail.strip().splitlines()[-1] if detail.strip() else detail
        _LOG.warning(
            "quarantined wire batch %08x (dropped from the stream,"
            " %d quarantined total): %s",
            signature & 0xFFFFFFFF,
            runtime.quarantined,
            last,
        )
        runtime._registry.trace.emit(
            "quarantine",
            "fault",
            signature=signature & 0xFFFFFFFF,
            detail=last,
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
    from repro.pipeline.events import BinAdvanced, SignalBatch

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
        return _metrics_with_batches(chain.registry)

    #: this worker's share of the driver's correlation window — pruned
    #: against the *local* bin clock, which can only lag the global
    #: one, so the shipped read set is a superset of what the driver's
    #: window holds for this share.
    own_window: list = []

    def feed_record(element) -> None:
        began = time.perf_counter()
        out = chain.record.feed(element)
        delta = time.perf_counter() - began
        record_handle.seconds += delta
        record_handle.fed += 1
        record_handle.batches += 1
        record_handle.emitted += len(out)
        record_handle.hist.record(delta * 1e9)

    def await_phase(expected: str):
        kind, *payload = sync_q.get()
        if kind != expected:  # pragma: no cover - protocol guard
            raise RuntimeError(
                f"worker {wid} expected {expected!r}, got {kind!r}"
            )
        return payload

    def sync_round(signals: list, advanced: float | None) -> None:
        # The fused bin exchange: one message up (partial signals plus
        # the baseline reads and diverted keys the driver analysis
        # needs), one broadcast back (the globally ordered candidate
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
                dict(monitor.last_diverted),
                live_frame(),
            )
        )
        (candidates,) = await_phase("fin")
        sync_hist.record(time.perf_counter() - began_round)
        for candidate in candidates:
            feed_record(candidate)
        if advanced is not None:
            feed_record(BinAdvanced(now=advanced))
        ret_q.put(("rdone", wid, round_id))

    def emit_rounds(mouts) -> None:
        signals: list = []
        advanced: float | None = None
        for mout in mouts:
            if isinstance(mout, SignalBatch):
                signals = mout.signals
            elif isinstance(mout, BinAdvanced):
                advanced = mout.now
        sync_round(signals, advanced)

    def feed_tagged(out) -> None:
        began = time.perf_counter()
        mouts = chain.monitoring.feed(out)
        delta = time.perf_counter() - began
        mon_handle.seconds += delta
        mon_handle.fed += 1
        mon_handle.batches += 1
        mon_handle.emitted += len(mouts)
        mon_handle.hist.record(delta * 1e9)
        if mouts:
            emit_rounds(mouts)

    def feed_tagged_view(view) -> None:
        # Batch-native monitor sweep: one fold invocation per metered
        # batch (the same accounting the driver-side runtimes use);
        # the per-bin sync round runs per emission, before the next
        # slot advances the monitor.
        feed_wire_run = chain.monitoring.feed_wire_run
        slot, n = 0, view.n
        while slot < n:
            began = time.perf_counter()
            mouts, nxt = feed_wire_run(view, slot)
            delta = time.perf_counter() - began
            mon_handle.seconds += delta
            mon_handle.fed += nxt - slot
            mon_handle.batches += 1
            mon_handle.emitted += len(mouts)
            if nxt > slot:
                mon_handle.hist.record(delta * 1e9 / (nxt - slot))
            slot = nxt
            if mouts:
                emit_rounds(mouts)

    # Captured at fork time: flipping StagePipeline.use_wire_lane
    # before building the runtime forces the object oracle in the
    # workers too (the property tests' escape hatch).
    from repro.pipeline.runtime import StagePipeline as _runtime_cls

    wire_lane = _runtime_cls.use_wire_lane
    armed = faults.arm("shard", wid)

    def quarantine(msg, detail: str) -> None:
        ret_q.put(
            ("quar", wid, _batch_signature(msg[2]), msg[1], msg[2], detail)
        )

    def tag_batch(batch, msg):
        """Corrupt/meter/tag one broadcast batch; None on quarantine."""
        n = len(batch[0])
        if armed is not None:
            batch = armed.corrupt_batch(batch, n)
            armed.on_elements(n)
        began = time.perf_counter()
        try:
            tagged = tag_wire_batch(
                chain.tagging.input, batch, chain.tagging.feed
            )
        except Exception:
            # Poison batch: every replica skips the same broadcast
            # batch (the driver dedupes the count by signature), so
            # the record replicas stay consistent.
            quarantine(msg, traceback.format_exc())
            return None
        delta = time.perf_counter() - began
        tag_handle.seconds += delta
        tag_handle.fed += n
        tag_handle.batches += 1
        tag_handle.emitted += len(tagged[0])
        if n:
            tag_handle.hist.record(delta * 1e9 / n)
        return tagged

    def consume_tagged(tagged) -> None:
        view = None
        if wire_lane:
            began = time.perf_counter()
            view = chain.monitoring.prepare_wire(tagged)
            mon_handle.seconds += time.perf_counter() - began
        if view is None:
            for element in decode_batch(tagged):
                feed_tagged(element)
        else:
            feed_tagged_view(view)
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
            flushed = chain.monitoring.flush()
            mon_handle.seconds += time.perf_counter() - began
            mon_handle.emitted += len(flushed)
            signals = flushed[0].signals if flushed else []
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
                        info[section] = _metrics_with_batches(
                            chain.registry
                        )
                    elif section == "primed":
                        info[section] = chain.monitoring.primed
            action = armed.on_control() if armed is not None else None
            ack = ("ack", msg[1], wid, info)
            if action != "drop":
                ret_q.put(ack)
                if action == "dup":
                    ret_q.put(ack)
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

    try:
        while True:
            msg = in_q.get()
            kind = msg[0]
            if kind == "batch":
                try:
                    batch = _unpack(msg[1], msg[2])
                except Exception:
                    quarantine(msg, traceback.format_exc())
                    continue
                tagged = tag_batch(batch, msg)
                if tagged is not None:
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
    """Driver runtime for N end-to-end shard worker processes.

    Presents the ``StagePipeline`` surface (``feed`` / ``feed_many`` /
    ``flush`` / ``state_dict`` / ``load_state``).  The driver runs
    ingest, broadcasts encoded element batches to every worker, serves
    probe / restored-fraction reads against the shared cache and
    validator, and drives the per-bin sync-round phase protocol (see
    the module docstring).  ``state_dict`` composes the linear
    canonical pipeline document from the worker states.
    """

    #: When set, a blocked barrier that sees no worker progress for
    #: this long raises :class:`WorkerStallError` (the supervision
    #: layer's hung-queue detector).  ``None`` = wait forever.
    stall_timeout_s: float | None = None
    #: Per-worker join deadline used by :func:`reap_workers`.
    teardown_deadline_s: float = 2.0

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
        self.chains = chains
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
        self._baselines = baselines
        self.rejected = rejected

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
        #: router-equivalent counters (observability parity).
        self.batches_routed = 0
        self.signals_routed = 0
        #: fused-sync counters: rounds completed, and driver→worker
        #: broadcasts sent inside them — the bench asserts their ratio
        #: is exactly one exchange per worker per bin.
        self.sync_rounds = 0
        self.sync_broadcasts = 0
        self._closed = False
        #: quarantine surface (count deduped by batch signature: every
        #: replica quarantines the same broadcast batch).
        self.quarantined = 0
        self.dead_letters: deque = deque(maxlen=DEAD_LETTER_CAP)
        self._quar_seen: set[int] = set()
        self._idle_since: float | None = None
        #: latest live metrics frame per worker — piggybacked on the
        #: fused "bin" exchange (and "mtx" messages between closes);
        #: read by :meth:`metrics_live` without a drain barrier.
        self._live_frames: dict[int, dict] = {}

    @property
    def signal_log(self) -> list:
        """The global chronological signal log (the driver stage's own)."""
        return self._classification.signal_log

    # ------------------------------------------------------------------
    # StagePipeline-compatible surface
    # ------------------------------------------------------------------
    def feed(self, element: Any) -> list[Any]:
        began = time.perf_counter()
        outs = self._ingest.feed(element)
        handle = self._ingest_handle
        handle.seconds += time.perf_counter() - began
        handle.fed += 1
        handle.batches += 1
        handle.emitted += len(outs)
        self._buffer.extend(outs)
        if len(self._buffer) >= self.batch_size:
            self._ship()
        return []

    def feed_many(self, elements: Iterable[Any]) -> list[Any]:
        ingest = self._ingest.feed
        handle = self._ingest_handle
        size = self.batch_size
        fed = 0
        emitted = 0
        began = time.perf_counter()
        for element in elements:
            fed += 1
            outs = ingest(element)
            emitted += len(outs)
            self._buffer.extend(outs)
            if len(self._buffer) >= size:
                handle.seconds += time.perf_counter() - began
                self._ship()
                began = time.perf_counter()
        handle.seconds += time.perf_counter() - began
        handle.fed += fed
        handle.batches += 1
        handle.emitted += emitted
        self._pump()
        return []

    def feed_admitted(self, elements: list[Any]) -> list[Any]:
        """Queue pre-admitted elements for the broadcast.

        The entry point of the sharded ingest tier: admission already
        ran in a feed worker (counted there), so the chunk bypasses the
        driver's ingest stage and lands in the broadcast buffer,
        preserving arrival order with everything fed through the
        ordinary path.
        """
        self._buffer.extend(elements)
        if len(self._buffer) >= self.batch_size:
            self._ship()
        else:
            self._pump()
        return []

    def feed_admitted_wires(self, wires: list[list]) -> list[Any]:
        """Envelope-encoded variant of :meth:`feed_admitted`.

        Forked ingest feed workers ship per-element envelopes (they
        sort batches by wire key without decoding).  The buffer ships
        first so arrival order is preserved, then the envelopes fold
        into one columnar batch that goes out as-is — no object ever
        materialises in the driver.
        """
        self._ship()
        self._broadcast_batch(wires_to_batch(wires))
        self._pump()
        return []

    def flush(self) -> list[Any]:
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
        return []

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
        message = ("batch", *_pack(batch))
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
        self._idle_since = None

    def _pump_blocked(self) -> None:
        self._pump(block=True, timeout=0.05)
        self._blocked_tick()

    def _check_alive(self) -> None:
        dead = worker_exits(self._procs)
        if dead:
            depths = self._queue_depth_sample()
            pending = len(self._ctl)
            self.close()
            raise WorkerDeathError(
                dead, depths, pending_ctl=pending, noun="shard worker(s)"
            )

    def _blocked_tick(self) -> None:
        """One bounded wait elapsed without progress: liveness + stall."""
        self._check_alive()
        timeout = self.stall_timeout_s
        if timeout is None:
            return
        now = time.monotonic()
        if self._idle_since is None:
            self._idle_since = now
            return
        stalled = now - self._idle_since
        if stalled >= timeout:
            depths = self._queue_depth_sample()
            self.close()
            raise WorkerStallError(
                stalled, timeout, depths, noun="shard worker(s)"
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
                "diverted": {},
                "rdone": set(),
                "advanced": None,
            }
        return state

    def _pump(
        self, block: bool = False, timeout: float | None = None
    ) -> None:
        """Drain the return queue, driving round phases and serving reads.

        Control messages ("ack", "fdone", "final") are stashed on
        ``self._ctl`` for whichever barrier loop is collecting them —
        never returned and dropped, because pumps also happen inside
        ``_put_checked`` retries; everything else is handled in place.
        """
        from repro.pipeline.validation import PRUNE_HORIZON_S

        if timeout is None:
            timeout = _poll_interval(self.stall_timeout_s)
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
                    self._blocked_tick()
                return
            self._idle_since = None
            block = False  # made progress: drain the rest lazily
            kind = msg[0]
            if kind == "bin":
                _, wid, rid, signals, advanced, reads, diverted, frame = msg
                if frame is not None:
                    self._live_frames[wid] = frame
                state = self._round(rid)
                state["bin"][wid] = signals
                state["reads"].update(reads)
                state["diverted"].update(diverted)
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
                        self.cache.prune(state["advanced"] - PRUNE_HORIZON_S)
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
            elif kind == "quar":
                # Every replica dead-letters the same broadcast batch:
                # count it once per signature.
                _, wid, signature, codec, payload, detail = msg
                if signature not in self._quar_seen:
                    _note_quarantine(self, signature, codec, payload, detail)
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
        then flow through the driver's classification → localisation →
        validation stages with plain linear-chain semantics (window,
        probe cache, reject list are all the real, single objects).
        A zero-signal round skips the stages entirely, matching the
        linear chain (its classification feed is a no-op without
        signals) while still releasing the workers.
        """
        import heapq

        from repro.core.monitor import signal_sort_key
        from repro.pipeline.events import SignalBatch

        round_began = time.perf_counter()
        bins = state["bin"]
        merged = list(
            heapq.merge(
                *(bins[w] for w in sorted(bins)), key=signal_sort_key
            )
        )
        candidates: list = []
        if merged:
            self.batches_routed += 1
            self.signals_routed += len(merged)
            self._baselines.reads = state["reads"]
            diverted = state["diverted"]
            registry = self._registry
            outs = [SignalBatch(signals=merged)]
            for stage in (
                self._classification,
                self._localisation,
                self._validation,
            ):
                handle = registry.stage(stage.name)
                nexts: list = []
                began = time.perf_counter()
                for element in outs:
                    nexts.extend(stage.feed(element))
                delta = time.perf_counter() - began
                handle.seconds += delta
                handle.hist.record(delta * 1e9 / max(1, len(outs)))
                handle.fed += len(outs)
                handle.batches += 1
                handle.emitted += len(nexts)
                outs = nexts
            candidates = outs
            for candidate in candidates:
                candidate.diverted_keys = frozenset(
                    diverted.get(candidate.classification.pop, ())
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

    def finalize(self, end_time: float | None) -> list:
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
            "localise": self._localisation.state_dict(),
            "validate": self._validation.state_dict(),
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
        same logical work (take worker 0).  Bin gauges: closes are
        lockstep (count from worker 0), the population gauges are
        per-share and sum to the global population, and close
        latencies sum (aggregate CPU across shares).
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
        composed.recovery.quarantined_batches = self.quarantined
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
        self._localisation.load_state(stages["localise"])
        self._validation.load_state(stages["validate"])
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
                handle.seconds = entry.seconds
        worker0_metrics = {
            "stages": [
                [m.name, m.fed, m.emitted, m.seconds]
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
        reap_workers(
            self._procs,
            (*self._in_qs, *self._sync_qs, self._ret_q),
            deadline_s=self.teardown_deadline_s,
        )

    def __repr__(self) -> str:
        return (
            f"ShardProcessPipeline(workers={self.workers},"
            f" batch={self.batch_size})"
        )


class _MonitoringView:
    """Facade stand-in for the monitoring stage of the shard workers."""

    def __init__(self, primed: int) -> None:
        self.primed = primed


class ShardProcessKeplerPipeline(CheckpointableChain):
    """Facade wrapper: the shard-process runtime behind the Kepler surface.

    The record stages are identical replicas across workers, so the
    record views decode worker 0's state after a drain barrier; the
    signal log and reject list are the driver's deterministically
    merged globals; the probe cache is the driver's.
    """

    def __init__(self, pipeline: ShardProcessPipeline) -> None:
        self.pipeline = pipeline
        self.cache = pipeline.cache
        self._finalized: list | None = None

    # -- facade views ---------------------------------------------------
    def _worker0_records(self) -> dict:
        return self.pipeline.sync(("record",))[0]["record"]

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
            for pop, record in self._worker0_records()["open"]
        }

    @property
    def signal_log(self) -> list:
        # Driver-side data: only quiescence is needed, not worker state.
        self.pipeline.sync()
        return self.pipeline.signal_log

    @property
    def rejected(self) -> list:
        # Driver-side, but rejects may still be in flight inside sync
        # rounds (or element batches in the tail buffer): drain first.
        self.pipeline.sync()
        return self.pipeline.rejected

    @property
    def monitoring(self) -> _MonitoringView:
        return _MonitoringView(self.pipeline.sync(("primed",))[0]["primed"])

    @property
    def metrics(self) -> PipelineMetrics:
        return self.pipeline._compose_metrics(self.pipeline.sync(("metrics",)))

    def metrics_live(self) -> dict:
        """Composed live snapshot without draining the workers."""
        return self.pipeline.metrics_live()

    def checkpoint_parts(self) -> dict:
        # Quiesce BEFORE the mixin serialises the shared views: the
        # reject list and probe cache are live driver objects, and
        # in-flight rounds (or the buffered element tail) may still
        # append to them — serialising first would snapshot stage
        # state and shared views from two different stream positions.
        self.pipeline.sync()
        return super().checkpoint_parts()

    # -- lifecycle ------------------------------------------------------
    def finalize_records(self, end_time: float | None = None) -> list:
        self._finalized = self.pipeline.finalize(end_time)
        return self._finalized

    def restore_parts(self, parts: dict) -> None:
        self._finalized = None
        super().restore_parts(parts)

    def close(self) -> None:
        self.pipeline.close()


def build_shard_process_kepler_pipeline(
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
    drop_rejected: bool = True,
    enable_investigation: bool = True,
    metrics: PipelineMetrics | None = None,
    workers: int = 2,
    *,
    batch_size: int,
) -> ShardProcessKeplerPipeline:
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

    registry = metrics or PipelineMetrics()
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
    runtime = ShardProcessPipeline(
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
    return ShardProcessKeplerPipeline(runtime)

"""Stand-alone per-layer probes.

Layers that run inside forked workers (codec, shm ring) or are not on
the chain of any end-to-end workload (watermark merge, checkpoints,
histogram record) cannot be reached by spans, so each gets a probe that
times the layer's public function on batches captured from the
workload's own stream.

The ROADMAP plans to delete some of these layers.  Every probe imports
its target inside the function, and :func:`run_probes` turns an
``ImportError`` / ``AttributeError`` into ``null`` metrics with the
reason, so a later deletion does not break the benchmark.
"""

from __future__ import annotations

import json
import marshal
import pickle
import statistics
import time

#: Elements per captured batch: the in-process chain's ``feed_chunk``.
BATCH = 4096
#: Captured batches per probe (taken from the middle of the stream).
N_BATCHES = 4
REPEATS = 3


class ProbeUnavailable(Exception):
    """The probed layer cannot take the captured batches."""


def _captured_batches(inputs) -> list[list]:
    elements = inputs.elements
    mid = max(0, len(elements) // 2 - BATCH * N_BATCHES // 2)
    return [
        chunk
        for start in range(mid, mid + BATCH * N_BATCHES, BATCH)
        if (chunk := elements[start : start + BATCH])
    ]


def _ns_per_elem(fn, batches: list, elems: int) -> float:
    """Median over REPEATS of: ns to run ``fn`` on every batch / elements."""
    runs = []
    for _ in range(REPEATS):
        began = time.perf_counter_ns()
        for batch in batches:
            fn(batch)
        runs.append((time.perf_counter_ns() - began) / elems)
    return statistics.median(runs)


def _packed_size(batch: tuple) -> int:
    try:
        return len(marshal.dumps(batch))
    except ValueError:
        return len(pickle.dumps(batch))


# ----------------------------------------------------------------------
def probe_serde(inputs, make_kepler) -> dict:
    from repro.core.input import InputModule
    from repro.core.serde import decode_batch, encode_batch, tag_elements_to_wire

    batches = _captured_batches(inputs)
    encoded = [encode_batch(batch) for batch in batches]
    elems = sum(len(batch) for batch in batches)
    tagger = InputModule(inputs.world.dictionary, inputs.world.colo)
    return {
        "serde.encode_ns_per_elem": _ns_per_elem(encode_batch, batches, elems),
        "serde.decode_ns_per_elem": _ns_per_elem(decode_batch, encoded, elems),
        "serde.tag_to_wire_ns_per_elem": _ns_per_elem(
            lambda b: tag_elements_to_wire(tagger, b), batches, elems
        ),
        "serde.batch_bytes_per_elem": sum(_packed_size(b) for b in encoded) / elems,
    }


def probe_shm(inputs, make_kepler) -> dict:
    """Ring put/get of ``process_batch``-sized frames, as the runtimes ship.

    ``try_put``, not ``put``: a frame larger than half the ring can never
    be published once the write cursor has passed the midpoint, even into
    an empty ring (found with 4096-element ``tagging_heavy`` batches), and
    the blocking ``put`` would spin on that forever.
    """
    from repro.core.kepler import KeplerParams
    from repro.core.serde import encode_batch
    from repro.pipeline.shm import ShmRing

    size = KeplerParams().process_batch
    encoded = [
        encode_batch(batch[start : start + size])
        for batch in _captured_batches(inputs)
        for start in range(0, len(batch), size)
    ]
    elems = sum(len(batch[0]) for batch in encoded)
    try:
        ring = ShmRing()
    except OSError as exc:  # no usable /dev/shm in this sandbox
        raise ProbeUnavailable(f"cannot create a shared-memory segment: {exc}")
    try:
        put_runs, get_runs, frame_bytes = [], [], 0
        for _ in range(REPEATS):
            put_ns = get_ns = frame_bytes = 0
            for seq, batch in enumerate(encoded):
                began = time.perf_counter_ns()
                if not ring.try_put(seq, batch):
                    raise ProbeUnavailable("empty shm ring refused a frame")
                put_ns += time.perf_counter_ns() - began
                frame_bytes += ring.occupancy()
                began = time.perf_counter_ns()
                frame = ring.get()
                frame.batch()
                frame.release()
                get_ns += time.perf_counter_ns() - began
            put_runs.append(put_ns / elems)
            get_runs.append(get_ns / elems)
    finally:
        ring.destroy()
    return {
        "shm.put_ns_per_elem": statistics.median(put_runs),
        "shm.get_ns_per_elem": statistics.median(get_runs),
        "shm.frame_bytes_per_elem": frame_bytes / elems,
    }


def probe_merge(inputs, make_kepler) -> dict:
    from repro.ingest.merge import WatermarkMerge

    feeds = 4
    elements = [e for batch in _captured_batches(inputs) for e in batch]
    per_feed: list[list] = [[] for _ in range(feeds)]
    for index, element in enumerate(elements):
        per_feed[index % feeds].append((element.sort_key(), element))
    runs, peak = [], 0
    for _ in range(REPEATS):
        merge = WatermarkMerge(feeds)
        merge.begin_run()
        released = 0
        began = time.perf_counter_ns()
        for start in range(0, len(elements) // feeds + 1, 512):
            for fid, entries in enumerate(per_feed):
                chunk = entries[start : start + 512]
                merge.push(fid, chunk, chunk[-1][0] if chunk else None)
            released += len(merge.release())
        for fid in range(feeds):
            merge.end_of_run(fid)
        released += len(merge.release())
        runs.append((time.perf_counter_ns() - began) / max(1, released))
        peak = merge.peak_buffered
    return {
        "merge.push_release_ns_per_elem": statistics.median(runs),
        "merge.peak_reorder_window": peak,
    }


def probe_checkpoint(inputs, make_kepler) -> dict:
    """``snapshot`` -> ``json.dumps`` -> ``restore`` at the stream midpoint."""
    source = make_kepler()
    target = make_kepler()
    try:
        source.prime(inputs.priming)
        source.process(inputs.elements[: len(inputs.elements) // 2])
        began = time.perf_counter()
        text = json.dumps(source.snapshot())
        snapshot_ms = (time.perf_counter() - began) * 1e3
        began = time.perf_counter()
        target.restore(json.loads(text))
        restore_ms = (time.perf_counter() - began) * 1e3
    finally:
        source.close()
        target.close()
    return {
        "checkpoint.snapshot_ms": snapshot_ms,
        "checkpoint.restore_ms": restore_ms,
        "checkpoint.doc_kb": len(text) / 1024.0,
    }


def probe_process_call(inputs, make_kepler) -> dict:
    """Fixed cost of a 1-element ``process`` call (no bin close inside)."""
    elements = inputs.elements
    first_bin = [e for e in elements[:4096] if e.time < elements[0].time + 60.0]
    kepler = make_kepler()
    try:
        kepler.prime(inputs.priming)
        calls = []
        for element in first_bin[:1024]:
            began = time.perf_counter_ns()
            kepler.process([element])
            calls.append(time.perf_counter_ns() - began)
    finally:
        kepler.close()
    return {"runtime.process_call_us": statistics.median(calls) / 1e3}


def probe_hist(inputs, make_kepler) -> dict:
    from repro.telemetry.hist import LogHistogram

    hist = LogHistogram()
    record = hist.record
    n = 200_000
    began = time.perf_counter_ns()
    for i in range(n):
        record(1e-6 * (1 + (i & 1023)))
    return {"telemetry.hist_record_ns": (time.perf_counter_ns() - began) / n}


#: (metric name -> unit, probe).  The names let a failed probe report
#: every one of its metrics as ``null``.
PROBES = (
    (
        {
            "serde.encode_ns_per_elem": "ns",
            "serde.decode_ns_per_elem": "ns",
            "serde.tag_to_wire_ns_per_elem": "ns",
            "serde.batch_bytes_per_elem": "B",
        },
        probe_serde,
    ),
    (
        {
            "shm.put_ns_per_elem": "ns",
            "shm.get_ns_per_elem": "ns",
            "shm.frame_bytes_per_elem": "B",
        },
        probe_shm,
    ),
    (
        {
            "merge.push_release_ns_per_elem": "ns",
            "merge.peak_reorder_window": "count",
        },
        probe_merge,
    ),
    (
        {
            "checkpoint.snapshot_ms": "ms",
            "checkpoint.restore_ms": "ms",
            "checkpoint.doc_kb": "KB",
        },
        probe_checkpoint,
    ),
    ({"runtime.process_call_us": "us"}, probe_process_call),
    ({"telemetry.hist_record_ns": "ns"}, probe_hist),
)


def run_probes(inputs, make_kepler) -> dict:
    """``name -> {"value", "unit"[, "reason"]}`` for every probe metric."""
    out: dict = {}
    for names, probe in PROBES:
        try:
            measured = probe(inputs, make_kepler)
        except (ImportError, AttributeError, ProbeUnavailable) as exc:
            reason = f"{probe.__name__}: {type(exc).__name__}: {exc}"
            for name, unit in names.items():
                out[name] = {"value": None, "unit": unit, "reason": reason}
            continue
        for name, unit in names.items():
            out[name] = {"value": measured[name], "unit": unit}
    return out

"""Spans recorded from the benchmark's side of the layer boundaries.

The program is not edited: a :class:`Tracer` wraps the public entry
points of each stage object of ``kepler.pipeline.stages`` and the
``Kepler`` facade methods *on the instances* the traced replay uses.
Each span has a name, a start, an end, the span that caused it (its
parent) and the id of the facade call it belongs to.  Spans stay in
memory; the harness writes them out when the run ends.

Self time of a span is its duration minus the part its children cover.
The facade spans' self time is the runtime's own dispatch cost (chunk
slicing, metering, the GC-threshold dance), which is how
``runtime.dispatch_share`` is measured.

Two things the stage spans cannot see are timed the same way, one
level further in, on public methods of ``kepler.monitor``:

* ``MonitorPartition.apply_events`` — the deferred per-bin fold, which
  runs *inside* the monitor stage's bin close — as ``monitor.fold``
  spans;
* ``PartitionedMonitor.close_bin`` — as a bare counter, because a
  sparse stream closes millions of bins and one span each would cost
  more than the close.  The cost of closing bins is then read off the
  monitor stage's bin-closing ``feed`` / ``flush`` calls: call time
  minus the fold inside it, over the bins the call closed — that is
  close + promote + the stage's per-bin metering, the whole price of a
  bin.
"""

from __future__ import annotations

import gc
import time
from array import array

#: Stage entry points the runtimes call (``pipeline.runtime``).
STAGE_ENTRY_POINTS = (
    "feed",
    "feed_batch",
    "feed_wire",
    "feed_wire_batch",
    "prepare_wire",
    "feed_run",
    "feed_wire_run",
    "flush",
)
FACADE_ENTRY_POINTS = ("prime", "process", "finalize", "snapshot", "restore")
#: Facade calls that make up the timed window of a replay.
TIMED_ROOTS = ("kepler.process", "kepler.finalize")


class Tracer:
    """In-memory span recorder for one single-threaded replay."""

    def __init__(self) -> None:
        #: (name, start_ns, end_ns, parent index or -1, call id)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._stack: list[int] = []
        self._call_id = 0
        self.fold_ns = 0
        self.close_count = 0
        #: per bin-closing monitor call: ns outside the fold, bins closed.
        self.close_call_ns = array("q")
        self.close_call_bins = array("q")

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, root: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if root:
                self._call_id += 1
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot: children come after
            stack.append(index)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans[index] = (name, began, ended, parent, self._call_id)

        return traced

    def _wrap_fold(self, fn):
        traced = self.wrap("monitor.fold", fn)
        clock = time.perf_counter_ns

        def fold(*args, **kwargs):
            began = clock()
            try:
                return traced(*args, **kwargs)
            finally:
                self.fold_ns += clock() - began

        return fold

    def _wrap_close(self, fn):
        def close_bin():
            self.close_count += 1
            return fn()

        return close_bin

    def _wrap_bin_call(self, fn):
        """Around the (already span-wrapped) monitor ``feed`` / ``flush``."""
        clock = time.perf_counter_ns

        def bin_call(*args):
            fold_before, closed_before = self.fold_ns, self.close_count
            began = clock()
            try:
                return fn(*args)
            finally:
                closed = self.close_count - closed_before
                if closed:
                    self.close_call_bins.append(closed)
                    self.close_call_ns.append(
                        clock() - began - (self.fold_ns - fold_before)
                    )

        return bin_call

    def bin_close_us(self) -> tuple[float, float]:
        """(mean, p99) microseconds per closed bin, fold excluded.

        A call that closed *k* bins counts as *k* bins of ``ns / k`` each.
        """
        bins = sum(self.close_call_bins)
        if not bins:
            return 0.0, 0.0
        per_bin = sorted(
            (ns / k, k) for ns, k in zip(self.close_call_ns, self.close_call_bins)
        )
        seen, p99 = 0, per_bin[-1][0]
        for value, k in per_bin:
            seen += k
            if seen >= 0.99 * bins:
                p99 = value
                break
        return sum(self.close_call_ns) / bins / 1e3, p99 / 1e3

    # ------------------------------------------------------------------
    def attach(self, kepler) -> list[str]:
        """Wrap ``kepler``'s facade and in-process stages; list misses.

        Stages living in forked workers are out of reach (the fork
        happened at construction); the returned list names what could
        not be wrapped so the harness can say where a number came from.
        """
        missing: list[str] = []
        for method in FACADE_ENTRY_POINTS:
            fn = getattr(kepler, method, None)
            if fn is None:
                missing.append(f"kepler.{method}")
                continue
            setattr(kepler, method, self.wrap(f"kepler.{method}", fn, root=True))
        stages = getattr(kepler.pipeline, "stages", None)
        if not isinstance(stages, list):
            missing.append("pipeline.stages")
            stages = []
        for stage in stages:
            for method in STAGE_ENTRY_POINTS:
                fn = getattr(stage, method, None)
                if fn is not None:
                    setattr(
                        stage, method, self.wrap(f"{stage.name}.{method}", fn)
                    )
        monitor = getattr(kepler, "monitor", None)
        partitions = getattr(monitor, "partitions", None)
        if partitions and hasattr(monitor, "close_bin"):
            for part in partitions:
                part.apply_events = self._wrap_fold(part.apply_events)
            monitor.close_bin = self._wrap_close(monitor.close_bin)
            for stage in stages:
                if getattr(stage, "monitor", None) is monitor:
                    stage.feed = self._wrap_bin_call(stage.feed)
                    stage.flush = self._wrap_bin_call(stage.flush)
        else:
            missing.append("monitor.close_bin/apply_events")
        return missing

    # ------------------------------------------------------------------
    def self_times(self, roots=TIMED_ROOTS) -> dict[str, list[int]]:
        """``name -> [calls, total_ns, self_ns]`` of the spans under ``roots``.

        The default keeps the timed window (``process`` + ``finalize``)
        and leaves out priming, which feeds the same stages.
        """
        child_ns = [0] * len(self.spans)
        root_name: list[str] = []
        for name, began, ended, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += ended - began
                root_name.append(root_name[parent])
            else:
                root_name.append(name)
        out: dict[str, list[int]] = {}
        for index, (name, began, ended, _, _) in enumerate(self.spans):
            if root_name[index] not in roots:
                continue
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += ended - began
            entry[2] += ended - began - child_ns[index]
        return out

    def columns(self) -> dict:
        """Columnar JSON form of the spans (what ``--out`` stores)."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start_ns": [s[1] for s in self.spans],
            "end_ns": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "call": [s[4] for s in self.spans],
        }


def layer_self_ns(times: dict[str, list[int]]) -> dict[str, int]:
    """Self time per layer (``tagging``, ``monitor``, ``kepler``...) from
    :meth:`Tracer.self_times`: a span name starts with its layer."""
    layers: dict[str, int] = {}
    for name, (_, _, self_ns) in times.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + self_ns
    return layers


class GcTimer:
    """Times cyclic collections from outside, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pauses_ns: list[int] = []
        self._began = 0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter_ns()
        elif self._began:
            self.pauses_ns.append(time.perf_counter_ns() - self._began)
            self._began = 0

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

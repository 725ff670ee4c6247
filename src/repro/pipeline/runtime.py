"""The staged streaming runtime.

A :class:`StagePipeline` owns an ordered stage list and threads every
element through it breadth-per-stage: all outputs of stage *i* are
computed, then passed on to stage *i+1* together.  Because stages are
synchronous and order-preserving, this is observationally equivalent
to depth-first threading (each output of stage *i* reaching stage
*i+1* before the next output of stage *i* is computed) — up to the
chain's ``depth_first`` barrier, from which each output clears the
rest of the chain before the barrier stage advances.

On the Kepler chain the barrier is the monitor and the stage just in
front of it is tagging.  Such a tagging → monitor pair is the chain's
*wire pair*, and it is the one way tagged rows reach the monitor: a
chunk is tagged into one :class:`~repro.core.serde.TaggedBatch`, and
the monitor folds its columns in place.  A chain without
a wire pair threads elements through the barrier one at a time.

Per-stage wall time and element counts are recorded into the shared
:class:`~repro.pipeline.metrics.PipelineMetrics` on every call —
including end-of-stream ``flush`` cost — so the cost profile of a run
is always available.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.stage import Stage


#: Elements threaded through the stage chain per ``feed_many`` chunk.
#: Large enough to amortise per-stage metering over thousands of
#: elements, small enough that inter-stage buffers stay cache-sized.
#: The tagged batch also dedups its output tables per chunk, so bigger
#: chunks raise the within-batch repeat rate of (path, tags) pairs.
FEED_CHUNK = 4096


class StagePipeline:
    """Composition of stages with metering.

    ``feed`` and ``feed_many`` share one path: stages in front of the
    wire pair run breadth-per-stage on the chunk, the wire pair tags it
    into one batch and drives the monitor over its column view
    (:meth:`_drive_wire_batch`), and every emission clears the rest of
    the chain before the monitor advances.
    """

    def __init__(
        self,
        stages: Iterable[Stage],
        metrics: PipelineMetrics | None = None,
        chunk_size: int = FEED_CHUNK,
    ) -> None:
        self.stages: list[Stage] = list(stages)
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.metrics = metrics or PipelineMetrics()
        self.chunk_size = chunk_size
        # Stage metric handles resolved once: the hot loop must not pay
        # a registry dict lookup per (stage, element-batch) call.  The
        # registry mutates these objects in place on load_state/reset,
        # so the handles stay live across checkpoint restores.
        self._metered: list[tuple[Stage, Any]] = [
            (stage, self.metrics.stage(stage.name)) for stage in self.stages
        ]
        # First stage that forbids batching across itself (its outputs
        # must clear the chain before its next input): feed_many runs
        # breadth-per-stage up to here, one element at a time after.
        self.barrier_index = len(self.stages)
        for index, stage in enumerate(self.stages):
            if getattr(stage, "depth_first", False):
                self.barrier_index = index
                break
        # Wire pair: the stage just before the barrier tags into
        # columnar batches (``feed_wire``/``feed_wire_batch``) and the
        # barrier stage consumes them as column views (``prepare_wire``
        # + ``feed_wire_run``) — no per-element objects between the two
        # hottest stages.
        self._wire_at = None
        barrier = self.barrier_index
        if 0 < barrier < len(self.stages):
            before = self.stages[barrier - 1]
            at = self.stages[barrier]
            if (
                hasattr(before, "feed_wire")
                and hasattr(before, "feed_wire_batch")
                and hasattr(at, "prepare_wire")
                and hasattr(at, "feed_wire_run")
            ):
                self._wire_at = barrier - 1

    # ------------------------------------------------------------------
    def feed(self, element: Any) -> list[Any]:
        """Push one element through all stages; return what falls out."""
        return self._feed_chunk([element])

    def feed_many(self, elements: Iterable[Any]) -> list[Any]:
        """Thread a whole element sequence through the chain, chunked.

        Elements travel in chunks of ``chunk_size`` so the per-stage
        metering and dispatch overhead is paid once per chunk rather
        than once per element.  Batching stops at the chain's
        ``depth_first`` barrier (the monitor in the Kepler chain):
        stages before it are pure stream transducers, so breadth-
        per-stage over a chunk is output-identical; from the barrier
        on, each emission clears the chain before the barrier stage's
        state advances further.
        """
        out: list[Any] = []
        size = self.chunk_size
        if type(elements) is list:
            # The common call (a materialised stream): slice chunks out
            # directly instead of copying element by element.
            for start in range(0, len(elements), size):
                out.extend(self._feed_chunk(elements[start : start + size]))
            return out
        chunk: list[Any] = []
        for element in elements:
            chunk.append(element)
            if len(chunk) >= size:
                out.extend(self._feed_chunk(chunk))
                chunk = []
        if chunk:
            out.extend(self._feed_chunk(chunk))
        return out

    def _feed_chunk(self, elements: list[Any]) -> list[Any]:
        """Thread one element chunk through the whole chain.

        Stages in front of the wire pair run breadth-per-stage on the
        chunk; with no wire pair, batching stops at the chain's
        ``depth_first`` barrier and each element clears the chain
        from there one at a time.
        """
        wire_at = self._wire_at
        if wire_at is not None:
            return self._drive_wire(self._run_span(0, wire_at, elements))
        barrier = self.barrier_index
        staged = self._run_span(0, barrier, elements)
        if barrier >= len(self.stages):
            return staged
        out: list[Any] = []
        for element in staged:
            out.extend(self._run(barrier, [element]))
        return out

    # ------------------------------------------------------------------
    # Wire pair: batch-native tagging + monitor fold
    # ------------------------------------------------------------------
    def _drive_wire(self, staged: list[Any]) -> list[Any]:
        """Tag a staged chunk into a batch and drive the barrier on it."""
        stage, metrics = self._metered[self._wire_at]
        began = time.perf_counter()
        batch = stage.feed_wire(staged)
        delta = time.perf_counter() - began
        metrics.seconds += delta
        metrics.fed += len(staged)
        metrics.batches += 1
        metrics.emitted += len(batch)
        if staged:
            metrics.hist.record(delta * 1e9 / len(staged))
        return self._drive_wire_batch(batch)

    def _drive_wire_batch(self, batch: tuple) -> list[Any]:
        """Run the barrier stage over a tagged batch's runs.

        Anything but a tagged batch (e.g. a raw columnar batch, whose
        update rows were never tagged) raises ``ValueError`` before
        any state or metric moves.
        """
        barrier = self.barrier_index
        stage, metrics = self._metered[barrier]
        began = time.perf_counter()
        view = stage.prepare_wire(batch)
        metrics.seconds += time.perf_counter() - began
        # Emitted batches clear the rest of the chain before the next
        # slot advances the barrier stage (the depth-first contract).
        # One ``feed_wire_run`` call counts as one metered batch (one
        # fold invocation).
        out: list[Any] = []
        feed_wire_run = stage.feed_wire_run
        slot, n = 0, len(view)
        while slot < n:
            began = time.perf_counter()
            outs, advanced = feed_wire_run(view, slot)
            delta = time.perf_counter() - began
            metrics.seconds += delta
            metrics.fed += advanced - slot
            metrics.batches += 1
            metrics.emitted += len(outs)
            if advanced > slot:
                metrics.hist.record(delta * 1e9 / (advanced - slot))
            slot = advanced
            if outs:
                out.extend(self._run(barrier + 1, outs))
        return out

    def flush(self) -> list[Any]:
        """Flush stages front to back, cascading trailing elements.

        Stage *i*'s flush output is fed through stages *i+1..n* before
        stage *i+1* itself is flushed, mirroring end-of-stream order.
        The flush itself is metered (time and emitted count) so
        end-of-stream cost — e.g. the monitor closing its trailing
        partial bin — shows up in the per-stage profile.
        """
        tail: list[Any] = []
        for index, (stage, metrics) in enumerate(self._metered):
            began = time.perf_counter()
            flushed = stage.flush()
            metrics.seconds += time.perf_counter() - began
            if flushed:
                metrics.emitted += len(flushed)
                tail.extend(self._run(index + 1, flushed))
        return tail

    # ------------------------------------------------------------------
    def _run(self, start: int, elements: list[Any]) -> list[Any]:
        return self._run_span(start, len(self.stages), elements)

    def _run_span(
        self, start: int, stop: int, elements: list[Any]
    ) -> list[Any]:
        current = elements
        for stage, metrics in self._metered[start:stop]:
            if not current:
                break
            feed_batch = getattr(stage, "feed_batch", None)
            began = time.perf_counter()
            if feed_batch is not None:
                produced: list[Any] = feed_batch(current)
            else:
                produced = []
                for element in current:
                    produced.extend(stage.feed(element))
            delta = time.perf_counter() - began
            metrics.seconds += delta
            metrics.fed += len(current)
            metrics.batches += 1
            metrics.emitted += len(produced)
            metrics.hist.record(delta * 1e9 / len(current))
            current = produced
        return current

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Per-stage state keyed by stage name, plus the metrics."""
        return {
            "stages": {
                stage.name: stage.state_dict() for stage in self.stages
            },
            "metrics": self.metrics.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        names = {stage.name for stage in self.stages}
        if set(state["stages"]) != names:
            raise ValueError(
                f"checkpoint stages {sorted(state['stages'])} do not match"
                f" pipeline stages {sorted(names)}"
            )
        for stage in self.stages:
            stage.load_state(state["stages"][stage.name])
        self.metrics.load_state(state["metrics"])

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        chain = " -> ".join(stage.name for stage in self.stages)
        return f"StagePipeline({chain})"

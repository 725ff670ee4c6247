"""The staged streaming runtime.

A :class:`StagePipeline` owns an ordered stage list and threads every
element through it breadth-per-stage: all outputs of stage *i* are
computed, then passed on to stage *i+1* together.  Because stages are
synchronous and order-preserving, this is observationally equivalent
to depth-first threading (each output of stage *i* reaching stage
*i+1* before the next output of stage *i* is computed).

On the Kepler chain the monitor and the tagging stage in front of it
form the chain's *wire pair*, and it is the one way tagged rows reach
the monitor: a chunk is tagged into one
:class:`~repro.core.serde.TaggedBatch`, and the monitor folds its
columns in place.  The localisation and record stages read the live
monitor, so each emission of the monitor clears the rest of the chain
before the monitor consumes its next row.  A stage that folds tagged
batches (``feed_wire_run``) needs a wire tagger (``feed_wire`` and
``feed_wire_batch``) just in front of it: anything else is refused at
construction.

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

    ``feed``, ``feed_many`` and ``flush`` share one path: stages in
    front of the wire pair run breadth-per-stage, the wire pair tags
    their output into one batch and drives the monitor over its column
    view (:meth:`_drive_wire_batch`), and every emission clears the
    rest of the chain before the monitor advances.
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
        # Wire pair: the tagger tags into columnar batches
        # (``feed_wire``/``feed_wire_batch``) and the monitor just
        # behind it consumes them as column views (``prepare_wire`` +
        # ``feed_wire_run``) — no per-element objects between the two
        # hottest stages.  ``_wire_at`` is the tagger's index.
        self._wire_at: int | None = None
        for index, stage in enumerate(self.stages):
            if not hasattr(stage, "feed_wire_run"):
                continue
            before = self.stages[index - 1] if index else None
            if not (
                hasattr(before, "feed_wire") and hasattr(before, "feed_wire_batch")
            ):
                raise ValueError(
                    f"stage {stage.name!r} folds tagged batches: it needs a"
                    " wire tagger (feed_wire, feed_wire_batch) just in front"
                )
            self._wire_at = index - 1
            break

    # ------------------------------------------------------------------
    def feed(self, element: Any) -> list[Any]:
        """Push one element through all stages; return what falls out."""
        return self._run(0, [element])

    def feed_many(self, elements: Iterable[Any]) -> list[Any]:
        """Thread a whole element sequence through the chain, chunked.

        Elements travel in chunks of ``chunk_size`` so the per-stage
        metering and dispatch overhead is paid once per chunk rather
        than once per element, and the wire pair tags each chunk into
        one batch.
        """
        out: list[Any] = []
        size = self.chunk_size
        if type(elements) is list:
            # The common call (a materialised stream): slice chunks out
            # directly instead of copying element by element.
            for start in range(0, len(elements), size):
                out.extend(self._run(0, elements[start : start + size]))
            return out
        chunk: list[Any] = []
        for element in elements:
            chunk.append(element)
            if len(chunk) >= size:
                out.extend(self._run(0, chunk))
                chunk = []
        if chunk:
            out.extend(self._run(0, chunk))
        return out

    # ------------------------------------------------------------------
    # Wire pair: batch-native tagging + monitor fold
    # ------------------------------------------------------------------
    def _drive_wire(self, staged: list[Any]) -> list[Any]:
        """Tag a staged chunk into a batch and drive the monitor on it."""
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
        """Run the monitor over a tagged batch's runs.

        Anything but a tagged batch (e.g. a raw columnar batch, whose
        update rows were never tagged) raises ``ValueError`` before
        any state or metric moves.
        """
        at = self._wire_at + 1
        stage, metrics = self._metered[at]
        began = time.perf_counter()
        view = stage.prepare_wire(batch)
        metrics.seconds += time.perf_counter() - began
        # Emitted batches clear the rest of the chain before the next
        # slot advances the monitor.  One ``feed_wire_run`` call counts
        # as one metered batch (one fold invocation).
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
                out.extend(self._run(at + 1, outs))
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
        """Thread ``elements`` through the stages from ``start`` on;
        in front of the wire pair, through the pair."""
        wire_at = self._wire_at
        if wire_at is not None and start <= wire_at:
            return self._drive_wire(self._run_span(start, wire_at, elements))
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

"""The Stage protocol: the unit of composition of the Kepler runtime.

A stage is a stream transducer.  ``feed`` consumes one element and
returns zero or more output elements *synchronously*; ``flush`` drains
any buffered state at end of stream.  Stages never call each other —
the :class:`~repro.pipeline.runtime.StagePipeline` threads elements
through them, which keeps every stage independently testable,
observable (see :mod:`repro.pipeline.metrics`) and checkpointable.

Contract:

* ``feed`` must be synchronous and deterministic for a given stage
  state — no wall-clock reads, no reordering of its own outputs;
* an element a stage does not understand must be **passed through
  unchanged** (``[element]``), so control markers such as
  :class:`~repro.pipeline.events.BinAdvanced` reach downstream stages;
* ``flush`` may emit trailing elements but must leave the stage in a
  state where further ``feed`` calls are still legal.

The tagging and monitoring stages are the exception: they form the
chain's *wire pair*, take chunks and tagged batches through their own
entry points, and refuse stream elements (see
:mod:`repro.pipeline.runtime`).
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class Stage(Protocol):
    """What the pipeline runtime needs from a stage.

    ``state_dict`` must return a JSON-serialisable dict capturing every
    piece of state that affects future ``feed``/``flush`` output;
    ``load_state`` must restore it such that the restored stage
    continues the stream exactly as the original would have.  Together
    they make a pipeline snapshot a plain JSON document (see
    :meth:`repro.core.kepler.Kepler.snapshot`).
    """

    #: stable identifier used by the metrics registry.
    name: str

    def feed(self, element: Any) -> list[Any]:
        """Consume one element; return the resulting output elements."""
        ...

    def flush(self) -> list[Any]:
        """Drain buffered state at end of stream."""
        ...

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the stage's mutable state."""
        ...

    def load_state(self, state: dict) -> None:
        """Restore the state captured by :meth:`state_dict`."""
        ...


class PassthroughStage:
    """Base class implementing the pass-through/no-op contract."""

    name = "passthrough"

    def feed(self, element: Any) -> list[Any]:
        return [element]

    def flush(self) -> list[Any]:
        return []

    def state_dict(self) -> dict:
        return {}

    def load_state(self, state: dict) -> None:
        del state

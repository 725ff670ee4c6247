"""Tagging stage: the input module as a pipeline stage (Section 4.1).

Wraps :class:`repro.core.input.InputModule`: sanitizes each update's AS
path and maps its communities to PoPs.  State messages pass through
untouched — the monitoring stage consumes them for feed-gap handling.
Updates the sanitizer rejects are dropped here, ending their journey
through the pipeline, and so are RIB paths that carry no tag.

The stage tags whole chunks: :meth:`~TaggingStage.feed_wire` returns
one :class:`~repro.core.serde.TaggedBatch` per chunk of admitted
stream objects, which the monitoring stage folds in place; anything
ingest does not admit raises ``TypeError``.  Shard workers tag their
columnar wire batches with :func:`~repro.core.serde.tag_wire_batch`.
"""

from __future__ import annotations

from typing import Any

from repro.core.input import InputModule
from repro.core.serde import TaggedBatch, tag_elements_to_wire


class TaggingStage:
    """Stream chunk -> tagged batch, via the community dictionary."""

    name = "tagging"

    def __init__(self, input_module: InputModule) -> None:
        self.input = input_module

    def feed_wire(self, elements: list[Any]) -> TaggedBatch:
        """Tag a chunk of admitted stream objects into a tagged batch.

        The monitoring stage folds the batch's columns, so no tagged
        row ever becomes an object.
        """
        return tag_elements_to_wire(self.input, elements)

    def state_dict(self) -> dict:
        return {
            "parsed_count": self.input.parsed_count,
            "discarded_count": self.input.discarded_count,
        }

    def load_state(self, state: dict) -> None:
        self.input.parsed_count = state["parsed_count"]
        self.input.discarded_count = state["discarded_count"]

"""Tagging stage: the input module as a pipeline stage (Section 4.1).

Wraps :class:`repro.core.input.InputModule`: sanitizes each update's AS
path and maps its communities to PoPs.  State messages pass through
untouched — the monitoring stage consumes them for feed-gap handling.
Updates the sanitizer rejects are dropped here, ending their journey
through the pipeline, and so are RIB paths that carry no tag.

:meth:`TaggingStage.feed` is the per-element form (one
:class:`~repro.core.input.TaggedPath` or
:class:`~repro.pipeline.events.PrimedPath` per element) and the
reference the batch taggers are tested against.  On the chain the
stage tags whole chunks: :meth:`~TaggingStage.feed_wire` over stream
objects and :meth:`~TaggingStage.feed_wire_batch` over a columnar wire
batch, each returning one :class:`~repro.core.serde.TaggedBatch` that
the monitoring stage folds in place.  The chunk forms take only what
ingest admits and raise ``TypeError`` on anything else: nothing passes
through the tagging → monitor pair untagged.
"""

from __future__ import annotations

from typing import Any

from repro.bgp.messages import BGPStateMessage, BGPUpdate
from repro.core.input import InputModule
from repro.core.serde import TaggedBatch, tag_elements_to_wire, tag_wire_batch
from repro.pipeline.events import PrimedPath, PrimingUpdate
from repro.pipeline.stage import PassthroughStage


class TaggingStage(PassthroughStage):
    """BGPUpdate -> TaggedPath, via the community dictionary."""

    name = "tagging"

    def __init__(self, input_module: InputModule) -> None:
        self.input = input_module

    def feed(self, element: Any) -> list[Any]:
        if isinstance(element, PrimingUpdate):
            # RIB-snapshot path: tag it like any update, but keep the
            # priming envelope so the monitor installs it directly
            # instead of treating it as stream traffic.  Untaggable
            # paths cannot seed a PoP baseline and end here.
            tagged = self.input.process(element.update)
            if tagged is None or not tagged.tags:
                return []
            return [PrimedPath(tagged)]
        if isinstance(element, BGPStateMessage):
            return [element]
        if isinstance(element, BGPUpdate):
            tagged = self.input.process(element)
            return [] if tagged is None else [tagged]
        return [element]

    def feed_wire(self, elements: list[Any]) -> TaggedBatch:
        """Tag a chunk of admitted stream objects into a tagged batch.

        Same counting as :meth:`feed` per element, but the output is
        columns instead of a ``TaggedPath`` list — the monitoring stage
        folds the batch's columns and only the rows that leave the
        fold (bin closers, primed paths) ever become objects.
        """
        return tag_elements_to_wire(self.input, elements)

    def feed_wire_batch(self, batch: tuple) -> TaggedBatch:
        """Tag a columnar wire batch column to column into a tagged batch."""
        return tag_wire_batch(self.input, batch)

    def state_dict(self) -> dict:
        return {
            "parsed_count": self.input.parsed_count,
            "discarded_count": self.input.discarded_count,
        }

    def load_state(self, state: dict) -> None:
        self.input.parsed_count = state["parsed_count"]
        self.input.discarded_count = state["discarded_count"]

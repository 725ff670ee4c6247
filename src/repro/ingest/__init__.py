"""Sharded collector ingest: per-feed admission and watermark merge.

The paper's deployment leans on BGPStream to unify per-collector
feeds into one sorted stream (Section 4.1); a production-scale
detector watching many live collectors needs that unification to be a
*tier*, not a hop — per-collector feed workers admitting and
accounting locally, a watermark merge releasing a deterministic
sorted stream, bounded queues turning a slow collector into
backpressure instead of silent reordering.

* :mod:`repro.ingest.feed` — feed assignment (:func:`feed_of`), the
  per-collector splitter, the forked feed worker loop and the
  in-driver merge of the same sources where the platform cannot fork;
* :mod:`repro.ingest.merge` — :class:`WatermarkMerge`, the pure
  deterministic release core with the documented ``(sort key, feed)``
  tie-break and late-element accounting;
* :mod:`repro.ingest.tier` — :class:`IngestTier` (forked runs over
  either chain runtime) and the :class:`IngestKeplerPipeline` facade
  wrapper built by ``KeplerParams(ingest_feeds=N)``.
"""

from repro.ingest.feed import feed_of, split_by_collector
from repro.ingest.merge import WatermarkMerge
from repro.ingest.tier import (
    IngestKeplerPipeline,
    IngestTier,
    build_ingest_kepler_pipeline,
)

__all__ = [
    "IngestKeplerPipeline",
    "IngestTier",
    "WatermarkMerge",
    "build_ingest_kepler_pipeline",
    "feed_of",
    "split_by_collector",
]

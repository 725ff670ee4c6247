"""Checkpoint composition and layout conversion for every runtime.

:class:`repro.core.kepler.Kepler` snapshots through one uniform
surface — ``checkpoint_parts()`` / ``restore_parts()`` — so the facade
does not need to know where the underlying state lives.  For the
in-process chain the parts come straight off the live objects; the
multiprocess runtimes override both methods to run their
drain-barrier protocols and compose the same documents from their
worker processes (:mod:`repro.pipeline.parallel`).

The second half of this module makes checkpoints **layout-free**: the
linear pipeline document is the canonical form every runtime writes
and restores, so ``Kepler.restore`` accepts any snapshot into any
runtime.  A document the retired thread-sharded runtime wrote
(``shards >= 2``) is still read: it merges into the linear form under
explicit sort keys, losslessly up to observability counters (see
:func:`linearize_pipeline_state`).
"""

from __future__ import annotations

#: Stages the retired sharded layout kept in its shared upstream chain.
_UPSTREAM_STAGES = ("ingest", "tagging", "monitor")


class CheckpointableChain:
    """Mixin: checkpoint parts off live ``rejected``/``cache``/``pipeline``.

    The three attributes are provided by the concrete wrapper
    (:class:`~repro.pipeline.KeplerPipeline`).  The reject list is
    shared by reference between stages, so restore mutates it in
    place — every holder observes the restored content.
    """

    def checkpoint_parts(self) -> dict:
        from repro.core.serde import classification_to_json

        return {
            "rejected": [
                classification_to_json(c) for c in self.rejected
            ],
            "cache": self.cache.state_dict(),
            "pipeline": self.pipeline.state_dict(),
        }

    def restore_parts(self, parts: dict) -> None:
        from repro.core.serde import classification_from_json

        self.rejected[:] = [
            classification_from_json(c) for c in parts["rejected"]
        ]
        self.cache.load_state(parts["cache"])
        self.pipeline.load_state(parts["pipeline"])


# ----------------------------------------------------------------------
# Canonical sort keys over serialised (JSON-shaped) state
# ----------------------------------------------------------------------
def signal_json_key(signal: dict) -> tuple:
    return (signal["bin_start"], signal["pop"], signal["near_asn"])


def _record_json_key(record: dict) -> tuple:
    # Mid-stream record lists are chronological in close order; within
    # one close evaluation records close in located-PoP order.  Open
    # (end=None) records only appear after a finalize and sort last.
    end = record["end"]
    return (end is None, end if end is not None else 0.0, record["start"],
            record["located_pop"])


# ----------------------------------------------------------------------
# Layout conversion
# ----------------------------------------------------------------------
def convert_pipeline_state(state: dict, from_shards: int) -> dict:
    """The linear pipeline document of a checkpoint's pipeline section.

    ``from_shards`` is the document's ``shards`` field: ``0`` is the
    linear layout every runtime writes and passes through; ``N >= 2``
    is the layout of the retired thread-sharded runtime, read by
    :func:`linearize_pipeline_state`.  The shape is checked first, so
    a malformed document raises ``ValueError`` naming the field before
    any of it is loaded.
    """
    if type(from_shards) is not int or from_shards < 0 or from_shards == 1:
        raise ValueError(
            f"checkpoint field 'shards' must be 0 or an integer >= 2,"
            f" not {from_shards!r}"
        )
    required = (
        ("upstream", "chains", "signal_log")
        if from_shards
        else ("stages", "metrics")
    )
    for name in required:
        if not isinstance(state, dict) or name not in state:
            raise ValueError(
                f"checkpoint pipeline section (shards={from_shards})"
                f" lacks {name!r}"
            )
    return linearize_pipeline_state(state) if from_shards else state


def linearize_pipeline_state(state: dict) -> dict:
    """Merge a sharded pipeline document into the linear canonical form.

    Every merge is deterministic under an explicit key: classification
    windows interleave by (bin_start, PoP, AS) — the monitor's
    documented emission order, so the merged window reproduces the
    linear chain's insertion order — and record lists interleave by
    close time then located PoP, the order the linear record stage
    appends them.  Two observability-only fields do not survive the
    round trip: the shard router's counters (the linear chain has no
    router) and the per-chain metrics split (folded into one registry).
    """
    from repro.pipeline.metrics import PipelineMetrics

    upstream = state["upstream"]
    chains = state["chains"]
    stages: dict = {
        name: upstream["stages"][name] for name in _UPSTREAM_STAGES
    }

    windows: list[dict] = []
    log_leftover: list[dict] = []
    records: list[dict] = []
    open_records: list = []
    tracked: list = []
    watch: list = []
    for chain in chains:
        windows.extend(chain["classify"]["window"])
        log_leftover.extend(chain["classify"]["signal_log"])
        records.extend(chain["record"]["records"])
        open_records.extend(chain["record"]["open"])
        tracked.extend(chain["record"]["tracked"])
        watch.extend(chain["record"]["watch"])
    windows.sort(key=signal_json_key)
    records.sort(key=_record_json_key)
    open_records.sort(key=lambda item: item[0])
    tracked.sort(key=lambda item: item[0])
    watch.sort(key=lambda item: item[0])
    # The runtime drains per-chain signal logs into the global log at
    # every batch, so the per-chain leftovers are empty at any barrier;
    # a hand-edited document could carry entries, which we preserve at
    # the log tail in PoP order rather than silently dropping.
    log_leftover.sort(key=lambda c: c["pop"])
    stages["classify"] = {
        "signal_log": list(state["signal_log"]) + log_leftover,
        "window": windows,
    }
    stages["localise"] = {}
    stages["validate"] = {}
    stages["record"] = {
        "records": records,
        "open": open_records,
        "tracked": tracked,
        "watch": watch,
    }

    metrics = PipelineMetrics()
    metrics.load_state(upstream["metrics"])
    metrics.stages.pop("route", None)
    scratch = PipelineMetrics()
    for chain in chains:
        scratch.load_state(chain["metrics"])
        metrics.absorb(scratch)
    return {"stages": stages, "metrics": metrics.state_dict()}


# ----------------------------------------------------------------------
# Telemetry stripping: the byte-identity comparison surface
# ----------------------------------------------------------------------
def strip_checkpoint_telemetry(doc: dict) -> dict:
    """A deep copy of a snapshot with wall-clock telemetry removed.

    Checkpoint documents of one runtime are byte-identical across
    faulted and unfaulted runs (the supervision layer's property)
    *except* for the wall-clock fields: per-stage ``seconds`` and the
    bin-close latency gauges, which measure the run rather than the
    stream (a recovery replay legitimately pays the stage time twice).
    This helper removes exactly those fields so the chaos suite can
    assert equality on everything else.  Across runtimes the stripped
    documents agree on the stage states, cache and rejects, but the
    shard-process document also differs from the linear one in the
    per-stage ``fed``/``emitted`` counters after the monitor (its
    driver analysis is fed one merged batch per bin): compare a
    shard-process document against another shard-process run's.

    Accepts a full :meth:`repro.core.kepler.Kepler.snapshot` document
    or a bare ``checkpoint_parts`` dict.
    """
    import copy

    doc = copy.deepcopy(doc)
    pipeline = doc["pipeline"] if "pipeline" in doc else doc
    metrics = pipeline["metrics"]
    metrics["stages"] = [
        [name, fed, emitted] for name, fed, emitted, _ in metrics["stages"]
    ]
    bins = metrics["bins"]
    bins.pop("total_latency_s", None)
    bins.pop("max_latency_s", None)
    return doc

"""Checkpoint composition for every runtime.

:class:`repro.core.kepler.Kepler` snapshots through one uniform
surface — ``checkpoint_parts()`` / ``restore_parts()`` — so the facade
does not need to know where the underlying state lives.  For the
in-process chain the parts come straight off the live objects; the
multiprocess runtime overrides both methods to run its drain-barrier
protocol and compose the same document from its worker processes
(:mod:`repro.pipeline.parallel`).  Checkpoints are therefore
**layout-free**: the linear pipeline document is the one form every
runtime writes and restores, so ``Kepler.restore`` accepts any
snapshot into any runtime.
"""

from __future__ import annotations


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


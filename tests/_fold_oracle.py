"""Section 4.2's per-row transition, written with dicts and sets.

The fold slice of ROADMAP item 2a's executable spec: what one admitted
tagged row does to the monitor's in-bin state — the stable baseline,
the stability candidates, the bin's divergences and Section 4.4's
return tracking.  No interning, masks, caches or skip path: each rule
is one statement.  ``OutageMonitor.apply_events`` is checked against
it (``tests/test_core_monitor.py::TestFoldOracle``).

The oracle stops at the bin: promotion, bin close and signals are not
part of it.
"""

from __future__ import annotations

from repro.bgp.messages import ElemType
from repro.core.monitor import partition_of
from repro.core.serde import key_to_json, pop_to_json


class FoldOracle:
    """In-bin monitor state of one stream, one rule per statement."""

    def __init__(self, share: tuple[int, int] | None = None) -> None:
        self.share = share
        #: pop -> key -> (near, far, since, path ASes)
        self.baseline: dict = {}
        #: (pop, key) -> (near, far, since, path ASes)
        self.pending: dict = {}
        #: pop -> keys that left the baseline path this bin
        self.diverted: dict = {}
        #: pop -> (tracked keys, keys seen back at the pop)
        self.tracking: dict = {}
        #: (collector, peer) pairs in a feed gap
        self.gapped: set = set()

    def owns(self, pop) -> bool:
        share = self.share
        return share is None or partition_of(pop, share[1]) == share[0]

    # ------------------------------------------------------------------
    def prime(self, tagged) -> None:
        """A table-dump path joins the baseline at each owned PoP."""
        for tag in tagged.tags:
            if self.owns(tag.pop):
                self.baseline.setdefault(tag.pop, {})[tagged.key] = (
                    tag.near_asn,
                    tag.far_asn,
                    tagged.time,
                    frozenset(tagged.as_path[1:]),
                )

    def session(self, peer: tuple[str, int], lost: bool) -> None:
        if lost:
            self.gapped.add(peer)
        else:
            self.gapped.discard(peer)

    def start_tracking(self, pop, keys) -> None:
        tracked, _ = self.tracking.setdefault(pop, (set(), set()))
        tracked.update(keys)

    def stop_tracking(self, pop) -> None:
        self.tracking.pop(pop, None)

    def row(self, tagged) -> None:
        """One stream row: admission, then the transition."""
        key = tagged.key
        if (key[0], key[1]) in self.gapped:
            return  # a gapped peer's rows never reach the fold
        withdrawn = tagged.elem_type is ElemType.WITHDRAWAL
        tagged_pops = {tag.pop for tag in tagged.tags}
        # Divergence: a baseline path that is withdrawn, or whose
        # communities no longer tag the PoP.
        for pop, entries in self.baseline.items():
            if key in entries and (withdrawn or pop not in tagged_pops):
                self.diverted.setdefault(pop, set()).add(key)
        # Return tracking: a tracked path is back while it is tagged
        # with the PoP again, and not back otherwise.
        for pop, (tracked, returned) in self.tracking.items():
            if key in tracked:
                if not withdrawn and pop in tagged_pops:
                    returned.add(key)
                else:
                    returned.discard(key)
        if withdrawn:
            # A withdrawal ends every stability candidate of the path.
            for pop_key in [pk for pk in self.pending if pk[1] == key]:
                del self.pending[pop_key]
            return
        for tag in tagged.tags:
            if not self.owns(tag.pop):
                continue
            if key in self.baseline.get(tag.pop, {}):
                # Already stable at the PoP: no candidacy to keep.
                self.pending.pop((tag.pop, key), None)
            elif (tag.pop, key) not in self.pending:
                # A new candidate keeps its first-seen time.
                self.pending[(tag.pop, key)] = (
                    tag.near_asn,
                    tag.far_asn,
                    tagged.time,
                    frozenset(tagged.as_path[1:]),
                )
        # A candidate at a PoP the path no longer carries is dropped.
        for pop_key in [
            pk for pk in self.pending if pk[1] == key and pk[0] not in tagged_pops
        ]:
            del self.pending[pop_key]

    # ------------------------------------------------------------------
    def sections(self) -> dict:
        """The ``state_dict()`` sections the fold writes, in its shape."""

        def entry(value) -> list:
            near, far, since, ases = value
            return [near, far, since, sorted(ases)]

        return {
            "baseline": sorted(
                [
                    pop_to_json(pop),
                    sorted([key_to_json(k), entry(v)] for k, v in entries.items()),
                ]
                for pop, entries in self.baseline.items()
            ),
            "pending": sorted(
                [pop_to_json(pop), key_to_json(key), entry(value)]
                for (pop, key), value in self.pending.items()
            ),
            "diverted": sorted(
                [pop_to_json(pop), sorted(key_to_json(k) for k in keys)]
                for pop, keys in self.diverted.items()
            ),
            "tracking": sorted(
                [
                    pop_to_json(pop),
                    sorted(key_to_json(k) for k in tracked),
                    sorted(key_to_json(k) for k in returned),
                ]
                for pop, (tracked, returned) in self.tracking.items()
            ),
        }

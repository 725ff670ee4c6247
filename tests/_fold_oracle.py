"""Section 4.2's per-row transition, written with dicts and sets.

The fold slice of ROADMAP item 2a's executable spec: what one admitted
tagged row does to the monitor's in-bin state — the stable baseline,
the stability candidates, the bin's divergences and the report on the
paths open outages watch (Section 4.4's return rule is the record
stage's; the monitor only says what the latest row of a watched path
tagged).  No interning, masks, caches or skip path: each rule is one
statement.  ``OutageMonitor.apply_events`` is checked against
it (``tests/test_core_monitor.py::TestFoldOracle``).

Past the fold it states the bin-close slice: the per-AS signals a
bin close raises (:meth:`FoldOracle.signals`), and what it does to the
baseline and the candidates (:meth:`FoldOracle.close_bin`,
:meth:`FoldOracle.promote`).  ``TestPromotionOracle`` and
``TestBinCloseOracle`` hold ``OutageMonitor.close_bin`` to it.
"""

from __future__ import annotations

from repro.bgp.messages import ElemType
from repro.core.events import OutageSignal
from repro.core.monitor import (
    DEFAULT_T_FAIL,
    STABLE_WINDOW_S,
    partition_of,
    pop_sort_key,
)
from repro.core.serde import key_to_json, pop_to_json


class FoldOracle:
    """In-bin monitor state of one stream, one rule per statement."""

    def __init__(
        self,
        share: tuple[int, int] | None = None,
        stable_window_s: float = STABLE_WINDOW_S,
        t_fail: float = DEFAULT_T_FAIL,
    ) -> None:
        self.share = share
        self.stable_window_s = stable_window_s
        self.t_fail = t_fail
        #: pop -> key -> (near, far, since)
        self.baseline: dict = {}
        #: (pop, key) -> (near, far, since)
        self.pending: dict = {}
        #: pop -> keys that left the baseline path this bin
        self.diverted: dict = {}
        #: (pop, key) -> open watches on it
        self.watched: dict = {}
        #: (pop, key) -> whether its latest row since the last report
        #: tagged the pop
        self.reported: dict = {}
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
                )

    def session(self, peer: tuple[str, int], lost: bool) -> None:
        if lost:
            self.gapped.add(peer)
        else:
            self.gapped.discard(peer)

    def watch(self, pop, keys) -> None:
        """One more watch on each (pop, key)."""
        for key in keys:
            self.watched[pop, key] = self.watched.get((pop, key), 0) + 1

    def unwatch(self, pop, keys) -> None:
        """One watch fewer; a pair is watched until its last release."""
        for key in keys:
            self.watched[pop, key] -= 1
            if not self.watched[pop, key]:
                del self.watched[pop, key]

    def report(self) -> dict:
        """Hand over the verdicts gathered since the last report."""
        reported, self.reported = self.reported, {}
        return reported

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
        # Watched paths: the report keeps whether the latest row
        # tagged the watching PoP.
        for pop, watched_key in self.watched:
            if watched_key == key:
                self.reported[pop, key] = not withdrawn and pop in tagged_pops
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
                )
        # A candidate at a PoP the path no longer carries is dropped.
        for pop_key in [
            pk for pk in self.pending if pk[1] == key and pk[0] not in tagged_pops
        ]:
            del self.pending[pop_key]

    # ------------------------------------------------------------------
    def promote(self, now: float) -> None:
        """Every candidate seen for the stable window joins the baseline."""
        for pop, key in [
            pk for pk, value in self.pending.items()
            if value[2] <= now - self.stable_window_s
        ]:
            self.baseline.setdefault(pop, {})[key] = self.pending.pop((pop, key))

    def signals(self, bin_start: float, bin_end: float) -> list:
        """The bin's per-AS signals (Section 4.2: "we group the paths
        based on the ASes that are involved in the tagged links and
        determine outages per AS").

        At each PoP with diverted paths, every AS groups the baseline
        paths whose tagged link it is the near- or far-end AS of.  A
        gapped peer's paths are missing data, so they count in neither
        the diverted paths nor the group.  An AS signals when the
        diverted share of its group reaches ``t_fail``.  Signals come
        in (PoP, AS) order and list the diverted paths sorted.
        """
        out = []
        for pop in sorted(self.diverted, key=pop_sort_key):
            live = {
                key: entry
                for key, entry in self.baseline.get(pop, {}).items()
                if (key[0], key[1]) not in self.gapped
            }
            changed = self.diverted[pop] & live.keys()
            ases = {asn for near, far, _ in live.values() for asn in (near, far)}
            for asn in sorted(ases - {None}):
                group = {
                    key for key, (near, far, _) in live.items() if asn in (near, far)
                }
                hit = sorted(changed & group)
                if hit and len(hit) / len(group) >= self.t_fail:
                    out.append(
                        OutageSignal(
                            pop=pop,
                            near_asn=asn,
                            bin_start=bin_start,
                            bin_end=bin_end,
                            diverted_paths=len(hit),
                            baseline_paths=len(group),
                            links=frozenset(live[key][:2] for key in hit),
                            keys=tuple(hit),
                        )
                    )
        return out

    def close_bin(self, bin_start: float, bin_end: float) -> list:
        """Close the bin: its signals, then the bin's changed paths
        leave the baseline ("after each binning interval, we remove the
        changed paths from the set of stable paths") — except a gapped
        peer's, whose change is absence of data — then the candidates
        due at the bin end are promoted.  Returns the signals."""
        signals = self.signals(bin_start, bin_end)
        for pop, keys in self.diverted.items():
            entries = self.baseline.get(pop, {})
            for key in keys:
                if (key[0], key[1]) not in self.gapped:
                    entries.pop(key, None)
            if not entries:
                self.baseline.pop(pop, None)
        self.diverted.clear()
        self.promote(bin_end)
        return signals

    # ------------------------------------------------------------------
    def sections(self) -> dict:
        """The ``state_dict()`` sections the fold writes, in its shape."""
        return {
            "baseline": sorted(
                [
                    pop_to_json(pop),
                    sorted([key_to_json(k), list(v)] for k, v in entries.items()),
                ]
                for pop, entries in self.baseline.items()
            ),
            "pending": sorted(
                [pop_to_json(pop), key_to_json(key), list(value)]
                for (pop, key), value in self.pending.items()
            ),
            "diverted": sorted(
                [pop_to_json(pop), sorted(key_to_json(k) for k in keys)]
                for pop, keys in self.diverted.items()
            ),
        }

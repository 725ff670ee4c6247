"""Equivalence: the staged pipeline reproduces the monolithic detector.

Seed scenarios are replayed twice — through the frozen pre-refactor
``LegacyKepler`` (tests/_legacy_kepler.py) and through the pipeline-
backed :class:`repro.core.kepler.Kepler` facade — and the finalized
``OutageRecord`` lists must be identical field by field, on multiple
scenario worlds with distinct seeds, with and without a (deterministic)
data-plane validator.
"""

from __future__ import annotations

import pytest

from _legacy_kepler import LegacyKepler
from repro.core.dataplane import ValidationOutcome
from repro.core.kepler import Kepler, KeplerParams
from repro.docmine.dictionary import PoP
from repro.routing.events import (
    ASFailure,
    FacilityFailure,
    FacilityRecovery,
    IXPFailure,
    IXPRecovery,
    PartialFacilityFailure,
    PartialFacilityRecovery,
)
from repro.scenarios import World, build_world
from repro.topology.builder import WorldParams

# Defined locally (not imported from conftest: the bare `conftest`
# module name is ambiguous between tests/ and benchmarks/ when pytest
# runs from the repository root).
FIRST_WORLD = WorldParams(
    seed=7,
    n_tier1=5,
    n_tier2=20,
    n_access=60,
    n_content=18,
    n_facilities=50,
    n_ixps=12,
)

SECOND_WORLD = WorldParams(
    seed=11,
    n_tier1=4,
    n_tier2=18,
    n_access=50,
    n_content=14,
    n_facilities=40,
    n_ixps=10,
)


class DeterministicValidator:
    """Stateless data-plane stub: outcome is a pure function of input.

    Deterministic across processes (no salted ``hash``), so legacy and
    pipeline runs observe identical probe results — including the
    legacy path's duplicate probe of a (PoP, bin), which the pipeline
    memoises away.
    """

    def __init__(self) -> None:
        self.calls = 0

    def validate(self, pop: PoP, time: float) -> ValidationOutcome:
        self.calls += 1
        digest = sum(ord(ch) for ch in f"{pop.kind.value}:{pop.pop_id}")
        digest = (digest + int(time) // 60) % 5
        if digest == 0:
            return ValidationOutcome.REJECTED
        if digest in (1, 2):
            return ValidationOutcome.CONFIRMED
        return ValidationOutcome.INCONCLUSIVE

    def restored_fraction(self, pop: PoP, time: float) -> float | None:
        return None


def outage_events(world: World) -> list[tuple[float, object]]:
    """A diverse event mix: full, oscillating, partial, non-infra."""
    fac_ids = sorted(
        f
        for f, tenants in world.topo.facility_tenants.items()
        if len(tenants) >= 8
    )
    ixp_ids = sorted(
        i for i, members in world.topo.ixp_members.items() if len(members) >= 8
    )
    tier1 = sorted(world.topo.ases)[0]
    events: list[tuple[float, object]] = [
        (10_000.0, FacilityFailure(fac_ids[0])),
        (14_000.0, FacilityRecovery(fac_ids[0])),
        (20_000.0, ASFailure(tier1)),
    ]
    if len(fac_ids) > 1:
        tenants = tuple(sorted(world.topo.facility_tenants[fac_ids[1]]))
        events += [
            (26_000.0, PartialFacilityFailure(fac_ids[1], tenants[: len(tenants) // 2])),
            (30_000.0, PartialFacilityRecovery(fac_ids[1], tenants[: len(tenants) // 2])),
        ]
    if ixp_ids:
        events += [
            (36_000.0, IXPFailure(ixp_ids[0])),
            (38_000.0, IXPRecovery(ixp_ids[0])),
        ]
    # Oscillation: two more cycles at the first facility within the gap.
    events += [
        (42_000.0, FacilityFailure(fac_ids[0])),
        (44_000.0, FacilityRecovery(fac_ids[0])),
        (49_000.0, FacilityFailure(fac_ids[0])),
        (51_000.0, FacilityRecovery(fac_ids[0])),
    ]
    return events


def record_fields(record) -> tuple:
    return (
        record.signal_pop,
        record.located_pop,
        record.start,
        record.end,
        record.method,
        record.city_scope,
        record.merged_incidents,
        record.confirmed_by_dataplane,
        frozenset(record.affected_ases),
        frozenset(record.affected_links),
    )


def prepared(world: World) -> tuple[World, list, list]:
    """World + RIB snapshot + element stream, generated exactly once.

    The routing engine is stateful (events must be chronological), so
    one replay stream is shared by every test of a world.
    """
    snapshot = world.rib_snapshot(0.0)
    elements = world.run_events(outage_events(world))
    return world, snapshot, elements


def run_both(replay: tuple[World, list, list], with_validator: bool):
    world, snapshot, elements = replay
    detectors = []
    for cls in (LegacyKepler, Kepler):
        validator = DeterministicValidator() if with_validator else None
        detector = cls(
            dictionary=world.dictionary,
            colo=world.colo,
            as2org=world.as2org,
            params=KeplerParams(),
            validator=validator,
        )
        detector.prime(snapshot)
        detector.process(elements)
        detector.finalize(end_time=80_000.0)
        detectors.append(detector)
    return detectors


def assert_equivalent(legacy, staged) -> None:
    assert [record_fields(r) for r in legacy.records] == [
        record_fields(r) for r in staged.records
    ]
    assert legacy.signal_counts() == staged.signal_counts()
    assert len(legacy.signal_log) == len(staged.signal_log)
    for a, b in zip(legacy.signal_log, staged.signal_log):
        assert (a.pop, a.signal_type, a.bin_start, a.bin_end) == (
            b.pop,
            b.signal_type,
            b.bin_start,
            b.bin_end,
        )
    assert [(c.pop, c.bin_start) for c in legacy.rejected] == [
        (c.pop, c.bin_start) for c in staged.rejected
    ]


@pytest.fixture(scope="module")
def world_a() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD)
    )


@pytest.fixture(scope="module")
def world_b() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=SECOND_WORLD.seed, world_params=SECOND_WORLD)
    )


class TestEquivalence:
    def test_world_a_control_plane_only(self, world_a):
        legacy, staged = run_both(world_a, with_validator=False)
        assert staged.records, "scenario produced no records to compare"
        assert_equivalent(legacy, staged)

    def test_world_b_control_plane_only(self, world_b):
        legacy, staged = run_both(world_b, with_validator=False)
        assert staged.records, "scenario produced no records to compare"
        assert_equivalent(legacy, staged)

    def test_world_a_with_dataplane(self, world_a):
        legacy, staged = run_both(world_a, with_validator=True)
        assert_equivalent(legacy, staged)

    def test_world_b_with_dataplane(self, world_b):
        legacy, staged = run_both(world_b, with_validator=True)
        assert_equivalent(legacy, staged)

    def test_memoisation_never_probes_a_bin_twice(self, world_a):
        legacy, staged = run_both(world_a, with_validator=True)
        probed = staged.pipeline.cache.probes
        # The pipeline may probe strictly fewer times (per-bin memo) but
        # never more, and each (pop, bin) at most once.
        assert probed <= legacy.validator.calls
        assert staged.validator.calls == probed

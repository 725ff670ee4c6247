"""Shared-memory transport: ring protocol, byte-identity, chaos, leaks.

The SPSC ring (:mod:`repro.pipeline.shm`) replaces the queue data
plane of every multiprocess runtime behind
``KeplerParams(transport="shm")`` — and must be a pure execution
detail: same records, signal log and rejects as the queue transport on
every runtime x ingest layout, recoverable under the new torn-write /
stale-cursor faults, and never leaking a ``/dev/shm`` segment across
teardown (including faulted teardown).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from test_pipeline_equivalence import (
    FIRST_WORLD,
    DeterministicValidator,
    prepared,
    record_fields,
)
from repro.core.kepler import Kepler, KeplerParams, RecoveryPolicy
from repro.ingest.feed import split_by_collector
from repro.pipeline import faults, fork_available
from repro.pipeline.faults import FaultPlan, FaultSpec
from repro.pipeline.liveness import RecoverableWorkerError
from repro.pipeline.shm import ShmRing
from repro.scenarios import World, build_world

END_TIME = 80_000.0


class Opaque:
    """A payload marshal rejects (module-level: picklable)."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.value == self.value


def shm_segments() -> set[str]:
    """Names of the live ``multiprocessing.shared_memory`` segments."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: covered by destroy() tests
        return set()


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must tear down every segment it created."""
    before = shm_segments()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


# ----------------------------------------------------------------------
# Ring protocol unit tests (single process, no forks)
# ----------------------------------------------------------------------
class TestRingProtocol:
    def _ring(self, capacity: int = 4096) -> ShmRing:
        ring = ShmRing(capacity=capacity)
        self._rings.append(ring)
        return ring

    @pytest.fixture(autouse=True)
    def _cleanup(self):
        self._rings: list[ShmRing] = []
        yield
        for ring in self._rings:
            ring.destroy()

    def test_flat_batch_roundtrip(self):
        ring = self._ring()
        batch = (b"\x01\x02\x03", [1.0, 2.0, 3.5], ["a", "b", "c"], [None, 7, (1, 2)])
        assert ring.try_put(("batch", 42), batch)
        frame = ring.get()
        assert frame.header() == ("batch", 42)
        kinds, *columns = frame.batch()
        assert bytes(kinds) == b"\x01\x02\x03"
        assert columns == [[1.0, 2.0, 3.5], ["a", "b", "c"], [None, 7, (1, 2)]]
        frame.release()
        assert ring.occupancy() == 0 and ring.get() is None

    def test_borrowed_kinds_vs_copied_kinds(self):
        ring = self._ring()
        ring.put(("batch", 0), (b"\x05\x06", [1], [2]))
        frame = ring.get()
        borrowed = frame.batch()[0]
        assert isinstance(borrowed, memoryview)  # zero-copy sweep lane
        frame.release()
        ring.put(("batch", 1), (b"\x05\x06", [1], [2]))
        frame = ring.get()
        copied = frame.batch(copy_kinds=True)[0]
        frame.release()
        assert isinstance(copied, bytes) and copied == b"\x05\x06"

    def test_header_only_frame(self):
        ring = self._ring()
        watermark = (123.5, "rrc00", 7)
        wires = [["A", 1, "x"], ["W", 2, "y"]]
        ring.put((watermark, wires))
        frame = ring.get()
        assert frame.header() == (watermark, wires)
        assert frame.batch() is None
        frame.release()

    def test_pickle_fallback_roundtrip(self):
        ring = self._ring()
        batch = (b"\x01", [Opaque(3)])  # marshal rejects Opaque
        ring.put(("batch", 9), batch)
        frame = ring.get()
        assert chr(frame.codec) == "P"
        assert frame.header() == ("batch", 9)
        assert frame.batch() == batch
        frame.release()

    def test_wrap_and_wraps_counter(self):
        ring = self._ring(capacity=1024)
        batch = (bytes(range(64)), list(range(64)))
        for seq in range(50):  # frames ~360 B: several wraps in 1 KiB
            ring.put(("batch", seq), batch)
            frame = ring.get()
            assert frame.header() == ("batch", seq)
            kinds, column = frame.batch()
            assert bytes(kinds) == bytes(range(64)) and column == list(range(64))
            frame.release()
        assert ring.wraps() > 0
        assert ring.occupancy() == 0

    def test_backpressure_is_cursor_distance(self):
        ring = self._ring(capacity=1024)
        batch = (bytes(200), list(range(30)))
        published = 0
        while ring.try_put(("batch", published), batch):
            published += 1
        assert 1 < published < 10  # bounded: the ring filled up
        frame = ring.get()
        frame.release()
        assert ring.try_put(("batch", published), batch)  # space reclaimed

    def test_large_frame_past_the_midpoint_is_accepted(self):
        # Write slot past capacity - total but below total: the wrap
        # residue plus the frame exceed the capacity, so the frame only
        # fits once the wrap has been published and consumed on its own.
        # The old try_put asked for skip + total free bytes and put()
        # polled for ever on an empty ring.
        ring = self._ring(capacity=1024)
        ring.put(("batch", 0), (bytes(560), []))
        ring.get().release()
        assert ring.occupancy() == 0
        batch = (bytes(range(256)) * 2 + bytes(88), list(range(8)))
        got: list = []

        def drain() -> None:
            deadline = time.monotonic() + 10.0
            while not got and time.monotonic() < deadline:
                frame = ring.get()
                if frame is None:
                    time.sleep(0.0005)
                    continue
                got.append((frame.header(), frame.batch(copy_kinds=True)))
                frame.release()

        consumer = threading.Thread(target=drain)
        consumer.start()
        producer = threading.Thread(
            target=ring.put, args=(("batch", 1), batch), daemon=True
        )
        producer.start()
        producer.join(timeout=10.0)
        consumer.join(timeout=10.0)
        assert not producer.is_alive(), "put() never returned"
        assert not consumer.is_alive()
        assert got == [(("batch", 1), batch)]
        assert ring.wraps() == 1 and ring.occupancy() == 0

    def test_oversize_frame_raises(self):
        ring = self._ring(capacity=1024)
        with pytest.raises(ValueError, match="cannot fit"):
            ring.try_put(("batch", 0), (bytes(4096), []))

    def test_spsc_single_outstanding_frame(self):
        ring = self._ring()
        ring.put(("batch", 0))
        ring.put(("batch", 1))
        frame = ring.get()
        with pytest.raises(RuntimeError, match="not released"):
            ring.get()
        frame.release()
        ring.get().release()

    def test_torn_write_keeps_header_breaks_columns(self):
        ring = self._ring()
        ring.put(("batch", 5), (b"\x01\x02", [1, 2], ["x", "y"]), fault="torn")
        frame = ring.get()
        assert frame.header() == ("batch", 5)  # attributable
        with pytest.raises(Exception):
            frame.batch()  # every column decode fails
        frame.release()

    def test_stale_cursor_loses_the_frame(self):
        ring = self._ring()
        assert ring.try_put(("batch", 0), fault="stale")
        assert ring.occupancy() == 0 and ring.get() is None
        # The next publish lands where the stale frame was written.
        ring.put(("batch", 1))
        frame = ring.get()
        assert frame.header() == ("batch", 1)
        frame.release()

    def test_destroy_is_idempotent_and_unlinks(self):
        ring = ShmRing()
        name = ring.name
        assert name in shm_segments()
        ring.destroy()
        assert name not in shm_segments()
        ring.destroy()  # idempotent
        assert ring.occupancy() == 0 and ring.wraps() == 0  # closed gauges


# ----------------------------------------------------------------------
# Byte-identity across runtimes (forked platforms only)
# ----------------------------------------------------------------------
forked = pytest.mark.skipif(
    not fork_available(),
    reason="the shm transport targets the fork-based runtimes",
)


@pytest.fixture(scope="module")
def world_a() -> tuple[World, list, list]:
    return prepared(
        build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD)
    )


def make_kepler(world: World, params: KeplerParams) -> Kepler:
    return Kepler(
        dictionary=world.dictionary,
        colo=world.colo,
        as2org=world.as2org,
        params=params,
        validator=DeterministicValidator(),
    )


def observed(detector: Kepler) -> tuple[list, list, list]:
    return (
        [record_fields(r) for r in detector.records],
        [
            (c.pop, c.signal_type, c.bin_start, c.bin_end)
            for c in detector.signal_log
        ],
        [(c.pop, c.bin_start) for c in detector.rejected],
    )


def full_run(world_a, params: KeplerParams, by_feeds: bool = False):
    world, snapshot, elements = world_a
    detector = make_kepler(world, params)
    try:
        detector.prime(snapshot)
        if by_feeds:
            detector.process_feeds(split_by_collector(elements))
        else:
            detector.process(elements)
        detector.finalize(end_time=END_TIME)
        return observed(detector)
    finally:
        detector.close()


@forked
class TestTransportIdentity:
    @pytest.mark.parametrize(
        "layout",
        [dict(shard_processes=2, process_batch=128)],
        ids=["shard_processes"],
    )
    def test_runtime_identity(self, world_a, layout):
        queue = full_run(world_a, KeplerParams(transport="queue", **layout))
        assert queue[0], "scenario produced no records to compare"
        shm = full_run(world_a, KeplerParams(transport="shm", **layout))
        assert shm == queue

    def test_ingest_feeds_identity(self, world_a):
        queue = full_run(
            world_a,
            KeplerParams(ingest_feeds=2, transport="queue"),
            by_feeds=True,
        )
        assert queue[0], "scenario produced no records to compare"
        shm = full_run(
            world_a,
            KeplerParams(ingest_feeds=2, transport="shm"),
            by_feeds=True,
        )
        assert shm == queue

    def test_composed_layout_identity(self, world_a):
        """Rings on both tiers at once: feed rings into shard rings."""
        layout = dict(ingest_feeds=2, shard_processes=2, process_batch=128)
        queue = full_run(
            world_a, KeplerParams(transport="queue", **layout), by_feeds=True
        )
        shm = full_run(
            world_a, KeplerParams(transport="shm", **layout), by_feeds=True
        )
        assert shm == queue


# ----------------------------------------------------------------------
# Chaos: torn writes and stale cursors (the new fault seams)
# ----------------------------------------------------------------------
POLICY = dict(
    checkpoint_interval=512,
    backoff_base_s=0.01,
    backoff_cap_s=0.05,
    stall_timeout_s=0.5,
    teardown_deadline_s=0.5,
)


def supervised_params(runtime: dict, **overrides) -> KeplerParams:
    return KeplerParams(
        supervised=True,
        transport="shm",
        recovery=RecoveryPolicy(**{**POLICY, **overrides}),
        **runtime,
    )


@forked
class TestShmChaos:
    def test_torn_shard_frame_is_rolled_back_byte_exact(self, world_a):
        linear = full_run(world_a, KeplerParams())
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="torn_write", at_element=900)]
        )
        with faults.injected(plan):
            world, snapshot, elements = world_a
            detector = make_kepler(
                world,
                supervised_params(dict(shard_processes=2, process_batch=128)),
            )
            try:
                detector.prime(snapshot)
                detector.process(elements)
                detector.finalize(end_time=END_TIME)
                recovery = detector.metrics.snapshot()["recovery"]
                assert observed(detector) == linear
                assert recovery["restarts"] >= 1
            finally:
                detector.close()

    def test_stale_shard_frame_recovers_via_stall(self, world_a):
        linear = full_run(world_a, KeplerParams())
        plan = FaultPlan(
            [FaultSpec(scope="shard", kind="stale_cursor", at_element=900)]
        )
        with faults.injected(plan):
            world, snapshot, elements = world_a
            detector = make_kepler(
                world,
                supervised_params(dict(shard_processes=2, process_batch=128)),
            )
            try:
                detector.prime(snapshot)
                detector.process(elements)
                detector.finalize(end_time=END_TIME)
                recovery = detector.metrics.snapshot()["recovery"]
                assert observed(detector) == linear
                assert recovery["restarts"] >= 1
            finally:
                detector.close()

    def test_stale_feed_frame_surfaces_recoverable(self, world_a):
        """A lost feed frame stalls the drain-to-mark wait, then raises."""
        plan = FaultPlan(
            [FaultSpec(scope="feed", kind="stale_cursor", at_element=1)]
        )
        with faults.injected(plan):
            world, snapshot, elements = world_a
            detector = make_kepler(
                world, KeplerParams(ingest_feeds=2, transport="shm")
            )
            try:
                detector.prime(snapshot)
                with pytest.raises(RecoverableWorkerError):
                    detector.process_feeds(split_by_collector(elements))
            finally:
                detector.close()

    def test_torn_feed_frame_surfaces_recoverable(self, world_a):
        plan = FaultPlan(
            [FaultSpec(scope="feed", kind="torn_write", at_element=1)]
        )
        with faults.injected(plan):
            world, snapshot, elements = world_a
            detector = make_kepler(
                world, KeplerParams(ingest_feeds=2, transport="shm")
            )
            try:
                detector.prime(snapshot)
                with pytest.raises(RecoverableWorkerError):
                    detector.process_feeds(split_by_collector(elements))
            finally:
                detector.close()

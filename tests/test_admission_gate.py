"""Admission is the codec's gate.

Ingest (:class:`~repro.pipeline.ingest.IngestStage`) admits three
element types — ``BGPUpdate``, ``BGPStateMessage`` and
``PrimingUpdate`` — and every byte that crosses a process boundary is
encoded behind it.  Both halves are pinned here:

* foreign objects mixed into a stream are dropped and counted in
  ``dropped_types`` on the linear chain and in front of the
  shard-process driver's ``encode_batch``, and the output equals the
  run without them;
* the codec itself fails closed on anything outside that vocabulary
  instead of falling back to pickling or passing it through.
"""

from __future__ import annotations

import pytest

from _tagged_rows import TaggedPath
from _wire_oracle import element_from_wire, element_to_wire
from test_core_input_colocation import make_colo, make_dictionary, update
from test_process_feeds import END_TIME, make_kepler, needs_fork, observed
from test_pipeline_equivalence import FIRST_WORLD, prepared
from repro.bgp.communities import Community
from repro.bgp.messages import BGPStateMessage, ElemType, SessionState
from repro.core.input import InputModule
from repro.core.kepler import KeplerParams
from repro.core.serde import (
    decode_batch,
    encode_batch,
    tag_elements_to_wire,
    tag_wire_batch,
)
from repro.core.events import OutageSignal
from repro.docmine.dictionary import PoP, PoPKind
from repro.pipeline.events import PrimingUpdate
from repro.pipeline.parallel import pack_wires
from repro.scenarios import build_world


class Foreign:
    """An object no collector produces."""


#: One of each: an unknown type, a tagged row as an object (the chain
#: never makes one) and a downstream stage's output (a monitor signal)
#: — none of them is stream input.
FOREIGN = (
    Foreign(),
    TaggedPath(
        key=("rrc00", 1, "10.0.0.0/8"),
        time=1.0,
        elem_type=ElemType.ANNOUNCEMENT,
        as_path=(1, 2),
        tags=(),
        afi=4,
    ),
    OutageSignal(
        pop=PoP(PoPKind.FACILITY, "f1"),
        near_asn=1,
        bin_start=0.0,
        bin_end=60.0,
        diverted_paths=0,
        baseline_paths=0,
        links=frozenset(),
    ),
)
DROPPED = {"Foreign": 1, "OutageSignal": 1, "TaggedPath": 1}


@pytest.fixture(scope="module")
def replay():
    return prepared(build_world(seed=FIRST_WORLD.seed, world_params=FIRST_WORLD))


def _mixed(elements: list) -> list:
    """``elements`` with the foreign objects at a quarter, half, three
    quarters of the way."""
    mixed = list(elements)
    n = len(mixed)
    for offset, element in zip((3 * n // 4, n // 2, n // 4), FOREIGN):
        mixed.insert(offset, element)
    return mixed


def _run(replay, params: KeplerParams, stream):
    world, snapshot, _ = replay
    detector = make_kepler(world, params, False)
    try:
        detector.prime(snapshot)
        detector.process(stream)
        ingest = detector.snapshot()["pipeline"]["stages"]["ingest"]
        detector.finalize(end_time=END_TIME)
        return observed(detector), ingest["dropped_types"]
    finally:
        detector.close()


@pytest.fixture(scope="module")
def clean(replay):
    output, dropped = _run(replay, KeplerParams(), stream=replay[2])
    assert dropped == {}
    assert output[1], "not vacuous: the stream must raise signals"
    return output


class TestForeignElementsStopAtAdmission:
    def test_linear_chain(self, replay, clean):
        output, dropped = _run(replay, KeplerParams(), stream=_mixed(replay[2]))
        assert dropped == DROPPED
        assert output == clean

    @needs_fork
    def test_shard_processes(self, replay, clean):
        """The driver's ``encode_batch`` only ever sees admitted elements."""
        output, dropped = _run(
            replay,
            KeplerParams(shard_processes=2, process_batch=256),
            stream=_mixed(replay[2]),
        )
        assert dropped == DROPPED
        assert output == clean


def _announcement(path=(1, 10, 30), time=0.0):
    return update(path, [Community(10, 101)], time=time)


def _state(time=0.0):
    return BGPStateMessage(
        time=time,
        collector="rrc00",
        peer_asn=1,
        old_state=SessionState.ESTABLISHED,
        new_state=SessionState.IDLE,
    )


def _vocabulary():
    """One of each admitted element type."""
    return [
        _announcement(),
        update((), [], withdraw=True, time=1.0),
        _state(2.0),
        PrimingUpdate(update=_announcement((2, 10, 30))),
    ]


@pytest.mark.parametrize(
    "foreign", FOREIGN, ids=[type(f).__name__ for f in FOREIGN]
)
class TestEncodersRefuseForeignTypes:
    def test_encode_batch(self, foreign):
        with pytest.raises(TypeError, match=type(foreign).__name__):
            encode_batch(_vocabulary() + [foreign])

    def test_element_to_wire(self, foreign):
        with pytest.raises(TypeError, match=type(foreign).__name__):
            element_to_wire(foreign)

    def test_tag_elements_to_wire(self, foreign):
        module = InputModule(make_dictionary(), make_colo())
        with pytest.raises(TypeError, match=type(foreign).__name__):
            tag_elements_to_wire(module, _vocabulary() + [foreign])

    def test_pack_wires_does_not_pickle(self, foreign):
        """``marshal`` cannot serialise the object, and nothing falls
        back to pickling it."""
        wires = [element_to_wire(e) for e in _vocabulary()]
        with pytest.raises(ValueError):
            pack_wires(wires + [["py", foreign]])


def _with_kinds(batch: tuple, kinds: bytes) -> tuple:
    return (kinds,) + tuple(batch[1:])


@pytest.mark.parametrize("code", [3, 4, 5, 255])
class TestDecodersRefuseUnknownCodes:
    """Kind codes 3 and 4 are the tagged kinds: they never travel."""

    def test_decode_batch(self, code):
        batch = encode_batch(_vocabulary())
        with pytest.raises(ValueError, match="kind code"):
            decode_batch(_with_kinds(batch, batch[0][:-1] + bytes([code])))

    def test_tag_wire_batch_moves_no_counter(self, code):
        """The kinds are checked before the first row: a stray code at
        the end of a batch whose rows hit the memo's old generation
        (where a probe would count a hit) leaves the counters as they
        were."""
        module = InputModule(make_dictionary(), make_colo(), memo_max=4)
        warm = [_announcement((n, 10, 30), float(n)) for n in range(1, 6)]
        tag_wire_batch(module, encode_batch(warm))
        assert module.memo_rotations >= 1
        counters = (module.parsed_count, module.discarded_count, module.memo_hits)
        batch = encode_batch(warm)
        with pytest.raises(ValueError, match="kind code"):
            tag_wire_batch(module, _with_kinds(batch, batch[0] + bytes([code])))
        assert (
            module.parsed_count,
            module.discarded_count,
            module.memo_hits,
        ) == counters


@pytest.mark.parametrize("tag", ["t", "pp", "sb", "ba", "py", "x"])
def test_element_from_wire_refuses_unknown_envelopes(tag):
    with pytest.raises(ValueError, match="wire tag"):
        element_from_wire([tag, None])

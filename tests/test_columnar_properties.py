"""Property-based tests for the columnar wire-batch codec.

The columnar transport (:func:`repro.core.serde.encode_batch` /
:func:`~repro.core.serde.decode_batch`) must be observationally
equivalent to the per-element envelopes of ``tests/_wire_oracle.py``
(``element_to_wire`` / ``element_from_wire``) over the vocabulary
ingest admits: announcements, withdrawals, state messages and priming
updates.  The strategies deliberately draw paths and community tuples
from small pools so batches carry *duplicate and interleaved*
attribute values — the case the per-batch tables dedupe — and mix
every element family in one batch to exercise the slot-order
``kinds`` column.
"""

from __future__ import annotations

import marshal

from hypothesis import given, settings
from hypothesis import strategies as st

from _tagged_rows import TaggedPath, rows_of
from _wire_oracle import element_from_wire, element_to_wire
from repro.bgp.communities import Community
from repro.bgp.messages import (
    BGPStateMessage,
    BGPUpdate,
    ElemType,
    SessionState,
)
from repro.core.input import PoPTag
from repro.core.serde import (
    _K_TAGGED,
    TaggedBatch,
    decode_batch,
    encode_batch,
)
from repro.docmine.dictionary import PoP, PoPKind
from repro.pipeline.events import PrimingUpdate

# Small pools force cross-element sharing: distinct elements carrying
# the same attribute tuples is the common case on a real feed (one
# peer re-announcing its table) and the one the batch tables dedupe.
_PATH_POOL = [
    (65001,),
    (65001, 65002),
    (65001, 65002, 65003),
    (64999, 65002, 65010, 65020),
]
_COMM_POOL = [
    (),
    (Community(65001, 100),),
    (Community(65001, 100), Community(65002, 200)),
    (Community(65002, 200), Community(65001, 100)),
]
_POP_POOL = [
    PoP(PoPKind.CITY, "london"),
    PoP(PoPKind.FACILITY, "fac-1"),
    PoP(PoPKind.IXP, "ix-1"),
]

times = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
collectors = st.sampled_from(["rrc00", "rrc01", "route-views2"])
peers = st.integers(min_value=1, max_value=70000)
prefixes = st.sampled_from(["10.0.0.0/8", "192.0.2.0/24", "2001:db8::/32"])
paths = st.sampled_from(_PATH_POOL)
communities = st.sampled_from(_COMM_POOL)


@st.composite
def announcements(draw):
    return BGPUpdate(
        time=draw(times),
        collector=draw(collectors),
        peer_asn=draw(peers),
        prefix=draw(prefixes),
        elem_type=ElemType.ANNOUNCEMENT,
        as_path=draw(paths),
        communities=draw(communities),
        afi=draw(st.sampled_from([4, 6])),
    )


@st.composite
def withdrawals(draw):
    return BGPUpdate(
        time=draw(times),
        collector=draw(collectors),
        peer_asn=draw(peers),
        prefix=draw(prefixes),
        elem_type=ElemType.WITHDRAWAL,
        afi=draw(st.sampled_from([4, 6])),
    )


@st.composite
def state_messages(draw):
    return BGPStateMessage(
        time=draw(times),
        collector=draw(collectors),
        peer_asn=draw(peers),
        old_state=draw(st.sampled_from(list(SessionState))),
        new_state=draw(st.sampled_from(list(SessionState))),
    )


@st.composite
def pop_tags(draw):
    return PoPTag(
        pop=draw(st.sampled_from(_POP_POOL)),
        near_asn=draw(st.one_of(st.none(), peers)),
        far_asn=draw(st.one_of(st.none(), peers)),
    )


@st.composite
def tagged_paths(draw):
    return TaggedPath(
        key=(draw(collectors), draw(peers), draw(prefixes)),
        time=draw(times),
        elem_type=draw(
            st.sampled_from([ElemType.ANNOUNCEMENT, ElemType.WITHDRAWAL])
        ),
        as_path=draw(paths),
        tags=tuple(draw(st.lists(pop_tags(), max_size=3))),
        afi=draw(st.sampled_from([4, 6])),
    )


elements = st.one_of(
    announcements(),
    withdrawals(),
    state_messages(),
    st.one_of(announcements(), withdrawals()).map(
        lambda u: PrimingUpdate(update=u)
    ),
)
batches = st.lists(elements, max_size=40)


def _wire_forms(batch):
    return [element_to_wire(element) for element in batch]


class TestColumnarRoundTrip:
    @given(batches)
    @settings(max_examples=200)
    def test_decode_inverts_encode(self, batch):
        decoded = decode_batch(encode_batch(batch))
        assert decoded == batch

    @given(batches)
    @settings(max_examples=200)
    def test_columnar_equals_object_path(self, batch):
        """Same observable elements as the per-element wire envelopes."""
        via_columns = decode_batch(encode_batch(batch))
        via_objects = [
            element_from_wire(wire) for wire in _wire_forms(batch)
        ]
        assert via_columns == via_objects
        assert _wire_forms(via_columns) == _wire_forms(batch)

    @given(batches)
    @settings(max_examples=100)
    def test_batch_survives_marshal(self, batch):
        """The transport serialises batches with marshal, not pickle."""
        packed = marshal.dumps(encode_batch(batch), 2)
        assert decode_batch(marshal.loads(packed)) == batch

    @given(st.lists(announcements(), min_size=2, max_size=20))
    @settings(max_examples=100)
    def test_duplicate_attributes_share_interned_objects(self, updates):
        """Equal paths dedupe to one table entry and one decoded object."""
        batch = encode_batch(updates)
        path_tab = batch[4]
        assert len(path_tab) == len(set(path_tab))
        decoded = decode_batch(batch)
        by_value: dict = {}
        for update in decoded:
            first = by_value.setdefault(update.as_path, update.as_path)
            assert first is update.as_path


# ----------------------------------------------------------------------
# Batch-native execution: chunking must be observationally invisible.
# Whole scenario streams run through the one lane — tagging straight
# into columns, the monitor folding column runs — at several chunk
# sizes and batch cut points, and everything an operator can see
# (records, signal log, rejects) plus the checkpoint document must come
# out identical to the uncut run at the default chunk size.
# ----------------------------------------------------------------------
import dataclasses
import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck

from repro.core.kepler import KeplerParams
from repro.core.serde import tagged_view
from repro.routing.events import FacilityFailure, FacilityRecovery
from repro.scenarios import build_world
from repro.topology.builder import WorldParams

_WORLD_PARAMS = {
    7: WorldParams(
        seed=7,
        n_tier1=5,
        n_tier2=20,
        n_access=60,
        n_content=18,
        n_facilities=50,
        n_ixps=12,
    ),
    11: WorldParams(
        seed=11,
        n_tier1=4,
        n_tier2=18,
        n_access=50,
        n_content=14,
        n_facilities=40,
        n_ixps=10,
    ),
}


@lru_cache(maxsize=None)
def _scenario(seed: int):
    """(world, priming, stream) for one generated world.

    The stream mixes an infrastructure outage (so the equivalence is
    not vacuous — signals must be raised), steady-state churn
    (re-announcements the monitor's skip path absorbs) and
    withdraw/re-announce flaps, ordered by time so both lanes admit
    elements identically.
    """
    world = build_world(seed=seed, world_params=_WORLD_PARAMS[seed])
    priming = world.rib_snapshot(0.0)
    fac_id = sorted(
        f
        for f, tenants in world.topo.facility_tenants.items()
        if len(tenants) >= 6
    )[0]
    stream = world.run_events(
        [
            (3600.0, FacilityFailure(fac_id)),
            (9000.0, FacilityRecovery(fac_id)),
        ]
    )
    churn: list = []
    announcements = [u for u in priming if u.as_path][:1000]
    for i, update in enumerate(announcements):
        when = 600.0 + 7.0 * i
        churn.append(
            dataclasses.replace(
                update, time=when, elem_type=ElemType.ANNOUNCEMENT
            )
        )
        if i % 5 == 0:
            churn.append(
                BGPUpdate(
                    time=when + 30.0,
                    collector=update.collector,
                    peer_asn=update.peer_asn,
                    prefix=update.prefix,
                    elem_type=ElemType.WITHDRAWAL,
                    afi=update.afi,
                )
            )
            churn.append(
                dataclasses.replace(
                    update,
                    time=when + 60.0,
                    elem_type=ElemType.ANNOUNCEMENT,
                )
            )
    elements = list(stream) + churn
    elements.sort(key=lambda e: e.sort_key())
    return world, priming, elements


def _observed(kepler) -> tuple:
    return (
        [
            (
                str(r.signal_pop),
                str(r.located_pop),
                r.start,
                r.end,
                tuple(sorted(r.affected_ases)),
                r.method,
            )
            for r in kepler.records
        ],
        [
            (str(c.pop), c.signal_type, c.bin_start, c.bin_end)
            for c in kepler.signal_log
        ],
        [(str(c.pop), c.bin_start) for c in kepler.rejected],
    )


def _checkpoint_bytes(kepler) -> bytes:
    """The checkpoint document's bytes (it carries no wall clock)."""
    return json.dumps(kepler.snapshot(), sort_keys=True, default=repr).encode()


def _run_cut(seed, chunk_size, cuts):
    world, priming, elements = _scenario(seed)
    kepler = world.make_kepler()
    kepler.pipeline.chunk_size = chunk_size
    kepler.prime(priming)
    spans = sorted({c for c in cuts if c < len(elements)})
    spans.append(len(elements))
    start = 0
    for stop in spans:
        if stop > start:
            kepler.process(elements[start:stop])
            start = stop
    kepler.finalize(end_time=elements[-1].time + 3600.0)
    observed = _observed(kepler)
    checkpoint = _checkpoint_bytes(kepler)
    kepler.close()
    return observed, checkpoint


@lru_cache(maxsize=None)
def _uncut(seed):
    return _run_cut(seed, KeplerParams().feed_chunk, ())


class TestBatchNativeEquivalence:
    @given(
        seed=st.sampled_from([7, 11]),
        chunk_size=st.sampled_from([1, 3, 61, 1024, 4096]),
        cuts=st.lists(
            st.integers(min_value=0, max_value=4000), max_size=4
        ),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.filter_too_much,
        ],
    )
    def test_output_is_independent_of_chunking(self, seed, chunk_size, cuts):
        """Identical records, signals, rejects and checkpoint bytes
        whatever the batch cut points and chunk size."""
        reference = _uncut(seed)
        cut = _run_cut(seed, chunk_size, cuts)
        assert cut[0] == reference[0]
        assert cut[1] == reference[1]
        # Not vacuous: the stream must actually raise signals.
        assert reference[0][1]


class TestViewMaterialisation:
    """Rows of an in-process ``TaggedBatch``, read back as objects."""

    @given(st.lists(tagged_paths(), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_object_family_rows_match_source(self, tagged):
        batch = TaggedBatch()
        for row in tagged:
            batch.add_tagged(
                _K_TAGGED, row.key, row.time, row.elem_type, row.as_path,
                row.tags, row.afi,
            )
        materialised = [row for _, row in rows_of(tagged_view(batch))]
        assert materialised == tagged
        # The view's tables hold the source tuples themselves — no
        # codec round trip ever rebuilds one.
        source_tags = {id(t.tags) for t in tagged}
        source_paths = {id(t.as_path) for t in tagged}
        for rebuilt in materialised:
            assert rebuilt.tags == () or id(rebuilt.tags) in source_tags
            assert (
                rebuilt.as_path == ()
                or id(rebuilt.as_path) in source_paths
            )


class TestBarrierFailsClosed:
    """A batch the monitor cannot read is refused before it moves
    anything: no decode onto a second lane, no partial fold."""

    @staticmethod
    def _chain():
        world, priming, elements = _scenario(7)
        kepler = world.make_kepler()
        kepler.prime(priming)
        kepler.process(elements[:500])
        return kepler, elements

    @staticmethod
    def _observable(kepler):
        monitor = kepler.pipeline.monitoring
        metrics = kepler.pipeline.metrics.stage("monitor")
        return (
            json.dumps(monitor.state_dict(), sort_keys=True),
            (metrics.seconds, metrics.fed, metrics.batches, metrics.emitted),
        )

    def test_untagged_batch_raises_and_changes_nothing(self):
        kepler, elements = self._chain()
        before = self._observable(kepler)
        raw = [e for e in elements[500:600] if isinstance(e, BGPUpdate)]
        with pytest.raises(ValueError, match="untagged"):
            kepler.pipeline.monitoring.prepare_wire(encode_batch(raw))
        assert self._observable(kepler) == before
        kepler.close()

    def test_wire_encoded_tagged_rows_raise(self):
        """Tagged rows have no wire form: the codec refuses them."""
        tagged = [
            TaggedPath(
                key=("rrc00", 1, "10.0.0.0/8"),
                time=1.0,
                elem_type=ElemType.ANNOUNCEMENT,
                as_path=(1, 2),
                tags=(),
                afi=4,
            )
        ]
        with pytest.raises(TypeError, match="TaggedPath"):
            encode_batch(tagged)

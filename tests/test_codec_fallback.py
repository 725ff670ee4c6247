"""The wire-batch codec and its fallback path.

``_pack``/``_unpack`` (exported as ``pack_wires``/``unpack_wires``)
are marshal-first with a fallback for payloads marshal rejects, and a
corrupt or unknown codec tag must surface as
:class:`~repro.pipeline.liveness.PoisonedBatchError` — the vocabulary
the quarantine/rollback machinery speaks — never as a bare unmarshal
crash.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.liveness import PoisonedBatchError
from repro.pipeline.parallel import pack_wires, unpack_wires


class Opaque:
    """A payload marshal rejects (arbitrary class instance)."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.value == self.value

    def __hash__(self):
        return hash(("Opaque", self.value))


#: Wire-shaped scalars: what serde actually puts in envelope slots.
scalars = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)
wire = st.lists(scalars, min_size=1, max_size=6)
wires = st.lists(wire, min_size=0, max_size=12)


class TestQueueCodec:
    @settings(max_examples=50, deadline=None)
    @given(batch=wires)
    def test_marshalable_batches_roundtrip(self, batch):
        codec, payload = pack_wires(batch)
        assert codec == "m"
        assert unpack_wires(codec, payload) == batch

    @settings(max_examples=50, deadline=None)
    @given(batch=wires, value=scalars)
    def test_non_marshalable_batches_roundtrip_via_fallback(
        self, batch, value
    ):
        poisoned = batch + [[Opaque(value)]]
        codec, payload = pack_wires(poisoned)
        assert codec == "p"  # marshal rejected the class instance
        assert unpack_wires(codec, payload) == poisoned

    def test_corrupt_marshal_payload_raises_poisoned(self):
        with pytest.raises(PoisonedBatchError):
            unpack_wires("m", b"\x00not-a-marshal-payload")

    def test_truncated_marshal_payload_raises_poisoned(self):
        _, payload = pack_wires([["A", 1]])
        with pytest.raises(PoisonedBatchError):
            unpack_wires("m", payload[: len(payload) // 2])

    def test_unknown_codec_tag_raises_poisoned(self):
        with pytest.raises(PoisonedBatchError):
            unpack_wires("x", b"whatever")

"""The wire-batch queue codec.

``pack_wires``/``unpack_wires`` are ``marshal`` with no fallback (a
payload marshal rejects raises: ``tests/test_admission_gate.py``).  A
poisoned payload, corrupt or truncated, raises marshal's own error and
never decodes to a batch; in a shard worker that error ends the worker,
and the driver raises its traceback (``tests/test_shard_processes.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.parallel import pack_wires, unpack_wires


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
        payload = pack_wires(batch)
        assert isinstance(payload, bytes)
        assert unpack_wires(payload) == batch

    def test_corrupt_marshal_payload_raises_poisoned(self):
        with pytest.raises(ValueError, match="bad marshal data"):
            unpack_wires(b"\x00not-a-marshal-payload")

    def test_truncated_marshal_payload_raises_poisoned(self):
        payload = pack_wires([["A", 1]])
        with pytest.raises(EOFError, match="marshal data too short"):
            unpack_wires(payload[: len(payload) // 2])

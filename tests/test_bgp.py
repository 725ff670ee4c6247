"""Tests for the BGP substrate."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.communities import Community
from repro.bgp.messages import (
    BGPStateMessage,
    BGPUpdate,
    ElemType,
    SessionState,
)
from repro.bgp.sanitize import (
    collapse_runs,
    is_private_asn,
    is_special_purpose_asn,
    sanitize_collapsed,
)
from repro.pipeline.ingest import merge_streams

from _sanitize_oracle import sanitize_path


def sanitize(path):
    """The chain's sanitiser: one run collapse, then the verdicts."""
    return sanitize_collapsed(collapse_runs(path))


def _announce(time=0.0, collector="rrc00", peer=100, prefix="10.0.0.0/24",
              path=(100, 200, 300), communities=(), afi=4):
    return BGPUpdate(
        time=time,
        collector=collector,
        peer_asn=peer,
        prefix=prefix,
        elem_type=ElemType.ANNOUNCEMENT,
        as_path=tuple(path),
        communities=tuple(communities),
        afi=afi,
    )


class TestCommunity:
    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            Community(-1, 5)
        with pytest.raises(ValueError):
            Community(1, 2**33)

    def test_ordering_is_total(self):
        assert Community(1, 2) < Community(1, 3) < Community(2, 0)


class TestMessages:
    def test_withdrawal_with_path_rejected(self):
        with pytest.raises(ValueError):
            BGPUpdate(
                time=0.0, collector="c", peer_asn=1, prefix="p",
                elem_type=ElemType.WITHDRAWAL, as_path=(1, 2),
            )

    def test_announcement_without_path_rejected(self):
        with pytest.raises(ValueError):
            BGPUpdate(
                time=0.0, collector="c", peer_asn=1, prefix="p",
                elem_type=ElemType.ANNOUNCEMENT,
            )

    @pytest.mark.parametrize("path", [(), (1, 2)])
    def test_state_typed_update_rejected(self, path):
        # A located path on a STATE-typed update would be admitted and
        # tagged as an announcement; a session change is a
        # BGPStateMessage, so the update must not construct.
        with pytest.raises(ValueError, match="BGPStateMessage"):
            BGPUpdate(
                time=0.0, collector="c", peer_asn=1, prefix="p",
                elem_type=ElemType.STATE, as_path=path,
            )

    def test_invalid_afi_rejected(self):
        with pytest.raises(ValueError):
            _announce(afi=5)

    def test_state_message_transitions(self):
        loss = BGPStateMessage(
            time=0.0, collector="c", peer_asn=1,
            old_state=SessionState.ESTABLISHED, new_state=SessionState.IDLE,
        )
        assert loss.is_session_loss and not loss.is_session_recovery
        recovery = BGPStateMessage(
            time=1.0, collector="c", peer_asn=1,
            old_state=SessionState.IDLE, new_state=SessionState.ESTABLISHED,
        )
        assert recovery.is_session_recovery and not recovery.is_session_loss


class TestSanitize:
    def test_private_asn_ranges(self):
        assert is_private_asn(64512)
        assert is_private_asn(65000)
        assert is_private_asn(4200000000)
        assert not is_private_asn(3356)

    def test_special_purpose(self):
        assert is_special_purpose_asn(0)
        assert is_special_purpose_asn(23456)
        assert is_special_purpose_asn(65535)
        assert not is_special_purpose_asn(174)

    def test_prepending_is_not_a_loop(self):
        assert sanitize((1, 2, 2, 2, 3)) == (1, 2, 3)

    def test_real_loop_detected(self):
        assert sanitize((1, 2, 3, 2)) is None

    def test_deprepend(self):
        assert collapse_runs((1, 2, 2, 3, 3, 3)) == (1, 2, 3)

    def test_sanitize_removes_prepending(self):
        assert sanitize((10, 20, 20, 30)) == (10, 20, 30)

    def test_sanitize_discards_loops(self):
        assert sanitize((1, 2, 1)) is None

    def test_sanitize_discards_private_asn(self):
        assert sanitize((10, 64512, 30)) is None

    def test_sanitize_discards_empty(self):
        assert sanitize(()) is None


#: Both sides of every reserved-range edge (64495 | 64496-65551 | 65552,
#: 4199999999 | 4200000000-4294967295), plus 0 and AS_TRANS.
_BOUNDARY_ASNS = (
    0, 23456, 64495, 64496, 65551, 65552,
    4199999999, 4200000000, 4294967294, 4294967295,
)  # fmt: skip
#: A pool small enough that generated paths repeat ASNs (loops), with
#: 16- and 32-bit public ASNs.
_PUBLIC_ASNS = (174, 3356, 64495, 65552, 131072, 4199999999)
_asns = st.one_of(
    st.sampled_from(_PUBLIC_ASNS),
    st.sampled_from(_BOUNDARY_ASNS),
    st.integers(min_value=0, max_value=2**32 - 1),
)
_run_lengths = st.one_of(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=700),
)


@st.composite
def _raw_paths(draw):
    """AS paths as runs: prepending, loops, a reserved ASN anywhere."""
    runs = draw(st.lists(st.tuples(_asns, _run_lengths), max_size=6))
    path = [asn for asn, length in runs for _ in range(length)]
    return draw(st.sampled_from((list, tuple)))(path)


class TestSanitizeAgainstOracle:
    @given(_raw_paths())
    @example([174, 174, 3356, 174])  # A A B A: prepending before the loop
    @example((174, 3356, 3356, 174))  # A B B A: prepending inside the loop
    @example((174,) + (3356,) * 700 + (131072, 131072))
    @example([4294967296, 174])  # beyond 32 bits: not reserved
    @settings(max_examples=400)
    def test_matches_oracle(self, path):
        got = sanitize(path)
        assert got == sanitize_path(path)
        assert got is None or type(got) is tuple

    @pytest.mark.parametrize("boundary", _BOUNDARY_ASNS)
    @pytest.mark.parametrize("position", range(5))
    def test_boundary_asn_at_every_position(self, boundary, position):
        path = [174, 3356, 3356, 131072]
        path.insert(position, boundary)
        assert sanitize(path) == sanitize_path(path)
        assert sanitize(tuple(path)) == sanitize_path(tuple(path))


class TestStream:
    """The merge of Section 4.1 (``merge_streams``): many time-sorted
    collector feeds into one time-sorted stream."""

    def test_merge_is_time_sorted(self):
        first = [_announce(time=1.0, collector="route-views2")]
        second = [_announce(time=3.0), _announce(time=5.0)]
        times = [e.sort_key()[0] for e in merge_streams(second, first)]
        assert times == [1.0, 3.0, 5.0]

    def test_stable_order_for_equal_keys(self):
        # Equal sort keys keep their feed's order, earlier feeds first.
        a, b, c = (_announce(time=1.0, path=(100, n)) for n in (1, 2, 3))
        assert list(merge_streams([a, b], [c])) == [a, b, c]

"""Path sanitization (Section 4.1).

"Kepler sanitizes the collected paths by discarding paths with AS loops,
private ASNs, or special-purpose ASNs."
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby
from operator import itemgetter

#: Private-use ASN ranges (RFC 6996).
_PRIVATE_16 = range(64512, 65535)  # 65535 itself is reserved, handled below
_PRIVATE_32 = range(4200000000, 4294967295)

#: Special-purpose / reserved ASNs (RFC 7607, RFC 4893, IANA registry,
#: Team Cymru bogon list referenced by the paper).
_SPECIAL = {
    0,  # RFC 7607
    23456,  # AS_TRANS, RFC 4893
    65535,  # reserved
    4294967295,  # reserved
}
_DOCUMENTATION = range(64496, 64512)  # RFC 5398
_DOCUMENTATION_32 = range(65536, 65552)  # RFC 5398 (32-bit)

#: ``sanitize_collapsed``'s cheap reserved-ASN test: every reserved ASN below
#: the 32-bit private range (0, AS_TRANS and the contiguous 64496-65551
#: block), and the start of that range, above which all but 2**32 and
#: beyond is reserved.
_RESERVED_LOW = frozenset(_SPECIAL).union(
    _DOCUMENTATION, _PRIVATE_16, _DOCUMENTATION_32
)
_RESERVED_HIGH = _PRIVATE_32.start
_RUN_HEAD = itemgetter(0)


def is_private_asn(asn: int) -> bool:
    """True for RFC 6996 private-use ASNs."""
    return asn in _PRIVATE_16 or asn in _PRIVATE_32


def is_special_purpose_asn(asn: int) -> bool:
    """True for reserved / documentation / AS_TRANS ASNs."""
    return asn in _SPECIAL or asn in _DOCUMENTATION or asn in _DOCUMENTATION_32


def collapse_runs(path: Sequence[int]) -> tuple[int, ...]:
    """Collapse consecutive duplicate ASNs (remove prepending) in one C
    pass (an ``itertools.groupby`` collapse)."""
    return tuple(map(_RUN_HEAD, groupby(path)))


def sanitize_collapsed(clean: tuple[int, ...]) -> tuple[int, ...] | None:
    """The de-prepended path, or ``None`` if it must be discarded,
    from the already run-collapsed path (:func:`collapse_runs`).

    Discards empty paths, paths with loops, and paths containing private
    or special-purpose ASNs, per Section 4.1.  The raw path — which
    prepending can stretch to hundreds of hops — is walked once, in C,
    by the collapse; everything here reads the short collapsed path.
    The verdict and the output depend only on the collapsed path.  An
    ASN re-appears after a different ASN exactly when the de-prepended
    path holds it twice, so the loop verdict is a duplicate test on
    ``clean``; and de-prepending drops no distinct ASN, so the
    reserved-ASN verdict is the same on ``clean`` as on the raw path.
    """
    if not clean or len(set(clean)) != len(clean):
        return None
    if max(clean) >= _RESERVED_HIGH or not _RESERVED_LOW.isdisjoint(clean):
        for asn in clean:
            if is_private_asn(asn) or is_special_purpose_asn(asn):
                return None
    return clean

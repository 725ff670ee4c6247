"""Section 4.1's path sanitiser spelled out, the reference the chain's
sanitiser (``collapse_runs`` then ``sanitize_collapsed`` in
``repro.bgp.sanitize``) is checked against.

"Kepler sanitizes the collected paths by discarding paths with AS loops,
private ASNs, or special-purpose ASNs."  Here every verdict reads the
raw path hop by hop, with no collapse shared between them.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bgp.sanitize import is_private_asn, is_special_purpose_asn


def has_as_loop(path: Sequence[int]) -> bool:
    """True if an ASN re-appears after an intervening different ASN.

    Consecutive repeats are AS-path prepending, which is legitimate and
    *not* a loop.
    """
    seen: set[int] = set()
    previous: int | None = None
    for asn in path:
        if asn == previous:
            continue
        if asn in seen:
            return True
        seen.add(asn)
        previous = asn
    return False


def deprepend(path: Sequence[int]) -> tuple[int, ...]:
    """Collapse consecutive duplicate ASNs (remove prepending)."""
    out: list[int] = []
    for asn in path:
        if not out or out[-1] != asn:
            out.append(asn)
    return tuple(out)


def sanitize_path(path: Sequence[int]) -> tuple[int, ...] | None:
    """The de-prepended path, or ``None`` if it must be discarded: empty,
    looped, or holding a private or special-purpose ASN."""
    if (
        not path
        or has_as_loop(path)
        or any(is_private_asn(a) or is_special_purpose_asn(a) for a in path)
    ):
        return None
    return deprepend(path)

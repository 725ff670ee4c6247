"""Empirical distribution helpers."""

from __future__ import annotations

from collections.abc import Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; q in [0, 1]."""
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    result = ordered[lo] * (1.0 - frac) + ordered[hi] * frac
    # Clamp: interpolation rounding must not escape the sample range.
    return min(max(result, ordered[0]), ordered[-1])


def fraction_at_least(values: Sequence[float], threshold: float) -> float:
    """Fraction of values >= threshold."""
    if not values:
        return 0.0
    return sum(1 for v in values if v >= threshold) / len(values)

"""Mergeable log-bucket histograms for latency distributions.

``LogHistogram`` is a sparse, exponentially-bucketed histogram: four
buckets per octave (bucket boundaries grow by ``2**0.25``, ~19% wide),
so the full useful range -- nanoseconds per element up to multi-second
bin latencies -- fits in a handful of dict entries with a bounded
relative quantile error of about +-9%.

Design constraints, in order:

- **Cheap to record.**  The hot paths record once per *batch* (ns per
  element) or once per *bin*, never per element, and ``record`` is a
  ``frexp`` plus a dict increment -- no ``log`` call, no allocation in
  steady state.
- **Mergeable.**  Shards and worker processes each record locally;
  the driver merges by summing bucket counts.  Merging is associative
  and lossless, so composed views equal what a single recorder would
  have seen.
- **Wire-safe.**  ``to_wire()`` emits flat lists of ints/floats that
  survive ``marshal`` (the IPC codec) and JSON alike, for the
  piggybacked live metric frames.

Histograms are run telemetry, never state: they are excluded from
``PipelineMetrics.state_dict()`` and therefore from checkpoints.
"""

from __future__ import annotations

import math

from repro.telemetry._state import _STATE

#: Buckets per octave (power of two).  4 => ~19% wide buckets, ~9%
#: worst-case relative quantile error -- plenty for p50/p95/p99 dashboards.
_SUBBUCKETS = 4

#: Mantissa thresholds splitting [0.5, 1.0) into 4 geometric sub-buckets:
#: 0.5 * 2**(k/4) for k = 1..3.
_M1 = 2.0 ** (1.0 / _SUBBUCKETS - 1.0)
_M2 = 2.0 ** (2.0 / _SUBBUCKETS - 1.0)
_M3 = 2.0 ** (3.0 / _SUBBUCKETS - 1.0)

#: Values at or below this clamp into the lowest bucket (sub-ns noise,
#: or a 0.0 from a coarse clock).
_FLOOR = 1e-9


class LogHistogram:
    """Sparse log-bucket histogram with p50/p95/p99 quantiles."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    # -- recording ----------------------------------------------------

    @staticmethod
    def _bucket(value: float) -> int:
        mantissa, exponent = math.frexp(value)
        if mantissa < _M2:
            sub = 0 if mantissa < _M1 else 1
        else:
            sub = 2 if mantissa < _M3 else 3
        return exponent * _SUBBUCKETS + sub

    def record(self, value: float, n: int = 1) -> None:
        """Record ``n`` equal samples (no-op while telemetry is disabled)."""
        if not _STATE.enabled:
            return
        if value <= _FLOOR:
            value = _FLOOR
        bucket = self._bucket(value)
        counts = self.counts
        counts[bucket] = counts.get(bucket, 0) + n
        self.count += n
        self.total += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -- merging ------------------------------------------------------

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other``'s samples into this histogram (lossless)."""
        if other.count == 0:
            return
        counts = self.counts
        for bucket, n in other.counts.items():
            counts[bucket] = counts.get(bucket, 0) + n
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def clear(self) -> None:
        self.counts.clear()
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    # -- quantiles ----------------------------------------------------

    def quantile(self, q: float) -> float:
        """Approximate quantile (geometric midpoint of the bucket)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for bucket in sorted(self.counts):
            seen += self.counts[bucket]
            if seen >= target:
                mid = 2.0 ** ((bucket + 0.5) / _SUBBUCKETS - 1.0)
                return min(max(mid, self.min), self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentiles(self) -> dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # -- serialisation (live frames + exporters) ----------------------

    def as_dict(self) -> dict:
        """Summary for snapshots/exporters (not a lossless encoding)."""
        if self.count == 0:
            return {"count": 0}
        doc = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        doc.update(self.percentiles())
        return doc

    def to_wire(self) -> list:
        """Flat, marshal-safe lossless encoding for IPC frames."""
        buckets = sorted(self.counts)
        return [
            self.count,
            self.total,
            self.min if self.count else 0.0,
            self.max,
            buckets,
            [self.counts[b] for b in buckets],
        ]

    @classmethod
    def from_wire(cls, wire: list) -> "LogHistogram":
        hist = cls()
        count, total, lo, hi, buckets, counts = wire
        if count:
            hist.count = count
            hist.total = total
            hist.min = lo
            hist.max = hi
            hist.counts = dict(zip(buckets, counts))
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.count == 0:
            return "LogHistogram(empty)"
        p = self.percentiles()
        return (
            f"LogHistogram(count={self.count}, mean={self.mean:.3g}, "
            f"p50={p['p50']:.3g}, p95={p['p95']:.3g}, p99={p['p99']:.3g})"
        )

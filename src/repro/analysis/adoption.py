"""BGP community adoption growth model (Figure 3, Section 3.2).

"Between 2010 and 2016 the visible number of networks using BGP
Communities has more than doubled from 2,500 to 5,500, and the number of
unique community values has tripled to more than 50K in 2016."

The model grows a population of community-using ASes year over year;
each AS contributes a value count drawn from a heavy-tailed distribution
(large carriers document hundreds of values).  Both series of Figure 3
fall out: unique values (left axis) and unique top-16-bit ASNs (right
axis), with values growing faster than ASNs — richer schemes, not just
more users.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class AdoptionPoint:
    year: int
    unique_values: int
    unique_asns: int
    values_per_prefix: float


@dataclass
class AdoptionModel:
    """Year-by-year community adoption, calibrated to Figure 3."""

    seed: int = 0
    start_year: int = 2011
    end_year: int = 2016
    asns_start: int = 2800
    asns_end: int = 5500
    #: Mean scheme size grows as operators enrich their schemes.
    mean_values_start: float = 6.0
    mean_values_end: float = 9.5

    def series(self) -> list[AdoptionPoint]:
        rng = random.Random(self.seed ^ 0xAD09)
        years = list(range(self.start_year, self.end_year + 1))
        n_years = len(years) - 1 or 1
        out: list[AdoptionPoint] = []
        # Persist per-AS scheme sizes so growth is cumulative, not
        # resampled noise.
        scheme_sizes: list[int] = []
        for i, year in enumerate(years):
            frac = i / n_years
            target_asns = round(
                self.asns_start
                * (self.asns_end / self.asns_start) ** frac
            )
            mean_values = (
                self.mean_values_start
                + (self.mean_values_end - self.mean_values_start) * frac
            )
            while len(scheme_sizes) < target_asns:
                # Heavy tail: most ASes few values, carriers hundreds.
                size = max(1, round(rng.lognormvariate(math.log(mean_values), 1.1)))
                scheme_sizes.append(size)
            # Existing schemes grow occasionally.
            for j in range(len(scheme_sizes)):
                if rng.random() < 0.08:
                    scheme_sizes[j] += rng.randint(1, 4)
            out.append(
                AdoptionPoint(
                    year=year,
                    unique_values=sum(scheme_sizes),
                    unique_asns=len(scheme_sizes),
                    values_per_prefix=4.0 + 12.0 * frac,  # "from 4 to 16"
                )
            )
        return out

"""Order statistics used by the benchmark's metrics.

Percentiles use the nearest-rank rule: the p-th percentile of n samples
is the ceil(p * n / 100)-th smallest.  Each percentile is returned with
the number of samples strictly above its rank, so a report can say how
many samples its tail rests on (1 260 samples leave 12 above p99).
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction


def percentile(values, p) -> tuple[float, int]:
    """Nearest-rank percentile of ``values`` and the count beyond it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    rank = max(1, math.ceil(Fraction(p) * len(xs) / 100))
    return xs[rank - 1], len(xs) - rank


def median(values) -> float:
    return statistics.median(values)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else math.inf

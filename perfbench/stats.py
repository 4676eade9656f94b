"""Summary statistics for the benchmark: percentiles and geometric mean.

Kept dependency-free and pure so the benchmark's own tests can pin them
on known samples.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples`` by linear
    interpolation between closest ranks (numpy's default "linear" rule):
    ``percentile(xs, 0)`` is the minimum, ``100`` the maximum."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def geomean(samples: Sequence[float]) -> float:
    """Geometric mean of positive samples, so every input weighs equally
    whatever its absolute cost."""
    if not samples:
        raise ValueError("geometric mean of no samples")
    if any(x <= 0 for x in samples):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(x) for x in samples) / len(samples))


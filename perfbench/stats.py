"""Order statistics for benchmark samples.

Percentiles are nearest-rank: the ``p``-th percentile of ``n`` sorted
samples is the one at rank ``ceil(p/100 * n)``, so it is always a value
that was actually measured.  A percentile is only trustworthy when at
least :data:`MIN_BEYOND` samples lie beyond it; :func:`tail_percentile`
names the highest one that meets that rule.
"""

from __future__ import annotations

import math

#: Samples that must lie strictly beyond a percentile for it to count.
MIN_BEYOND = 10

#: Percentiles considered by :func:`tail_percentile`, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n``."""
    # the epsilon keeps float noise (99.9 / 100 * 10000 = 9990.000...2)
    # from pushing an exact rank one place up
    return min(n, max(1, math.ceil(p / 100.0 * n - 1e-9)))


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (not empty)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return n - _rank(n, p) if n else 0


def tail_percentile(n: int) -> float | None:
    """The highest percentile in :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


"""Degree statistics: moments, the degree tail, and comparison measures.

The degree distribution is the usual suspect for heavy tails, so alongside
average degree and density this module works on a snapshot's dense degree
histogram, ``np.bincount(snapshot.degrees)``. From it come the tail view
("proportion of nodes with degree at least k"), a Kolmogorov-Smirnov style
distance between two tails, and a log-log least-squares exponent fit. The
K-S distance to the final graph's tail is how the pipeline quantifies
whether the shape of the distribution has stopped moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_MAX_POSITION = 2**31 - 1  # the low 31 bits of a degree_order key


@dataclass(frozen=True)
class BasicStats:
    """First-order degree facts for one snapshot."""

    n: int
    m: int
    average_degree: float
    density: float
    max_degree: int


class PowerLawFit(NamedTuple):
    alpha: float
    r_squared: float


def stats_from_counts(n: int, m: int, max_degree: int) -> BasicStats:
    """Average degree 2m/n, density 2m/(n(n-1)), and the given max degree.

    Requires n >= 2; density is meaningless on smaller graphs. The identity
    average_degree == density * (n - 1) holds to the last floating-point bit
    or one ulp.
    """
    if n < 2:
        raise ValueError(f"degree statistics need at least 2 nodes, got {n}")
    return BasicStats(
        n=n,
        m=m,
        average_degree=2 * m / n,
        density=2 * m / (n * (n - 1)),
        max_degree=max_degree,
    )


def cumulative(counts: np.ndarray) -> np.ndarray:
    """Tail of a dense degree histogram (``counts[k]`` nodes of degree k):
    entry k is the proportion of nodes with degree at least k.

    The tail is non-increasing and its first value is exactly 1. Raises
    ValueError on an empty histogram.
    """
    n = int(counts.sum())
    if n == 0:
        raise ValueError("empty snapshot has no degree distribution")
    return np.cumsum(counts[::-1])[::-1] / n


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Largest gap between two degree tails over k >= 1; beyond its end a
    tail is 0."""
    gap = np.zeros(max(a.size, b.size, 2))
    gap[: a.size] = a
    gap[: b.size] -= b
    return float(np.max(np.abs(gap[1:])))


def degree_order(deg: np.ndarray) -> np.ndarray:
    """Positions of the ``int64`` degrees ``deg`` by degree, highest first,
    ties by position: a stable argsort of ``-deg``. Each key holds the
    degree's distance from the largest above its position, so one unstable
    sort of distinct keys gives that order. Degrees and their count are
    below 2^31, so a key fits in 62 bits."""
    keys = deg.max(initial=0) - deg
    keys <<= 31
    keys |= np.arange(deg.size)
    keys.sort()
    keys &= _MAX_POSITION
    return keys


def powerlaw_fit(counts: np.ndarray) -> PowerLawFit:
    """Least-squares slope of log proportion against log degree.

    Fits the present degrees k >= 1 of a dense histogram. Returns the
    exponent alpha (negated slope, so a k^-2 law yields alpha = 2) and the
    coefficient of determination of the fit in log-log space.
    """
    ks = np.flatnonzero(counts)
    ks = ks[ks >= 1]
    if ks.size < 2:
        raise ValueError("power-law fit needs at least two distinct positive degrees")
    x = np.log(ks.astype(np.float64))
    y = np.log(counts[ks] / counts.sum())
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(alpha=float(-slope), r_squared=r2)

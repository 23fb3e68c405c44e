"""Degree statistics: moments, distributions, and comparison measures.

The degree distribution is the usual suspect for heavy tails, so alongside
average degree and density this module provides the cumulative ("proportion
of nodes with degree at least k") view, a Kolmogorov-Smirnov style distance
between two such views, and a log-log least-squares exponent fit. The K-S
distance against the final snapshot's distribution is how the pipeline
quantifies whether the shape of the distribution has stopped moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from netreplay.graph import Snapshot


@dataclass(frozen=True)
class BasicStats:
    """First-order degree facts for one snapshot."""

    n: int
    m: int
    average_degree: float
    density: float
    max_degree: int


@dataclass(frozen=True)
class DegreeDistribution:
    """Sparse map of degree -> node count; ``degrees`` sorted ascending."""

    degrees: np.ndarray  # int64, distinct degrees present
    counts: np.ndarray  # int64, nodes having each degree
    n: int

    def __post_init__(self):
        self.degrees.setflags(write=False)
        self.counts.setflags(write=False)

    @property
    def max_degree(self) -> int:
        return int(self.degrees[-1]) if self.degrees.size else 0

    def proportions(self) -> np.ndarray:
        return self.counts / self.n

@dataclass(frozen=True)
class CumulativeDistribution:
    """Step view: ``q[i]`` is the proportion of nodes with degree >= degrees[i]."""

    degrees: np.ndarray
    q: np.ndarray
    n: int

    def __post_init__(self):
        self.degrees.setflags(write=False)
        self.q.setflags(write=False)

    def at(self, k):
        """Evaluate the step function at integer k (scalar or array)."""
        ks = np.asarray(k, dtype=np.int64)
        padded = np.concatenate((self.q, [0.0]))
        out = padded[np.searchsorted(self.degrees, np.atleast_1d(ks), side="left")]
        return float(out[0]) if ks.ndim == 0 else out


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


def degree_distribution(snapshot: Snapshot) -> DegreeDistribution:
    """Histogram of node degrees. Degree-0 nodes (discovered without any
    surviving link) are counted like any others."""
    if snapshot.n == 0:
        raise ValueError("empty snapshot has no degree distribution")
    ks, counts = np.unique(snapshot.degrees, return_counts=True)
    return DegreeDistribution(
        degrees=ks.astype(np.int64), counts=counts.astype(np.int64), n=snapshot.n
    )


def cumulative(dist: DegreeDistribution) -> CumulativeDistribution:
    """Suffix-sum view of a degree distribution.

    q is non-increasing; its first value is 1 exactly because every node has
    degree at least the smallest present degree.
    """
    suffix = np.cumsum(dist.counts[::-1])[::-1]
    return CumulativeDistribution(
        degrees=dist.degrees.copy(), q=suffix / dist.n, n=dist.n
    )


def ks_statistic(a: CumulativeDistribution, b: CumulativeDistribution) -> float:
    """Largest vertical gap between two cumulative degree distributions,
    over k >= 1.

    Both step functions can only change just past a present degree, so the
    supremum is attained on the merged breakpoint set. Degrees beyond a
    distribution's support contribute q = 0.
    """
    breakpoints = np.unique(
        np.concatenate(
            (np.array([1], dtype=np.int64), a.degrees + 1, b.degrees + 1)
        )
    )
    breakpoints = breakpoints[breakpoints >= 1]
    if breakpoints.size == 0:
        return 0.0
    return float(np.max(np.abs(a.at(breakpoints) - b.at(breakpoints))))


def powerlaw_fit(dist: DegreeDistribution) -> PowerLawFit:
    """Least-squares slope of log proportion against log degree.

    Fits only degrees k >= 1 that are present. Returns the exponent alpha
    (negated slope, so a k^-2 law yields alpha = 2) and the coefficient of
    determination of the fit in log-log space.
    """
    keep = dist.degrees >= 1
    ks = dist.degrees[keep]
    cs = dist.counts[keep]
    if ks.size < 2:
        raise ValueError("power-law fit needs at least two distinct positive degrees")
    x = np.log(ks.astype(np.float64))
    y = np.log(cs / dist.n)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(alpha=float(-slope), r_squared=r2)

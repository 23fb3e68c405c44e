"""Triangle counting, clustering and transitivity.

Naive triangle listing touches every path of length two, which explodes on
skewed degree sequences. Instead, nodes are ranked by decreasing degree and
each link is examined once, from its higher-ranked endpoint: intersecting the
two endpoints' lists of lower-ranked neighbors finds each triangle exactly
once, at its highest-ranked corner. Total work is O(m^(3/2)) with only
Theta(n) extra space beyond the adjacency itself, which is what makes the
per-checkpoint cost tolerable. The implementation batches the intersections
into vectorized key lookups.

Clustering (the mean over nodes of how many of a node's neighbor pairs are
linked) ignores nodes of degree below 2, for which the notion is undefined;
if no node qualifies the coefficient itself is undefined and reported as
missing, never as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from netreplay.degrees import BasicStats
from netreplay.graph import Snapshot

_PROBE_BUDGET = 1 << 23  # per-batch intersection probes, caps peak memory


@dataclass(frozen=True)
class TriangleReport:
    """Triangle group of one checkpoint's statistics."""

    triangles: int
    per_node: np.ndarray  # int64, triangles each node belongs to
    connected_triples: int
    clustering: Optional[float]
    transitivity: Optional[float]
    triangles_over_max_degree_sq: Optional[float]
    clustering_over_density: Optional[float]

    def __post_init__(self):
        self.per_node.setflags(write=False)


def count_triangles(snapshot: Snapshot) -> tuple[int, np.ndarray]:
    """Total triangles and per-node membership counts.

    Every triangle contributes 1 to the total and 1 to each of its three
    corners, so per_node sums to three times the total.
    """
    n, m = snapshot.n, snapshot.m
    per_node = np.zeros(n, dtype=np.int64)
    if n == 0 or m == 0:
        return 0, per_node
    deg = snapshot.degrees
    order = np.lexsort((np.arange(n), -deg))  # rank by degree desc, index asc
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    entry_src = np.repeat(np.arange(n, dtype=np.int64), deg)
    r_src = rank[entry_src]
    r_dst = rank[snapshot.neighbors]
    forward = r_dst < r_src  # keep each link once, seen from its higher rank
    f_src = r_src[forward]
    f_dst = r_dst[forward]
    by_edge = np.lexsort((f_dst, f_src))
    f_src = f_src[by_edge]
    f_dst = f_dst[by_edge]
    keys = f_src * n + f_dst  # sorted ascending by construction

    f_len = np.bincount(f_src, minlength=n)
    f_off = np.concatenate(([0], np.cumsum(f_len)))
    probes_per_edge = f_len[f_dst]
    cum_probes = np.cumsum(probes_per_edge)

    tri_by_rank = np.zeros(n, dtype=np.float64)
    total = 0
    n_edges = f_src.size
    e0 = 0
    while e0 < n_edges:
        consumed = int(cum_probes[e0 - 1]) if e0 else 0
        e1 = int(np.searchsorted(cum_probes, consumed + _PROBE_BUDGET, side="left")) + 1
        e1 = min(max(e1, e0 + 1), n_edges)
        xs = f_src[e0:e1]
        ys = f_dst[e0:e1]
        cnt = probes_per_edge[e0:e1]
        batch = int(cnt.sum())
        if batch:
            ends = np.cumsum(cnt)
            flat = (
                np.arange(batch, dtype=np.int64)
                - np.repeat(ends - cnt, cnt)
                + np.repeat(f_off[ys], cnt)
            )
            w = f_dst[flat]  # lower-ranked neighbors of each edge's lower end
            probe_keys = np.repeat(xs, cnt) * n + w
            pos = np.searchsorted(keys, probe_keys)
            pos[pos == keys.size] = 0
            hit = keys[pos] == probe_keys
            edge_ids = np.repeat(np.arange(e1 - e0, dtype=np.int64), cnt)
            matches = np.bincount(edge_ids[hit], minlength=e1 - e0)
            total += int(matches.sum())
            tri_by_rank += np.bincount(xs, weights=matches, minlength=n)
            tri_by_rank += np.bincount(ys, weights=matches, minlength=n)
            tri_by_rank += np.bincount(w[hit], minlength=n)
        e0 = e1

    per_node = tri_by_rank[rank].astype(np.int64)
    return total, per_node


def clustering_coefficient(snapshot: Snapshot, per_node: np.ndarray) -> Optional[float]:
    """Mean over degree >= 2 nodes of the linked fraction of their neighbor
    pairs; None when no node has two neighbors."""
    deg = snapshot.degrees
    eligible = deg >= 2
    if not np.any(eligible):
        return None
    d = deg[eligible].astype(np.float64)
    t = per_node[eligible].astype(np.float64)
    return float(np.mean(2.0 * t / (d * (d - 1.0))))


def connected_triples(snapshot: Snapshot) -> int:
    """Paths of length two (center with two distinct neighbors)."""
    deg = snapshot.degrees.astype(np.int64)
    return int((deg * (deg - 1) // 2).sum())


def transitivity(snapshot: Snapshot, triangles: int) -> Optional[float]:
    """Fraction of connected triples closed into triangles: 3 * triangles
    over the number of length-two paths; None when there are no such paths."""
    triples = connected_triples(snapshot)
    if triples == 0:
        return None
    return 3 * triangles / triples


def derived_ratios(
    triangles: int, clustering: Optional[float], stats: BasicStats
) -> tuple[Optional[float], Optional[float]]:
    """Scale-free companions of the raw counts: triangles relative to the
    square of the maximum degree, and clustering relative to density."""
    over_dmax = triangles / stats.max_degree**2 if stats.max_degree >= 1 else None
    over_density = (
        clustering / stats.density
        if clustering is not None and stats.density > 0
        else None
    )
    return over_dmax, over_density


def analyze_triangles(snapshot: Snapshot, stats: Optional[BasicStats]) -> TriangleReport:
    """Bundle every triangle statistic for one snapshot. ``stats`` is None
    when the snapshot is too small for degree statistics (n < 2), and the
    ratios to them are undefined then."""
    total, per_node = count_triangles(snapshot)
    cc = clustering_coefficient(snapshot, per_node)
    ratio_dmax, ratio_density = derived_ratios(total, cc, stats) if stats else (None, None)
    return TriangleReport(
        triangles=total,
        per_node=per_node,
        connected_triples=connected_triples(snapshot),
        clustering=cc,
        transitivity=transitivity(snapshot, total),
        triangles_over_max_degree_sq=ratio_dmax,
        clustering_over_density=ratio_density,
    )

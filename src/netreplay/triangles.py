"""Triangle counting, clustering and transitivity.

Naive triangle listing touches every path of length two, which explodes on
skewed degree sequences. Instead, nodes are ranked by decreasing degree and
each link is examined once, from its higher-ranked endpoint: intersecting the
two endpoints' lists of lower-ranked neighbors finds each triangle exactly
once, at its highest-ranked corner (compact-forward; Latapy, TCS 2008).
Total work is O(m^(3/2)). The intersections run as vectorized key lookups
in bounded batches; beyond the adjacency, those and a per-checkpoint table
of per-node counts are all the memory used.

A replay sample, a prefix of the stream, holds a triangle exactly when it
holds its closing link, the latest of the three. So one listing of the final
graph serves every checkpoint, tagging each triangle with that link.

Clustering (the mean over nodes of how many of a node's neighbor pairs are
linked) ignores nodes of degree below 2, for which the notion is undefined;
if no node qualifies the coefficient itself is undefined and reported as
missing, never as 0.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from netreplay.degrees import BasicStats
from netreplay.graph import ArrivalCSR, Snapshot

_PROBE_BUDGET = 1 << 23  # per-batch intersection probes, caps peak memory


def triangle_counts(csr: ArrivalCSR, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row i of ``(totals, per_node)`` counts the triangles of the first
    ``positions[i]`` links (ascending), in all and per final-graph node."""
    n = csr.offsets.size - 1
    k = len(positions)
    # Row i gets the corners first present at positions[i]; row k, the rest.
    table = np.zeros((k + 1, n), dtype=np.int64)
    deg = np.diff(csr.offsets)
    order = np.lexsort((np.arange(n), -deg))  # rank by degree desc, index asc
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    entry_src = np.repeat(np.arange(n, dtype=np.int64), deg)
    r_src = rank[entry_src]
    r_dst = rank[csr.neighbors]
    forward = np.flatnonzero(r_dst < r_src)  # each link once, from its higher rank
    forward = forward[np.lexsort((r_dst[forward], r_src[forward]))]
    f_src, f_dst, f_arrival = r_src[forward], r_dst[forward], csr.arrival[forward]
    keys = f_src * n + f_dst  # sorted ascending by construction

    f_len = np.bincount(f_src, minlength=n)
    f_off = np.concatenate(([0], np.cumsum(f_len)))
    probes_per_edge = f_len[f_dst]
    cum_probes = np.cumsum(probes_per_edge)

    n_edges = f_src.size
    e0 = 0
    while e0 < n_edges:
        consumed = int(cum_probes[e0 - 1]) if e0 else 0
        e1 = int(np.searchsorted(cum_probes, consumed + _PROBE_BUDGET, side="left")) + 1
        e1 = min(max(e1, e0 + 1), n_edges)
        cnt = probes_per_edge[e0:e1]
        ends = np.cumsum(cnt)
        flat = (
            np.arange(ends[-1], dtype=np.int64)
            - np.repeat(ends - cnt, cnt)
            + np.repeat(f_off[f_dst[e0:e1]], cnt)
        )
        w = f_dst[flat]  # lower-ranked neighbors of each edge's lower end
        probe_keys = np.repeat(f_src[e0:e1], cnt) * n + w
        pos = np.searchsorted(keys, probe_keys)
        pos[pos == keys.size] = 0
        hits = np.flatnonzero(keys[pos] == probe_keys)
        edge = e0 + np.searchsorted(ends, hits, side="right")
        # Present from the first position past its closing link's arrival.
        closing = np.maximum(
            f_arrival[edge], np.maximum(f_arrival[pos[hits]], f_arrival[flat[hits]])
        )
        row = np.searchsorted(positions, closing, side="right")
        for corner in (f_src[edge], f_dst[edge], w[hits]):
            np.add.at(table, (row, order[corner]), 1)
        e0 = e1

    np.cumsum(table, axis=0, out=table)
    per_node = table[:k]
    return per_node.sum(axis=1) // 3, per_node


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


def analyze_triangles(
    snapshot: Snapshot, stats: Optional[BasicStats], total: int, per_node: np.ndarray
) -> tuple:
    """The ``SERIES["tri"]`` values of one snapshot, from its triangle
    ``total`` and ``per_node`` counts: triangles, clustering, transitivity,
    and the scale-free ratios triangles / max degree^2 and clustering /
    density. ``stats`` is None when the snapshot is too small for degree
    statistics (n < 2), and the ratios to them are undefined then."""
    cc = clustering_coefficient(snapshot, per_node)
    over_dmax = over_density = None
    if stats is not None:
        if stats.max_degree >= 1:
            over_dmax = total / stats.max_degree**2
        if cc is not None and stats.density > 0:
            over_density = cc / stats.density
    return total, cc, transitivity(snapshot, total), over_dmax, over_density

"""Triangle counting, clustering and transitivity.

Naive triangle listing touches every path of length two, which explodes on
skewed degree sequences. Instead, nodes are ranked by decreasing degree and
each link is examined once, from its higher-ranked endpoint: intersecting the
two endpoints' lists of lower-ranked neighbors finds each triangle exactly
once, at its highest-ranked corner (compact-forward; Latapy, TCS 2008).
Total work is O(m^(3/2)). The intersections run as vectorized key lookups
in batches of about ``_PROBE_BUDGET`` probes. A byte table of 4 to 8 slots
per key, each set when some key hashes to it, filters the probes first: a
probe whose slot is unset cannot be a key, so only the rest are searched.
A poor spread of the hash costs time, never a triangle.

Memory, beyond the adjacency: 32 bytes per forward link (one per link of
the graph) for its key, lower end, arrival and running probe count, and
the filter's 4 to 8 bytes per forward key; in a batch, at most two 8-byte
arrays and one byte per probe while filtering and four 8-byte arrays and
one byte per searched probe after, 33 bytes in all; and the (checkpoints +
1) x n table of 8-byte per-node counts, which is the largest of these on
large inputs. The budget of 2^18 probes was chosen from rotating benchmark
runs of budgets 2^17 to 2^23 on the ``pa-tri`` workload
(BENCH_tri-memory.json): run time did not move, and peak RSS fell from 88
MB at 2^21 and up to 50 MB. There a batch is no larger than the listing's
other arrays, and the next halving saved 4 MB more.

A replay sample, a prefix of the stream, holds a triangle exactly when it
holds its closing link, the latest of the three. So one listing of the final
graph serves every checkpoint, tagging each triangle with that link.

Clustering (the mean over nodes of how many of a node's neighbor pairs are
linked) ignores nodes of degree below 2, for which the notion is undefined;
if no node qualifies the coefficient itself is undefined and reported as
missing, never as 0.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from netreplay.degrees import BasicStats
from netreplay.graph import ArrivalCSR

_PROBE_BUDGET = 1 << 18  # per-batch intersection probes, caps peak memory
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, spreads the filter's slots


class TriangleCounts(NamedTuple):
    """Row i of ``totals`` and ``per_node`` counts the triangles of the
    first ``positions[i]`` links, in all and per final-graph node.
    ``probes`` is the number of key lookups the listing made, ``searches``
    the number of them that passed the hashed filter and were searched for,
    and ``batches`` the number of batches they ran in."""

    totals: np.ndarray
    per_node: np.ndarray
    probes: int
    searches: int
    batches: int


def _slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """The filter slot of each int64 key: the top ``bits`` bits of
    key * ``_HASH_MULTIPLIER`` mod 2^64 (Fibonacci hashing)."""
    slots = keys.view(np.uint64) * np.uint64(_HASH_MULTIPLIER)
    slots >>= np.uint64(64 - bits)
    return slots.view(np.int64)


def triangle_counts(csr: ArrivalCSR, positions: np.ndarray) -> TriangleCounts:
    """Per-checkpoint triangle counts of the prefixes of ``positions``
    (ascending) links, from one listing of the final graph."""
    n = csr.offsets.size - 1
    k = len(positions)
    # Row i gets the corners first present at positions[i]; row k, the rest.
    table = np.zeros((k + 1, n), dtype=np.int64)
    deg = np.diff(csr.offsets)
    order = np.lexsort((np.arange(n), -deg))  # rank by degree desc, index asc
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    # Each link once, from its higher rank, sorted by (higher, lower) rank.
    r_src = np.repeat(rank, deg)
    r_dst = rank[csr.neighbors]
    forward = np.flatnonzero(r_dst < r_src)
    keys = r_src[forward]
    del r_src
    keys *= n
    keys += r_dst[forward]
    del r_dst
    by_key = np.argsort(keys)
    keys = keys[by_key]
    f_arrival = csr.arrival[forward[by_key]]
    del forward, by_key
    f_dst = keys % n
    # Rank r's forward links are the keys in [r * n, (r + 1) * n).
    f_off = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    cum_probes = np.cumsum(np.diff(f_off)[f_dst])
    # 4 to 8 slots per key, each set when some key hashes to it.
    bits = keys.size.bit_length() + 2
    occupied = np.zeros(1 << bits, dtype=bool)
    occupied[_slots(keys, bits)] = True

    # A batch holds at most two probe-sized arrays and the filter's bytes,
    # then four arrays the size of the probes that pass it.
    n_edges = keys.size
    batches = searches = e0 = 0
    while e0 < n_edges:
        consumed = int(cum_probes[e0 - 1]) if e0 else 0
        e1 = int(np.searchsorted(cum_probes, consumed + _PROBE_BUDGET, side="left")) + 1
        e1 = min(max(e1, e0 + 1), n_edges)
        ends = cum_probes[e0:e1] - consumed
        cnt = np.diff(ends, prepend=0)
        dst = f_dst[e0:e1]
        # Probe j of edge e reads forward entry j + shift[e]: the lower
        # end's lower-ranked neighbors, w.
        shift = f_off[dst] - (ends - cnt)
        flat = np.arange(ends[-1], dtype=np.int64)
        flat += np.repeat(shift, cnt)
        probe_keys = f_dst[flat]
        del flat
        probe_keys += np.repeat(keys[e0:e1] - dst, cnt)  # the upper end's rank * n
        # Only a probe whose slot some key set can be a key.
        probe = np.flatnonzero(occupied[_slots(probe_keys, bits)])
        probe_keys = probe_keys[probe]
        searches += probe.size
        # w's rank is below the lower end's, so each probe key is below its
        # own edge's key, and pos stays inside keys.
        pos = np.searchsorted(keys, probe_keys)
        found = keys[pos] == probe_keys
        del probe_keys
        matched = pos[found]  # forward entry of the link (upper end, w)
        del pos
        hits = probe[found]
        del probe, found
        edge = np.searchsorted(ends, hits, side="right")
        hits += shift[edge]  # probe index -> forward entry (lower end, w)
        edge += e0
        # Present from the first position past its closing link's arrival.
        closing = np.maximum(
            f_arrival[edge], np.maximum(f_arrival[matched], f_arrival[hits])
        )
        row = np.searchsorted(positions, closing, side="right")
        for corner in (keys[edge] // n, f_dst[edge], f_dst[hits]):
            np.add.at(table, (row, order[corner]), 1)
        batches += 1
        e0 = e1

    np.cumsum(table, axis=0, out=table)
    per_node = table[:k]
    probes = int(cum_probes[-1]) if n_edges else 0
    return TriangleCounts(per_node.sum(axis=1) // 3, per_node, probes, searches, batches)


def clustering_coefficient(degrees: np.ndarray, per_node: np.ndarray) -> Optional[float]:
    """Mean over degree >= 2 nodes of the linked fraction of their neighbor
    pairs; None when no node has two neighbors."""
    eligible = degrees >= 2
    if not np.any(eligible):
        return None
    d = degrees[eligible].astype(np.float64)
    t = per_node[eligible].astype(np.float64)
    return float(np.mean(2.0 * t / (d * (d - 1.0))))


def connected_triples(degrees: np.ndarray) -> int:
    """Paths of length two (center with two distinct neighbors)."""
    deg = degrees.astype(np.int64)
    return int((deg * (deg - 1) // 2).sum())


def transitivity(degrees: np.ndarray, triangles: int) -> Optional[float]:
    """Fraction of connected triples closed into triangles: 3 * triangles
    over the number of length-two paths; None when there are no such paths."""
    triples = connected_triples(degrees)
    if triples == 0:
        return None
    return 3 * triangles / triples


def analyze_triangles(
    degrees: np.ndarray, stats: Optional[BasicStats], total: int, per_node: np.ndarray
) -> tuple:
    """The ``SERIES["tri"]`` values of one graph, from its node ``degrees``
    and its triangle ``total`` and ``per_node`` counts: triangles,
    clustering, transitivity, and the scale-free ratios triangles / max
    degree^2 and clustering / density. ``stats`` is None when the graph is
    too small for degree statistics (n < 2), and the ratios to them are
    undefined then."""
    cc = clustering_coefficient(degrees, per_node)
    over_dmax = over_density = None
    if stats is not None:
        if stats.max_degree >= 1:
            over_dmax = total / stats.max_degree**2
        if cc is not None and stats.density > 0:
            over_density = cc / stats.density
    return total, cc, transitivity(degrees, total), over_dmax, over_density

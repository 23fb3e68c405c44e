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

A link probes from whichever side offers fewer candidates: each of the lower
end's lower-ranked neighbors w is looked up among the higher end's, or each
of the higher end's neighbors ranked below the lower end (a prefix of its
sorted list) among the lower end's. Both find each triangle at the same link,
so the side moves the work, never a value. On preferential-attachment inputs
this halves the probes. The second side's lookups land in other nodes' key
segments, so on graphs whose keys outgrow the cache a search from it costs
more; a side rule weighting that side by 1.5, 2 or 3 measured no faster at
10^6 or 10^7 links (BENCH_tri-probes.json), so the rule is the plain count.

Ranks, nodes, arrivals, forward-entry indices and per-node counts are
``int32``, as node and link counts are below 2^31 and a node's count, the
number of links among its neighbors, is at most m. A key, rank * n + rank,
outgrows that past 46,341 nodes, so keys and every product forming one are
``int64``.

Memory, beyond the adjacency: 24 bytes per forward link (one per link of
the graph) for its key (8), lower end (4), arrival (4) and running probe
count (8), and the filter's 4 to 8 bytes per forward key; in a batch, up to
36 bytes per link it spans, 16 bytes per probe while the probes are built
and 17 while they are filtered, then 33 per probe that passed, and 68 per
hit (a probe that found its key) while the hit's three corners are added,
none of it kept into the next batch; and the (checkpoints + 1) x n table
of per-node counts, 4 bytes a cell, the largest of these on large inputs.
The budget, 2^16 probes, comes from rotating benchmark runs on the
``pa-tri`` workload: run time did not move from 2^17 to 2^23 while peak RSS
fell as the budget did (BENCH_tri-memory.json, with probes from one side;
the cheaper side halves them, BENCH_tri-probes.json), and 2^16 lowered the
peak again (BENCH_tri-bytes.json).

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

from netreplay.degrees import BasicStats, degree_order
from netreplay.graph import ArrivalCSR

_PROBE_BUDGET = 1 << 16  # per-batch intersection probes, caps peak memory
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, spreads the filter's slots


class TriangleCounts(NamedTuple):
    """Row i of ``totals`` and ``per_node`` counts the triangles of the
    first ``positions[i]`` links, in all and per final-graph node;
    ``per_node`` is ``int32``, as a node's count, the links among its
    neighbors, is at most m < 2^31. ``probes`` is the number of key
    lookups the listing made, each link's from its side with fewer
    candidates, ``searches`` the number of them that passed the hashed
    filter and were searched for, and ``batches`` the number of batches
    they ran in."""

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
    deg = np.diff(csr.offsets)
    # Row i gets the corners first present at positions[i], row k the rest.
    table = np.zeros((k + 1, n), dtype=np.int32)
    cells = table.reshape(-1)  # a flat add.at runs far faster than a 2-D one
    one = np.int32(1)  # an untyped 1 makes add.at cast every call
    order = degree_order(deg)  # rank by degree desc, index asc
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)

    # Each link once, from its higher rank, sorted by (higher, lower) rank.
    r_src = np.repeat(rank, deg)
    r_dst = rank[csr.neighbors]
    forward = np.flatnonzero(r_dst < r_src)
    keys = r_src[forward].astype(np.int64)  # widened before the product
    del r_src
    keys *= n
    keys += r_dst[forward]
    del r_dst
    by_key = np.argsort(keys)
    keys = keys[by_key]
    f_arrival = csr.arrival[forward[by_key]]
    del forward, by_key
    n_edges = keys.size
    f_dst = np.remainder(keys, n, out=np.empty(n_edges, np.int32))
    # Rank r's forward links are the keys in [r * n, (r + 1) * n).
    f_off = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    # Link e = (a, b), rank b < a, closes a triangle with each w < b that
    # both ends link to. It probes the shorter list of candidates: b's
    # forward list, or the e - f_off[a] entries of a's before e, all below b.
    cum_probes = np.arange(n_edges, dtype=np.int64)
    cum_probes -= np.repeat(f_off[:-1], np.diff(f_off))
    np.minimum(cum_probes, np.diff(f_off)[f_dst], out=cum_probes)
    np.cumsum(cum_probes, out=cum_probes)
    # 4 to 8 slots per key, each set when some key hashes to it.
    bits = n_edges.bit_length() + 2
    occupied = np.zeros(1 << bits, dtype=bool)
    occupied[_slots(keys, bits)] = True

    # A batch holds four arrays the size of its links, at most two the size
    # of its probes and the filter's bytes, then four the size of the probes
    # that pass it.
    batches = searches = e0 = 0
    while e0 < n_edges:
        consumed = int(cum_probes[e0 - 1]) if e0 else 0
        e1 = int(np.searchsorted(cum_probes, consumed + _PROBE_BUDGET, side="left")) + 1
        e1 = min(max(e1, e0 + 1), n_edges)
        ends = cum_probes[e0:e1] - consumed
        cnt = np.diff(ends, prepend=0)
        dst = f_dst[e0:e1]
        # A link looks up keys base + w for the w of forward entries start,
        # start + 1, ...: b's list with base a * n, or a's own with base b * n.
        start = f_off[dst]
        base = keys[e0:e1] - dst
        own = np.flatnonzero(cnt < f_off[dst + 1] - start)
        start[own] = own + (e0 - cnt[own])
        base[own] = dst[own].astype(np.int64) * n
        # Probe j of link e reads forward entry j + shift[e]; both fit int32.
        shift = (start - (ends - cnt)).astype(np.int32)
        del start, own
        flat = np.arange(ends[-1], dtype=np.int32)
        flat += np.repeat(shift, cnt)
        probe_keys = np.repeat(base, cnt)
        del base, cnt
        probe_keys += f_dst[flat]
        del flat
        # Only a probe whose slot some key set can be a key.
        probe = np.flatnonzero(occupied[_slots(probe_keys, bits)])
        probe_keys = probe_keys[probe]
        searches += probe.size
        # w ranks below both ends, so each probe key is below its own link's
        # key, and pos stays inside keys.
        pos = np.searchsorted(keys, probe_keys)
        found = keys[pos] == probe_keys
        del probe_keys
        matched = pos[found]  # forward entry of the link from base's end to w
        del pos
        hits = probe[found]
        del probe, found
        edge = np.searchsorted(ends, hits, side="right")
        hits += shift[edge]  # probe index -> the probed forward entry, to w
        edge += e0
        # Present from the first position past its closing link's arrival.
        closing = np.maximum(
            f_arrival[edge], np.maximum(f_arrival[matched], f_arrival[hits])
        )
        cell = np.searchsorted(positions, closing, side="right")
        cell *= n
        for corner in (keys[edge] // n, f_dst[edge], f_dst[hits]):
            np.add.at(cells, cell + order[corner], one)
        del matched, hits, edge, closing, cell, corner  # before the next batch's probes
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

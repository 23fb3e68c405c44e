"""Reference implementations the library no longer calls, kept as oracles.

Each keeps the exact semantics it had in the library, so a test comparing a
library path against it compares against the code the path replaced.
"""

import numpy as np

from netreplay.graph import Snapshot

_PROBE_BUDGET = 1 << 23  # per-batch intersection probes, caps peak memory


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

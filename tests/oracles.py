"""Reference implementations the library no longer calls, kept as oracles,
and brute-force checks written for the tests.

Each reference keeps the exact semantics it had in the library, so a test
comparing a library path against it compares against the code the path
replaced. A brute-force check (``ks_brute``) restates a definition directly,
sharing no code with the library.
"""

import gzip
import math
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from netreplay.degrees import BasicStats, stats_from_counts
from netreplay.ingest import _MAX_NODE, ArrivalStream, FormatOptions, StreamFormatError
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


def probe_sides(u, v, n) -> list[tuple[int, int, int]]:
    """Per link, in the triangle listing's order, what each end offers as
    third corners, recounted from the final graph. Nodes rank by degree
    descending, then by index, and links are listed by the ranks of their
    (worse, better) ends. A candidate ranks better than both ends: one of
    the better end's neighbors that ranks better still, or one of the worse
    end's neighbors that ranks better than the better end. Returns
    (candidates from the better end, candidates from the worse end,
    triangles closed) per link."""
    adj = [set() for _ in range(n)]
    for a, b in zip(u, v):
        adj[a].add(b)
        adj[b].add(a)
    by_rank = sorted(range(n), key=lambda x: (-len(adj[x]), x))
    rank = {x: r for r, x in enumerate(by_rank)}
    links = sorted((max(rank[a], rank[b]), min(rank[a], rank[b])) for a, b in zip(u, v))
    sides = []
    for worse, better in links:
        a, b = by_rank[worse], by_rank[better]
        sides.append(tuple(
            sum(rank[w] < better for w in candidates)
            for candidates in (adj[b], adj[a], adj[a] & adj[b])
        ))
    return sides


def degree(snapshot: Snapshot, v: int) -> int:
    if not 0 <= v < snapshot.n:
        raise IndexError(f"node {v} out of range [0, {snapshot.n})")
    return int(snapshot.offsets[v + 1] - snapshot.offsets[v])


def neighbors_of(snapshot: Snapshot, v: int) -> np.ndarray:
    if not 0 <= v < snapshot.n:
        raise IndexError(f"node {v} out of range [0, {snapshot.n})")
    return snapshot.neighbors[snapshot.offsets[v] : snapshot.offsets[v + 1]]


def has_link(snapshot: Snapshot, u: int, v: int) -> bool:
    """Binary-search membership test on the sorted neighbor segment."""
    seg = neighbors_of(snapshot, u)
    if not 0 <= v < snapshot.n:
        raise IndexError(f"node {v} out of range [0, {snapshot.n})")
    i = int(np.searchsorted(seg, v))
    return i < seg.size and int(seg[i]) == v


def basic_stats(snapshot: Snapshot) -> BasicStats:
    """Average degree 2m/n, density 2m/(n(n-1)), and max degree, read off
    the snapshot. Requires n >= 2."""
    deg = snapshot.degrees
    d_max = int(deg.max()) if deg.size else 0
    return stats_from_counts(snapshot.n, snapshot.m, d_max)


def ks_brute(deg_a: np.ndarray, deg_b: np.ndarray) -> float:
    """K-S distance between the degree distributions of two raw degree
    arrays: the largest gap over k >= 1 between the shares of nodes with
    degree at least k. Both shares are 0 past the largest degree, so k stops
    at one past it."""
    top = int(max(deg_a.max(), deg_b.max()))
    return max(
        abs(float(np.mean(deg_a >= k)) - float(np.mean(deg_b >= k)))
        for k in range(1, top + 2)
    )


@dataclass(frozen=True)
class ComponentSummary:
    """Per-snapshot component structure."""

    component_count: int
    giant_size: int
    giant_fraction: float
    component_id: np.ndarray  # int32 label per node, in order of first node index
    giant_id: int

    def __post_init__(self):
        self.component_id.setflags(write=False)

    def giant_mask(self) -> np.ndarray:
        return self.component_id == self.giant_id


def components(snapshot: Snapshot) -> ComponentSummary:
    """Label components by BFS from each unvisited node in index order.
    The giant is the largest component; ties go to the one containing the
    smallest node index."""
    n = snapshot.n
    if n == 0:
        raise ValueError("empty snapshot has no components")
    labels = np.full(n, -1, dtype=np.int32)
    next_label = 0
    for scan in range(n):
        if labels[scan] < 0:
            labels[hops_from(snapshot, scan) >= 0] = next_label
            next_label += 1
    sizes = np.bincount(labels, minlength=next_label)
    giant_id = int(np.argmax(sizes))  # first max = smallest min-index component
    giant_size = int(sizes[giant_id])
    return ComponentSummary(
        component_count=next_label,
        giant_size=giant_size,
        giant_fraction=giant_size / n,
        component_id=labels,
        giant_id=giant_id,
    )


def hops_from(snapshot: Snapshot, source: int) -> np.ndarray:
    """Hop distances from ``source``, -1 where unreached. Each level is every
    unreached end of an adjacency entry whose owner is on the level before,
    found by comparing every entry's owner distance with that level."""
    owner = np.repeat(np.arange(snapshot.n), snapshot.degrees)
    dist = np.full(snapshot.n, -1, dtype=np.int32)
    dist[source] = 0
    level = 0
    while True:
        ends = snapshot.neighbors[dist[owner] == level]
        ends = ends[dist[ends] < 0]
        if ends.size == 0:
            return dist
        level += 1
        dist[ends] = level


class BfsResult(NamedTuple):
    dist: np.ndarray  # int32 hops from source, -1 where unreached
    farthest: int  # smallest-index node at maximum distance
    farthest_dist: int


def bfs(snapshot: Snapshot, source: int) -> BfsResult:
    """Hop distances from ``source``; unreached nodes get -1."""
    if not 0 <= source < snapshot.n:
        raise IndexError(f"source {source} out of range [0, {snapshot.n})")
    dist = hops_from(snapshot, source)
    far = int(np.argmax(dist))
    return BfsResult(dist=dist, farthest=far, farthest_dist=int(dist[far]))


def mean_distance_from(snapshot: Snapshot, giant_mask: np.ndarray, source: int) -> float:
    """Mean distance from ``source`` to every giant-component node,
    the source's own zero included."""
    if not giant_mask[source]:
        raise ValueError(f"source {source} is outside the giant component")
    dist = hops_from(snapshot, source)
    inside = dist[giant_mask]
    if np.any(inside < 0):
        raise ValueError("giant mask contains nodes unreachable from source")
    return int(inside.sum(dtype=np.int64)) / int(inside.size)


def average_distance_exact(snapshot: Snapshot, giant_mask: np.ndarray) -> float:
    """All-sources average distance over the giant component; the saturated
    version of the estimator (every node sampled exactly once)."""
    nodes = np.nonzero(giant_mask)[0]
    if nodes.size < 2:
        raise ValueError("giant component must have at least 2 nodes")
    samples = [mean_distance_from(snapshot, giant_mask, int(v)) for v in nodes]
    return math.fsum(samples) / len(samples)


def diameter_lower_bound(
    snapshot: Snapshot, giant_mask: np.ndarray, start: int
) -> tuple[int, int]:
    """Double sweep: BFS from ``start``, then the eccentricity of the node
    found farthest. Returns (bound, that node). Never exceeds the diameter."""
    if not giant_mask[start]:
        raise ValueError(f"start {start} is outside the giant component")
    first = bfs(snapshot, start)
    second = bfs(snapshot, first.farthest)
    return second.farthest_dist, first.farthest


@dataclass(frozen=True)
class RawEvent:
    """One trace line: a timestamped, possibly redundant link observation."""

    time: int
    src: str
    dst: str



def open_event_file(path: str):
    """Open a trace for reading, transparently decompressing ``.gz``.

    Bytes that are not UTF-8 decode to lone surrogates instead of failing
    mid-chunk, so that :func:`parse_event_stream` can name their line.
    """
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", errors="surrogateescape")
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def parse_event_stream(
    reader: Iterable[str], options: FormatOptions = FormatOptions()
) -> Iterator[RawEvent]:
    """Parse trace lines into events, validating order as we go.

    Blank lines and lines starting with ``#`` are skipped. Malformed lines
    and timestamp regressions raise StreamFormatError with the 1-based line
    number. Timestamps must be integers in [0, 2^64), the range the
    normalized stream and its cache store. A line holding bytes that are
    not UTF-8 (read by :func:`open_event_file` as lone surrogates) raises
    StreamFormatError naming that line. Input that cannot be read on
    (truncated or corrupt gzip, or a strict decoder's failure) raises
    StreamFormatError naming the last line read whole.
    """
    last_time = None
    synthetic = 0
    lineno = 0
    try:
        for lineno, line in enumerate(reader, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise StreamFormatError(f"line {lineno} is not valid utf-8") from None
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if options.no_time:
                if len(parts) != 2:
                    raise StreamFormatError(f"malformed line {lineno}: expected '<src> <dst>'")
                t = synthetic
                synthetic += 1
                src, dst = parts
            else:
                if len(parts) != 3:
                    raise StreamFormatError(
                        f"malformed line {lineno}: expected '<time> <src> <dst>'"
                    )
                try:
                    t = int(parts[0])
                except ValueError:
                    raise StreamFormatError(
                        f"malformed line {lineno}: bad timestamp {parts[0]!r}"
                    ) from None
                if not 0 <= t < 2**64:
                    raise StreamFormatError(
                        f"malformed line {lineno}: timestamp outside [0, 2^64)"
                    )
                src, dst = parts[1], parts[2]
            if last_time is not None and t < last_time:
                raise StreamFormatError(f"timestamp decreases at line {lineno}")
            last_time = t
            yield RawEvent(t, src, dst)
    except (EOFError, UnicodeDecodeError, zlib.error, gzip.BadGzipFile) as exc:
        raise StreamFormatError(f"unreadable input after line {lineno}: {exc}") from None


def normalize(events: Iterable[RawEvent]) -> ArrivalStream:
    """Deduplicate links, strip loops, and index nodes by first appearance.

    A link (a, b) survives only on its first observation in either direction.
    A loop (a, a) is dropped as a link but still discovers node a. Every
    distinct endpoint token becomes the next free index the first time it is
    seen in any event.
    """
    index: dict[str, int] = {}
    seen: set[int] = set()  # packed unordered pairs of surviving links
    us: list[int] = []
    vs: list[int] = []
    ts: list[int] = []
    prefix: list[int] = []

    for ev in events:
        count_before = len(index)
        iu = index.setdefault(ev.src, count_before)
        if ev.src == ev.dst:
            continue
        iv = index.setdefault(ev.dst, len(index))
        if iu <= iv:
            key = (iu << 31) | iv
        else:
            key = (iv << 31) | iu
        if key in seen:
            continue
        seen.add(key)
        prefix.append(count_before)
        us.append(iu)
        vs.append(iv)
        ts.append(ev.time)

    final_n = len(index)
    if final_n > _MAX_NODE:
        raise ValueError(f"too many nodes for 32-bit indices: {final_n}")
    prefix.append(final_n)
    return ArrivalStream(
        u=np.asarray(us, dtype=np.int32),
        v=np.asarray(vs, dtype=np.int32),
        time=np.asarray(ts, dtype=np.uint64),
        node_count_prefix=np.asarray(prefix, dtype=np.int64),
        final_n=final_n,
        final_m=len(us),
    )

"""Seeded workload inputs and the oracles that check a run against them.

The generators live here, not in ``netreplay.generate``, so that a change to
the program cannot change the inputs it is measured on. Every oracle works
from the generator's own integer arrays and shares no code with the package:
link and node counts come from ``numpy.unique``, components and triangles
from scipy's sparse routines.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build its trace and how to replay it.
    Why each one exists is in BENCHMARK.json and README.md."""

    name: str
    model: str  # "pa": clean preferential-attachment file; "trace": measurement-style
    nodes: int
    links_per_node: int
    checkpoints: int
    stats: tuple
    cache: str  # "off": use_cache=False; "warm": sidecar prebuilt; "cold": sidecar deleted per run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pa-dist",
            model="pa",
            nodes=6000,
            links_per_node=3,
            checkpoints=30,
            stats=("conn", "deg", "dist", "tri"),
            cache="off",
        ),
        Workload(
            name="pa-tri",
            model="pa",
            nodes=5000,
            links_per_node=20,
            checkpoints=40,
            stats=("conn", "deg", "tri"),
            cache="warm",
        ),
        Workload(
            name="trace-cold",
            model="trace",
            nodes=20000,
            links_per_node=4,
            checkpoints=100,
            stats=("conn", "deg"),
            cache="cold",
        ),
    )
}


@dataclass
class TraceInput:
    """A generated trace as integer arrays, plus its ground truth."""

    time: np.ndarray  # int64, non-decreasing
    src: np.ndarray  # int64 node ids
    dst: np.ndarray  # int64 node ids; dst == src on loop lines
    lines: int
    duplicates: int  # non-loop lines repeating an earlier link, either direction
    loops: int
    final_n: int  # distinct endpoints over all lines, loops included
    edges: np.ndarray  # (final_m, 2) distinct links, smaller id first

    @property
    def final_m(self) -> int:
        return int(self.edges.shape[0])


def preferential_links(n: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Preferential attachment: a (k+1)-clique, then each new node links to
    k distinct existing nodes drawn proportionally to degree."""
    us: list[int] = []
    vs: list[int] = []
    endpoints = np.empty(2 * (k * n + (k + 1) * k), dtype=np.int64)
    fill = 0
    for j in range(1, k + 1):
        for i in range(j):
            us.append(i)
            vs.append(j)
            endpoints[fill : fill + 2] = (i, j)
            fill += 2
    for node in range(k + 1, n):
        targets: set[int] = set()
        while len(targets) < k:
            targets.update(endpoints[rng.integers(0, fill, size=k - len(targets))].tolist())
        for t in sorted(targets):
            us.append(node)
            vs.append(t)
            endpoints[fill : fill + 2] = (node, t)
            fill += 2
    return np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)


def measurement_trace(u: np.ndarray, v: np.ndarray, rng: np.random.Generator):
    """Turn clean link arrivals into a redundant measurement-style trace.

    Each link is observed a geometric number of times (mean 4), each time in
    a random direction. Its first observation keeps its arrival position;
    re-observations land uniformly within the following tenth of the trace.
    5 % of all lines then become loops on their source. Returns
    (time, src, dst) sorted by time.
    """
    m = u.size
    obs = rng.geometric(0.25, size=m)
    link = np.repeat(np.arange(m), obs)
    pos = link.astype(np.float64)
    repeat = np.ones(link.size, dtype=bool)
    repeat[np.cumsum(obs) - obs] = False
    pos[repeat] += rng.uniform(0.0, m / 10, size=int(repeat.sum()))
    flip = rng.random(link.size) < 0.5
    src = np.where(flip, v[link], u[link])
    dst = np.where(flip, u[link], v[link])
    order = np.argsort(pos, kind="stable")
    src, dst, pos = src[order], dst[order], pos[order]
    loop = rng.random(src.size) < 0.05
    dst[loop] = src[loop]
    time = 1_000_000_000 + np.floor(pos).astype(np.int64)
    return time, src, dst


def ground_truth(time: np.ndarray, src: np.ndarray, dst: np.ndarray) -> TraceInput:
    """Count lines, loops and duplicates and list the distinct links."""
    loop = src == dst
    a = np.minimum(src[~loop], dst[~loop])
    b = np.maximum(src[~loop], dst[~loop])
    edges = np.unique(np.stack((a, b), axis=1), axis=0)
    return TraceInput(
        time=time,
        src=src,
        dst=dst,
        lines=int(src.size),
        duplicates=int(a.size - edges.shape[0]),
        loops=int(loop.sum()),
        final_n=int(np.unique(np.concatenate((src, dst))).size),
        edges=edges,
    )


def generate(workload: Workload, seed: int) -> TraceInput:
    rng = np.random.default_rng([seed, 0])
    u, v = preferential_links(workload.nodes, workload.links_per_node, rng)
    if workload.model == "pa":
        return ground_truth(np.arange(u.size, dtype=np.int64), u, v)
    return ground_truth(*measurement_trace(u, v, np.random.default_rng([seed, 1])))


def write_trace(path: str, trace: TraceInput, seed: int) -> None:
    """Write ``time src dst`` lines. The measurement-style trace (``.gz``
    path) names nodes by distinct seeded dotted-quad addresses in 10/8."""
    size = int(max(trace.src.max(), trace.dst.max())) + 1
    if path.endswith(".gz"):
        addr = np.random.default_rng([seed, 2]).choice(1 << 24, size=size, replace=False)
        names = [f"10.{a >> 16}.{(a >> 8) & 255}.{a & 255}" for a in addr.tolist()]
    else:
        names = [str(i) for i in range(size)]
    text = "".join(
        f"{t} {names[s]} {names[d]}\n"
        for t, s, d in zip(trace.time.tolist(), trace.src.tolist(), trace.dst.tolist())
    ).encode()
    if path.endswith(".gz"):
        text = gzip.compress(text, compresslevel=6, mtime=0)
    with open(path, "wb") as f:
        f.write(text)


@dataclass(frozen=True)
class Oracle:
    """Final-checkpoint values every run must reproduce."""

    final_n: int
    final_m: int
    component_count: int
    giant_fraction: float
    triangles: int


def oracle(trace: TraceInput) -> Oracle:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    ids = np.unique(np.concatenate((trace.src, trace.dst)))
    size = int(ids.max()) + 1
    a, b = trace.edges[:, 0], trace.edges[:, 1]
    ones = np.ones(a.size, dtype=np.int64)
    # Orient each link toward its smaller id. Preferential attachment gives
    # old nodes the high degrees, so rows stay short and L @ L stays small.
    lower = coo_matrix((ones, (b, a)), shape=(size, size)).tocsr()
    triangles = int((lower @ lower).multiply(lower).sum())
    _, labels = connected_components(lower, directed=True, connection="weak")
    labels = labels[ids]  # ids never seen are not nodes of the trace
    sizes = np.bincount(labels)
    return Oracle(
        final_n=trace.final_n,
        final_m=trace.final_m,
        component_count=int(np.count_nonzero(sizes)),
        giant_fraction=int(sizes.max()) / trace.final_n,
        triangles=triangles,
    )

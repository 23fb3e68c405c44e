"""Synthetic measurement streams with known ground truth.

Each generator returns (times, sources, destinations) as parallel integer
sequences ready to be written as trace lines. Timestamps are the event index,
so streams are trivially time-ordered. Models: a path, a complete graph,
uniform random links, preferential attachment, and a two-phase stream that
switches from preferential attachment to a densifying regime, which is useful
for exercising statistics that should visibly react to the change.
"""

from __future__ import annotations

import gzip
from typing import Callable, NamedTuple

import numpy as np

Stream = tuple[list[int], list[int], list[int]]


def gen_path(n: int) -> Stream:
    """Path 0-1-...-(n-1): n-1 links."""
    if n < 2:
        raise ValueError("path needs at least 2 nodes")
    us = list(range(n - 1))
    vs = list(range(1, n))
    return list(range(n - 1)), us, vs


def gen_complete(n: int) -> Stream:
    """All pairs among n nodes, node-major: each node's links to its
    predecessors arrive as one block."""
    if n < 2:
        raise ValueError("complete graph needs at least 2 nodes")
    us, vs = [], []
    for j in range(1, n):
        for i in range(j):
            us.append(i)
            vs.append(j)
    return list(range(len(us))), us, vs


def gen_gnp(n: int, p: float, seed: int = 0) -> Stream:
    """Uniform random graph: every pair independently present with
    probability p, in uniformly shuffled arrival order."""
    if n < 2:
        raise ValueError("random graph needs at least 2 nodes")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    rng = np.random.default_rng(seed)
    total_pairs = n * (n - 1) // 2
    k = int(rng.binomial(total_pairs, p))
    picked: set[int] = set()
    while len(picked) < k:
        draw = rng.integers(0, total_pairs, size=max(64, 2 * (k - len(picked))))
        for x in draw.tolist():
            if len(picked) == k:
                break
            picked.add(x)
    # row i (0-based) holds pairs (i, j) for j > i, starting at row_start[i]
    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    flat = np.fromiter(picked, dtype=np.int64, count=len(picked))
    rng.shuffle(flat)
    i = np.searchsorted(row_start, flat, side="right") - 1
    j = flat - row_start[i] + i + 1
    return list(range(len(flat))), i.tolist(), j.tolist()


def gen_preferential(n: int, k: int, seed: int = 0) -> Stream:
    """Preferential attachment: a (k+1)-clique seed, then each new node
    links to k distinct existing nodes chosen proportionally to degree."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k + 2:
        raise ValueError(f"need at least {k + 2} nodes for k={k}")
    rng = np.random.default_rng(seed)
    us, vs = [], []
    # endpoint multiset; sampling a uniform entry is degree-proportional
    endpoints = np.empty(2 * (k * n + (k + 1) * k), dtype=np.int64)
    fill = 0
    for j in range(1, k + 1):
        for i in range(j):
            us.append(i)
            vs.append(j)
            endpoints[fill] = i
            endpoints[fill + 1] = j
            fill += 2
    for node in range(k + 1, n):
        targets: set[int] = set()
        while len(targets) < k:
            draws = endpoints[rng.integers(0, fill, size=k - len(targets))]
            targets.update(int(t) for t in draws)
        for t in sorted(targets):
            us.append(node)
            vs.append(t)
            endpoints[fill] = node
            endpoints[fill + 1] = t
            fill += 2
    return list(range(len(us))), us, vs


def gen_two_phase(
    n1: int, k: int, n2: int, extra_per_node: int, seed: int = 0
) -> Stream:
    """Preferential attachment for n1 nodes, then a densifying phase.

    Each phase-2 step brings one new node (one link to a uniform existing
    node) plus ``extra_per_node`` fresh links between existing nodes, so the
    average degree, flat during phase 1, climbs steadily afterwards.
    """
    if n2 < 1:
        raise ValueError("phase 2 needs at least 1 node")
    if extra_per_node < 1:
        raise ValueError("extra_per_node must be at least 1")
    ts, us, vs = gen_preferential(n1, k, seed)
    rng = np.random.default_rng((seed, 1))
    existing = {(min(a, b), max(a, b)) for a, b in zip(us, vs)}
    t = len(us)
    for node in range(n1, n1 + n2):
        anchor = int(rng.integers(0, node))
        us.append(node)
        vs.append(anchor)
        existing.add((anchor, node))
        ts.append(t)
        t += 1
        added = 0
        while added < extra_per_node:
            a = int(rng.integers(0, node + 1))
            b = int(rng.integers(0, node + 1))
            if a == b:
                continue
            pair = (a, b) if a < b else (b, a)
            if pair in existing:
                continue
            existing.add(pair)
            us.append(pair[0])
            vs.append(pair[1])
            ts.append(t)
            t += 1
            added += 1
    return ts, us, vs


def write_stream(path: str, stream: Stream) -> None:
    """Write a generated stream as trace lines, gzipped when the path ends
    in .gz."""
    ts, us, vs = stream
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as f:
        for t, u, v in zip(ts, us, vs):
            f.write(f"{t} {u} {v}\n")


class Param(NamedTuple):
    name: str  # the generator's argument and, as --name-with-dashes, the CLI flag
    kind: type
    metavar: str
    help: str


NODES = Param("nodes", int, "N", "node count")
PROB = Param("prob", float, "P", "link probability")
LINKS_PER_NODE = Param("links_per_node", int, "K", "links per new node")
PHASE1_NODES = Param("phase1_nodes", int, "N1", "phase 1 size")
PHASE2_NODES = Param("phase2_nodes", int, "N2", "phase 2 size")
EXTRA_PER_NODE = Param("extra_per_node", int, "R", "extra links per phase 2 node")


class Model(NamedTuple):
    generator: Callable[..., Stream]
    params: tuple[Param, ...]  # the generator's arguments before the seed, in order
    seeded: bool  # the generator takes a trailing seed


# The one place each model and its parameters are declared; the CLI's gen
# flags are built from it.
MODELS = {
    "path": Model(gen_path, (NODES,), False),
    "complete": Model(gen_complete, (NODES,), False),
    "random-gnp": Model(gen_gnp, (NODES, PROB), True),
    "preferential-attachment": Model(gen_preferential, (NODES, LINKS_PER_NODE), True),
    "two-phase": Model(
        gen_two_phase, (PHASE1_NODES, LINKS_PER_NODE, PHASE2_NODES, EXTRA_PER_NODE), True
    ),
}


def generate(model: str, seed: int = 0, **params) -> Stream:
    """Dispatch by model name to ``MODELS``."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    generator, declared, seeded = MODELS[model]
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    args = [params[p.name] for p in declared]
    return generator(*args, seed) if seeded else generator(*args)

"""Distance statistics: BFS, average-distance estimation, diameter bounds.

Exhaustive distance computation is off the table at measurement scale, so
everything here leans on a small number of full BFS runs. The average
distance is estimated by sampling sources uniformly from the giant component
until the running mean settles. The diameter is bracketed from below by
double-sweep eccentricities and from above by the diameter of a BFS tree,
which contains all of the graph's nodes but only a subset of its links, so
its diameter can only overestimate. Repeating both with fresh starting points
tightens the bracket.

Estimator sources and double-sweep starts are drawn 64 at a time and
traversed together by a bit-parallel BFS (one ``uint64`` word per node, one
bit per source), following Then et al., "The More the Merrier: Efficient
Multi-Source Graph Traversal" (VLDB 2014); the stopping rules still consume
them one by one. The BFS-tree bound runs one FIFO BFS with parents per root
and takes the tree's exact diameter from subtree heights, level by level.

Distances are restricted to the giant component throughout; a node's mean
distance includes the zero distance to itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from netreplay.graph import Snapshot, frontier_neighbors


@dataclass(frozen=True)
class EstimatorConfig:
    """Stopping rule: after ``i_min`` samples, stop as soon as the last
    ``i_min`` successive running means each moved less than ``epsilon``."""

    i_min: int = 10
    epsilon: float = 0.1
    rng_seed: object = 0

    def __post_init__(self):
        if self.i_min < 1:
            raise ValueError("i_min must be at least 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class BoundConfig:
    """Iterate at least ``min_iterations`` times, stop once the bracket is
    narrower than ``gap_target``, give up at ``iteration_cap``."""

    min_iterations: int = 10
    gap_target: int = 5
    iteration_cap: int = 100
    rng_seed: object = 0

    def __post_init__(self):
        if self.min_iterations < 1:
            raise ValueError("min_iterations must be at least 1")
        if self.gap_target < 1:
            raise ValueError("gap_target must be at least 1")
        if self.iteration_cap < self.min_iterations:
            raise ValueError("iteration_cap must be at least min_iterations")


class BfsResult(NamedTuple):
    dist: np.ndarray  # int32 hops from source, -1 where unreached
    farthest: int  # smallest-index node at maximum distance
    farthest_dist: int


class BoundsOutcome(NamedTuple):
    lower: int
    upper: int
    iterations: int
    converged: bool
    lower_history: tuple[int, ...]
    upper_history: tuple[int, ...]


class BatchResult(NamedTuple):
    """Per-source results of one :func:`bfs_batch` call, in source order."""

    distance_sums: np.ndarray  # int64 sum of hops to every reached node
    reached: np.ndarray  # int64 reached nodes, the source included
    eccentricity: np.ndarray  # int64 largest hop count reached
    farthest: np.ndarray  # int64 smallest-index node at that hop count


_WORD = 64  # sources per bit-parallel BFS: one bit each in a uint64 word


def _bfs_levels(
    offsets: np.ndarray, neighbors: np.ndarray, source: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Level-synchronous BFS equivalent to a FIFO queue with neighbors
    visited in ascending order.

    Returns (dist, parent, levels): hops from ``source`` (-1 where
    unreached), each reached node's FIFO parent (-1 at the source and where
    unreached), and each level's nodes in discovery order. The gathered
    entries of a level come in (frontier rank, neighbor) order, so a node's
    first entry is the one a FIFO queue would pop it from; in particular the
    children of one parent are contiguous within their level.
    """
    n = offsets.size - 1
    dist = np.full(n, -1, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int32)
    first = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)  # each node's first entry
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    while True:
        nbrs, origin = frontier_neighbors(offsets, neighbors, frontier)
        pos = np.flatnonzero(dist[nbrs] < 0)
        if pos.size == 0:
            break
        cand = nbrs[pos]
        np.minimum.at(first, cand, pos)
        keep = pos[first[cand] == pos]
        frontier = nbrs[keep].astype(np.int64)
        dist[frontier] = len(levels)
        parent[frontier] = origin[keep]
        levels.append(frontier)
    return dist, parent, levels


def bfs(snapshot: Snapshot, source: int) -> BfsResult:
    """Hop distances from ``source``; unreached nodes get -1."""
    if not 0 <= source < snapshot.n:
        raise IndexError(f"source {source} out of range [0, {snapshot.n})")
    dist, _, _ = _bfs_levels(snapshot.offsets, snapshot.neighbors, source)
    far = int(np.argmax(dist))
    return BfsResult(dist=dist, farthest=far, farthest_dist=int(dist[far]))


def bfs_batch(snapshot: Snapshot, sources) -> BatchResult:
    """BFS from up to 64 sources at once, one bit of a ``uint64`` per source.

    Each level costs one gather of the frontier words over the adjacency
    array and one ``bitwise_or.reduceat`` over the nodes' segments, however
    many sources share the call. Sources may repeat. Per source it returns
    what :func:`bfs` would give summed or reduced: the total of the reached
    nodes' distances, their number, the eccentricity, and the farthest node
    with the same smallest-index tie rule.
    """
    sources = np.asarray(sources, dtype=np.int64)
    k = sources.size
    if not 1 <= k <= _WORD:
        raise ValueError(f"between 1 and {_WORD} sources per batch, got {k}")
    n = snapshot.n
    if sources.min() < 0 or sources.max() >= n:
        raise IndexError(f"source out of range [0, {n})")
    offsets, neighbors = snapshot.offsets, snapshot.neighbors
    linked = np.flatnonzero(np.diff(offsets))
    # reduceat reads an empty segment as its next entry, so only nodes with
    # neighbors get one; their segments tile the adjacency array in order.
    segment_starts = offsets[linked]
    seen = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(seen, sources, np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64)))
    frontier = seen
    sums = np.zeros(k, dtype=np.int64)
    reached = np.ones(k, dtype=np.int64)
    ecc = np.zeros(k, dtype=np.int64)
    far = sources.copy()
    reach = np.zeros(n, dtype=np.uint64)
    level = 0
    while linked.size:
        reach[linked] = np.bitwise_or.reduceat(frontier[neighbors], segment_starts)
        frontier = reach & ~seen
        hit = np.flatnonzero(frontier)
        if hit.size == 0:
            break
        level += 1
        seen = seen | frontier
        # one row per newly reached node (ascending), one column per source
        bits = np.unpackbits(
            frontier[hit].astype("<u8").view(np.uint8).reshape(hit.size, 8),
            axis=1,
            bitorder="little",
        )[:, :k]
        counts = bits.sum(axis=0, dtype=np.int64)
        sums += level * counts
        reached += counts
        got = counts > 0
        ecc[got] = level
        far[got] = hit[bits.argmax(axis=0)[got]]
    return BatchResult(distance_sums=sums, reached=reached, eccentricity=ecc, farthest=far)


def mean_distance_from(snapshot: Snapshot, giant_mask: np.ndarray, source: int) -> float:
    """Mean distance from ``source`` to every giant-component node,
    the source's own zero included."""
    if not giant_mask[source]:
        raise ValueError(f"source {source} is outside the giant component")
    dist, _, _ = _bfs_levels(snapshot.offsets, snapshot.neighbors, source)
    inside = dist[giant_mask]
    if np.any(inside < 0):
        raise ValueError("giant mask contains nodes unreachable from source")
    return int(inside.sum(dtype=np.int64)) / int(inside.size)


def estimate_average_distance(
    snapshot: Snapshot, giant_mask: np.ndarray, config: EstimatorConfig = EstimatorConfig()
) -> tuple[float, int]:
    """Sampled average distance over the giant component.

    Draws sources uniformly at random with replacement, maintains the running
    mean of their mean distances, and stops once ``config.i_min`` successive
    estimates in a row each changed by less than ``config.epsilon``. Returns
    (estimate, number of sources sampled); the sample count is always at
    least i_min + 1.

    Sources are drawn and traversed in blocks of 64; a block draw yields the
    same sources as 64 single draws, and the rule consumes them in order, so
    the blocks change neither the estimate nor the count. ``giant_mask`` must
    be a connected component: a source that reaches a different number of
    nodes than the mask holds is an error.
    """
    nodes = np.nonzero(giant_mask)[0]
    if nodes.size < 2:
        raise ValueError("giant component must have at least 2 nodes")
    size = int(nodes.size)
    rng = np.random.default_rng(config.rng_seed)
    samples: list[float] = []
    means: list[float] = []
    while True:
        batch = bfs_batch(snapshot, nodes[rng.integers(size, size=_WORD)])
        if np.any(batch.reached != size):
            raise ValueError("giant mask is not the component of its sources")
        for total in batch.distance_sums.tolist():
            samples.append(total / size)
            means.append(math.fsum(samples) / len(samples))
            i = len(means)
            if i > config.i_min:
                window = means[i - config.i_min - 1 :]
                if all(
                    abs(window[j + 1] - window[j]) < config.epsilon
                    for j in range(len(window) - 1)
                ):
                    return means[-1], i


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


def _tree_diameter(parent: np.ndarray, levels: list[np.ndarray]) -> int:
    """Exact diameter of the tree given by ``parent``, from subtree heights.

    ``levels`` are the tree's levels as :func:`_bfs_levels` returns them, so
    all children of a node sit in the next level and are contiguous there.
    Going up from the deepest level, each node's two tallest child subtrees
    give the longest path that turns at it.
    """
    height = np.zeros(parent.size, dtype=np.int64)
    diameter = 0
    for kids in reversed(levels[1:]):
        up = height[kids] + 1  # height of each kid's subtree, seen from its parent
        owner = parent[kids]
        opens = np.concatenate(([True], owner[1:] != owner[:-1]))  # a new parent's run
        first = np.flatnonzero(opens)
        top = np.maximum.reduceat(up, first)
        is_top = up == top[np.cumsum(opens) - 1]
        tops = np.add.reduceat(is_top, first)
        rest = np.maximum.reduceat(np.where(is_top, 0, up), first)
        second = np.where(tops > 1, top, rest)
        diameter = max(diameter, int((top + second).max()))
        height[owner[first]] = top
    return diameter


def diameter_upper_bound(snapshot: Snapshot, giant_mask: np.ndarray, root: int) -> int:
    """Exact diameter of the BFS tree rooted at ``root``.

    The tree spans the giant component with a subset of its links, so every
    graph distance is at most the tree distance and the tree diameter bounds
    the graph diameter from above. The tree is the FIFO one (see
    :func:`_bfs_levels`); its diameter comes from subtree heights.
    """
    if not giant_mask[root]:
        raise ValueError(f"root {root} is outside the giant component")
    _, parent, levels = _bfs_levels(snapshot.offsets, snapshot.neighbors, root)
    return _tree_diameter(parent, levels)


def diameter_bounds(
    snapshot: Snapshot, giant_mask: np.ndarray, config: BoundConfig = BoundConfig()
) -> BoundsOutcome:
    """Iterated sandwich of the giant component's diameter.

    Each round runs one double sweep from a random giant node (raising the
    lower bound) and one BFS-tree bound from the next root in degree-descending
    order (lowering the upper bound), so the bracket can only tighten. Stops
    after at least ``min_iterations`` rounds once upper - lower < gap_target,
    or unconditionally at ``iteration_cap``.

    The double sweeps run 64 rounds ahead: one batch BFS from 64 drawn starts,
    then one from the 64 farthest nodes it found. Round t reads entry t, so
    the bounds equal those of one sweep per round. Tree bounds stay one per
    round.
    """
    nodes = np.nonzero(giant_mask)[0]
    if nodes.size < 2:
        raise ValueError("giant component must have at least 2 nodes")
    deg = snapshot.degrees
    root_order = nodes[np.lexsort((nodes, -deg[nodes]))]
    rng = np.random.default_rng(config.rng_seed)
    lower = 0
    upper: Optional[int] = None
    lowers: list[int] = []
    uppers: list[int] = []
    t = 0
    while True:
        t += 1
        if (t - 1) % _WORD == 0:  # double sweeps for this round and the next 63
            starts = nodes[rng.integers(nodes.size, size=_WORD)]
            ends = bfs_batch(snapshot, starts).farthest
            sweeps = bfs_batch(snapshot, ends).eccentricity
        candidate = int(sweeps[(t - 1) % _WORD])
        if candidate > lower:
            lower = candidate
        root = int(root_order[(t - 1) % root_order.size])
        tree_bound = diameter_upper_bound(snapshot, giant_mask, root)
        upper = tree_bound if upper is None else min(upper, tree_bound)
        lowers.append(lower)
        uppers.append(upper)
        if t >= config.iteration_cap:
            break
        if t >= config.min_iterations and upper - lower < config.gap_target:
            break
    return BoundsOutcome(
        lower=lower,
        upper=upper,
        iterations=t,
        converged=upper - lower < config.gap_target,
        lower_history=tuple(lowers),
        upper_history=tuple(uppers),
    )

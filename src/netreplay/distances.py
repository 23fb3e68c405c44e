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
them one by one; per level a byte histogram counts each source's new nodes.
The BFS-tree bound runs one FIFO BFS with parents per root; a node on the
deepest level ends a longest tree path, measured in one pass down the levels.

Distances are restricted to the giant component throughout; a node's mean
distance includes the zero distance to itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from netreplay.graph import Snapshot


@dataclass(frozen=True)
class EstimatorConfig:
    """Stopping rule: after ``i_min`` samples, stop as soon as the last
    ``i_min`` successive running means each moved less than ``epsilon``."""

    i_min: int = 10
    epsilon: float = 0.1

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

    def __post_init__(self):
        if self.min_iterations < 1:
            raise ValueError("min_iterations must be at least 1")
        if self.gap_target < 1:
            raise ValueError("gap_target must be at least 1")
        if self.iteration_cap < self.min_iterations:
            raise ValueError("iteration_cap must be at least min_iterations")


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
_BYTE_BINS = 256 * np.arange(8, dtype=np.uint16)  # one range of 256 bins per byte of a word
_BYTE_BITS = np.arange(256)[:, None] >> np.arange(8) & 1  # row v: the 8 bits of byte value v


def _bfs_levels(
    offsets: np.ndarray, neighbors: np.ndarray, source: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Level-synchronous BFS equivalent to a FIFO queue with neighbors
    visited in ascending order.

    Returns (parent, levels): each reached node's FIFO parent (-1 at the
    source and where unreached), and each level's nodes in discovery order.
    A level gathers its frontier's neighbor segments in (frontier rank,
    neighbor) order, so a node's first entry is the one a FIFO queue would
    pop it from.
    """
    n = offsets.size - 1
    seen = np.zeros(n, dtype=bool)
    parent = np.full(n, -1, dtype=np.intp)
    first = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)  # each node's first entry
    seen[source] = True
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    while True:
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        ends = np.cumsum(counts)
        entries = np.arange(total, dtype=np.int64) + np.repeat(starts - ends + counts, counts)
        nbrs = neighbors[entries].astype(np.intp)  # int32 fancy indices are cast on every use
        pos = np.flatnonzero(~seen[nbrs])
        if pos.size == 0:
            break
        cand = nbrs[pos]
        np.minimum.at(first, cand, pos)
        keep = first[cand] == pos
        parent[cand[keep]] = np.repeat(frontier, counts)[pos[keep]]
        frontier = cand[keep]
        seen[frontier] = True
        levels.append(frontier)
    return parent, levels


def bfs_batch(snapshot: Snapshot, sources) -> BatchResult:
    """BFS from up to 64 sources at once, one bit of a ``uint64`` per source.

    Each level costs one gather of the frontier words over the adjacency
    array and one ``bitwise_or.reduceat`` over the nodes' segments, however
    many sources share the call. Sources may repeat. Per source it returns
    the total of the reached nodes' distances, their number, the
    eccentricity, and the farthest node at that distance of smallest index.
    """
    sources = np.asarray(sources, dtype=np.int64)
    k = sources.size
    if not 1 <= k <= _WORD:
        raise ValueError(f"between 1 and {_WORD} sources per batch, got {k}")
    n = snapshot.n
    if sources.min() < 0 or sources.max() >= n:
        raise IndexError(f"source out of range [0, {n})")
    offsets = snapshot.offsets
    neighbors = snapshot.neighbors.astype(np.intp)  # int32 fancy indices are cast on every use
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
        seen |= frontier
        words = frontier[hit].astype("<u8", copy=False)
        # bit b of byte j is source 8j + b: histogram each byte position's
        # values, then read the bits of each value off _BYTE_BITS
        octets = words.view(np.uint8).reshape(hit.size, 8) + _BYTE_BINS
        histogram = np.bincount(octets.ravel(), minlength=8 * 256).reshape(8, 256)
        counts = (histogram @ _BYTE_BITS).ravel()[:k]
        sums += level * counts
        reached += counts
        # in ascending node order, a row whose running OR gains a bit holds
        # that source's smallest-index node at this level
        grown = np.bitwise_or.accumulate(words)
        rows = np.flatnonzero(np.diff(grown, prepend=np.uint64(0)))
        gained = np.diff(grown[rows], prepend=np.uint64(0))  # a superset minus its subset
        bits = np.unpackbits(gained.view(np.uint8).reshape(rows.size, 8), axis=1, bitorder="little")
        row, got = np.nonzero(bits)
        ecc[got] = level
        far[got] = hit[rows[row]]
    return BatchResult(distance_sums=sums, reached=reached, eccentricity=ecc, farthest=far)


def bfs_batch_calls(samples: int, iterations: int) -> int:
    """:func:`bfs_batch` calls behind an estimate of ``samples`` sources and
    a bracket of ``iterations`` rounds: one per block of 64 samples, two per
    block of 64 double sweeps."""
    return -(-samples // _WORD) + 2 * -(-iterations // _WORD)


def estimate_average_distance(
    snapshot: Snapshot, giant_mask: np.ndarray, config: EstimatorConfig = EstimatorConfig(), seed=0
) -> tuple[float, int]:
    """Sampled average distance over the giant component.

    Draws sources uniformly at random with replacement, maintains the running
    mean of their mean distances, and stops once ``config.i_min`` successive
    estimates in a row each changed by less than ``config.epsilon``. Returns
    (estimate, number of sources sampled); the sample count is always at
    least i_min + 1. The draws come from ``numpy.random.default_rng(seed)``.

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
    rng = np.random.default_rng(seed)
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


def _tree_diameter(parent: np.ndarray, levels: list[np.ndarray]) -> int:
    """Exact diameter of the tree given by ``parent`` and its ``levels``.

    A node farthest from any node of a tree ends a longest path, so the
    first node of the deepest level does. Its tree distance to a node at
    level l is depth + l - 2b, where b is the level at which that node's
    root path leaves its own; going down the levels once carries b.
    """
    depth = len(levels) - 1
    branch = np.zeros(parent.size, dtype=np.int64)
    v = int(levels[-1][0])
    for level in range(depth, 0, -1):  # the end's root path leaves itself at its own level
        branch[v] = level
        v = parent[v]
    diameter = depth
    for level in range(1, depth + 1):
        kids = levels[level]
        # a node on the end's root path keeps its own level; any other takes its parent's
        branch[kids] = b = np.maximum(branch[kids], branch[parent[kids]])
        diameter = max(diameter, depth + level - 2 * int(b.min()))
    return diameter


def diameter_upper_bound(snapshot: Snapshot, giant_mask: np.ndarray, root: int) -> int:
    """Exact diameter of the BFS tree rooted at ``root``.

    The tree spans the giant component with a subset of its links, so every
    graph distance is at most the tree distance and the tree diameter bounds
    the graph diameter from above. The tree is the FIFO one (see
    :func:`_bfs_levels`); its diameter comes from one root path.
    """
    if not giant_mask[root]:
        raise ValueError(f"root {root} is outside the giant component")
    parent, levels = _bfs_levels(snapshot.offsets, snapshot.neighbors, root)
    return _tree_diameter(parent, levels)


def diameter_bounds(
    snapshot: Snapshot, giant_mask: np.ndarray, config: BoundConfig = BoundConfig(), seed=0
) -> BoundsOutcome:
    """Iterated sandwich of the giant component's diameter.

    Each round runs one double sweep from a random giant node (raising the
    lower bound) and one BFS-tree bound from the next root in degree-descending
    order (lowering the upper bound), so the bracket can only tighten. Stops
    after at least ``min_iterations`` rounds once upper - lower < gap_target,
    or unconditionally at ``iteration_cap``. The sweep starts come from
    ``numpy.random.default_rng(seed)``.

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
    rng = np.random.default_rng(seed)
    lower, upper = 0, math.inf
    lowers: list[int] = []
    uppers: list[int] = []
    for t in range(config.iteration_cap):
        if t % _WORD == 0:  # double sweeps for this round and the next 63
            starts = nodes[rng.integers(nodes.size, size=_WORD)]
            ends = bfs_batch(snapshot, starts).farthest
            sweeps = bfs_batch(snapshot, ends).eccentricity
        lower = max(lower, int(sweeps[t % _WORD]))
        root = int(root_order[t % root_order.size])
        upper = min(upper, diameter_upper_bound(snapshot, giant_mask, root))
        lowers.append(lower)
        uppers.append(upper)
        if t + 1 >= config.min_iterations and upper - lower < config.gap_target:
            break
    return BoundsOutcome(
        lower=lower,
        upper=upper,
        iterations=len(uppers),
        converged=upper - lower < config.gap_target,
        lower_history=tuple(lowers),
        upper_history=tuple(uppers),
    )

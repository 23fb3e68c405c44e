"""Distance statistics: BFS, average-distance estimation, diameter bounds.

Exhaustive distance computation is off the table at measurement scale, so
everything here leans on a small number of full BFS runs. The average
distance is estimated by sampling sources uniformly from the giant component
until the running mean settles. The diameter is bracketed from below by
double-sweep eccentricities. From above, the first round takes the diameter
of a BFS tree from the top hub, which contains all of the graph's nodes but
only a subset of its links, so its diameter can only overestimate, and which
is exact on a tree; later rounds take twice the eccentricity of the next hub
(Magnien, Latapy & Habib, ACM JEA 2009). Repeating both with fresh starting
points tightens the bracket.

Estimator sources, double-sweep starts and hub roots are traversed up to 64
at a time by a bit-parallel BFS (one ``uint64`` word per node, one bit per
source), following Then et al., "The More the Merrier: Efficient
Multi-Source Graph Traversal" (VLDB 2014); the stopping rules still consume
them one by one. Per level, one OR of the new words gives the eccentricities;
a byte histogram counting each source's new nodes, and the search for its
farthest node, run only for callers that read them. The BFS-tree bound runs
one FIFO BFS with parents; a node on the deepest level ends a longest tree
path, measured in one pass down the levels.

Distances are restricted to the giant component throughout; a node's mean
distance includes the zero distance to itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    """Per-source results of one :func:`bfs_batch` call, in source order;
    None for a field the call was asked not to compute."""

    distance_sums: Optional[np.ndarray]  # int64 sum of hops to every reached node
    reached: Optional[np.ndarray]  # int64 reached nodes, the source included
    eccentricity: np.ndarray  # int64 largest hop count reached
    farthest: Optional[np.ndarray]  # int64 smallest-index node at that hop count


_WORD = 64  # sources per bit-parallel BFS: one bit each in a uint64 word
_BLOCK = _WORD // 2  # bound rounds per block: their sweep starts and hub roots share a batch
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


def bfs_batch(snapshot: Snapshot, sources, *, counts=True, farthest=True) -> BatchResult:
    """BFS from up to 64 sources at once, one bit of a ``uint64`` per source.

    Each level costs one gather of the frontier words over the adjacency
    array and one ``bitwise_or.reduceat`` over the nodes' segments, however
    many sources share the call. Sources may repeat. Per source it returns
    the eccentricity; with ``counts``, the total of the reached nodes'
    distances and their number; with ``farthest``, the farthest node at the
    eccentricity of smallest index. A field left out is None.
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
    bit_of = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    seen = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(seen, sources, bit_of)
    frontier = seen
    ecc = np.zeros(k, dtype=np.int64)
    sums = np.zeros(k, dtype=np.int64) if counts else None
    reached = np.ones(k, dtype=np.int64) if counts else None
    far = sources.copy() if farthest else None
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
        ecc[(np.bitwise_or.reduce(words) & bit_of) != 0] = level  # sources that gained nodes
        if counts:
            # bit b of byte j is source 8j + b: histogram each byte position's
            # values, then read the bits of each value off _BYTE_BITS
            octets = words.view(np.uint8).reshape(hit.size, 8) + _BYTE_BINS
            histogram = np.bincount(octets.ravel(), minlength=8 * 256).reshape(8, 256)
            new = (histogram @ _BYTE_BITS).ravel()[:k]
            sums += level * new
            reached += new
        if farthest:
            # in ascending node order, a row whose running OR gains a bit
            # holds that source's smallest-index node at this level
            grown = np.bitwise_or.accumulate(words)
            rows = np.flatnonzero(np.diff(grown, prepend=np.uint64(0)))
            gained = np.diff(grown[rows], prepend=np.uint64(0))  # a superset minus its subset
            bits = np.unpackbits(gained.view(np.uint8).reshape(rows.size, 8), axis=1, bitorder="little")
            row, got = np.nonzero(bits)
            far[got] = hit[rows[row]]
    return BatchResult(distance_sums=sums, reached=reached, eccentricity=ecc, farthest=far)


def bfs_batch_calls(samples: int, iterations: int) -> int:
    """:func:`bfs_batch` calls behind an estimate of ``samples`` sources and
    a bracket of ``iterations`` rounds: one per block of 64 samples, two per
    block of 32 rounds."""
    return -(-samples // _WORD) + 2 * -(-iterations // _BLOCK)


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
        batch = bfs_batch(snapshot, nodes[rng.integers(size, size=_WORD)], farthest=False)
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
    lower bound) and bounds the diameter from above at the next root in
    degree-descending order, wrapping around (lowering the upper bound), so
    the bracket can only tighten. Round 0 takes the root's BFS-tree diameter,
    exact on a tree; round t >= 1 takes twice the root's eccentricity, since
    every node lies within that many hops of every other through the root.
    Stops after at least ``min_iterations`` rounds once upper - lower <
    gap_target, or unconditionally at ``iteration_cap``. The sweep starts
    come from ``numpy.random.default_rng(seed)``.

    Rounds run in blocks of 32: one batch BFS from the block's 32 drawn
    starts and its 32 roots, then one from the 32 farthest nodes the starts
    found. Round t reads entry t mod 32, so the bounds equal those of one
    sweep and one root per round. The one FIFO tree BFS is round 0's.
    """
    nodes = np.nonzero(giant_mask)[0]
    if nodes.size < 2:
        raise ValueError("giant component must have at least 2 nodes")
    deg = snapshot.degrees
    root_order = nodes[np.lexsort((nodes, -deg[nodes]))]
    rng = np.random.default_rng(seed)
    lower, upper = 0, diameter_upper_bound(snapshot, giant_mask, int(root_order[0]))
    lowers: list[int] = []
    uppers: list[int] = []
    for t in range(config.iteration_cap):
        i = t % _BLOCK
        if i == 0:  # sweeps and roots for this round and the next 31
            starts = nodes[rng.integers(nodes.size, size=_BLOCK)]
            roots = root_order[np.arange(t, t + _BLOCK) % root_order.size]
            first = bfs_batch(snapshot, np.concatenate([starts, roots]), counts=False)
            root_ecc = first.eccentricity[_BLOCK:]
            sweeps = bfs_batch(
                snapshot, first.farthest[:_BLOCK], counts=False, farthest=False
            ).eccentricity
        lower = max(lower, int(sweeps[i]))
        if t:
            upper = min(upper, 2 * int(root_ecc[i]))
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

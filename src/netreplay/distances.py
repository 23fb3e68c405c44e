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

Sources are traversed up to 64 at a time by a bit-parallel BFS (one
``uint64`` word per node, one bit per source), following Then et al., "The
More the Merrier: Efficient Multi-Source Graph Traversal" (VLDB 2014). One
scheduler, :func:`distance_statistics`, packs a checkpoint's estimator
samples and bracket rounds into shared batches: per wave of up to 32 rounds,
one batch of sweep starts and one of the far ends they found plus the
wave's hub roots, with samples in the free bits while the estimator's rule
runs. The rules read results one source at a time in draw order, so every
value equals that of one BFS per source.

A batch over a component ends once every node of it has seen every source,
so no level that finds nothing runs. Per level, one OR of the new words
gives the eccentricities, and a byte histogram counts each source's new
nodes when the batch carries samples. A source's farthest node is searched
for only at its last level, which the next level's OR reveals. The BFS-tree
bound runs one FIFO BFS with parents; a node on the deepest level ends a
longest tree path, measured in one pass down the levels.

Distances are restricted to the giant component throughout; a node's mean
distance includes the zero distance to itself.
"""

from __future__ import annotations

import math
import time
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
    entries: int  # adjacency entries gathered, over all levels


@dataclass
class DistanceWork:
    """What one checkpoint's distance statistics cost: seconds in the
    round-0 tree bound and in :func:`bfs_batch` calls, the number of each,
    and the adjacency entries their levels gathered."""

    dist_tree: float = 0.0
    dist_batch: float = 0.0
    dist_batches: int = 0
    dist_tree_bfs: int = 0
    dist_entries: int = 0


_WORD = 64  # sources per bit-parallel BFS: one bit each in a uint64 word
_ROUNDS = _WORD // 2  # bracket rounds per wave: its far ends and its roots share a word
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
        # numpy casts int32 fancy indices on every use
        nbrs = neighbors[entries].astype(np.intp, copy=False)
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


def _first_holders(far: np.ndarray, hit: np.ndarray, words: np.ndarray, bits) -> None:
    """For each bit set in ``bits``, store in ``far`` the first node of
    ``hit`` (ascending) whose word in ``words`` has that bit."""
    # a row whose running OR gains a bit holds that bit's first node
    grown = np.bitwise_or.accumulate(words & bits)
    rows = np.flatnonzero(np.diff(grown, prepend=np.uint64(0)))
    gained = np.diff(grown[rows], prepend=np.uint64(0))  # a superset minus its subset
    set_bits = np.unpackbits(gained.view(np.uint8).reshape(rows.size, 8), axis=1, bitorder="little")
    row, source = np.nonzero(set_bits)
    far[source] = hit[rows[row]]


def bfs_batch(
    snapshot: Snapshot, sources, *, counts=True, farthest=True, component_size=None
) -> BatchResult:
    """BFS from up to 64 sources at once, one bit of a ``uint64`` per source.

    Each level costs one gather of the frontier words over the adjacency
    array and one ``bitwise_or.reduceat`` over the nodes' segments, however
    many sources share the call. Sources may repeat. Per source it returns
    the eccentricity; with ``counts``, the total of the reached nodes'
    distances and their number; with ``farthest``, the farthest node at the
    eccentricity of smallest index. A field left out is None.

    With ``component_size``, the size of a connected component holding every
    source, the call ends once that many nodes have seen every source, in
    place of the level that finds no new node. The results are the same.
    """
    sources = np.asarray(sources, dtype=np.int64)
    k = sources.size
    if not 1 <= k <= _WORD:
        raise ValueError(f"between 1 and {_WORD} sources per batch, got {k}")
    n = snapshot.n
    if sources.min() < 0 or sources.max() >= n:
        raise IndexError(f"source out of range [0, {n})")
    neighbors = snapshot.neighbor_index
    linked = snapshot.linked
    segment_starts = snapshot.segment_starts
    bit_of = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    full = np.bitwise_or.reduce(bit_of)
    seen = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(seen, sources, bit_of)
    saturated = np.count_nonzero(seen == full)  # nodes that have seen every source
    frontier = seen
    ecc = np.zeros(k, dtype=np.int64)
    sums = np.zeros(k, dtype=np.int64) if counts else None
    reached = np.ones(k, dtype=np.int64) if counts else None
    far = sources.copy() if farthest else None
    reach = np.zeros(n, dtype=np.uint64)
    if counts:
        bins = np.tile(_BYTE_BINS, n)  # byte j of a word goes to bins 256j to 256j + 255
    level = entries = 0
    last = None  # the latest level's (hit, words, gained)
    while segment_starts.size and saturated != component_size:
        reach[linked] = np.bitwise_or.reduceat(frontier[neighbors], segment_starts)
        entries += neighbors.size
        frontier = reach & ~seen
        hit = np.flatnonzero(frontier)
        if hit.size == 0:
            break
        level += 1
        seen |= frontier
        saturated += np.count_nonzero(seen[hit] == full)
        words = frontier[hit].astype("<u8", copy=False)
        gained = np.bitwise_or.reduce(words)
        ecc[(gained & bit_of) != 0] = level  # sources that gained nodes
        if farthest and last is not None and last[2] & ~gained:
            _first_holders(far, *last[:2], last[2] & ~gained)  # sources whose last level it was
        last = hit, words, gained
        if counts:
            # bit b of byte j is source 8j + b: histogram each byte position's
            # values, then read the bits of each value off _BYTE_BITS
            octets = words.view(np.uint8) + bins[: 8 * hit.size]
            histogram = np.bincount(octets, minlength=8 * 256).reshape(8, 256)
            new = (histogram @ _BYTE_BITS).ravel()[:k]
            sums += level * new
            reached += new
    if farthest and last is not None:
        _first_holders(far, *last)  # no source gains past the final level
    return BatchResult(
        distance_sums=sums, reached=reached, eccentricity=ecc, farthest=far, entries=entries
    )


def _component_nodes(snapshot: Snapshot, giant_mask: np.ndarray) -> np.ndarray:
    """The mask's nodes, after checking that no adjacency entry of one of
    them leads outside the mask. A batch's early stop counts saturated nodes
    against the mask's size, so it relies on that."""
    nodes = np.flatnonzero(giant_mask)
    if nodes.size < 2:
        raise ValueError("giant component must have at least 2 nodes")
    owned = np.repeat(giant_mask, snapshot.degrees)  # the entries of the mask's nodes
    if np.any(owned & ~giant_mask[snapshot.neighbor_index]):
        raise ValueError("giant mask is not the component of its sources")
    return nodes


class _Estimator:
    """The average-distance rule, fed one source's distance sum at a time."""

    def __init__(self, size: int, config: EstimatorConfig, seed):
        self.size = size  # the component's, which every source must reach
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.samples: list[float] = []
        self.means: list[float] = []
        self.done = False

    def consume(self, sums: np.ndarray, reached: np.ndarray) -> None:
        size = self.size
        if np.any(reached != size):
            raise ValueError("giant mask is not the component of its sources")
        i_min, epsilon = self.config.i_min, self.config.epsilon
        for total in sums.tolist():
            self.samples.append(total / size)
            self.means.append(math.fsum(self.samples) / len(self.samples))
            i = len(self.means)
            if i > i_min:
                window = self.means[i - i_min - 1 :]
                if all(abs(window[j + 1] - window[j]) < epsilon for j in range(i_min)):
                    self.done = True
                    return


class _Bracket:
    """The diameter bracket's rounds: round t's sweep raises the lower
    bound, and twice the eccentricity of the hub at t in degree-descending
    order (wrapping around) lowers the upper bound, which round 0 takes from
    the top hub's BFS tree instead."""

    def __init__(
        self, nodes: np.ndarray, root_order: np.ndarray, config: BoundConfig, seed, tree_bound: int
    ):
        self.nodes = nodes
        self.root_order = root_order
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.lower = 0
        self.upper = tree_bound
        self.lowers: list[int] = []
        self.uppers: list[int] = []
        self.done = False

    def wave(self) -> tuple[np.ndarray, np.ndarray]:
        """The next wave's sweep starts, one per round, and the roots of its
        rounds past round 0."""
        t = len(self.uppers)
        rounds = min(_ROUNDS, self.config.iteration_cap - t)
        starts = self.nodes[self.rng.integers(self.nodes.size, size=rounds)]
        roots = self.root_order[np.arange(max(t, 1), t + rounds) % self.root_order.size]
        return starts, roots

    def consume(self, sweeps: np.ndarray, root_ecc: np.ndarray) -> None:
        uppers = (2 * root_ecc).tolist()
        if not self.uppers:
            uppers.insert(0, self.upper)
        config = self.config
        for lower, upper in zip(sweeps.tolist(), uppers, strict=True):
            self.lower = max(self.lower, lower)
            self.upper = min(self.upper, upper)
            self.lowers.append(self.lower)
            self.uppers.append(self.upper)
            t = len(self.uppers)
            if t >= config.min_iterations and self.upper - self.lower < config.gap_target:
                self.done = True
                return
        self.done = t == config.iteration_cap

    def outcome(self) -> BoundsOutcome:
        return BoundsOutcome(
            lower=self.lower,
            upper=self.upper,
            iterations=len(self.uppers),
            converged=self.upper - self.lower < self.config.gap_target,
            lower_history=tuple(self.lowers),
            upper_history=tuple(self.uppers),
        )


def distance_statistics(
    snapshot: Snapshot,
    giant_mask: np.ndarray,
    estimator: Optional[EstimatorConfig] = EstimatorConfig(),
    bounds: Optional[BoundConfig] = BoundConfig(),
    *,
    estimator_seed=0,
    bounds_seed=0,
) -> tuple[Optional[tuple[float, int]], Optional[BoundsOutcome], DistanceWork]:
    """The giant component's sampled average distance and diameter bracket,
    through shared batches.

    Returns ((estimate, samples), bounds, work), with None in place of a
    statistic whose config is None; see :func:`estimate_average_distance`
    and :func:`diameter_bounds` for each. The bracket runs in waves of
    min(32, rounds left before the cap) rounds, two batches a wave: the
    wave's sweep starts, then the far ends they found and the wave's roots.
    Full waves keep the bracket at 2 * ceil(rounds / 32) batches, whatever
    round its rule stops at. Estimator samples fill each batch's free bits
    while the rule runs, then go 64 to a batch.
    """
    nodes = _component_nodes(snapshot, giant_mask)
    work = DistanceWork()
    sampler = _Estimator(nodes.size, estimator, estimator_seed) if estimator else None
    bracket = None
    if bounds:
        root_order = nodes[np.lexsort((nodes, -snapshot.degrees[nodes]))]
        t0 = time.perf_counter()
        tree_bound = diameter_upper_bound(snapshot, giant_mask, int(root_order[0]))
        work.dist_tree = time.perf_counter() - t0
        work.dist_tree_bfs = 1
        work.dist_entries = int(snapshot.degrees[nodes].sum())  # each node's segment, once
        bracket = _Bracket(nodes, root_order, bounds, bounds_seed, tree_bound)

    def run(head: np.ndarray, farthest: bool) -> BatchResult:
        """One batch of ``head`` and, while the estimator runs, samples."""
        free = _WORD - head.size if sampler and not sampler.done else 0
        # a block draw yields the same sources as that many single draws
        samples = nodes[sampler.rng.integers(nodes.size, size=free)] if free else head[:0]
        t0 = time.perf_counter()
        batch = bfs_batch(
            snapshot,
            np.concatenate([head, samples]),
            counts=samples.size > 0,
            farthest=farthest,
            component_size=nodes.size,
        )
        work.dist_batch += time.perf_counter() - t0
        work.dist_batches += 1
        work.dist_entries += batch.entries
        if samples.size:
            sampler.consume(batch.distance_sums[head.size :], batch.reached[head.size :])
        return batch

    while bracket and not bracket.done:
        starts, roots = bracket.wave()
        ends = run(starts, farthest=True).farthest[: starts.size]
        ecc = run(np.concatenate([ends, roots]), farthest=False).eccentricity
        bracket.consume(ecc[: ends.size], ecc[ends.size : ends.size + roots.size])
    while sampler and not sampler.done:
        run(nodes[:0], farthest=False)
    estimate = (sampler.means[-1], len(sampler.means)) if sampler else None
    return estimate, bracket.outcome() if bracket else None, work


def estimate_average_distance(
    snapshot: Snapshot, giant_mask: np.ndarray, config: EstimatorConfig = EstimatorConfig(), seed=0
) -> tuple[float, int]:
    """Sampled average distance over the giant component.

    Draws sources uniformly at random with replacement, maintains the running
    mean of their mean distances, and stops once ``config.i_min`` successive
    estimates in a row each changed by less than ``config.epsilon``. Returns
    (estimate, number of sources sampled); the sample count is always at
    least i_min + 1. The draws come from ``numpy.random.default_rng(seed)``.

    Sources are drawn and traversed in blocks of up to 64; a block draw
    yields the same sources as as many single draws, and the rule consumes
    them in order, so the blocks change neither the estimate nor the count.
    ``giant_mask`` must be a connected component: a mask with a link to a
    node outside it, or a source that reaches a different number of nodes
    than the mask holds, is an error.
    """
    return distance_statistics(snapshot, giant_mask, config, None, estimator_seed=seed)[0]


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
    parent, levels = _bfs_levels(snapshot.offsets, snapshot.neighbor_index, root)
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

    Rounds run in waves of up to 32: one batch BFS from the wave's drawn
    starts, then one from the farthest nodes they found and the wave's
    roots. Rounds read their results in order, so the bounds equal those of
    one sweep and one root per round. The one FIFO tree BFS is round 0's.
    ``giant_mask`` must be a component, as for
    :func:`estimate_average_distance`.
    """
    return distance_statistics(snapshot, giant_mask, None, config, bounds_seed=seed)[1]

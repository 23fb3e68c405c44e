"""Distance statistics: BFS, average-distance estimation, diameter bounds.

Exhaustive distance computation is off the table at measurement scale, so
everything here leans on a small number of full BFS runs. The average
distance is estimated by sampling sources uniformly from the giant component
until the running mean settles. The diameter is bracketed from below by
double-sweep eccentricities, and from above by twice the eccentricity of the
next hub in degree order (Magnien, Latapy & Habib, ACM JEA 2009). A
component with one link fewer than nodes is a tree, where the double sweep
is exact and so sets both bounds. Repeating both with fresh starting points
tightens the bracket.

Sources are traversed up to 64 at a time by a bit-parallel BFS (one
``uint64`` word per node, one bit per source), following Then et al., "The
More the Merrier: Efficient Multi-Source Graph Traversal" (VLDB 2014). One
scheduler, :func:`distance_statistics`, packs the estimator samples and
bracket rounds of one or more checkpoints into shared batches on one
snapshot, each checkpoint in its own group of bits: per wave of bracket
rounds, one batch of sweep starts and one of the far ends they found plus
the wave's hub roots, with samples in the free bits while the estimator's
rule runs. The replay pairs adjacent checkpoints on the later one's
snapshot; the earlier one's group clears its bits from the words gathered
over the later links' entries, so it sees only its own graph. The rules
read results one source at a time in draw order, so every value equals that
of one BFS per source on the checkpoint's own graph.

A group over a component is done once every node of it has seen each of its
sources, and a batch ends when every group is, so no level that finds
nothing runs. Per level, one OR of the new words gives the eccentricities,
and a byte histogram counts each source's new nodes when the batch carries
samples. A source's farthest node is searched for only at its last level,
which the next level's OR reveals.

Distances are restricted to the giant component throughout; a node's mean
distance includes the zero distance to itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from netreplay.degrees import degree_order
from netreplay.graph import Snapshot


@dataclass(frozen=True)
class EstimatorConfig:
    """Stopping rule of the average-distance estimator, which draws sources
    uniformly at random with replacement from the giant component and keeps
    the running mean of their mean distances: after ``i_min`` samples, stop
    as soon as the last ``i_min`` successive running means each moved less
    than ``epsilon``, so at least ``i_min + 1`` sources are sampled."""

    i_min: int = 10
    epsilon: float = 0.1

    def __post_init__(self):
        if self.i_min < 1:
            raise ValueError("i_min must be at least 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class BoundConfig:
    """Stopping rule of the diameter bracket. Each round runs one double
    sweep from a random giant node, raising the lower bound, and lowers the
    upper bound to twice the eccentricity of the next root in
    degree-descending order, wrapping around: every node lies within that
    many hops of every other through the root. On a tree, where the mask's
    degrees sum to 2 * (size - 1), the round's double-sweep value is exact
    and is the upper bound instead, so a tree's bracket closes in round 0.
    Iterate at least ``min_iterations`` times, stop once the bracket is
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


class Group(NamedTuple):
    """One checkpoint's run of a batch's sources: how many, the size of the
    connected component that holds them (None: run until they find no new
    node), and the snapshot's adjacency entries of links that arrived after
    the checkpoint, which they must not cross (None: there are none)."""

    width: int
    component_size: Optional[int] = None
    late: Optional[np.ndarray] = None


class MaskError(ValueError):
    """A giant mask that is not the component of its sources, or too small.
    ``checkpoint`` is the place of the rejected checkpoint in what the call
    was given: a group of :func:`bfs_batch`, an entry of
    :func:`distance_statistics`."""

    def __init__(self, message: str, checkpoint: int):
        super().__init__(message)
        self.checkpoint = checkpoint


@dataclass
class DistanceWork:
    """What one call of :func:`distance_statistics` cost: seconds in
    :func:`bfs_batch` calls, their number, and the adjacency entries their
    levels gathered."""

    dist_batch: float = 0.0
    dist_batches: int = 0
    dist_entries: int = 0


_WORD = 64  # sources per bit-parallel BFS: one bit each in a uint64 word
_BYTE_BINS = 256 * np.arange(8, dtype=np.uint16)  # one range of 256 bins per byte of a word
_BYTE_BITS = np.arange(256)[:, None] >> np.arange(8) & 1  # row v: the 8 bits of byte value v


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
    snapshot: Snapshot, sources, *, counts=True, farthest=True, groups=None
) -> BatchResult:
    """BFS from up to 64 sources at once, one bit of a ``uint64`` per source.

    Each level costs one gather of the frontier words over the adjacency
    array and one ``bitwise_or.reduceat`` over the nodes' segments, however
    many sources share the call. Sources may repeat. Per source it returns
    the eccentricity; with ``counts``, the total of the reached nodes'
    distances and their number; with ``farthest``, the farthest node at the
    eccentricity of smallest index. A field left out is None.

    ``groups`` splits the sources, in order, into :class:`Group` runs; the
    default is one group of them all, without a component size. A group's
    sources traverse only the links of its own checkpoint: each level clears
    its bits from the gathered words of its late entries. A group with a
    component size is done once that many nodes have seen each of its
    sources, one without once its sources find no new node, and the call
    ends when every group is done, so a component's last level that finds
    nothing never runs. The results are the same as without the sizes. If a
    group's sources run out of new nodes first, the nodes they share are
    fewer than its component size, and the call raises :class:`MaskError`
    naming the group.
    """
    sources = np.asarray(sources, dtype=np.int64)
    k = sources.size
    if not 1 <= k <= _WORD:
        raise ValueError(f"between 1 and {_WORD} sources per batch, got {k}")
    n = snapshot.n
    if sources.min() < 0 or sources.max() >= n:
        raise IndexError(f"source out of range [0, {n})")
    if groups is None:
        groups = (Group(k),)
    widths = [group.width for group in groups]
    if min(widths) < 1 or sum(widths) != k:
        raise ValueError(f"groups of widths {widths} do not split {k} sources")
    neighbors = snapshot.neighbors
    linked = snapshot.linked
    segment_starts = snapshot.segment_starts
    bit_of = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    ends = np.cumsum(widths)
    fulls = [np.bitwise_or.reduce(bit_of[end - width : end]) for end, width in zip(ends, widths)]
    clears = [(~full, g.late) for full, g in zip(fulls, groups) if g.late is not None]
    seen = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(seen, sources, bit_of)
    # per group, the nodes that have seen each of its sources
    saturated = [np.count_nonzero(seen & full == full) for full in fulls]
    going = [s != g.component_size for s, g in zip(saturated, groups)]
    frontier = seen
    ecc = np.zeros(k, dtype=np.int64)
    sums = np.zeros(k, dtype=np.int64) if counts else None
    reached = np.ones(k, dtype=np.int64) if counts else None
    far = sources.copy() if farthest else None
    reach = np.zeros(n, dtype=np.uint64)
    level = entries = 0
    last = None  # the latest level's (hit, words, gained)
    while segment_starts.size and any(going):
        gathered = frontier[neighbors]
        for clear, late in clears:
            gathered[late] &= clear
        reach[linked] = np.bitwise_or.reduceat(gathered, segment_starts)
        del gathered
        entries += neighbors.size
        frontier = reach & ~seen
        hit = np.flatnonzero(frontier)
        if hit.size == 0:
            break
        level += 1
        seen |= frontier
        words = frontier[hit].astype("<u8", copy=False)
        gained = np.bitwise_or.reduce(words)
        held = seen[hit]
        for g, full in enumerate(fulls):
            if going[g]:
                # nodes that gained one of the group's bits and now hold them all
                saturated[g] += np.count_nonzero((held & full == full) & (words & full != 0))
                going[g] = bool(gained & full) and saturated[g] != groups[g].component_size
        ecc[(gained & bit_of) != 0] = level  # sources that gained nodes
        if farthest and last is not None and last[2] & ~gained:
            _first_holders(far, *last[:2], last[2] & ~gained)  # sources whose last level it was
        last = hit, words, gained
        if counts:
            # bit b of byte j is source 8j + b: histogram each byte position's
            # values, then read the bits of each value off _BYTE_BITS
            octets = words.view(np.uint8).reshape(-1, 8) + _BYTE_BINS
            histogram = np.bincount(octets.ravel(), minlength=8 * 256).reshape(8, 256)
            new = (histogram @ _BYTE_BITS).ravel()[:k]
            sums += level * new
            reached += new
    for g, group in enumerate(groups):
        if group.component_size is not None and saturated[g] != group.component_size:
            raise MaskError("giant mask is not the component of its sources", g)
    if farthest and last is not None:
        _first_holders(far, *last)  # no source gains past the final level
    return BatchResult(
        distance_sums=sums, reached=reached, eccentricity=ecc, farthest=far, entries=entries
    )


class _Estimator:
    """The average-distance rule, fed one source's distance sum at a time."""

    def __init__(self, size: int, config: EstimatorConfig, seed):
        self.size = size  # the component's, which every source reaches
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.samples: list[float] = []
        self.means: list[float] = []
        self.done = False

    def consume(self, sums: np.ndarray) -> None:
        size = self.size
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
    order (wrapping around) lowers the upper bound. On a tree the sweep is
    exact, so it lowers the upper bound too."""

    def __init__(
        self, nodes: np.ndarray, root_order: np.ndarray, config: BoundConfig, seed, tree: bool
    ):
        self.nodes = nodes
        self.root_order = root_order
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.tree = tree
        self.lower = 0
        self.upper = math.inf  # until round 0
        self.lowers: list[int] = []
        self.uppers: list[int] = []
        self.done = False

    def wave(self, most: int) -> tuple[np.ndarray, np.ndarray]:
        """The next wave's sweep starts and roots, one of each per round: at
        most ``most`` rounds, and no more than the rule's minimum in the
        first wave, since it never stops sooner."""
        t = len(self.uppers)
        config = self.config
        rounds = min(most, (config.min_iterations if t == 0 else config.iteration_cap) - t)
        starts = self.nodes[self.rng.integers(self.nodes.size, size=rounds)]
        roots = self.root_order[np.arange(t, t + rounds) % self.root_order.size]
        return starts, roots

    def consume(self, sweeps: np.ndarray, root_ecc: np.ndarray) -> None:
        uppers = sweeps if self.tree else 2 * root_ecc
        config = self.config
        for lower, upper in zip(sweeps.tolist(), uppers.tolist(), strict=True):
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


class DistanceCheckpoint(NamedTuple):
    """A checkpoint whose distances a snapshot's batches measure, with its
    seeds. ``giant_mask`` may be shorter than the snapshot's n: the nodes
    past it are outside. When the snapshot also holds links that arrived
    after the checkpoint, ``late`` lists the snapshot's adjacency entries of
    those links, ascending (see :class:`Group`); None means none."""

    giant_mask: np.ndarray
    estimator_seed: object = 0
    bounds_seed: object = 0
    late: Optional[np.ndarray] = None


class _Rules:
    """One checkpoint's stopping rules, and the group its batches run."""

    def __init__(
        self, snapshot: Snapshot, checkpoint: DistanceCheckpoint, index: int,
        estimator: EstimatorConfig, bounds: BoundConfig,
    ):
        self.late = checkpoint.late
        mask = np.zeros(snapshot.n, dtype=bool)
        mask[: checkpoint.giant_mask.size] = checkpoint.giant_mask
        nodes = self.nodes = np.flatnonzero(mask)
        if nodes.size < 2:
            raise MaskError("giant component must have at least 2 nodes", index)
        # A batch's early stop counts saturated nodes against the mask's
        # size, so no entry of the checkpoint's own may lead outside the
        # mask; the batch itself rejects a closed mask its sources do not cover.
        degrees = snapshot.degrees
        owned = np.repeat(mask, degrees)
        if self.late is not None:
            owned[self.late] = False
        if np.any(owned & ~mask[snapshot.neighbors]):
            raise MaskError("giant mask is not the component of its sources", index)
        self.sampler = _Estimator(nodes.size, estimator, checkpoint.estimator_seed)
        if self.late is not None:
            # A late link's two entries each name the other's owner, so a
            # node owns as many late entries as name it.
            degrees -= np.bincount(snapshot.neighbors[self.late], minlength=snapshot.n)
        degrees = degrees[nodes]
        root_order = nodes[degree_order(degrees)]  # hubs first, ties by node index
        # a connected mask is a tree when it has one link fewer than nodes;
        # every batch rejects a mask its sources do not cover
        tree = int(degrees.sum()) == 2 * (nodes.size - 1)
        self.bracket = _Bracket(nodes, root_order, bounds, checkpoint.bounds_seed, tree)

    @property
    def done(self) -> bool:
        return self.sampler.done and self.bracket.done

    def outcome(self) -> tuple[tuple[float, int], BoundsOutcome]:
        means = self.sampler.means
        return (means[-1], len(means)), self.bracket.outcome()


def distance_statistics(
    snapshot: Snapshot,
    checkpoints,
    estimator: EstimatorConfig = EstimatorConfig(),
    bounds: BoundConfig = BoundConfig(),
) -> tuple[list[tuple[tuple[float, int], BoundsOutcome]], DistanceWork]:
    """Each :class:`DistanceCheckpoint`'s sampled average distance and
    diameter bracket over its giant component, under the stopping rules of
    ``estimator`` and ``bounds``, through batches on one snapshot that all
    the checkpoints share.

    Returns ([((estimate, samples), bounds) per checkpoint], work). A
    checkpoint's samples come from ``numpy.random.default_rng`` of its
    ``estimator_seed`` and its sweep starts from that of its
    ``bounds_seed``. Every batch gives each checkpoint still running a
    group of 64 / (their number) bits, 32 for a pair. A checkpoint's bracket
    runs in waves, two batches a wave: one BFS from the wave's sweep starts,
    then one from the far ends they found and the wave's roots. Its first
    wave has min(min_iterations, half its bits) rounds, as the rule never
    stops sooner, and each later wave min(half its bits, rounds left before
    the cap), so a lone checkpoint's waves have up to 32 rounds. Estimator
    samples fill a group's free bits while the rule runs, and once its
    bracket has stopped take all of them. A block draw yields the same
    sources as as many single draws, and each rule reads its results in
    draw order, so a checkpoint's values equal those of one BFS per sample
    and one sweep and one root per round on its own graph, whatever shares
    its batches, the other rule included.

    Each ``giant_mask`` must be a connected component: a mask with a link to
    a node outside it, one that a batch's sources do not cover, or one of
    fewer than two nodes is rejected. Raises :class:`MaskError` naming the
    checkpoint whose mask is rejected, before any draw when the mask is not
    closed or too small.
    """
    rules = [_Rules(snapshot, c, i, estimator, bounds) for i, c in enumerate(checkpoints)]
    work = DistanceWork()
    none = np.empty(0, dtype=np.int64)

    def run(heads, width: int, farthest: bool) -> list[tuple]:
        """One batch of each checkpoint's head and, while its estimator runs,
        samples in the rest of its ``width`` bits; each head's eccentricities
        and, with ``farthest``, farthest nodes."""
        parts = []
        for rule, head in heads:
            free = 0 if rule.sampler.done else width - head.size
            draws = rule.sampler.rng.integers(rule.nodes.size, size=free) if free else none
            parts.append((head, rule.nodes[draws]))
        members = [(r, h.size + s.size) for (r, _), (h, s) in zip(heads, parts) if h.size + s.size]
        t0 = time.perf_counter()
        # Every checkpoint rides in the first batch, where a mask its sources
        # do not cover fails, so the failed group's place is the checkpoint's.
        batch = bfs_batch(
            snapshot,
            np.concatenate([sources for part in parts for sources in part]),
            counts=any(samples.size for _, samples in parts),
            farthest=farthest,
            groups=[Group(size, r.nodes.size, r.late) for r, size in members],
        )
        work.dist_batch += time.perf_counter() - t0
        work.dist_batches += 1
        work.dist_entries += batch.entries
        results, start = [], 0
        for (rule, _), (head, samples) in zip(heads, parts):
            end = start + head.size
            if samples.size:
                rule.sampler.consume(batch.distance_sums[end : end + samples.size])
            far = batch.farthest[start:end] if farthest else None
            results.append((batch.eccentricity[start:end], far))
            start = end + samples.size
        return results

    while live := [rule for rule in rules if not rule.done]:
        width = _WORD // len(live)
        waves = [None if rule.bracket.done else rule.bracket.wave(width // 2) for rule in live]
        if not any(waves):
            run([(rule, none) for rule in live], width, farthest=False)
            continue
        starts = [(rule, wave[0] if wave else none) for rule, wave in zip(live, waves)]
        first = run(starts, width, True)
        heads = [
            (rule, np.concatenate([ends, wave[1]]) if wave else none)
            for rule, wave, (_, ends) in zip(live, waves, first)
        ]
        for rule, wave, (ecc, _) in zip(live, waves, run(heads, width, False)):
            if wave:
                rule.bracket.consume(ecc[: wave[1].size], ecc[wave[1].size :])
    return [rule.outcome() for rule in rules], work

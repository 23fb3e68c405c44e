"""BFS correctness, the sampled mean-distance estimator, diameter bracketing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreplay import distances
from netreplay.distances import (
    BoundConfig,
    DistanceCheckpoint,
    EstimatorConfig,
    Group,
    MaskError,
    bfs_batch,
    distance_statistics,
)
from netreplay.generate import gen_two_phase
from netreplay.graph import arrival_csr, finalize_snapshot, late_entries
from netreplay.pipeline import checkpoint_bounds_seed, checkpoint_estimator_seed

from conftest import (
    adjacency_dict,
    bfs_dict,
    connected_random_graph,
    exact_mean_distance,
    random_edges,
    true_diameter,
)
from oracles import (
    average_distance_exact,
    bfs,
    components,
    diameter_bounds,
    diameter_lower_bound,
    estimate_average_distance,
    mean_distance_from,
    scheduled_batches,
    snapshot_from_edges,
)


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def full_mask(n):
    return np.ones(n, dtype=bool)


class TestBfs:
    def test_path(self):
        r = bfs(snapshot_from_edges(path_edges(5)), 0)
        assert r.dist.tolist() == [0, 1, 2, 3, 4]
        assert r.farthest == 4
        assert r.farthest_dist == 4

    def test_unreached_marked(self):
        r = bfs(snapshot_from_edges([(0, 1), (2, 3)]), 0)
        assert r.dist.tolist() == [0, 1, -1, -1]

    def test_farthest_tie_takes_smallest_index(self):
        # from the cycle's node 0, nodes 2 and 4 are both at distance 2
        r = bfs(snapshot_from_edges(cycle_edges(6)), 0)
        assert r.farthest_dist == 3
        assert r.farthest == 3
        r2 = bfs(snapshot_from_edges(cycle_edges(5)), 0)
        assert r2.farthest_dist == 2
        assert r2.farthest == 2  # ties with 3, smaller index wins

    def test_source_out_of_range(self):
        with pytest.raises(IndexError):
            bfs(snapshot_from_edges([(0, 1)]), 2)

    def test_matches_queue_bfs_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            edges = random_edges(rng, n, 0.15)
            snap = snapshot_from_edges(edges, n=n)
            src = int(rng.integers(n))
            got = bfs(snap, src).dist
            want = bfs_dict(adjacency_dict(n, edges), src)
            for v in range(n):
                assert got[v] == want.get(v, -1)


class TestBfsBatch:
    def check_against_oracle(self, n, edges, sources):
        got = bfs_batch(snapshot_from_edges(edges, n=n), sources)
        adj = adjacency_dict(n, edges)
        for j, s in enumerate(sources):
            dist = bfs_dict(adj, s)
            ecc = max(dist.values())
            assert got.distance_sums[j] == sum(dist.values())
            assert got.reached[j] == len(dist)
            assert got.eccentricity[j] == ecc
            assert got.farthest[j] == min(v for v, d in dist.items() if d == ecc)

    def test_matches_queue_bfs_on_random_graphs(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            edges = random_edges(rng, n, float(rng.uniform(0.01, 0.2)))
            sources = rng.integers(n, size=int(rng.integers(1, 65))).tolist()
            self.check_against_oracle(n, edges, sources)

    def test_disconnected_with_isolated_nodes(self):
        # 0 and 9 have no links; 9 is the last node, so its CSR segment is
        # empty at the very end of the adjacency array
        edges = path_edges(4)[1:] + [(5, 6), (6, 7), (7, 5)]
        self.check_against_oracle(10, edges, [0, 1, 3, 5, 8, 9, 2, 9, 0])

    def test_graph_without_links(self):
        self.check_against_oracle(3, [], [0, 2, 2])

    def test_full_word_of_sources(self):
        edges = connected_random_graph(8, 70, 0.06)
        self.check_against_oracle(70, edges, list(range(64)))

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 63, 64])
    def test_batch_sizes_around_byte_boundaries(self, k):
        rng = np.random.default_rng(k)
        for seed in range(4):
            n = int(rng.integers(2, 100))
            edges = random_edges(rng, n, float(rng.uniform(0.02, 0.15)))
            self.check_against_oracle(n, edges, rng.integers(n, size=k).tolist())

    def test_repeated_sources(self):
        edges = connected_random_graph(5, 40, 0.08)
        self.check_against_oracle(40, edges, [7] * 64)
        self.check_against_oracle(40, edges, [3, 9] * 32)
        # each pair of equal sources straddles a byte boundary: bits 7 and 8, 15 and 16, ...
        self.check_against_oracle(40, edges, [(i + 1) // 2 for i in range(64)])

    def test_sources_in_different_bytes_meet_at_one_node(self):
        # every leaf of a star reaches the hub at hop 1, so every byte of
        # the hub's word is set at once
        star = [(0, i) for i in range(1, 65)]
        self.check_against_oracle(65, star, list(range(1, 65)))
        self.check_against_oracle(65, star, [1 + 8 * j for j in range(8)])
        # hub 0 is at hop 1 from its own leaves and at hop 2 from hub 21's,
        # whose bits interleave with theirs in every byte
        hubs = [(0, i) for i in range(1, 21)] + [(21, i) for i in range(22, 41)] + [(0, 21)]
        sources = [1, 22, 2, 23, 3, 24, 4, 25, 5, 26] * 6 + [40, 20, 0, 21]
        self.check_against_oracle(41, hubs, sources)

    def test_farthest_ties_at_last_level(self):
        # from a star's leaf every other leaf is at hop 2: the smallest wins
        star = [(0, i) for i in range(1, 65)]
        got = bfs_batch(snapshot_from_edges(star, n=65), list(range(1, 65)))
        assert got.eccentricity.tolist() == [2] * 64
        assert got.farthest.tolist() == [2] + [1] * 63
        # on a 9-cycle each node has two nodes at hop 4
        sources = list(range(9)) * 7 + [8]
        got = bfs_batch(snapshot_from_edges(cycle_edges(9)), sources)
        assert got.farthest.tolist() == [min((s + 4) % 9, (s + 5) % 9) for s in sources]
        self.check_against_oracle(9, cycle_edges(9), sources)

    def test_batch_size_limits(self):
        snap = snapshot_from_edges(path_edges(70))
        with pytest.raises(ValueError):
            bfs_batch(snap, list(range(65)))
        with pytest.raises(ValueError):
            bfs_batch(snap, [])
        with pytest.raises(IndexError):
            bfs_batch(snap, [0, 70])

    @given(
        st.integers(min_value=2, max_value=70),
        st.floats(min_value=0.0, max_value=0.25),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_flags_leave_out_only_their_fields(self, n, p, seed, k):
        rng = np.random.default_rng(seed)
        snap = snapshot_from_edges(random_edges(rng, n, p), n=n)
        sources = rng.integers(n, size=k)
        full = bfs_batch(snap, sources)
        for counts, farthest in itertools.product((False, True), repeat=2):
            got = bfs_batch(snap, sources, counts=counts, farthest=farthest)
            assert got.eccentricity.tolist() == full.eccentricity.tolist()
            for field, on in [("distance_sums", counts), ("reached", counts), ("farthest", farthest)]:
                value = getattr(got, field)
                if on:
                    assert value.tolist() == getattr(full, field).tolist()
                else:
                    assert value is None

    @given(
        st.integers(min_value=1, max_value=70),
        st.floats(min_value=0.0, max_value=0.25),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_saturation_stop_equals_full_run(self, n, p, seed, k):
        # sources from one component, which may be a lone node
        rng = np.random.default_rng(seed)
        snap = snapshot_from_edges(random_edges(rng, n, p), n=n)
        labels = components(snap).component_id
        inside = np.flatnonzero(labels == labels[rng.integers(n)])
        sources = inside[rng.integers(inside.size, size=k)]
        full = bfs_batch(snap, sources)
        stopped = bfs_batch(snap, sources, groups=[Group(k, inside.size)])
        for field in ("distance_sums", "reached", "eccentricity", "farthest"):
            assert getattr(stopped, field).tolist() == getattr(full, field).tolist()
        # the full run ends with one level that finds nothing; the stop skips it
        assert full.entries - stopped.entries == snap.neighbors.size
        assert stopped.entries == int(full.eccentricity.max()) * snap.neighbors.size


def estimate_one_source_at_a_time(snap, mask, cfg, seed):
    """The estimator's rule over one single draw and one oracle BFS per sample."""
    nodes = np.flatnonzero(mask)
    rng = np.random.default_rng(seed)
    samples, means = [], []
    while True:
        samples.append(mean_distance_from(snap, mask, int(nodes[rng.integers(nodes.size)])))
        means.append(math.fsum(samples) / len(samples))
        i = len(means)
        window = np.abs(np.diff(means[max(0, i - cfg.i_min - 1) :]))
        if i > cfg.i_min and np.all(window < cfg.epsilon):
            return means[-1], i


def bounds_one_sweep_at_a_time(snap, mask, cfg, seed):
    """The bracket's rule over one single draw, one oracle double sweep and
    one root per round: (lower history, upper history). On a tree the upper
    bound is the sweep's own value."""
    nodes = np.flatnonzero(mask)
    rng = np.random.default_rng(seed)
    roots = nodes[np.lexsort((nodes, -snap.degrees[nodes]))]
    tree = int(snap.degrees[nodes].sum()) // 2 == nodes.size - 1  # the mask is connected
    lowers, uppers = [], []
    for t in range(cfg.iteration_cap):
        lower = diameter_lower_bound(snap, mask, int(nodes[rng.integers(nodes.size)]))[0]
        upper = lower if tree else 2 * bfs(snap, int(roots[t % roots.size])).farthest_dist
        lowers.append(max(lowers[-1], lower) if lowers else lower)
        uppers.append(min(uppers[-1], upper) if uppers else upper)
        if t + 1 >= cfg.min_iterations and uppers[-1] - lowers[-1] < cfg.gap_target:
            break
    return tuple(lowers), tuple(uppers)


class TestBlockDraws:
    """Sources are drawn in blocks of 1 to 64, each block as large as the
    batch has room for; the sequence must equal one draw at a time."""

    @pytest.mark.parametrize("seed_of", [checkpoint_estimator_seed, checkpoint_bounds_seed])
    @pytest.mark.parametrize("size", [2, 3, 1000, 6000, 2**31 + 11])
    def test_block_draws_equal_single_draws(self, seed_of, size):
        # every size the scheduler can draw, alone and mixed, each pattern
        # repeated until it covers the 200 single draws
        mixed = [(24, 44, 64), (1, 3, 7, 64), (32, 63, 1, 62, 2, 31, 33)]
        patterns = [(k,) for k in range(1, 65)] + mixed
        for checkpoint in (0, 1, 57):
            single = np.random.default_rng(seed_of(1, checkpoint))
            want = [int(single.integers(size)) for _ in range(200)]
            for pattern in patterns:
                block = np.random.default_rng(seed_of(1, checkpoint))
                got = []
                for k in itertools.cycle(pattern):
                    if len(got) >= 200:
                        break
                    got += block.integers(size, size=k).tolist()
                assert got[:200] == want, pattern

    def test_estimator_matches_one_source_at_a_time(self):
        # i_min above 64 makes the rule consume several blocks
        for seed in range(4):
            edges = connected_random_graph(seed, 50, 0.08)
            snap = snapshot_from_edges(edges, n=50)
            mask = full_mask(50)
            cfg = EstimatorConfig(i_min=70, epsilon=0.02)
            want = estimate_one_source_at_a_time(snap, mask, cfg, seed)
            assert estimate_average_distance(snap, mask, cfg, seed) == want

    def test_bounds_match_one_sweep_at_a_time(self):
        # on the 8 x 8 grid the root order walks inward from (1, 1): the
        # roots' 2 * ecc, 24 at round 0, falls to 22, 20, 18 and 16 at rounds
        # 1, 2, 8 and 14
        grid = [(8 * i + j, 8 * i + j + 1) for i in range(8) for j in range(7)]
        grid += [(8 * i + j, 8 * i + j + 8) for i in range(7) for j in range(8)]
        # all 150 rounds run: five waves of 32 (the last cut to 22 by the
        # cap), and the root order wraps
        cfg = BoundConfig(min_iterations=150, gap_target=1, iteration_cap=150)
        for edges, n in [(connected_random_graph(0, 60, 0.05), 60), (grid, 64)]:
            snap = snapshot_from_edges(edges, n=n)
            mask = full_mask(n)
            out = diameter_bounds(snap, mask, cfg, 5)
            assert out.iterations == 150
            assert (out.lower_history, out.upper_history) == bounds_one_sweep_at_a_time(
                snap, mask, cfg, 5
            )
        assert out.upper_history[:15] == (24, 22) + (20,) * 6 + (18,) * 6 + (16,)

    def test_shared_batches_match_one_source_at_a_time(self):
        # the estimator outlasts the 32 free bits of the bracket's first
        # wave, and the bracket needs a second wave: its rounds share
        # batches with samples until the estimator stops
        est_cfg = EstimatorConfig(i_min=40, epsilon=0.05)
        bound_cfg = BoundConfig(min_iterations=40, gap_target=1, iteration_cap=60)
        for seed in range(3):
            edges = connected_random_graph(seed, 60, 0.05)
            snap = snapshot_from_edges(edges, n=60)
            mask = full_mask(60)
            [(estimate, bounds)], work = distance_statistics(
                snap, [DistanceCheckpoint(mask, seed, seed + 10)], est_cfg, bound_cfg
            )
            assert estimate == estimate_one_source_at_a_time(snap, mask, est_cfg, seed)
            assert (bounds.lower_history, bounds.upper_history) == bounds_one_sweep_at_a_time(
                snap, mask, bound_cfg, seed + 10
            )
            assert 32 < estimate[1] <= 64 and 32 < bounds.iterations <= 60
            assert work.dist_batches == 4
            # each rule's values do not depend on the other rule's config,
            # though the schedule does: a one-round bracket takes 2 batches
            checkpoint = DistanceCheckpoint(mask, seed, seed + 10)
            short = BoundConfig(min_iterations=1, iteration_cap=1)
            [(other_estimate, _)], short_work = distance_statistics(
                snap, [checkpoint], est_cfg, short
            )
            assert other_estimate == estimate and short_work.dist_batches == 2
            lax = EstimatorConfig(i_min=1, epsilon=10.0)
            [(_, other_bounds)], _ = distance_statistics(snap, [checkpoint], lax, bound_cfg)
            assert other_bounds == bounds
            # A pair: the checkpoint after the first 70 % of the links, in a
            # random order, and this one share the full graph's batches, 32
            # bits each, in waves of 16 rounds
            order = np.random.default_rng(seed).permutation(len(edges))
            edges = [edges[i] for i in order]
            split = 7 * len(edges) // 10
            earlier = snapshot_from_edges(edges[:split], n=60)
            early_mask = components(earlier).giant_mask()
            csr = arrival_csr(*np.array(edges).T, 60)
            pair = [
                DistanceCheckpoint(
                    early_mask, seed + 1, seed + 11, late_entries(csr, len(edges), split)
                ),
                DistanceCheckpoint(mask, seed, seed + 10),
            ]
            both, work = distance_statistics(snap, pair, est_cfg, bound_cfg)
            assert both[1] == (estimate, bounds)
            early_estimate, early_bounds = both[0]
            assert early_estimate == estimate_one_source_at_a_time(
                earlier, early_mask, est_cfg, seed + 1
            )
            assert (
                early_bounds.lower_history, early_bounds.upper_history
            ) == bounds_one_sweep_at_a_time(earlier, early_mask, bound_cfg, seed + 11)
            # a bracket of 40 to 60 rounds takes three or four waves of 16,
            # and alone two of 32; samples (51 to 75) fill the gaps
            members = [(e[1], b.iterations) for e, b in both]
            assert work.dist_batches == scheduled_batches(members, 40, 60) == 8

    def test_estimator_rejects_mask_that_is_not_a_component(self):
        snap = snapshot_from_edges([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            estimate_average_distance(snap, full_mask(4))

    def test_estimator_rejects_mask_inside_a_larger_component(self):
        # every source of the mask reaches all 5 path nodes, not the mask's 3
        snap = snapshot_from_edges(path_edges(5))
        mask = np.array([True, True, True, False, False])
        with pytest.raises(ValueError, match="not the component"):
            estimate_average_distance(snap, mask)

    def test_mask_checked_before_any_draw(self, monkeypatch):
        # from node 0 of a 5-path the mask {0, 1, 2} saturates at hop 2,
        # so the saturation stop alone would accept it; the check must not
        # depend on which sources are drawn
        snap = snapshot_from_edges(path_edges(5))
        mask = np.array([True, True, True, False, False])
        got = bfs_batch(snap, [0] * 64, groups=[Group(64, 3)])
        assert got.reached.tolist() == [3] * 64
        monkeypatch.setattr(distances, "bfs_batch", None)  # no batch may run
        for seed in range(5):
            with pytest.raises(ValueError, match="not the component"):
                estimate_average_distance(snap, mask, seed=seed)
            with pytest.raises(ValueError, match="not the component"):
                diameter_bounds(snap, mask, seed=seed)

    @pytest.mark.parametrize("extra", [[], [(11, 12)]], ids=["star", "unicyclic-star"])
    def test_closed_mask_that_is_not_connected_rejected(self, extra):
        # a 10-path beside a 6-node star: no link leaves the mask, yet no
        # batch can cover it. With the star's one cycle the degrees sum to
        # 2 * (size - 1), as a tree's do.
        edges = path_edges(10) + [(10, leaf) for leaf in range(11, 16)] + extra
        snap = snapshot_from_edges(edges)
        mask = full_mask(16)
        with pytest.raises(ValueError, match="not the component"):
            bfs_batch(snap, [0], groups=[Group(1, 16)])
        for seed in range(5):
            with pytest.raises(ValueError, match="not the component"):
                diameter_bounds(snap, mask, seed=seed)
            with pytest.raises(ValueError, match="not the component"):
                estimate_average_distance(snap, mask, seed=seed)
            with pytest.raises(ValueError, match="not the component"):
                distance_statistics(snap, [DistanceCheckpoint(mask, seed, seed)])

    def test_lone_nodes_rejected(self):
        # no link to check, and no level to run
        snap = snapshot_from_edges([], n=2)
        with pytest.raises(ValueError, match="not the component"):
            distance_statistics(snap, [DistanceCheckpoint(full_mask(2))])


class TestPairedBatches:
    """Two checkpoints in one batch on the later one's snapshot, each in its
    own group of bits: every group's results must equal ``bfs_batch`` on
    its own prefix's ``snapshot_from_edges``."""

    FIELDS = ("distance_sums", "reached", "eccentricity", "farthest")

    def paired(self, edges, split, n0, n1, sources, sizes=None):
        """The batch of ``sources[0]`` on the first ``split`` links over
        nodes [0, n0) and ``sources[1]`` on all of them over [0, n1), each
        group sized by its sources' component (or by ``sizes``); and the
        two prefixes' own snapshots."""
        csr = arrival_csr(*np.array(edges, dtype=np.int64).reshape(-1, 2).T, n1)
        later = finalize_snapshot(csr, len(edges), n1)
        own = [snapshot_from_edges(edges[:split], n=n0), snapshot_from_edges(edges, n=n1)]
        if sizes is None:
            sizes = []
            for snap, group in zip(own, sources):
                labels = components(snap).component_id
                sizes.append(int(np.count_nonzero(labels == labels[group[0]])))
        late = late_entries(csr, len(edges), split)
        groups = [Group(len(sources[0]), sizes[0], late), Group(len(sources[1]), sizes[1])]
        return bfs_batch(later, np.concatenate(sources), groups=groups), own

    def check(self, edges, split, n0, n1, sources):
        got, own = self.paired(edges, split, n0, n1, sources)
        start = 0
        for snap, group in zip(own, sources):
            want = bfs_batch(snap, group)
            end = start + len(group)
            for field in self.FIELDS:
                assert getattr(got, field)[start:end].tolist() == getattr(want, field).tolist()
            start = end

    @given(
        st.integers(min_value=2, max_value=50),
        st.floats(min_value=0.0, max_value=0.3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_groups_match_their_own_prefixes(self, n1, p, seed):
        # links in a random order; the earlier prefix's n may exceed its
        # endpoints (isolated nodes that link later), and nodes past it
        # exist only in the later prefix. A group's sources come from the
        # component of a random node of its own prefix, often a lone node.
        rng = np.random.default_rng(seed)
        edges = random_edges(rng, n1, p)
        edges = [edges[i] for i in rng.permutation(len(edges))]
        split = int(rng.integers(len(edges) + 1))
        span = max((max(e) + 1 for e in edges[:split]), default=1)
        n0 = int(rng.integers(span, n1 + 1))
        sources = []
        for n, prefix in ((n0, edges[:split]), (n1, edges)):
            labels = components(snapshot_from_edges(prefix, n=n)).component_id
            inside = np.flatnonzero(labels == labels[rng.integers(n)])
            sources.append(inside[rng.integers(inside.size, size=int(rng.integers(1, 33)))])
        self.check(edges, split, n0, n1, sources)

    def test_earlier_giant_is_another_component(self):
        # before the split: the 4-path 0..3 (the giant) and the link 4-5;
        # after it, 4 and 5 grow into the 8-node giant through nodes 6 to 11,
        # which the earlier checkpoint does not have
        edges = path_edges(4) + [(4, 5), (4, 6), (6, 7), (7, 8), (8, 9), (5, 10), (10, 11)]
        for early in ([0, 3, 1], [4, 5, 5]):
            self.check(edges, 4, 6, 12, [np.array(early), np.array([4, 11, 9, 6])])

    def test_earlier_member_without_links(self):
        # the earlier checkpoint has no link, so its lone node's distances
        # are undefined in the replay: the group stops before any level
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        self.check(edges, 0, 3, 4, [np.array([1]), np.array([3, 0])])
        got, _ = self.paired(edges, 0, 3, 4, [np.array([1]), np.array([3, 0])])
        assert got.eccentricity[0] == 0 and got.reached[0] == 1

    def test_short_first_wave_leaves_room_for_samples(self):
        # With min_iterations 10 a pair's first wave has 10 rounds, not 16,
        # so each checkpoint's two batches carry 22 + 12 free bits: up to 34
        # samples (at least 21 with i_min = 20) and 10 rounds fit.
        est_cfg = EstimatorConfig(i_min=20)
        fitted = 0
        for seed in range(4):
            edges = connected_random_graph(seed, 80, 0.06)
            edges = [edges[i] for i in np.random.default_rng(seed).permutation(len(edges))]
            split = 8 * len(edges) // 10
            mask = components(snapshot_from_edges(edges[:split], n=80)).giant_mask()
            later, _, pair = self.pair_checkpoints(edges, split, 80, 80, mask)
            both, work = distance_statistics(later, pair, est_cfg)
            members = [(e[1], b.iterations) for e, b in both]
            assert work.dist_batches == scheduled_batches(members, 10, 100)
            fits = all(s <= 34 and i == 10 for s, i in members)
            assert (work.dist_batches == 2) == fits
            fitted += fits
        assert fitted >= 2

    @pytest.mark.parametrize("group", [0, 1])
    def test_mask_not_covered_names_its_group(self, group):
        # a group sized as the 4-path and the link 4-5 together runs out of
        # nodes: the earlier one before 3-4 links them, the later one when
        # they never link
        if group == 0:
            edges, split, n0 = path_edges(4) + [(4, 5), (3, 4)], 4, 6
        else:
            edges, split, n0 = path_edges(4) + [(4, 5)], 3, 4
        sizes = [n0, 6]
        with pytest.raises(MaskError, match="not the component") as raised:
            self.paired(edges, split, n0, 6, [np.array([0]), np.array([0])], sizes)
        assert raised.value.checkpoint == group

    def pair_checkpoints(self, edges, split, n0, n1, early_mask):
        csr = arrival_csr(*np.array(edges, dtype=np.int64).T, n1)
        later = finalize_snapshot(csr, len(edges), n1)
        earlier = snapshot_from_edges(edges[:split], n=n0)
        late = late_entries(csr, len(edges), split)
        pair = [
            DistanceCheckpoint(early_mask, 1, 2, late),
            DistanceCheckpoint(components(later).giant_mask(), 3, 4),
        ]
        return later, earlier, pair

    def test_mask_closed_only_in_its_own_graph_accepted(self):
        # the later link 3-4 leaves the earlier giant, the 4-path: it is
        # the earlier checkpoint's late entry, not a way out of its mask
        edges = path_edges(4) + [(4, 5), (3, 4)]
        mask = np.array([True] * 4 + [False] * 2)
        later, earlier, pair = self.pair_checkpoints(edges, 4, 6, 6, mask)
        [early, _], _ = distance_statistics(later, pair)
        assert early == (
            estimate_average_distance(earlier, mask, seed=1),
            diameter_bounds(earlier, mask, seed=2),
        )

    def test_mask_not_closed_rejected_before_any_batch(self, monkeypatch):
        # node 3 of the 4-path is left out of the earlier mask
        edges = path_edges(4) + [(4, 5), (3, 4)]
        mask = np.array([True] * 3 + [False] * 3)
        later, _, pair = self.pair_checkpoints(edges, 4, 6, 6, mask)
        monkeypatch.setattr(distances, "bfs_batch", None)  # no batch may run
        with pytest.raises(MaskError, match="not the component") as raised:
            distance_statistics(later, pair)
        assert raised.value.checkpoint == 0
        with pytest.raises(MaskError, match="at least 2 nodes") as raised:
            distance_statistics(later, [pair[1], pair[0]._replace(giant_mask=mask[:1])])
        assert raised.value.checkpoint == 1

    def test_late_links_between_earlier_nodes(self):
        # phase 2 of the two-phase model links nodes already present, so the
        # later snapshot raises degrees of the earlier checkpoint's own nodes:
        # its root order, bracket and estimate are still its own graph's
        _, u, v = gen_two_phase(40, 2, 20, 3, seed=5)
        edges = list(zip(u, v))
        split = len(edges) - 40
        n0, n1 = max(map(max, edges[:split])) + 1, max(map(max, edges)) + 1
        assert sum(max(link) < n0 for link in edges[split:]) >= 20
        mask = components(snapshot_from_edges(edges[:split], n=n0)).giant_mask()
        later, earlier, pair = self.pair_checkpoints(edges, split, n0, n1, mask)
        own = DistanceCheckpoint(mask, 1, 2)
        configs = (EstimatorConfig(), BoundConfig())
        shared = distances._Rules(later, pair[0], 0, *configs).bracket
        alone = distances._Rules(earlier, own, 0, *configs).bracket
        assert shared.root_order.tolist() == alone.root_order.tolist()
        assert shared.tree == alone.tree
        nodes = np.flatnonzero(mask)
        uncorrected = nodes[np.lexsort((nodes, -later.degrees[nodes]))]
        assert uncorrected.tolist() != alone.root_order.tolist()
        [early, _], _ = distance_statistics(later, pair)
        assert [early] == distance_statistics(earlier, [own])[0]


class TestMeanDistance:
    def test_path_center(self):
        snap = snapshot_from_edges(path_edges(3))
        assert mean_distance_from(snap, full_mask(3), 1) == pytest.approx(2 / 3)

    def test_includes_self_at_zero(self):
        snap = snapshot_from_edges([(0, 1)])
        assert mean_distance_from(snap, full_mask(2), 0) == 0.5

    def test_restricted_to_giant(self):
        snap = snapshot_from_edges([(0, 1), (1, 2), (3, 4)])
        mask = components(snap).giant_mask()
        assert mask.tolist() == [True, True, True, False, False]
        assert mean_distance_from(snap, mask, 0) == pytest.approx(1.0)

    def test_source_outside_giant_rejected(self):
        snap = snapshot_from_edges([(0, 1), (1, 2), (3, 4)])
        mask = components(snap).giant_mask()
        with pytest.raises(ValueError):
            mean_distance_from(snap, mask, 3)

    def test_unreachable_mask_member_rejected(self):
        snap = snapshot_from_edges([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            mean_distance_from(snap, full_mask(4), 0)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(3, 30))
            edges = connected_random_graph(int(rng.integers(10**6)), n, 0.25)
            snap = snapshot_from_edges(edges, n=n)
            src = int(rng.integers(n))
            got = mean_distance_from(snap, full_mask(n), src)
            adj = adjacency_dict(n, edges)
            want = sum(bfs_dict(adj, src).values()) / n
            assert got == pytest.approx(want, rel=1e-12)


class TestEstimator:
    def test_saturated_matches_exact_to_one_ulp(self):
        # on a complete graph every source yields the same mean, so the
        # estimator settles immediately and must equal the exact average
        snap = snapshot_from_edges(complete_edges(10))
        mask = full_mask(10)
        exact = average_distance_exact(snap, mask)
        est, used = estimate_average_distance(
            snap, mask, EstimatorConfig(i_min=10, epsilon=0.1), 1
        )
        assert abs(est - exact) <= math.ulp(exact)
        assert used == 11
        assert exact == 0.9  # 9 neighbors at 1, self at 0

    def test_sample_count_is_at_least_i_min_plus_one(self):
        snap = snapshot_from_edges(cycle_edges(8))
        _, used = estimate_average_distance(
            snap, full_mask(8), EstimatorConfig(i_min=4, epsilon=10.0), 0
        )
        assert used == 5

    def test_estimate_close_on_vertex_transitive_graph(self):
        # every source of a cycle has the same mean distance; estimate exact
        snap = snapshot_from_edges(cycle_edges(9))
        mask = full_mask(9)
        est, _ = estimate_average_distance(
            snap, mask, EstimatorConfig(i_min=3, epsilon=0.5), 7
        )
        assert est == pytest.approx(average_distance_exact(snap, mask), abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        edges = connected_random_graph(99, 40, 0.1)
        snap = snapshot_from_edges(edges, n=40)
        cfg = EstimatorConfig(i_min=5, epsilon=0.05)
        a = estimate_average_distance(snap, full_mask(40), cfg, 42)
        b = estimate_average_distance(snap, full_mask(40), cfg, 42)
        assert a == b

    def test_reasonable_accuracy_on_random_graph(self):
        edges = connected_random_graph(5, 60, 0.12)
        snap = snapshot_from_edges(edges, n=60)
        est, _ = estimate_average_distance(
            snap, full_mask(60), EstimatorConfig(i_min=15, epsilon=0.05), 3
        )
        exact = exact_mean_distance(60, edges, range(60))
        assert abs(est - exact) < 0.35

    def test_exact_matches_oracle(self):
        edges = connected_random_graph(31, 25, 0.2)
        snap = snapshot_from_edges(edges, n=25)
        got = average_distance_exact(snap, full_mask(25))
        assert got == pytest.approx(exact_mean_distance(25, edges, range(25)), rel=1e-12)

    def test_tiny_giant_rejected(self):
        snap = snapshot_from_edges([(0, 1)], n=3)
        lonely = np.array([True, False, False])
        with pytest.raises(ValueError):
            estimate_average_distance(snap, lonely)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(i_min=0)
        with pytest.raises(ValueError):
            EstimatorConfig(epsilon=0.0)


class TestLowerBound:
    def test_path_from_middle_finds_full_length(self):
        snap = snapshot_from_edges(path_edges(5))
        bound, witness = diameter_lower_bound(snap, full_mask(5), 2)
        assert bound == 4
        assert witness in (0, 4)

    def test_start_outside_giant_rejected(self):
        snap = snapshot_from_edges([(0, 1), (1, 2), (3, 4)])
        mask = components(snap).giant_mask()
        with pytest.raises(ValueError):
            diameter_lower_bound(snap, mask, 4)

    def test_never_exceeds_true_diameter_exhaustive(self):
        # every connected graph on 5 nodes, every start
        nodes = range(5)
        pool = list(itertools.combinations(nodes, 2))
        count = 0
        for bits in range(1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
            if len(edges) < 4:
                continue
            adj = adjacency_dict(5, edges)
            if len(bfs_dict(adj, 0)) != 5:
                continue
            count += 1
            snap = snapshot_from_edges(edges, n=5)
            diam = true_diameter(5, edges)
            for start in nodes:
                bound, _ = diameter_lower_bound(snap, full_mask(5), start)
                assert bound <= diam
        assert count > 100

    def test_exact_on_trees(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            edges = [(int(rng.integers(v)), v) for v in range(1, n)]
            snap = snapshot_from_edges(edges, n=n)
            start = int(rng.integers(n))
            bound, _ = diameter_lower_bound(snap, full_mask(n), start)
            assert bound == true_diameter(n, edges)


def round_zero(snap, seed=0):
    """The bracket's bounds after its first round alone."""
    out = diameter_bounds(snap, full_mask(snap.n), BoundConfig(min_iterations=1, iteration_cap=1), seed)
    assert out.iterations == 1
    return out.lower, out.upper


class TestUpperBound:
    """Round 0 of the bracket: twice the top hub's eccentricity, or on a
    tree the double sweep's exact value."""

    def test_cycle_of_six_round_zero_bound(self):
        # every node of the cycle has eccentricity 3
        snap = snapshot_from_edges(cycle_edges(6))
        assert round_zero(snap) == (3, 6)

    def test_exact_on_trees(self):
        rng = np.random.default_rng(29)
        for seed in range(20):
            n = int(rng.integers(2, 60))
            edges = [(int(rng.integers(v)), v) for v in range(1, n)]
            diam = true_diameter(n, edges)
            assert round_zero(snapshot_from_edges(edges, n=n), seed) == (diam, diam)

    def test_tree_plus_one_link_is_not_a_tree(self):
        # a 7-path with the triangle 0-1-2: the top hub, 2, has eccentricity
        # 4, and the diameter is 5
        snap = snapshot_from_edges(path_edges(7) + [(0, 2)])
        assert round_zero(snap) == (5, 8)
        rng = np.random.default_rng(31)
        for seed in range(20):
            n = int(rng.integers(3, 60))
            tree = {(int(rng.integers(v)), v) for v in range(1, n)}
            pool = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
            edges = sorted(tree) + [pool[rng.integers(len(pool))]]
            snap = snapshot_from_edges(edges, n=n)
            hub = int(np.argmax(snap.degrees))  # the first of the largest degree
            assert round_zero(snap, seed)[1] == 2 * bfs(snap, hub).farthest_dist

    def test_degree_ties_root_order_by_index(self):
        # a cycle with a chord (i, i + 2) at every fourth node: 30 nodes of
        # degree 2 and 30 of degree 3, of which the lower index comes first
        n = 60
        snap = snapshot_from_edges(cycle_edges(n) + [(i, i + 2) for i in range(0, n, 4)])
        rules = distances._Rules(
            snap, DistanceCheckpoint(full_mask(n)), 0, EstimatorConfig(), BoundConfig()
        )
        want = np.lexsort((np.arange(n), -snap.degrees))
        assert rules.bracket.root_order.tolist() == want.tolist()

    def test_complete_graph(self):
        # every node is a hub of eccentricity 1
        snap = snapshot_from_edges(complete_edges(5))
        assert round_zero(snap) == (1, 2)

    def test_single_link(self):
        snap = snapshot_from_edges([(0, 1)])
        assert round_zero(snap) == (1, 1)

    def test_never_below_true_diameter_exhaustive(self):
        # every connected graph on 5 nodes; five rounds take every node as a root
        nodes = range(5)
        pool = list(itertools.combinations(nodes, 2))
        cfg = BoundConfig(min_iterations=5, iteration_cap=5)
        for bits in range(1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
            if len(edges) < 4:
                continue
            adj = adjacency_dict(5, edges)
            if len(bfs_dict(adj, 0)) != 5:
                continue
            snap = snapshot_from_edges(edges, n=5)
            out = diameter_bounds(snap, full_mask(5), cfg)
            assert out.iterations == 5
            assert out.upper >= true_diameter(5, edges)

    @pytest.mark.parametrize(
        "edges, seed, want",
        [
            ([(0, 1)], 1, 1),
            (path_edges(7), 0, 6),
            (path_edges(7), 3, 6),
            ([(0, i) for i in range(1, 7)], 0, 2),
            ([(0, i) for i in range(1, 7)], 4, 2),
            # three arms of equal length: several farthest nodes
            ([(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)], 0, 6),
            # both ends of the longest path lie below node 2, away from the hub
            ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (7, 8)], 0, 6),
            # one end (5) is the only farthest node from the hub, the other (8) is not
            ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (6, 7), (7, 8)], 0, 7),
        ],
    )
    def test_small_trees_against_brute_force(self, edges, seed, want):
        # ``seed`` draws the round's sweep start
        snap = snapshot_from_edges(edges)
        assert true_diameter(snap.n, edges) == want
        assert round_zero(snap, seed) == (want, want)


class TestDiameterBounds:
    def test_sandwich_on_random_graphs(self):
        for seed in range(8):
            edges = connected_random_graph(seed, 45, 0.1)
            snap = snapshot_from_edges(edges, n=45)
            out = diameter_bounds(
                snap, full_mask(45), BoundConfig(min_iterations=4, gap_target=1, iteration_cap=30)
            )
            diam = true_diameter(45, edges)
            assert out.lower <= diam <= out.upper

    def test_trees_converge_in_one_iteration(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(3, 50))
            edges = [(int(rng.integers(v)), v) for v in range(1, n)]
            snap = snapshot_from_edges(edges, n=n)
            out = diameter_bounds(
                snap,
                full_mask(n),
                BoundConfig(min_iterations=1, gap_target=1, iteration_cap=50),
                4,
            )
            assert out.iterations == 1
            assert out.converged
            assert out.lower == out.upper == true_diameter(n, edges)

    def test_histories_monotone_and_final(self):
        edges = connected_random_graph(77, 60, 0.07)
        snap = snapshot_from_edges(edges, n=60)
        out = diameter_bounds(
            snap, full_mask(60), BoundConfig(min_iterations=6, gap_target=1, iteration_cap=25)
        )
        lows = np.array(out.lower_history)
        ups = np.array(out.upper_history)
        assert np.all(np.diff(lows) >= 0)
        assert np.all(np.diff(ups) <= 0)
        assert out.lower == lows[-1] and out.upper == ups[-1]
        assert len(out.lower_history) == out.iterations

    def test_cap_stops_iteration(self):
        # a long cycle keeps the bracket open: lower settles at the true
        # diameter, 15, and every root's 2 * ecc is 30, so the cap must fire
        snap = snapshot_from_edges(cycle_edges(30))
        out = diameter_bounds(
            snap,
            full_mask(30),
            BoundConfig(min_iterations=1, gap_target=1, iteration_cap=7),
        )
        assert out.iterations == 7
        assert not out.converged
        assert out.lower == 15
        assert out.upper >= 16

    def test_min_iterations_enforced(self):
        snap = snapshot_from_edges(complete_edges(6))
        out = diameter_bounds(
            snap, full_mask(6), BoundConfig(min_iterations=5, gap_target=10, iteration_cap=20)
        )
        assert out.iterations == 5

    def test_deterministic_for_fixed_seed(self):
        edges = connected_random_graph(3, 40, 0.12)
        snap = snapshot_from_edges(edges, n=40)
        cfg = BoundConfig(min_iterations=3, gap_target=2, iteration_cap=15)
        assert diameter_bounds(snap, full_mask(40), cfg, 11) == diameter_bounds(
            snap, full_mask(40), cfg, 11
        )

    def test_respects_giant_restriction(self):
        edges = path_edges(6) + [(7, 8)]
        snap = snapshot_from_edges(edges, n=9)
        mask = components(snap).giant_mask()
        out = diameter_bounds(
            snap, mask, BoundConfig(min_iterations=2, gap_target=1, iteration_cap=10)
        )
        assert out.lower == out.upper == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoundConfig(min_iterations=0)
        with pytest.raises(ValueError):
            BoundConfig(gap_target=0)
        with pytest.raises(ValueError):
            BoundConfig(min_iterations=10, iteration_cap=5)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    # spanning tree guarantees connectivity, extras drawn on top
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(pool), unique=True, max_size=20))
    edges = sorted(set(tree) | {(min(a, b), max(a, b)) for a, b in extra})
    return n, edges


class TestBracketProperty:
    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_bounds_always_bracket_truth(self, case, seed):
        n, edges = case
        snap = snapshot_from_edges(edges, n=n)
        out = diameter_bounds(
            snap,
            np.ones(n, dtype=bool),
            BoundConfig(min_iterations=2, gap_target=1, iteration_cap=6),
            seed,
        )
        diam = true_diameter(n, edges)
        assert out.lower <= diam <= out.upper

"""BFS correctness, the sampled mean-distance estimator, diameter bracketing."""

import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreplay import distances
from netreplay.distances import (
    BoundConfig,
    EstimatorConfig,
    _bfs_levels,
    bfs_batch,
    diameter_bounds,
    diameter_upper_bound,
    distance_statistics,
    estimate_average_distance,
)
from netreplay.graph import snapshot_from_edges
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
    diameter_lower_bound,
    mean_distance_from,
    tree_diameter_brute,
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


def queue_bfs_tree(adj, root):
    """FIFO queue BFS over ascending neighbor lists; returns {node: parent}."""
    parent = {root: -1}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return parent


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
        stopped = bfs_batch(snap, sources, component_size=inside.size)
        for field in ("distance_sums", "reached", "eccentricity", "farthest"):
            assert getattr(stopped, field).tolist() == getattr(full, field).tolist()
        # the full run ends with one level that finds nothing; the stop skips it
        assert full.entries - stopped.entries == snap.neighbors.size
        assert stopped.entries == int(full.eccentricity.max()) * snap.neighbors.size

    def test_fifo_parents_match_queue_bfs(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            edges = random_edges(rng, n, 0.12)
            snap = snapshot_from_edges(edges, n=n)
            root = int(rng.integers(n))
            parent, levels = _bfs_levels(snap.offsets, snap.neighbors, root)
            want = queue_bfs_tree(adjacency_dict(n, edges), root)
            assert {v: int(parent[v]) for v in np.flatnonzero(parent >= 0)} == {
                v: p for v, p in want.items() if p >= 0
            }
            assert [int(v) for level in levels for v in level] == list(want)


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
    one root per round: (lower history, upper history)."""
    nodes = np.flatnonzero(mask)
    rng = np.random.default_rng(seed)
    roots = nodes[np.lexsort((nodes, -snap.degrees[nodes]))]
    lowers, uppers = [], []
    for t in range(cfg.iteration_cap):
        lower = diameter_lower_bound(snap, mask, int(nodes[rng.integers(nodes.size)]))[0]
        root = int(roots[t % roots.size])
        upper = diameter_upper_bound(snap, mask, root) if t == 0 else 2 * bfs(snap, root).farthest_dist
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
        # on the 8 x 8 grid the root order walks inward from (1, 1), so later
        # roots' 2 * ecc fall below round 0's tree bound, 19, at rounds 8 and 14
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
        assert out.upper_history[:15] == (19,) * 8 + (18,) * 6 + (16,)

    def test_shared_batches_match_one_source_at_a_time(self):
        # the estimator outlasts the 33 free bits of the bracket's first
        # wave, and the bracket needs a second wave: its rounds share
        # batches with samples until the estimator stops
        est_cfg = EstimatorConfig(i_min=40, epsilon=0.05)
        bound_cfg = BoundConfig(min_iterations=40, gap_target=1, iteration_cap=60)
        for seed in range(3):
            snap = snapshot_from_edges(connected_random_graph(seed, 60, 0.05), n=60)
            mask = full_mask(60)
            estimate, bounds, work = distance_statistics(
                snap, mask, est_cfg, bound_cfg, estimator_seed=seed, bounds_seed=seed + 10
            )
            assert estimate == estimate_one_source_at_a_time(snap, mask, est_cfg, seed)
            assert (bounds.lower_history, bounds.upper_history) == bounds_one_sweep_at_a_time(
                snap, mask, bound_cfg, seed + 10
            )
            assert 33 < estimate[1] <= 65 and 32 < bounds.iterations <= 60
            assert (work.dist_batches, work.dist_tree_bfs) == (4, 1)
            # alone, each rule runs the same scheduler and reads the same values
            assert estimate_average_distance(snap, mask, est_cfg, seed) == estimate
            assert diameter_bounds(snap, mask, bound_cfg, seed + 10) == bounds

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
        got = bfs_batch(snap, [0] * 64, component_size=3)
        assert got.reached.tolist() == [3] * 64
        monkeypatch.setattr(distances, "bfs_batch", None)  # no batch may run
        for seed in range(5):
            with pytest.raises(ValueError, match="not the component"):
                estimate_average_distance(snap, mask, seed=seed)
            with pytest.raises(ValueError, match="not the component"):
                diameter_bounds(snap, mask, seed=seed)


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


class TestUpperBound:
    def test_cycle_of_six_tree_bound(self):
        # BFS tree from node 0 leaves out one cycle link; its diameter is 5
        snap = snapshot_from_edges(cycle_edges(6))
        assert diameter_upper_bound(snap, full_mask(6), 0) == 5

    def test_exact_on_trees(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            edges = [(int(rng.integers(v)), v) for v in range(1, n)]
            snap = snapshot_from_edges(edges, n=n)
            root = int(rng.integers(n))
            assert diameter_upper_bound(snap, full_mask(n), root) == true_diameter(
                n, edges
            )

    def test_complete_graph(self):
        snap = snapshot_from_edges(complete_edges(5))
        # BFS tree is a star around the root; its diameter is 2
        assert diameter_upper_bound(snap, full_mask(5), 0) == 2

    def test_single_link(self):
        snap = snapshot_from_edges([(0, 1)])
        assert diameter_upper_bound(snap, full_mask(2), 0) == 1

    def test_never_below_true_diameter_exhaustive(self):
        nodes = range(5)
        pool = list(itertools.combinations(nodes, 2))
        for bits in range(1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
            if len(edges) < 4:
                continue
            adj = adjacency_dict(5, edges)
            if len(bfs_dict(adj, 0)) != 5:
                continue
            snap = snapshot_from_edges(edges, n=5)
            diam = true_diameter(5, edges)
            for root in nodes:
                assert diameter_upper_bound(snap, full_mask(5), root) >= diam

    def test_root_outside_giant_rejected(self):
        snap = snapshot_from_edges([(0, 1), (1, 2), (3, 4)])
        mask = components(snap).giant_mask()
        with pytest.raises(ValueError):
            diameter_upper_bound(snap, mask, 3)

    def test_matches_brute_force_tree_diameter(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            # a random spanning tree plus G(n, p) links, from near-trees to dense graphs
            n = int(rng.integers(2, 70))
            tree = {(int(rng.integers(v)), v) for v in range(1, n)}
            edges = tree | set(random_edges(rng, n, float(rng.uniform(0.0, 0.3))))
            snap = snapshot_from_edges(sorted(edges), n=n)
            for root in rng.choice(n, size=min(n, 4), replace=False).tolist():
                assert diameter_upper_bound(snap, full_mask(n), root) == tree_diameter_brute(
                    snap, root
                )

    @pytest.mark.parametrize(
        "edges, root, want",
        [
            ([(0, 1)], 1, 1),
            (path_edges(7), 0, 6),
            (path_edges(7), 3, 6),
            ([(0, i) for i in range(1, 7)], 0, 2),
            ([(0, i) for i in range(1, 7)], 4, 2),
            # three arms of equal length: several deepest nodes
            ([(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)], 0, 6),
            # both ends of the longest path lie below node 2, away from the root
            ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (7, 8)], 0, 6),
            # one end (5) is the only deepest node, the other (8) is not deepest
            ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (6, 7), (7, 8)], 0, 7),
        ],
    )
    def test_small_trees_against_brute_force(self, edges, root, want):
        snap = snapshot_from_edges(edges)
        assert tree_diameter_brute(snap, root) == want
        assert diameter_upper_bound(snap, full_mask(snap.n), root) == want

    def test_height_diameter_equals_two_sweep_tree_diameter(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            n = int(rng.integers(2, 70))
            edges = connected_random_graph(int(rng.integers(10**6)), n, 0.1)
            snap = snapshot_from_edges(edges, n=n)
            root = int(rng.integers(n))
            tree = queue_bfs_tree(adjacency_dict(n, edges), root)
            links = [(p, v) for v, p in tree.items() if p >= 0]
            adj = adjacency_dict(n, links)
            sweep = bfs_dict(adj, root)
            far = min(v for v, d in sweep.items() if d == max(sweep.values()))
            want = max(bfs_dict(adj, far).values())
            assert diameter_upper_bound(snap, full_mask(n), root) == want


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
        # diameter, tree upper bounds stay higher, so the cap must fire
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
    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_tree_bound_equals_brute_force_from_every_root(self, case):
        n, edges = case
        snap = snapshot_from_edges(edges, n=n)
        for root in range(n):
            assert diameter_upper_bound(snap, full_mask(n), root) == tree_diameter_brute(snap, root)

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

"""Triangle counts against brute force and the per-snapshot oracle, plus
clustering and transitivity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreplay import triangles
from netreplay.generate import gen_preferential
from netreplay.graph import arrival_csr, finalize_snapshot
from netreplay.pipeline import SERIES
from netreplay.triangles import (
    analyze_triangles,
    clustering_coefficient,
    connected_triples,
    transitivity,
    triangle_counts,
)

from conftest import brute_triangles, random_edges
from oracles import basic_stats, count_triangles, probe_sides, snapshot_from_edges


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def report(edges, n=None):
    """The triangle group's series of one graph, by name."""
    snap = snapshot_from_edges(edges, n=n)
    row = analyze_triangles(snap.degrees, basic_stats(snap), *count_triangles(snap))
    return dict(zip(SERIES["tri"], row))


class TestCounting:
    def test_single_triangle(self):
        total, per = count_triangles(snapshot_from_edges([(0, 1), (1, 2), (0, 2)]))
        assert total == 1
        assert per.tolist() == [1, 1, 1]

    def test_path_has_none(self):
        total, per = count_triangles(snapshot_from_edges([(0, 1), (1, 2), (2, 3)]))
        assert total == 0
        assert per.tolist() == [0, 0, 0, 0]

    def test_two_triangles_sharing_a_node(self):
        edges = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
        total, per = count_triangles(snapshot_from_edges(edges))
        assert total == 2
        assert per.tolist() == [2, 1, 1, 1, 1]

    def test_complete_graphs(self):
        for k in range(3, 13):
            total, per = count_triangles(snapshot_from_edges(complete_edges(k)))
            assert total == k * (k - 1) * (k - 2) // 6
            assert per.tolist() == [(k - 1) * (k - 2) // 2] * k

    def test_isolated_nodes_padded_with_zero(self):
        total, per = count_triangles(
            snapshot_from_edges([(0, 1), (1, 2), (0, 2)], n=6)
        )
        assert total == 1
        assert per.tolist() == [1, 1, 1, 0, 0, 0]

    def test_empty_graph(self):
        total, per = count_triangles(snapshot_from_edges([], n=4))
        assert total == 0
        assert per.tolist() == [0, 0, 0, 0]

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 45))
            edges = random_edges(rng, n, float(rng.uniform(0.05, 0.5)))
            total, per = count_triangles(snapshot_from_edges(edges, n=n))
            want_total, want_per = brute_triangles(n, edges)
            assert total == want_total
            assert per.tolist() == want_per

    def test_skewed_degrees(self):
        # hub plus pendant chain exercises the ranking logic
        edges = [(0, v) for v in range(1, 12)] + [(1, 2), (2, 3), (11, 12)]
        total, per = count_triangles(snapshot_from_edges(edges))
        want_total, want_per = brute_triangles(13, edges)
        assert total == want_total
        assert per.tolist() == want_per


class TestClustering:
    def test_single_triangle_is_one(self):
        snap = snapshot_from_edges([(0, 1), (1, 2), (0, 2)])
        _, per = count_triangles(snap)
        assert clustering_coefficient(snap.degrees, per) == 1.0

    def test_two_triangles_sharing_a_node(self):
        snap = snapshot_from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        _, per = count_triangles(snap)
        # node 0 closes 2 of its 6 neighbor pairs, the rest are fully closed
        assert clustering_coefficient(snap.degrees, per) == pytest.approx(13 / 15, rel=1e-12)

    def test_degree_below_two_ignored(self):
        snap = snapshot_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        _, per = count_triangles(snap)
        cc = clustering_coefficient(snap.degrees, per)
        # node 3 (degree 1) does not enter the mean
        assert cc == pytest.approx(np.mean([1.0, 1.0, 1 / 3]), rel=1e-12)

    def test_no_eligible_node_is_undefined(self):
        snap = snapshot_from_edges([(0, 1), (2, 3)])
        _, per = count_triangles(snap)
        assert clustering_coefficient(snap.degrees, per) is None

    def test_complete_graph_is_exactly_one(self):
        for k in (3, 7, 20):
            snap = snapshot_from_edges(complete_edges(k))
            _, per = count_triangles(snap)
            assert clustering_coefficient(snap.degrees, per) == 1.0


class TestTransitivity:
    def test_triples(self):
        assert connected_triples(snapshot_from_edges([(0, 1), (1, 2)]).degrees) == 1
        assert connected_triples(snapshot_from_edges(complete_edges(4)).degrees) == 12
        assert (
            connected_triples(
                snapshot_from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]).degrees
            )
            == 10
        )

    def test_two_triangles_sharing_a_node(self):
        snap = snapshot_from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        total, _ = count_triangles(snap)
        assert transitivity(snap.degrees, total) == 0.6

    def test_complete_graph_is_exactly_one(self):
        for k in (3, 8, 20):
            snap = snapshot_from_edges(complete_edges(k))
            total, _ = count_triangles(snap)
            assert transitivity(snap.degrees, total) == 1.0

    def test_no_triples_is_undefined(self):
        snap = snapshot_from_edges([(0, 1), (2, 3)])
        total, _ = count_triangles(snap)
        assert transitivity(snap.degrees, total) is None

    def test_star_closes_nothing(self):
        snap = snapshot_from_edges([(0, v) for v in range(1, 6)])
        total, _ = count_triangles(snap)
        assert transitivity(snap.degrees, total) == 0.0


class TestDerivedRatios:
    def test_two_triangles_sharing_a_node(self):
        r = report([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        assert r["triangles_over_max_degree_sq"] == 2 / 16
        assert r["clustering_over_density"] == pytest.approx((13 / 15) / 0.6, rel=1e-12)

    def test_linkless_graph_has_no_ratios(self):
        r = report([], n=3)
        assert r["triangles_over_max_degree_sq"] is None
        assert r["clustering_over_density"] is None

    def test_single_node_without_degree_stats_has_no_ratios(self):
        snap = snapshot_from_edges([], n=1)
        row = analyze_triangles(snap.degrees, None, *count_triangles(snap))
        assert row == (0, None, None, None, None)

    def test_clustered_fixture_beats_density_by_an_order(self):
        # ring of 30 small cliques: clustering stays put as density shrinks
        edges = []
        k = 5
        for c in range(30):
            base = c * k
            edges += [(base + i, base + j) for i in range(k) for j in range(i + 1, k)]
            edges.append((base + k - 1, (base + k) % (30 * k)))
        r = report(edges)
        assert r["clustering"] is not None
        assert r["clustering_over_density"] > 10

    def test_report_bundles_consistently(self):
        snap = snapshot_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        total, per_node = count_triangles(snap)
        r = report([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert r["triangles"] == total == 1
        assert per_node.tolist() == [1, 1, 1, 0]
        assert connected_triples(snap.degrees) == 5
        assert r["transitivity"] == 3 * total / connected_triples(snap.degrees) == pytest.approx(3 / 5)
        assert r["clustering"] == clustering_coefficient(snap.degrees, per_node)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=70))
    return n, edges


class TestProperties:
    @given(edge_lists())
    @settings(max_examples=80, deadline=None)
    def test_per_node_sums_to_three_times_total(self, case):
        n, edges = case
        total, per = count_triangles(snapshot_from_edges(edges, n=n))
        assert int(per.sum()) == 3 * total

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_transitivity_never_exceeds_one(self, case):
        n, edges = case
        snap = snapshot_from_edges(edges, n=n)
        total, _ = count_triangles(snap)
        t = transitivity(snap.degrees, total)
        assert t is None or 0.0 <= t <= 1.0

    @given(edge_lists(), st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_node_relabeling(self, case, seed):
        n, edges = case
        perm = np.random.default_rng(seed).permutation(n)
        relabeled = [(int(perm[u]), int(perm[v])) for u, v in edges]
        total_a, per_a = count_triangles(snapshot_from_edges(edges, n=n))
        total_b, per_b = count_triangles(snapshot_from_edges(relabeled, n=n))
        assert total_a == total_b
        assert per_a.tolist() == per_b[perm].tolist()

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, case):
        n, edges = case
        total, per = count_triangles(snapshot_from_edges(edges, n=n))
        want_total, want_per = brute_triangles(n, edges)
        assert total == want_total
        assert per.tolist() == want_per


def assert_counts_match_oracle(pairs, n, positions):
    """triangle_counts at every position equals a fresh count of that prefix;
    returns the counts."""
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    csr = arrival_csr(u, v, n)
    counts = triangle_counts(csr, np.asarray(positions, dtype=np.int64))
    assert counts.per_node.shape == (len(positions), n)
    for i, p in enumerate(positions):
        want_total, want_per = count_triangles(finalize_snapshot(csr, p, n))
        assert int(counts.totals[i]) == want_total
        assert counts.per_node[i].tolist() == want_per.tolist()
    # Every triangle of the final graph is one search that found its key.
    assert count_triangles(finalize_snapshot(csr, len(pairs), n))[0] <= counts.searches
    assert counts.searches <= counts.probes
    return counts


@st.composite
def link_orders(draw):
    """Distinct links in random arrival order and direction, plus ascending
    positions that may repeat and may be 0."""
    n, edges = draw(edge_lists())
    order = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    pairs = [(b, a) if flip else (a, b) for (a, b), flip in zip(order, flips)]
    positions = sorted(
        draw(st.lists(st.integers(0, len(pairs)), min_size=1, max_size=8))
    )
    return n, pairs, positions


class TestArrivalListing:
    @given(
        link_orders(),
        st.one_of(st.integers(1, 64), st.just(triangles._PROBE_BUDGET)),
        st.booleans(),
    )
    @settings(max_examples=160, deadline=None)
    def test_matches_fresh_count_of_every_prefix(self, case, budget, one_slot):
        # Small probe budgets split the listing into many batches. A zero
        # hash multiplier sends every key to one filter slot, so the filter
        # passes every probe to the search.
        n, pairs, positions = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(triangles, "_PROBE_BUDGET", budget)
            if one_slot:
                patch.setattr(triangles, "_HASH_MULTIPLIER", 0)
            counts = assert_counts_match_oracle(pairs, n, positions)
        if one_slot:
            assert counts.searches == counts.probes

    def test_linkless_graph(self):
        assert_counts_match_oracle([], 5, [0, 0])

    def test_triangle_present_from_position_after_closing_link(self):
        # Closing arrival 2 for (0, 1, 2), 4 for (1, 2, 3).
        pairs = [(0, 1), (1, 2), (2, 0), (3, 1), (2, 3)]
        totals, per_node, *_ = triangle_counts(
            arrival_csr(*np.array(pairs).T, 4), np.array([2, 3, 4, 5])
        )
        assert totals.tolist() == [0, 1, 1, 2]
        assert per_node.tolist() == [
            [0, 0, 0, 0], [1, 1, 1, 0], [1, 1, 1, 0], [1, 2, 2, 1]
        ]

    def test_probe_batches_split(self, monkeypatch):
        # Complete graphs give edges with up to 5 probes, more than a batch
        # holds; a random graph spreads triangles over many batches.
        monkeypatch.setattr(triangles, "_PROBE_BUDGET", 3)
        edges = complete_edges(7)
        order = np.random.default_rng(5).permutation(len(edges))
        assert_counts_match_oracle([edges[i] for i in order], 7, [0, 6, 10, 10, 21])
        rng = np.random.default_rng(8)
        edges = random_edges(rng, 30, 0.3)
        order = rng.permutation(len(edges))
        positions = sorted(rng.integers(0, len(edges) + 1, size=6).tolist())
        assert_counts_match_oracle([edges[i] for i in order], 30, positions + [len(edges)])


class TestWideKeys:
    def test_keys_past_int32_match_brute_force_at_every_prefix(self):
        # Ranks, nodes and arrivals are int32, but a key is rank * n + rank:
        # past 46,341 nodes it outgrows int32, and so does every product
        # that forms one. Every node has degree 4, so nodes rank by index.
        # The low nodes form a ring with chords three apart, which closes no
        # triangle. The high nodes form a ring with chords two apart, whose
        # triangles are the 300 (j, j + 1, j + 2); its links (j + 1, j) and
        # (j + 2, j) probe from their own end, which offers fewer candidates.
        rng = np.random.default_rng(21)
        n, high = 50_000, 300
        ring = n - high
        assert ring * n > 2**31
        low, top = np.arange(ring), np.arange(high)
        links = np.concatenate(
            [np.stack([low, (low + s) % ring], axis=1) for s in (1, 3)]
            + [np.stack([top, (top + s) % high], axis=1) + ring for s in (1, 2)]
        )
        links = links[rng.permutation(len(links))]
        flip = rng.random(len(links)) < 0.5
        links[flip] = links[flip, ::-1]
        assert arrival_csr(links[:, 0], links[:, 1], n).arrival.dtype == np.int32
        positions = np.linspace(0, len(links), 17).astype(np.int64)
        counts = assert_counts_match_oracle(links.tolist(), n, positions)
        assert int(counts.totals[-1]) == high


class TestProbeSides:
    # gen_preferential(30, 3, seed=1), shuffled: 19 links close a triangle,
    # 15 of them probing from the worse end and 4 from the better end.
    n = 30

    @pytest.fixture(scope="class")
    def pairs(self):
        _, u, v = gen_preferential(self.n, 3, seed=1)
        order = np.random.default_rng(2).permutation(len(u))
        return [(u[i], v[i]) for i in order]

    def test_oracle_probes_from_each_side(self, pairs):
        sides = probe_sides(*zip(*pairs), self.n)
        closing = [(better, worse) for better, worse, closed in sides if closed]
        assert any(worse < better for better, worse in closing)
        assert any(better < worse for better, worse in closing)

    @pytest.mark.parametrize("budget", [1, 3, 64])
    @pytest.mark.parametrize("one_slot", [False, True])
    def test_every_prefix_matches_brute_force(self, pairs, monkeypatch, budget, one_slot):
        monkeypatch.setattr(triangles, "_PROBE_BUDGET", budget)
        if one_slot:
            monkeypatch.setattr(triangles, "_HASH_MULTIPLIER", 0)
        u, v = (np.array(ends, dtype=np.int64) for ends in zip(*pairs))
        positions = np.arange(len(pairs) + 1)
        counts = triangle_counts(arrival_csr(u, v, self.n), positions)
        for p in positions:
            total, per_node = brute_triangles(self.n, pairs[:p])
            assert int(counts.totals[p]) == total
            assert counts.per_node[p].tolist() == per_node
        sides = probe_sides(*zip(*pairs), self.n)
        assert counts.probes == sum(min(better, worse) for better, worse, _ in sides)
        if one_slot:
            assert counts.searches == counts.probes

    def test_degree_ties_rank_by_index(self):
        # A cycle with a chord (i, i + 2) at every fourth node: 30 nodes of
        # degree 2 and 30 of degree 3, so the probes depend on how ties rank.
        n = 60
        pairs = [(i, (i + 1) % n) for i in range(n)] + [(i, i + 2) for i in range(0, n, 4)]
        u, v = (np.array(ends, dtype=np.int64) for ends in zip(*pairs))
        deg = np.bincount(np.concatenate([u, v]), minlength=n)
        counts = triangle_counts(arrival_csr(u, v, n), np.array([len(pairs)]))

        def probes(by_rank):
            sides = probe_sides(u.tolist(), v.tolist(), n, by_rank.tolist())
            return sum(min(better, worse) for better, worse, _ in sides)

        index = np.arange(n)
        assert counts.probes == probes(np.lexsort((index, -deg)))
        shuffled = np.random.default_rng(0).permutation(n)
        assert counts.probes != probes(np.lexsort((shuffled, -deg)))  # ties in another order


class TestTableWidth:
    @pytest.mark.parametrize("leaves, dtype", [(65_536, np.int32), (70_000, np.int32)])
    def test_cells_hold_the_largest_possible_count(self, leaves, dtype):
        # A hub linked to every leaf, then a path through the leaves, whose
        # link (i, i + 1) closes the triangle (hub, i, i + 1). A node's count
        # is the number of links among its neighbors, at most m < 2^31, so
        # the cells are int32 even when the hub's C(degree, 2) neighbor
        # pairs pass 2^31: C(65,536, 2) = 2^31 - 32,768, C(70,000, 2) =
        # 2^31 + 302,481,352.
        path = np.arange(1, leaves)
        u = np.concatenate([np.zeros(leaves, dtype=np.int64), path])
        v = np.concatenate([np.arange(1, leaves + 1), path + 1])
        m = u.size
        csr = arrival_csr(u, v, leaves + 1)
        counts = triangle_counts(csr, np.array([0, leaves, leaves + 1000, m]))
        assert counts.per_node.dtype == dtype
        assert counts.totals.tolist() == [0, 0, 1000, leaves - 1]
        assert counts.per_node[-1, 0] == leaves - 1
        ends = counts.per_node[-1, [1, leaves]].tolist()
        assert ends == [1, 1] and np.all(counts.per_node[-1, 2:leaves] == 2)


class TestProbeBatches:
    def test_traced_peak_bounded_per_probe_and_entry(self, monkeypatch):
        # A batch holds at most 33 bytes per probe, and nothing of it is
        # kept into the next. Beside the per-checkpoint table, the listing
        # holds 24 bytes per forward link, 12 per adjacency entry, and the
        # filter 2 to 4 more; building it holds 18 per entry. Here, where
        # few probes pass the filter, a batch peaks at 17 bytes per probe
        # while it filters them, and its per-link arrays (a batch spans
        # about a sixth of the links) and the per-node arrays fit in the
        # rest. A batch ends at the first link that brings it to the budget,
        # so it overshoots by less than one link's probes, at most the
        # maximum degree.
        budget = 1 << 14
        monkeypatch.setattr(triangles, "_PROBE_BUDGET", budget)
        n = 2000
        _, u, v = gen_preferential(n, 10, seed=3)
        csr = arrival_csr(np.array(u), np.array(v), n)
        positions = np.linspace(0, len(u), 10).astype(np.int64)
        tracemalloc.start()
        try:
            counts = triangle_counts(csr, positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.batches >= 5
        batch = budget + int(np.diff(csr.offsets).max())
        table = (positions.size + 1) * n * counts.per_node.itemsize
        assert peak < 33 * batch + 16 * csr.neighbors.size + table

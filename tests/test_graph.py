"""Snapshot layout, prefix snapshots of one final CSR, and membership queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreplay.graph import arrival_csr, finalize_snapshot, late_entries

from oracles import degree, has_link, neighbors_of, snapshot_from_edges


def segments(snap):
    return [neighbors_of(snap, v).tolist() for v in range(snap.n)]


class TestSnapshotLayout:
    def test_triangle(self):
        s = snapshot_from_edges([(0, 1), (1, 2), (0, 2)])
        assert s.n == 3
        assert s.m == 3
        assert segments(s) == [[1, 2], [0, 2], [0, 1]]
        assert s.offsets.tolist() == [0, 2, 4, 6]

    def test_segments_sorted_even_when_inserted_backwards(self):
        s = snapshot_from_edges([(0, 4), (0, 3), (0, 2), (0, 1)])
        assert neighbors_of(s, 0).tolist() == [1, 2, 3, 4]

    def test_degrees_match_offsets(self):
        s = snapshot_from_edges([(0, 1), (1, 2), (2, 3), (1, 3)])
        assert s.degrees.tolist() == [1, 3, 2, 2]
        assert degree(s, 1) == 3

    def test_padding_for_unlinked_nodes(self):
        s = snapshot_from_edges([(0, 1)], n=5)
        assert s.n == 5
        assert s.degrees.tolist() == [1, 1, 0, 0, 0]
        assert neighbors_of(s, 4).size == 0

    def test_empty_graph(self):
        s = snapshot_from_edges([], n=3)
        assert s.n == 3 and s.m == 0
        assert s.neighbors.size == 0
        assert s.offsets.tolist() == [0, 0, 0, 0]

    def test_dtypes(self):
        s = snapshot_from_edges([(0, 1), (1, 2)])
        assert s.offsets.dtype == np.int64
        assert s.neighbors.dtype == np.intp
        assert s.neighbors.size == 2 * s.m

    def test_arrays_frozen(self):
        s = snapshot_from_edges([(0, 1)])
        with pytest.raises(ValueError):
            s.neighbors[0] = 5
        with pytest.raises(ValueError):
            s.offsets[0] = 1

    def test_out_of_range_queries(self):
        s = snapshot_from_edges([(0, 1)])
        with pytest.raises(IndexError):
            degree(s, 2)
        with pytest.raises(IndexError):
            neighbors_of(s, -1)
        with pytest.raises(IndexError):
            has_link(s, 0, 2)

    def test_n_smaller_than_span_rejected(self):
        with pytest.raises(ValueError):
            snapshot_from_edges([(0, 5)], n=3)


def csr_of(edges, n):
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return arrival_csr(pairs[:, 0], pairs[:, 1], n)


class TestPrefixSnapshots:
    def test_rejects_loop_and_negative(self):
        with pytest.raises(ValueError, match="loop"):
            snapshot_from_edges([(0, 1), (2, 2)])
        with pytest.raises(ValueError, match="negative"):
            snapshot_from_edges([(-1, 0)])

    def test_range_extends_to_largest_endpoint(self):
        s = snapshot_from_edges([(0, 7)])
        assert s.n == 8
        assert s.m == 1
        assert degree(s, 3) == 0

    def test_earlier_snapshot_unchanged_by_later_ones(self):
        csr = csr_of([(0, 2), (0, 1), (1, 2), (3, 0)], 4)
        first = finalize_snapshot(csr, 2, 3)
        second = finalize_snapshot(csr, 4, 4)
        assert segments(first) == [[1, 2], [0], [0]]
        assert segments(second) == [[1, 2, 3], [0, 2], [0, 1], [0]]
        assert first.m == 2 and second.m == 4

    def test_many_prefixes_match_rebuild(self):
        rng = np.random.default_rng(7)
        seen = set()
        edges = []
        for _ in range(300):
            u, v = rng.integers(0, 40, size=2)
            key = (min(u, v), max(u, v))
            if u != v and key not in seen:
                seen.add(key)
                edges.append(key)
        csr = csr_of(edges, 40)
        for p in range(0, len(edges) + 1, 17):
            snap = finalize_snapshot(csr, p, 40)
            fresh = snapshot_from_edges(edges[:p], n=40)
            assert snap.offsets.tolist() == fresh.offsets.tolist()
            assert snap.neighbors.tolist() == fresh.neighbors.tolist()

    def test_late_entries_hold_the_links_between_two_positions(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            pairs = {tuple(sorted(map(int, rng.integers(0, n, size=2)))) for _ in range(3 * n)}
            edges = [e for e in pairs if e[0] != e[1]]
            edges = [edges[i] for i in rng.permutation(len(edges))]
            csr = csr_of(edges, n)
            position = int(rng.integers(len(edges) + 1))
            since = int(rng.integers(position + 1))
            snap = finalize_snapshot(csr, position, n)
            late = late_entries(csr, position, since)
            owners = np.repeat(np.arange(n), snap.degrees)
            got = sorted(zip(owners[late].tolist(), snap.neighbors[late].tolist()))
            want = sorted(edges[since:position] + [(b, a) for a, b in edges[since:position]])
            assert got == want
            assert np.all(np.diff(late) > 0)

    def test_large_segment_keeps_all_neighbors(self):
        s = snapshot_from_edges([(0, v) for v in range(39, 0, -1)])
        assert neighbors_of(s, 0).tolist() == list(range(1, 40))


class TestHasLink:
    def test_examples(self):
        s = snapshot_from_edges([(0, 1), (1, 2)])
        assert has_link(s, 0, 1)
        assert has_link(s, 1, 0)
        assert not has_link(s, 0, 2)

    def test_against_dense_matrix(self):
        rng = np.random.default_rng(3)
        n = 25
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2
        ]
        dense = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            dense[u, v] = dense[v, u] = True
        s = snapshot_from_edges(edges, n=n)
        for u in range(n):
            for v in range(n):
                if u != v:
                    assert has_link(s, u, v) == dense[u, v]


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=60))
    return n, edges


class TestProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_handshake_every_link_stored_twice(self, case):
        n, edges = case
        s = snapshot_from_edges(edges, n=n)
        assert int(s.degrees.sum()) == 2 * len(edges)
        assert s.m == len(edges)

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_segments_sorted_and_mirror_symmetric(self, case):
        n, edges = case
        s = snapshot_from_edges(edges, n=n)
        for v in range(n):
            seg = neighbors_of(s, v)
            assert np.all(seg[:-1] < seg[1:])
            for w in seg.tolist():
                assert has_link(s, w, v)

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_insertion_order_is_irrelevant(self, case):
        n, edges = case
        a = snapshot_from_edges(edges, n=n)
        b = snapshot_from_edges(list(reversed(edges)), n=n)
        assert a.offsets.tolist() == b.offsets.tolist()
        assert a.neighbors.tolist() == b.neighbors.tolist()

    @given(edge_lists(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_every_prefix_matches_rebuild(self, case, pad):
        _, edges = case
        csr = csr_of(edges, max((max(e) for e in edges), default=-1) + 1 + pad)
        for p in range(len(edges) + 1):
            n = max((max(e) for e in edges[:p]), default=-1) + 1 + pad
            snap = finalize_snapshot(csr, p, n)
            fresh = snapshot_from_edges(edges[:p], n=n)
            assert snap.n == fresh.n == n
            assert snap.m == fresh.m == p
            assert snap.offsets.tolist() == fresh.offsets.tolist()
            assert snap.neighbors.tolist() == fresh.neighbors.tolist()
            adjacency = [[] for _ in range(n)]
            for a, b in edges[:p]:
                adjacency[a].append(b)
                adjacency[b].append(a)
            assert segments(snap) == [sorted(seg) for seg in adjacency]

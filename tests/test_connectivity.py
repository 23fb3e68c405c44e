"""Component labeling: the BFS reference vs labels merged a batch at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreplay.connectivity import components_of, merge_links

from conftest import UnionFindOracle
from oracles import components, snapshot_from_edges


def groups_from_labels(labels):
    out = {}
    for node, lab in enumerate(labels.tolist()):
        out.setdefault(lab, []).append(node)
    return sorted(out.values())


class TestComponentsBfs:
    def test_single_triangle(self):
        summ = components(snapshot_from_edges([(0, 1), (1, 2), (0, 2)]))
        assert summ.component_count == 1
        assert summ.giant_size == 3
        assert summ.giant_fraction == 1.0
        assert summ.component_id.tolist() == [0, 0, 0]

    def test_two_components_and_isolated_node(self):
        snap = snapshot_from_edges([(0, 1), (2, 3), (3, 4)], n=6)
        summ = components(snap)
        assert summ.component_count == 3
        assert summ.component_id.tolist() == [0, 0, 1, 1, 1, 2]
        assert summ.giant_size == 3
        assert summ.giant_id == 1
        assert summ.giant_mask().tolist() == [False, False, True, True, True, False]

    def test_all_isolated(self):
        summ = components(snapshot_from_edges([], n=4))
        assert summ.component_count == 4
        assert summ.giant_size == 1
        assert summ.giant_id == 0  # tie broken toward smallest node index

    def test_giant_tie_goes_to_smaller_first_index(self):
        # two components of size 2; the one containing node 0 wins
        summ = components(snapshot_from_edges([(1, 3), (0, 2)]))
        assert summ.giant_size == 2
        assert summ.giant_mask().tolist() == [True, False, True, False]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            components(snapshot_from_edges([], n=0))

    def test_labels_ordered_by_first_appearance(self):
        snap = snapshot_from_edges([(4, 5), (1, 2)], n=6)
        summ = components(snap)
        # node 0 sees label 0, nodes 1-2 label 1, node 3 label 2, nodes 4-5 label 3
        assert summ.component_id.tolist() == [0, 1, 1, 2, 3, 3]

    def test_labels_immutable(self):
        summ = components(snapshot_from_edges([(0, 1)]))
        with pytest.raises(ValueError):
            summ.component_id[0] = 9


def merged(n, links):
    """Labels of n nodes after merging ``links`` as one batch."""
    label = np.arange(n)
    pairs = np.asarray(links, dtype=np.int64).reshape(-1, 2)
    merge_links(label, pairs[:, 0], pairs[:, 1])
    return label


def counts(label, n):
    """(component count, giant size, giant label) over nodes [0, n)."""
    return components_of(label, n)[:3]


def assert_same_components(label, n, ref):
    """Labels over [0, n) agree with a BFS labeling: count, partition, giant."""
    got = components_of(label, n)
    assert got.count == ref.component_count
    assert groups_from_labels(got.label) == groups_from_labels(ref.component_id)
    assert got.giant_size == ref.giant_size
    assert got.giant_mask().tolist() == ref.giant_mask().tolist()


class TestIncremental:
    def test_matches_bfs_on_growing_stream(self):
        rng = np.random.default_rng(11)
        n = 60
        label = np.arange(n)
        edges = []
        seen = set()
        for _ in range(150):
            u, v = map(int, rng.integers(0, n, size=2))
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                continue
            seen.add(key)
            edges.append(key)
            merge_links(label, np.array([u]), np.array([v]))
            assert_same_components(label, n, components(snapshot_from_edges(edges, n=n)))

    def test_matches_textbook_union_find_partitions(self):
        rng = np.random.default_rng(5)
        n = 80
        oracle = UnionFindOracle(n)
        links = []
        for _ in range(120):
            u, v = map(int, rng.integers(0, n, size=2))
            if u == v:
                continue
            links.append((u, v))
            oracle.union(u, v)
        label = merged(n, links)
        assert groups_from_labels(label) == oracle.groups()
        # the oracle also roots each group at its smallest node
        assert label.tolist() == [oracle.find(x) for x in range(n)]
        assert components_of(label, n).giant_size == max(map(len, oracle.groups()))

    def test_fresh_labels_are_singletons(self):
        label = np.arange(3)
        assert counts(label, 3) == (3, 1, 0)
        assert components_of(label, 3).giant_mask().tolist() == [True, False, False]

    def test_nodes_beyond_every_endpoint_stay_singletons(self):
        label = merged(7, [(0, 4)])
        assert label.tolist() == [0, 1, 2, 3, 0, 5, 6]
        assert counts(label, 5) == (4, 2, 0)
        assert counts(label, 7) == (6, 2, 0)

    def test_duplicate_link_is_noop(self):
        label = merged(3, [(0, 1)])
        before = label.copy()
        merge_links(label, np.array([1, 0]), np.array([0, 1]))
        assert label.tolist() == before.tolist()
        assert counts(label, 3) == (2, 2, 0)

    def test_giant_updates_across_merges(self):
        n = 7
        label = merged(n, [(0, 1)])
        assert components_of(label, n).giant_size == 2
        merge_links(label, np.array([2, 3]), np.array([3, 4]))
        got = components_of(label, n)
        assert got.giant_size == 3
        assert got.giant_mask().tolist() == [False, False, True, True, True, False, False]
        merge_links(label, np.array([0, 5]), np.array([5, 6]))
        # 0-1-5-6 has four members now
        got = components_of(label, n)
        assert got.giant_size == 4
        assert got.giant_mask().tolist() == [True, True, False, False, False, True, True]

    def test_giant_tie_prefers_smaller_min_index(self):
        label = merged(4, [(3, 2)])
        assert counts(label, 4) == (3, 2, 2)
        assert components_of(label, 4).giant_mask().tolist() == [False, False, True, True]
        merge_links(label, np.array([1]), np.array([0]))  # same size, contains node 0
        assert counts(label, 4) == (2, 2, 0)
        assert components_of(label, 4).giant_mask().tolist() == [True, True, False, False]

    def test_empty_giant_mask_rejected(self):
        with pytest.raises(ValueError):
            components_of(np.arange(0), 0)

    def test_randomly_numbered_path_in_one_batch(self):
        # a randomly numbered path takes several hook rounds in one batch
        n = 10_000
        order = np.random.default_rng(3).permutation(n)
        label = np.arange(n)
        merge_links(label, order[:-1], order[1:])
        assert label.tolist() == [0] * n
        assert counts(label, n) == (1, n, 0)


@st.composite
def batched_links(draw):
    """n nodes, random links in either direction (repeats and loops
    dropped), and cut points splitting them into batches, some empty."""
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=80,
        )
    )
    links, seen = [], set()
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            links.append((u, v))
    cuts = sorted(draw(st.lists(st.integers(0, len(links)), max_size=6)))
    return n, links, [0, *cuts, len(links)]


class TestAgreementProperty:
    @given(batched_links())
    @settings(max_examples=150, deadline=None)
    def test_both_routes_agree_at_every_step(self, case):
        n, links, cuts = case
        label = np.arange(n)
        pairs = np.asarray(links, dtype=np.int64).reshape(-1, 2)
        for lo, hi in zip(cuts, cuts[1:]):
            merge_links(label, pairs[lo:hi, 0], pairs[lo:hi, 1])
            ref = components(snapshot_from_edges(links[:hi], n=n))
            assert_same_components(label, n, ref)

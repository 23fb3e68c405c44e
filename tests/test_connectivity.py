"""Component labeling: BFS reference vs incremental union-find."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreplay.connectivity import IncrementalComponents, components
from netreplay.graph import snapshot_from_edges

from conftest import UnionFindOracle


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


def assert_same_components(inc, ref):
    """The union-find agrees with a BFS labeling: count, partition, giant."""
    assert inc.component_count == ref.component_count
    assert groups_from_labels(inc.roots()) == groups_from_labels(ref.component_id)
    assert inc.giant_size == ref.giant_size
    assert inc.giant_mask().tolist() == ref.giant_mask().tolist()


class TestIncremental:
    def test_matches_bfs_on_growing_stream(self):
        rng = np.random.default_rng(11)
        inc = IncrementalComponents()
        edges = []
        seen = set()
        n = 60
        inc.ensure(n)
        for _ in range(150):
            u, v = map(int, rng.integers(0, n, size=2))
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                continue
            seen.add(key)
            edges.append(key)
            inc.add_link(u, v)
            assert_same_components(inc, components(snapshot_from_edges(edges, n=n)))

    def test_matches_textbook_union_find_partitions(self):
        rng = np.random.default_rng(5)
        n = 80
        inc = IncrementalComponents()
        inc.ensure(n)
        oracle = UnionFindOracle(n)
        for _ in range(120):
            u, v = map(int, rng.integers(0, n, size=2))
            if u == v:
                continue
            inc.add_link(u, v)
            oracle.union(u, v)
        assert groups_from_labels(inc.roots()) == oracle.groups()
        assert inc.giant_size == max(len(group) for group in oracle.groups())

    def test_ensure_adds_singletons(self):
        inc = IncrementalComponents()
        inc.ensure(3)
        assert inc.n == 3
        assert inc.component_count == 3
        assert inc.giant_size == 1
        assert inc.giant_mask().tolist() == [True, False, False]
        inc.ensure(2)  # never shrinks
        assert inc.n == 3 and inc.component_count == 3

    def test_add_link_extends_range(self):
        inc = IncrementalComponents()
        inc.add_link(0, 4)
        assert inc.n == 5
        assert inc.component_count == 4
        assert inc.giant_size == 2

    def test_duplicate_link_is_noop(self):
        inc = IncrementalComponents()
        inc.add_link(0, 1)
        count = inc.component_count
        inc.add_link(1, 0)
        assert inc.component_count == count
        assert inc.giant_size == 2

    def test_giant_updates_across_merges(self):
        inc = IncrementalComponents()
        inc.ensure(7)
        inc.add_link(0, 1)
        assert inc.giant_size == 2
        inc.add_link(2, 3)
        inc.add_link(3, 4)
        assert inc.giant_size == 3
        assert inc.giant_mask().tolist() == [False, False, True, True, True, False, False]
        inc.add_link(0, 5)
        inc.add_link(5, 6)
        # 0-1-5-6 has four members now
        assert inc.giant_size == 4
        assert inc.giant_mask().tolist() == [True, True, False, False, False, True, True]

    def test_giant_tie_prefers_smaller_min_index(self):
        inc = IncrementalComponents()
        inc.ensure(4)
        inc.add_link(2, 3)
        assert inc.giant_size == 2
        assert inc.giant_mask().tolist() == [False, False, True, True]
        inc.add_link(0, 1)  # same size, contains node 0
        assert inc.giant_size == 2
        assert inc.giant_mask().tolist() == [True, True, False, False]

    def test_empty_giant_mask_rejected(self):
        inc = IncrementalComponents()
        assert inc.giant_size == 0
        with pytest.raises(ValueError):
            inc.giant_mask()


@st.composite
def link_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=80,
        )
    )
    return n, [(u, v) for u, v in pairs if u != v]


class TestAgreementProperty:
    @given(link_sequences())
    @settings(max_examples=80, deadline=None)
    def test_both_routes_agree_at_every_step(self, case):
        n, links = case
        inc = IncrementalComponents()
        inc.ensure(n)
        kept = set()
        edges = []
        for u, v in links:
            inc.add_link(u, v)
            key = (min(u, v), max(u, v))
            if key not in kept:
                kept.add(key)
                edges.append(key)
        assert_same_components(inc, components(snapshot_from_edges(edges, n=n)))

"""Degree moments, the dense degree histogram and its tail, K-S distance,
and the log-log fit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netreplay.degrees import (
    cumulative,
    degree_order,
    ks_statistic,
    powerlaw_fit,
    stats_from_counts,
)

from oracles import basic_stats, ks_brute, snapshot_from_edges


def dist_from_counts(mapping):
    """Dense histogram with ``mapping[k]`` nodes of degree k."""
    counts = np.zeros(max(mapping) + 1, dtype=np.int64)
    counts[list(mapping)] = list(mapping.values())
    return counts


def histogram(edges, n=None):
    return np.bincount(snapshot_from_edges(edges, n=n).degrees)


class TestBasicStats:
    def test_complete_four(self):
        s = basic_stats(snapshot_from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)]))
        assert s.n == 4 and s.m == 6
        assert s.average_degree == 3.0
        assert s.density == 1.0
        assert s.max_degree == 3

    def test_triangle_plus_isolated(self):
        s = basic_stats(snapshot_from_edges([(0, 1), (1, 2), (0, 2)], n=4))
        assert s.average_degree == 1.5
        assert s.density == 0.5
        assert s.max_degree == 2

    def test_pair(self):
        s = basic_stats(snapshot_from_edges([(0, 1)]))
        assert s.average_degree == 1.0
        assert s.density == 1.0

    def test_from_counts_at_web_scale(self):
        # arithmetic must hold far beyond graphs we can build in a test
        s = stats_from_counts(39459925, 783027125, 10721)
        assert s.average_degree == pytest.approx(39.686, abs=5e-3)
        assert 39 < s.average_degree < 40
        assert s.density == pytest.approx(s.average_degree / (s.n - 1), rel=1e-15)

    def test_tiny_graphs_rejected(self):
        with pytest.raises(ValueError):
            stats_from_counts(1, 0, 0)
        with pytest.raises(ValueError):
            basic_stats(snapshot_from_edges([], n=1))

    @given(
        st.integers(min_value=2, max_value=10**9),
        st.integers(min_value=0, max_value=10**12),
    )
    @settings(max_examples=200, deadline=None)
    def test_average_degree_is_density_times_n_minus_one(self, n, m):
        s = stats_from_counts(n, m, 0)
        lhs = s.average_degree
        rhs = s.density * (n - 1)
        assert abs(lhs - rhs) <= math.ulp(max(abs(lhs), abs(rhs)))


class TestDistribution:
    def test_path_of_three(self):
        counts = histogram([(0, 1), (1, 2)])
        assert counts.tolist() == [0, 2, 1]
        assert (counts[1:] / counts.sum()).tolist() == [2 / 3, 1 / 3]

    def test_isolated_nodes_counted_at_zero(self):
        assert histogram([(0, 1)], n=4).tolist() == [2, 2]

    def test_counts_sum_to_n(self):
        snap = snapshot_from_edges([(0, 1), (1, 2), (3, 4)], n=7)
        assert int(np.bincount(snap.degrees).sum()) == snap.n

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cumulative(histogram([], n=0))


class TestCumulative:
    def test_path_of_three(self):
        c = cumulative(histogram([(0, 1), (1, 2)]))
        assert c[1] == 1.0
        assert c[2] == pytest.approx(1 / 3)
        assert c.size == 3  # past the largest degree the tail is 0

    def test_starts_at_exactly_one(self):
        c = cumulative(dist_from_counts({2: 5, 7: 5}))
        assert c[0] == c[2] == 1.0

    def test_step_constant_between_present_degrees(self):
        c = cumulative(dist_from_counts({1: 6, 4: 2}))
        assert c[2] == c[3] == c[4] == 0.25

    def test_array_evaluation(self):
        c = cumulative(dist_from_counts({1: 3, 2: 1}))
        assert c[np.array([1, 2])].tolist() == [1.0, 0.25]

    def test_non_increasing(self):
        c = cumulative(dist_from_counts({0: 1, 1: 4, 3: 2, 9: 3}))
        assert np.all(np.diff(c) <= 0)


class TestKsStatistic:
    def test_star_versus_path(self):
        star = cumulative(histogram([(0, 1), (0, 2), (0, 3)]))
        path = cumulative(histogram([(0, 1), (1, 2), (2, 3)]))
        assert ks_statistic(star, path) == 0.25

    def test_path_versus_triangle(self):
        p3 = cumulative(histogram([(0, 1), (1, 2)]))
        k3 = cumulative(histogram([(0, 1), (1, 2), (0, 2)]))
        assert ks_statistic(p3, k3) == pytest.approx(2 / 3)

    def test_identical_is_exactly_zero(self):
        c = cumulative(dist_from_counts({1: 5, 3: 2, 8: 1}))
        assert ks_statistic(c, c) == 0.0

    def test_zero_degree_mass_still_separates(self):
        # same positive-degree shape, different share of isolated nodes
        a = cumulative(dist_from_counts({0: 5, 1: 5}))
        b = cumulative(dist_from_counts({1: 10}))
        assert ks_statistic(a, b) == 0.5

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=50),
            min_size=1,
            max_size=6,
        ),
        st.dictionaries(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=50),
            min_size=1,
            max_size=6,
        ),
        st.dictionaries(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=50),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_metric_axioms(self, ma, mb, mc):
        a = cumulative(dist_from_counts(ma))
        b = cumulative(dist_from_counts(mb))
        c = cumulative(dist_from_counts(mc))
        dab = ks_statistic(a, b)
        assert 0.0 <= dab <= 1.0
        assert dab == ks_statistic(b, a)
        assert ks_statistic(a, a) == 0.0
        assert dab <= ks_statistic(a, c) + ks_statistic(c, b) + 1e-15

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            ma = {int(k): int(rng.integers(1, 30)) for k in rng.choice(15, size=4, replace=False)}
            mb = {int(k): int(rng.integers(1, 30)) for k in rng.choice(15, size=3, replace=False)}
            a, b = dist_from_counts(ma), dist_from_counts(mb)
            brute = ks_brute(np.repeat(np.arange(a.size), a), np.repeat(np.arange(b.size), b))
            assert ks_statistic(cumulative(a), cumulative(b)) == brute

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40),
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40),
    )
    @example([0], [0])  # one node without links on both sides
    @example([0], [1, 1])  # one node without links against one link
    @example([1, 1, 2, 2], [5, 6, 6, 7])  # disjoint supports
    @example([0, 0, 1, 1], [1, 1, 1, 9])  # tails of different lengths
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force_on_raw_degrees(self, deg_a, deg_b):
        deg_a, deg_b = np.array(deg_a), np.array(deg_b)
        got = ks_statistic(cumulative(np.bincount(deg_a)), cumulative(np.bincount(deg_b)))
        assert got == ks_brute(deg_a, deg_b)


class TestDegreeOrder:
    """degree_order equals a stable argsort of the negated degrees."""

    @given(st.lists(st.integers(0, 2**31 - 1), max_size=200), st.integers(1, 2**31 - 1))
    @example([5, 3, 5, 0, 3, 5], 2**31 - 1)
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_argsort(self, degrees, spread):
        # ``spread`` folds the degrees into few values, so ties are many.
        deg = np.array(degrees, np.int64) % spread
        order = degree_order(deg)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(-deg, kind="stable"))

    @pytest.mark.parametrize(
        "deg",
        [np.full(50, 7), np.zeros(50, np.int64), np.array([3]), np.array([0]), np.zeros(0)],
        ids=["all-equal", "all-zero", "one", "one-zero", "empty"],
    )
    def test_ties_keep_positions(self, deg):
        deg = deg.astype(np.int64)
        assert np.array_equal(degree_order(deg), np.argsort(-deg, kind="stable"))


class TestPowerLawFit:
    def test_exact_inverse_square(self):
        big = 2**40
        mapping = {k: big // (k * k) for k in (1, 2, 4, 8, 16, 32)}
        fit = powerlaw_fit(dist_from_counts(mapping))
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_uniform_counts_fit_flat(self):
        fit = powerlaw_fit(dist_from_counts({1: 7, 2: 7, 5: 7, 9: 7}))
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_zero_degree_excluded_from_fit(self):
        big = 2**40
        mapping = {k: big // (k * k) for k in (1, 2, 4, 8)}
        with_zero = dict(mapping)
        with_zero[0] = 12345
        a = powerlaw_fit(dist_from_counts(mapping))
        b = powerlaw_fit(dist_from_counts(with_zero))
        # extra degree-0 mass shifts proportions uniformly; slope is unchanged
        assert b.alpha == pytest.approx(a.alpha, rel=1e-12)

    def test_needs_two_positive_degrees(self):
        with pytest.raises(ValueError):
            powerlaw_fit(dist_from_counts({0: 4, 3: 10}))

    def test_steeper_tail_larger_alpha(self):
        big = 2**40
        sq = {k: big // k**2 for k in (1, 2, 4, 8)}
        cube = {k: big // k**3 for k in (1, 2, 4, 8)}
        assert powerlaw_fit(dist_from_counts(cube)).alpha > powerlaw_fit(
            dist_from_counts(sq)
        ).alpha

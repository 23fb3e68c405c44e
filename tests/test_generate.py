"""Synthetic stream generators: shapes, determinism, file round-trips."""

import gzip

import numpy as np
import pytest

from netreplay.generate import (
    gen_complete,
    gen_gnp,
    gen_path,
    gen_preferential,
    gen_two_phase,
    generate,
    write_stream,
)
from netreplay.ingest import normalize


def degree_counts(us, vs):
    deg = {}
    for u, v in zip(us, vs):
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def assert_simple(us, vs):
    seen = set()
    for u, v in zip(us, vs):
        assert u != v
        key = (min(u, v), max(u, v))
        assert key not in seen
        seen.add(key)


class TestPath:
    def test_five_nodes_four_links(self):
        ts, us, vs = gen_path(5)
        assert list(zip(ts, us, vs)) == [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4)]

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_path(1)


class TestComplete:
    def test_four_nodes_six_links(self):
        ts, us, vs = gen_complete(4)
        assert len(us) == 6
        assert_simple(us, vs)
        assert ts == list(range(6))
        # node-major: the last block is node 3 linking to 0, 1, 2
        assert us[-3:] == [0, 1, 2]
        assert vs[-3:] == [3, 3, 3]

    def test_every_pair_present(self):
        _, us, vs = gen_complete(7)
        pairs = {(min(u, v), max(u, v)) for u, v in zip(us, vs)}
        assert pairs == {(i, j) for i in range(7) for j in range(i + 1, 7)}


class TestGnp:
    def test_full_probability_gives_complete_graph(self):
        _, us, vs = gen_gnp(6, 1.0, seed=5)
        assert len(us) == 15
        assert_simple(us, vs)

    def test_pairs_in_range_and_simple(self):
        _, us, vs = gen_gnp(30, 0.2, seed=1)
        assert_simple(us, vs)
        assert all(0 <= x < 30 for x in us + vs)

    def test_deterministic(self):
        assert gen_gnp(25, 0.3, seed=9) == gen_gnp(25, 0.3, seed=9)

    def test_link_count_near_expectation(self):
        _, us, _ = gen_gnp(100, 0.1, seed=3)
        expected = 0.1 * (100 * 99 / 2)
        assert abs(len(us) - expected) < 5 * np.sqrt(expected)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_gnp(1, 0.5)
        with pytest.raises(ValueError):
            gen_gnp(10, 0.0)
        with pytest.raises(ValueError):
            gen_gnp(10, 1.5)


class TestPreferential:
    def test_link_budget(self):
        n, k = 200, 3
        _, us, vs = gen_preferential(n, k, seed=2)
        # (k+1)-clique seed, then k links per arriving node
        assert len(us) == k * (k + 1) // 2 + (n - k - 1) * k
        assert_simple(us, vs)

    def test_average_degree_approaches_twice_k(self):
        n, k = 10_000, 3
        _, us, vs = gen_preferential(n, k, seed=0)
        avg = 2 * len(us) / n
        assert abs(avg - 2 * k) < 0.1

    def test_new_node_links_to_existing_only(self):
        k = 2
        _, us, vs = gen_preferential(50, k, seed=8)
        seed_links = k * (k + 1) // 2
        for u, v in zip(us[seed_links:], vs[seed_links:]):
            assert v < u  # target existed before the arriving node
        assert max(max(us), max(vs)) == 49

    def test_hubs_emerge(self):
        _, us, vs = gen_preferential(2000, 2, seed=6)
        deg = degree_counts(us, vs)
        assert max(deg.values()) > 20  # far above the minimum degree k

    def test_deterministic(self):
        assert gen_preferential(80, 2, seed=4) == gen_preferential(80, 2, seed=4)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_preferential(3, 2)
        with pytest.raises(ValueError):
            gen_preferential(10, 0)


class TestTwoPhase:
    def test_link_budget(self):
        n1, k, n2, extra = 100, 2, 50, 3
        ts, us, vs = gen_two_phase(n1, k, n2, extra, seed=1)
        phase1_links = k * (k + 1) // 2 + (n1 - k - 1) * k
        assert len(us) == phase1_links + n2 * (1 + extra)
        assert_simple(us, vs)
        assert ts == sorted(ts)

    def test_density_rises_in_phase_two(self):
        n1, k, n2, extra = 300, 2, 300, 4
        _, us, vs = gen_two_phase(n1, k, n2, extra, seed=0)
        # links per node measured node-by-node climbs after the switch
        max_node = np.maximum.accumulate(np.maximum(us, vs))
        links_so_far = np.arange(1, len(us) + 1)
        at_n1 = np.searchsorted(max_node, n1 - 1)
        ratio_phase1 = links_so_far[at_n1] / n1
        ratio_end = links_so_far[-1] / (n1 + n2)
        assert ratio_end > ratio_phase1 * 1.5

    def test_nodes_cover_range(self):
        _, us, vs = gen_two_phase(50, 2, 25, 2, seed=3)
        assert max(max(us), max(vs)) == 74

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_two_phase(50, 2, 0, 2)
        with pytest.raises(ValueError):
            gen_two_phase(50, 2, 10, 0)


class TestWriteAndDispatch:
    def test_roundtrip_plain(self, tmp_path):
        path = str(tmp_path / "stream.txt")
        stream = gen_gnp(20, 0.3, seed=7)
        write_stream(path, stream)
        s = normalize(path)
        ts, us, vs = stream
        # Every line survives (gen_gnp repeats no link and writes no loop),
        # with nodes renumbered in order of first appearance.
        ids = {x: k for k, x in enumerate(dict.fromkeys(x for pair in zip(us, vs) for x in pair))}
        assert s.time.tolist() == ts
        assert s.u.tolist() == [ids[x] for x in us]
        assert s.v.tolist() == [ids[x] for x in vs]

    def test_roundtrip_gzip(self, tmp_path):
        path = str(tmp_path / "stream.txt.gz")
        write_stream(path, gen_path(6))
        with gzip.open(path, "rt") as f:
            first = f.readline().strip()
        assert first == "0 0 1"
        s = normalize(path)
        assert s.final_n == 6 and s.final_m == 5

    def test_dispatcher_names(self):
        assert generate("path", nodes=4) == gen_path(4)
        assert generate("complete", nodes=4) == gen_complete(4)
        assert generate("random-gnp", seed=2, nodes=10, prob=0.5) == gen_gnp(10, 0.5, 2)
        assert generate(
            "preferential-attachment", seed=2, nodes=20, links_per_node=2
        ) == gen_preferential(20, 2, 2)
        assert generate(
            "two-phase",
            seed=2,
            phase1_nodes=30,
            links_per_node=2,
            phase2_nodes=10,
            extra_per_node=2,
        ) == gen_two_phase(30, 2, 10, 2, 2)
        with pytest.raises(ValueError):
            generate("nonsense", nodes=4)

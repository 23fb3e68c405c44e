"""End-to-end replay runs: checkpoint placement, series output, determinism."""

import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreplay import ingest, pipeline, triangles
from netreplay.distances import (
    BoundConfig,
    DistanceCheckpoint,
    EstimatorConfig,
    distance_statistics,
)
from netreplay.generate import gen_complete, gen_gnp, gen_preferential, write_stream
from netreplay.graph import arrival_csr, finalize_snapshot
from netreplay.ingest import StreamFormatError, checkpoint_plan, checkpoint_sizes
from netreplay.pipeline import (
    RunConfig,
    checkpoint_bounds_seed,
    checkpoint_estimator_seed,
    run_evolution,
)
from netreplay.triangles import analyze_triangles
from oracles import (
    basic_stats,
    components,
    count_triangles,
    ks_brute,
    probe_sides,
    scheduled_batches,
    snapshot_from_edges,
)

FAST_EST = EstimatorConfig(i_min=4, epsilon=0.2)
FAST_BND = BoundConfig(min_iterations=2, gap_target=2, iteration_cap=6)


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def quick_config(path, **overrides):
    defaults = dict(
        input_path=str(path),
        estimator=FAST_EST,
        bounds=FAST_BND,
        use_cache=False,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestCheckpointPlacement:
    def test_three_event_stream(self, tmp_path):
        path = tmp_path / "tiny.txt"
        write_lines(path, ["0 a b", "1 b c", "2 c d"])
        result = run_evolution(quick_config(path, nominal_checkpoints=100))
        assert result.final_n == 4
        assert len(result.checkpoints) <= 4
        last = result.checkpoints[-1]
        assert last.n == result.final_n
        assert last.m == result.final_m == 3

    def test_final_checkpoint_consumes_whole_stream(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(120, 2, seed=1))
        result = run_evolution(quick_config(path, nominal_checkpoints=10))
        last = result.checkpoints[-1]
        assert last.position == result.final_m
        assert last.n == result.final_n

    def test_n_strictly_increasing_m_nondecreasing(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(200, 2, seed=3))
        result = run_evolution(quick_config(path, nominal_checkpoints=25))
        ns = [r.n for r in result.checkpoints]
        ms = [r.m for r in result.checkpoints]
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert all(b >= a for a, b in zip(ms, ms[1:]))

    def test_all_series_share_key_columns(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(80, 2, seed=5))
        out = tmp_path / "out"
        result = run_evolution(quick_config(path, nominal_checkpoints=8, out_dir=str(out)))
        # A series holds one value per checkpoint; its file takes the key
        # columns from the checkpoints, as growth.csv does.
        growth = (out / "growth.csv").read_text().splitlines()[1:]
        assert len(growth) == len(result.checkpoints)
        for name, s in result.series.items():
            assert len(s.values) == len(result.checkpoints)
            rows = (out / f"{name}.csv").read_text().splitlines()[1:]
            assert [row.rsplit(",", 1)[0] for row in rows] == growth

    def test_checkpoint_times_from_stream(self, tmp_path):
        path = tmp_path / "t.txt"
        write_lines(path, ["5 a b", "9 b c", "14 c d", "20 d e"])
        result = run_evolution(quick_config(path, nominal_checkpoints=4))
        for r in result.checkpoints:
            assert r.time in (5, 9, 14, 20)
        assert result.checkpoints[-1].time == 20


class TestSeriesValues:
    def test_ks_vs_final_ends_exactly_zero(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(150, 2, seed=7))
        result = run_evolution(quick_config(path, nominal_checkpoints=12))
        ks = result.series["ks_vs_final"].values
        assert ks[-1] == 0.0
        assert all(0.0 <= x <= 1.0 for x in ks)

    def test_density_constant_on_quadratic_growth_tail(self, tmp_path):
        # all pairs among the first j nodes keeps m proportional to n^2,
        # so density should flatten out near 1 over the large-n tail
        path = tmp_path / "complete.txt"
        write_stream(str(path), gen_complete(400))
        result = run_evolution(
            quick_config(path, nominal_checkpoints=100, stats=frozenset({"conn", "deg"}))
        )
        tail = [
            v
            for r, v in zip(result.checkpoints, result.series["density"].values)
            if r.n >= 360
        ]
        assert len(tail) >= 5
        assert max(tail) / min(tail) - 1 < 0.01

    def test_identity_between_degree_and_density(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(100, 3, seed=2))
        result = run_evolution(
            quick_config(path, nominal_checkpoints=20, stats=frozenset({"deg"}))
        )
        for r, dbar, delta in zip(
            result.checkpoints,
            result.series["average_degree"].values,
            result.series["density"].values,
        ):
            assert dbar == pytest.approx(delta * (r.n - 1), rel=1e-15)

    def test_undefined_statistics_left_empty(self, tmp_path):
        path = tmp_path / "loopy.txt"
        # two node-only discoveries, then links: small checkpoints have no
        # degree statistics (n < 2 at the first one) and no distances
        write_lines(path, ["0 x x", "1 a b", "2 b c"])
        out = tmp_path / "out"
        result = run_evolution(
            quick_config(path, nominal_checkpoints=100, out_dir=str(out))
        )
        first = result.checkpoints[0]
        assert first.n == 1 and first.m == 0
        assert result.series["average_degree"].values[0] is None
        assert result.series["average_distance"].values[0] is None
        text = (out / "average_degree.csv").read_text().splitlines()
        assert text[0] == "checkpoint,n,m,time,value"
        assert text[1].endswith(",")  # empty cell, not 0

    def test_giant_fraction_reaches_one_on_connected_stream(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(90, 2, seed=4))
        result = run_evolution(quick_config(path, nominal_checkpoints=9))
        assert result.series["giant_fraction"].values[-1] == 1.0

    @pytest.mark.parametrize(
        "lines, diameter",
        [
            (["0 a b", "1 b c", "2 c d", "3 e f", "4 e g", "5 e h"], 3),
            (["0 e f", "1 e g", "2 e h", "3 a b", "4 b c", "5 c d"], 2),
        ],
        ids=["path-first", "star-first"],
    )
    def test_giant_tie_goes_to_component_of_first_node(self, tmp_path, lines, diameter):
        # a 4-node path (diameter 3) and a 4-node star (diameter 2) tie for
        # the giant; distances are measured on the one holding node 0
        path = tmp_path / "tie.txt"
        write_lines(path, lines)
        result = run_evolution(quick_config(path, nominal_checkpoints=4))
        assert result.checkpoints[-1].n == 8
        assert result.series["giant_fraction"].values[-1] == 0.5
        assert result.series["diameter_lower"].values[-1] == diameter
        assert result.series["diameter_upper"].values[-1] == diameter

    def test_stat_subset_only_emits_requested(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(60, 2, seed=6))
        result = run_evolution(
            quick_config(path, nominal_checkpoints=5, stats=frozenset({"conn"}))
        )
        assert sorted(result.series) == ["component_count", "giant_fraction"]


class TestPrefixConsistency:
    def test_incremental_equals_from_scratch(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(250, 2, seed=9))
        cfg = quick_config(path, nominal_checkpoints=10)
        result = run_evolution(cfg)
        stream = pipeline.load_stream(cfg)
        for idx, r in enumerate(result.checkpoints):
            edges = list(zip(stream.u[: r.position].tolist(), stream.v[: r.position].tolist()))
            snap = snapshot_from_edges(edges, n=r.n)
            summ = components(snap)
            assert result.series["component_count"].values[idx] == summ.component_count
            assert result.series["giant_fraction"].values[idx] == summ.giant_fraction
            stats = basic_stats(snap)
            assert result.series["average_degree"].values[idx] == stats.average_degree
            assert result.series["density"].values[idx] == stats.density
            assert result.series["max_degree"].values[idx] == stats.max_degree
            tri = analyze_triangles(snap.degrees, stats, *count_triangles(snap))
            for name, value in zip(pipeline.SERIES["tri"], tri, strict=True):
                assert result.series[name].values[idx] == value
            checkpoint = DistanceCheckpoint(
                summ.giant_mask(),
                checkpoint_estimator_seed(cfg.seed, r.index),
                checkpoint_bounds_seed(cfg.seed, r.index),
            )
            [((est, samples), out)], _ = distance_statistics(snap, [checkpoint], FAST_EST, FAST_BND)
            assert result.series["average_distance"].values[idx] == est
            assert result.series["average_distance_samples"].values[idx] == samples
            assert result.series["diameter_lower"].values[idx] == out.lower
            assert result.series["diameter_upper"].values[idx] == out.upper

    def test_ks_vs_final_recomputable(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(150, 2, seed=12))
        cfg = quick_config(path, nominal_checkpoints=8, stats=frozenset({"deg"}))
        result = run_evolution(cfg)
        stream = pipeline.load_stream(cfg)
        final = result.checkpoints[-1]
        final_snap = snapshot_from_edges(
            list(zip(stream.u.tolist(), stream.v.tolist())), n=final.n
        )
        for idx, r in enumerate(result.checkpoints):
            edges = list(zip(stream.u[: r.position].tolist(), stream.v[: r.position].tolist()))
            snap = snapshot_from_edges(edges, n=r.n)
            want = ks_brute(snap.degrees, final_snap.degrees)
            assert result.series["ks_vs_final"].values[idx] == want


class TestOutputs:
    def run_to_dir(self, tmp_path, name, **overrides):
        path = tmp_path / "s.txt"
        if not path.exists():
            write_stream(str(path), gen_preferential(100, 2, seed=8))
        out = tmp_path / name
        cfg = quick_config(path, nominal_checkpoints=10, out_dir=str(out), **overrides)
        return run_evolution(cfg), out

    def test_file_inventory(self, tmp_path):
        result, out = self.run_to_dir(tmp_path, "out")
        found = sorted(os.listdir(out))
        for expected in (
            "manifest.json",
            "timings.json",
            "growth.csv",
            "links_vs_nodes.csv",
            "plots.gp",
        ):
            assert expected in found
        for name in result.series:
            assert f"{name}.csv" in found

    def test_manifest_contents(self, tmp_path):
        result, out = self.run_to_dir(tmp_path, "out")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["final_n"] == result.final_n
        assert manifest["final_m"] == result.final_m
        assert manifest["seed"] == 0
        assert len(manifest["checkpoints"]) == len(result.checkpoints)
        assert manifest["series"]["density"] == "density.csv"
        assert manifest["timings_file"] == "timings.json"
        assert "python" in manifest["versions"]

    def test_timings_split_distance_time(self, tmp_path):
        _, out = self.run_to_dir(tmp_path, "out")
        timings = json.loads((out / "timings.json").read_text())
        for record in timings["per_checkpoint"]:
            assert 0.0 <= record["dist_batch"] <= record["dist"]
        assert sorted(timings["totals"]) == ["conn", "deg", "dist", "replay", "tri"]
        # Load and write lie outside the checkpoint loop, so outside totals.
        for key in ("load", "write"):
            assert isinstance(timings[key], float) and timings[key] >= 0.0
        assert sorted(timings["part_totals"]) == ["dist_batch"]
        assert timings["part_totals"]["dist_batch"] == pytest.approx(
            sum(r["dist_batch"] for r in timings["per_checkpoint"])
        )

    def test_load_work_counts_the_parse(self, tmp_path):
        def load_work(name):
            _, out = self.run_to_dir(tmp_path, name, stats=frozenset({"deg"}), use_cache=True)
            return json.loads((out / "timings.json").read_text())["load_work"]

        parsed = load_work("parsed")
        # A generated trace names its nodes 0, 1, 2, ...: one decimal block,
        # which numbers its 100 nodes without the dictionary.
        assert parsed == {
            "blocks": 1, "decimal_blocks": 1, "id_cache_blocks": 0, "token_lookups": 0
        }
        assert load_work("cached") == {}

    def test_work_counts_match_distance_series(self, tmp_path, monkeypatch):
        self.check_work_counts(tmp_path, monkeypatch, nominal=10)

    def test_work_counts_with_a_lone_last_checkpoint(self, tmp_path, monkeypatch):
        self.check_work_counts(tmp_path, monkeypatch, nominal=9)

    def check_work_counts(self, tmp_path, monkeypatch, nominal):
        from netreplay import distances

        calls = {"dist_batches": 0}
        gathered = []

        def batch(snapshot, sources, **flags):
            calls["dist_batches"] += 1
            # every level of a batch gathers the whole adjacency array of the
            # pair's snapshot, and the last level reaches the farthest node
            # of any source in any group
            got = bfs_batch(snapshot, sources, **flags)
            gathered.append(int(got.eccentricity.max()) * snapshot.neighbors.size)
            return got

        bfs_batch = distances.bfs_batch
        monkeypatch.setattr(distances, "bfs_batch", batch)
        # above 16 rounds a paired bracket needs a second wave, above 32 a
        # lone one; above 32 samples an estimator outlasts its group's bits
        # in a paired wave
        cap, least = 130, 65
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(100, 2, seed=8))
        out = tmp_path / "outw"
        result = run_evolution(quick_config(
            path,
            nominal_checkpoints=nominal,
            out_dir=str(out),
            estimator=EstimatorConfig(i_min=70, epsilon=0.01),
            bounds=BoundConfig(min_iterations=least, gap_target=1, iteration_cap=cap),
        ))

        def column(name):
            rows = (out / f"{name}.csv").read_text().splitlines()[1:]
            return [None if row.endswith(",") else int(row.rsplit(",", 1)[1]) for row in rows]

        samples = column("average_distance_samples")
        iterations = column("diameter_iterations")
        count = len(result.checkpoints)
        assert len(samples) == len(iterations) == count == nominal
        assert max(s for s in samples if s) > 64 and max(i for i in iterations if i) > 64
        timings = json.loads((out / "timings.json").read_text())
        work = timings["work"]
        assert work.pop("dist_entries") == sum(gathered)
        dist_work = {key: work.pop(key) for key in calls}
        assert dist_work == calls

        measured = [(s, i) for s, i in zip(samples, iterations) if s is not None]
        alone = sum(scheduled_batches([member], least, cap) for member in measured)
        pairs = [
            [(s, i) for s, i in zip(samples[k : k + 2], iterations[k : k + 2]) if s is not None]
            for k in range(0, count, 2)
        ]
        per_pair = [scheduled_batches(pair, least, cap) for pair in pairs]
        assert sum(per_pair) < alone
        assert dist_work == {"dist_batches": sum(per_pair)}
        # a pair's batches are recorded on its later checkpoint, and the
        # earlier one carries 0
        recorded = [record["dist_batches"] for record in timings["per_checkpoint"]]
        assert [recorded[min(k + 1, count - 1)] for k in range(0, count, 2)] == per_pair
        assert [recorded[k] for k in range(0, count - 1, 2)] == [0] * (count // 2)
        # With distances on, each pair or lone checkpoint builds one snapshot.
        assert work.pop("snapshots") == len(pairs)
        # checked in TestTriangleWork
        assert sorted(work) == ["tri_batches", "tri_probes", "tri_searches"]

    def test_work_counts_zero_without_distances(self, tmp_path):
        _, out = self.run_to_dir(tmp_path, "outz", stats=frozenset({"conn", "deg"}))
        work = json.loads((out / "timings.json").read_text())["work"]
        assert work == {
            "dist_batches": 0,
            "dist_entries": 0,
            "snapshots": 0,
            "tri_probes": 0,
            "tri_searches": 0,
            "tri_batches": 0,
        }

    def test_csv_round_numbers_survive(self, tmp_path):
        result, out = self.run_to_dir(tmp_path, "out")
        lines = (out / "average_degree.csv").read_text().splitlines()
        idx, n, m, t, value = lines[-1].split(",")
        assert float(value) == result.series["average_degree"].values[-1]

    def test_distribution_dumps(self, tmp_path):
        result, out = self.run_to_dir(tmp_path, "outd", dump_distributions=True)
        ddir = out / "distributions"
        files = sorted(os.listdir(ddir))
        assert len(files) == len(result.checkpoints)
        first = (ddir / files[0]).read_text().splitlines()
        assert first[0] == "degree,count,proportion,cumulative"
        # one uniform name width so files sort in checkpoint order
        assert len({len(f) for f in files}) == 1
        # the last dump lists the final graph's present degrees and tail
        stream = pipeline.load_stream(result.config)
        links = list(zip(stream.u.tolist(), stream.v.tolist()))
        final = snapshot_from_edges(links, n=result.final_n)
        rows = [line.split(",") for line in (ddir / files[-1]).read_text().splitlines()[1:]]
        present = sorted(set(final.degrees.tolist()))
        assert [int(row[0]) for row in rows] == present
        for k, count, proportion, tail in rows:
            assert int(count) == int(np.sum(final.degrees == int(k)))
            assert float(proportion) == int(count) / final.n
            assert float(tail) == float(np.mean(final.degrees >= int(k)))

    def test_growth_matches_checkpoints(self, tmp_path):
        result, out = self.run_to_dir(tmp_path, "out")
        lines = (out / "growth.csv").read_text().splitlines()[1:]
        assert len(lines) == len(result.checkpoints)
        for line, r in zip(lines, result.checkpoints):
            assert line == f"{r.index},{r.n},{r.m},{r.time}"


def compact_forward_probes(u, v, n):
    """The probes of each link in the triangle listing's order: the fewer
    of the two ends' candidate third corners."""
    return [min(from_better, from_worse) for from_better, from_worse, _ in probe_sides(u, v, n)]


def listing_passes(probes, budget):
    """Batches of consecutive links, each closed at the first link that
    brings its probes to ``budget``."""
    passes = i = 0
    while i < len(probes):
        held = 0
        while i < len(probes) and held < budget:
            held += probes[i]
            i += 1
        passes += 1
    return passes


@st.composite
def trace_lines(draw):
    """Trace lines over a few nodes: links, repeats of them in either
    direction, and loops, which may be the only lines naming a node."""
    n = draw(st.integers(1, 10))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    events = draw(st.lists(ends, min_size=1, max_size=50))
    return [f"{t} n{a} n{b}" for t, (a, b) in enumerate(events)]


def raising(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return fail


class TestAdjacencyOnlyWhereRead:
    @given(trace_lines(), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_running_degrees_match_snapshot_at_every_checkpoint(self, lines, checkpoints):
        seen = []

        def measure(group, k, degrees, *rest):
            seen.append(degrees.copy())

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.txt")
            write_lines(path, lines)
            cfg = quick_config(path, nominal_checkpoints=checkpoints, stats=frozenset({"deg"}))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pipeline, "_measure", measure)
                result = run_evolution(cfg)
            stream = pipeline.load_stream(cfg)
        csr = arrival_csr(stream.u, stream.v, stream.final_n)
        plan = checkpoint_plan(stream, checkpoint_sizes(stream.final_n, checkpoints))
        assert len(seen) == len(plan) == len(result.checkpoints)
        for degrees, record, (_, _, position, n) in zip(seen, result.checkpoints, plan):
            snap = finalize_snapshot(csr, position, n)
            assert degrees.tolist() == snap.degrees.tolist()
            assert record.m == snap.m

    @pytest.mark.parametrize(
        "groups, unused",
        [
            ({"conn", "deg"}, ("arrival_csr", "finalize_snapshot")),
            ({"tri"}, ("finalize_snapshot",)),
        ],
    )
    def test_groups_without_distances_build_no_snapshot(self, tmp_path, monkeypatch, groups, unused):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(120, 3, seed=4))
        want = run_evolution(quick_config(path, nominal_checkpoints=9, stats=frozenset(groups)))
        for name in unused:
            monkeypatch.setattr(pipeline, name, raising(name))
        got = run_evolution(quick_config(path, nominal_checkpoints=9, stats=frozenset(groups)))
        assert got.checkpoints == want.checkpoints
        assert {k: s.values for k, s in got.series.items()} == {
            k: s.values for k, s in want.series.items()
        }


class TestDistancePairs:
    """The distance group runs adjacent checkpoints in pairs on the later
    one's snapshot; every value must still be the checkpoint's own."""

    @given(trace_lines(), st.integers(1, 12), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_every_checkpoint_matches_its_own_snapshot(self, lines, checkpoints, seed):
        # odd counts end on a lone checkpoint; early checkpoints may have no
        # link, or a giant of one node, beside a partner that measures
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.txt")
            write_lines(path, lines)
            cfg = quick_config(
                path, nominal_checkpoints=checkpoints, seed=seed, stats=frozenset({"dist"})
            )
            result = run_evolution(cfg)
            stream = pipeline.load_stream(cfg)
        for k, r in enumerate(result.checkpoints):
            edges = list(zip(stream.u[: r.position].tolist(), stream.v[: r.position].tolist()))
            snap = snapshot_from_edges(edges, n=r.n)
            mask = components(snap).giant_mask()
            want = (None,) * 6
            if np.count_nonzero(mask) >= 2:
                checkpoint = DistanceCheckpoint(
                    mask,
                    checkpoint_estimator_seed(seed, r.index),
                    checkpoint_bounds_seed(seed, r.index),
                )
                [(est, out)], _ = distance_statistics(snap, [checkpoint], FAST_EST, FAST_BND)
                want = (*est, out.lower, out.upper, out.iterations, out.converged)
            got = tuple(result.series[name].values[k] for name in pipeline.SERIES["dist"])
            assert got == want

    @pytest.mark.parametrize("corrupt", ["not-closed", "not-connected"])
    def test_rejected_earlier_mask_names_its_checkpoint(self, tmp_path, monkeypatch, corrupt):
        # the first earlier member of a pair whose graph has two components
        # and a giant of three nodes or more gets a bad mask: one giant node
        # left out (the check before any batch), or a second component let
        # in (the pair's first batch)
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_gnp(80, 0.03, seed=3))
        build = pipeline._distance_checkpoint
        calls, corrupted = [], []

        def corrupting(config, index, components):
            checkpoint = build(config, index, components)
            calls.append(index)
            if corrupted or len(calls) % 2 == 0 or len(calls) > 7:
                return checkpoint
            if components.count < 2 or components.giant_size < 3:
                return checkpoint
            mask = checkpoint.giant_mask
            if corrupt == "not-closed":
                mask[np.flatnonzero(mask)[0]] = False
            else:
                mask |= components.label == components.label[~mask][0]
            corrupted.append(index)
            return checkpoint

        monkeypatch.setattr(pipeline, "_distance_checkpoint", corrupting)
        with pytest.raises(RuntimeError, match="not the component") as raised:
            run_evolution(quick_config(path, nominal_checkpoints=10, stats=frozenset({"dist"})))
        assert corrupted
        assert str(raised.value).startswith(f"checkpoint {corrupted[0]} (")
        assert calls[-1] > corrupted[0]  # raised while the later member ran


class TestTriangleWork:
    def run(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(200, 4, seed=11))
        out = tmp_path / "out"
        run_evolution(
            quick_config(path, nominal_checkpoints=10, out_dir=str(out), stats=frozenset({"tri"}))
        )
        stream = ingest.normalize(str(path))
        probes = compact_forward_probes(stream.u.tolist(), stream.v.tolist(), stream.final_n)
        return json.loads((out / "timings.json").read_text()), probes

    def test_probes_are_the_compact_forward_total(self, tmp_path):
        timings, probes = self.run(tmp_path)
        assert sum(probes) > 0
        assert timings["work"]["tri_probes"] == sum(probes)
        assert timings["work"]["tri_batches"] == 1
        assert timings["work"]["snapshots"] == 0
        # counted once, where the listing runs: the first checkpoint
        carriers = [r["checkpoint"] for r in timings["per_checkpoint"] if "tri_probes" in r]
        assert carriers == [timings["per_checkpoint"][0]["checkpoint"]]

    def test_searches_lie_between_triangles_and_probes(self, tmp_path, monkeypatch):
        # Every triangle is one search that found its key; the filter keeps
        # most other probes from being searched. With one filter slot, every
        # probe is searched.
        timings, probes = self.run(tmp_path)
        triangles_total = int(
            (tmp_path / "out" / "triangles.csv").read_text().splitlines()[-1].rsplit(",", 1)[1]
        )
        work = timings["work"]
        assert 0 < triangles_total <= work["tri_searches"] < work["tri_probes"] == sum(probes)
        carriers = [r["checkpoint"] for r in timings["per_checkpoint"] if "tri_searches" in r]
        assert carriers == [timings["per_checkpoint"][0]["checkpoint"]]
        monkeypatch.setattr(triangles, "_HASH_MULTIPLIER", 0)
        timings, _ = self.run(tmp_path)
        assert timings["work"]["tri_searches"] == timings["work"]["tri_probes"]

    def test_batches_count_the_listing_passes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(triangles, "_PROBE_BUDGET", 3)
        timings, probes = self.run(tmp_path)
        assert timings["work"]["tri_probes"] == sum(probes)
        assert timings["work"]["tri_batches"] == listing_passes(probes, 3) > 1

    def test_peak_rss_is_this_process_high_water_mark(self, tmp_path, monkeypatch):
        timings, _ = self.run(tmp_path)
        if not os.path.exists("/proc/self/status"):
            assert timings["peak_rss_mb"] is None
        else:
            with open("/proc/self/status", "rb") as f:
                hwm = next(int(line.split()[1]) for line in f if line.startswith(b"VmHWM:"))
            assert 0 < timings["peak_rss_mb"] <= hwm / 1024

        def unreadable(*args, **kwargs):
            raise OSError("no /proc here")

        monkeypatch.setattr(pipeline, "open", unreadable, raising=False)
        assert pipeline._peak_rss_mb() is None


class TestDeterminismAndCache:
    def tree_bytes(self, root):
        out = {}
        for dirpath, _, files in os.walk(root):
            for f in files:
                full = os.path.join(dirpath, f)
                rel = os.path.relpath(full, root)
                with open(full, "rb") as fh:
                    out[rel] = fh.read()
        return out

    def test_reruns_byte_identical_outside_timings(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(150, 2, seed=10))
        trees = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_evolution(quick_config(path, nominal_checkpoints=12, out_dir=str(out)))
            trees.append(self.tree_bytes(out))
        a, b = trees
        assert set(a) == set(b)
        for rel in a:
            if rel == "timings.json":
                continue
            assert a[rel] == b[rel], f"{rel} differs between reruns"

    def test_different_seed_changes_sampled_series(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(200, 2, seed=11))
        r0 = run_evolution(quick_config(path, nominal_checkpoints=6, seed=0))
        r1 = run_evolution(quick_config(path, nominal_checkpoints=6, seed=99))
        # deterministic statistics agree; sampled ones may move
        assert r0.series["triangles"].values == r1.series["triangles"].values
        assert r0.series["average_degree"].values == r1.series["average_degree"].values

    def test_cache_sidecar_used_when_fresh(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(80, 2, seed=13))
        cfg = quick_config(path, nominal_checkpoints=5, use_cache=True)
        first = run_evolution(cfg)
        sidecar = str(path) + ".arrivals"
        assert os.path.exists(sidecar)
        # clobber the raw input but keep its size and modification time; a
        # second run must come from the cache and never parse the garbage
        st = os.stat(path)
        path.write_bytes(b"x" * (st.st_size - 1) + b"\n")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        second = run_evolution(cfg)
        assert second.series["component_count"].values == first.series[
            "component_count"
        ].values

    def test_cache_ignored_when_stale(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(60, 2, seed=14))
        cfg = quick_config(path, nominal_checkpoints=4, use_cache=True)
        run_evolution(cfg)
        sidecar = str(path) + ".arrivals"
        # newer input invalidates the sidecar
        write_stream(str(path), gen_preferential(70, 2, seed=15))
        os.utime(path, None)
        fresh = os.path.getmtime(sidecar) - 50
        os.utime(sidecar, (fresh, fresh))
        result = run_evolution(cfg)
        assert result.final_n == 70

    def test_cache_not_served_under_another_format(self, tmp_path):
        path = tmp_path / "pairs.txt"
        write_lines(path, ["a b", "b c", "c a"])
        two_column = pipeline.load_stream(
            quick_config(path, use_cache=True, no_time=True)
        )
        assert (two_column.final_n, two_column.final_m) == (3, 3)
        with pytest.raises(StreamFormatError, match="line 1"):
            pipeline.load_stream(quick_config(path, use_cache=True))

    def test_cache_and_direct_parse_agree(self, tmp_path):
        path = tmp_path / "s.txt"
        write_stream(str(path), gen_preferential(90, 2, seed=16))
        with_cache = run_evolution(quick_config(path, nominal_checkpoints=6, use_cache=True))
        without = run_evolution(quick_config(path, nominal_checkpoints=6, use_cache=False))
        for name in with_cache.series:
            assert with_cache.series[name].values == without.series[name].values

    def test_cache_served_run_matches_uncached(self, tmp_path, monkeypatch):
        # loops, duplicates, equal times and times past 2^63 in one trace
        rng = np.random.default_rng(17)
        pairs = rng.integers(0, 60, size=(400, 2))
        path = tmp_path / "s.txt"
        write_lines(path, [f"{2**63 - 50 + i // 3} n{a} n{b}" for i, (a, b) in enumerate(pairs)])
        cfg = quick_config(path, nominal_checkpoints=6, use_cache=True)
        run_evolution(cfg)  # writes the sidecar
        without = run_evolution(quick_config(path, nominal_checkpoints=6, use_cache=False))

        def no_parse(path, no_time, work=None):
            raise AssertionError("the second cached run parsed the input")

        monkeypatch.setattr(pipeline, "normalize", no_parse)
        served = run_evolution(cfg)
        assert served.checkpoints == without.checkpoints
        for name in without.series:
            assert served.series[name].values == without.series[name].values

    def test_previous_format_sidecar_parsed_again_and_replaced(self, tmp_path, monkeypatch):
        path = tmp_path / "s.txt"
        write_lines(path, ["0 a b", "1 b c"])
        cfg = quick_config(path, use_cache=True)
        sidecar = str(path) + ".arrivals"
        # the previous layout: node_count_prefix without its leading entry
        key = ingest.cache_key(str(path), False)
        columns = struct.pack("<2i2i2Q2q", 0, 1, 1, 2, 0, 1, 2, 3)
        with open(sidecar, "wb") as f:
            f.write(b"NRSTRM03" + struct.pack("<2Q3q", 3, 2, *key) + columns)
        parses = []

        def counted_normalize(path, no_time, work=None):
            parses.append(1)
            return ingest.normalize(path, no_time, work)

        monkeypatch.setattr(pipeline, "normalize", counted_normalize)
        stream = pipeline.load_stream(cfg)
        assert (stream.final_n, stream.final_m, len(parses)) == (3, 2, 1)
        with open(sidecar, "rb") as f:
            assert f.read(8) == ingest.CACHE_MAGIC == b"NRSTRM04"
        pipeline.load_stream(cfg)
        assert len(parses) == 1  # the rewritten sidecar serves the next load


class TestErrors:
    def test_empty_input_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no nodes"):
            run_evolution(quick_config(path))

    def test_failures_carry_checkpoint_context(self, tmp_path, monkeypatch):
        path = tmp_path / "s.txt"
        write_lines(path, ["0 a b", "1 b c"])

        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        # The listing behind every checkpoint's counts runs inside the first
        # checkpoint's measurement, and so must its failures.
        for name in ("analyze_triangles", "triangle_counts"):
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, name, boom)
                with pytest.raises(RuntimeError, match=r"checkpoint \d+.*synthetic failure"):
                    run_evolution(
                        quick_config(path, nominal_checkpoints=1, stats=frozenset({"tri"}))
                    )

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            RunConfig(input_path="x", stats=frozenset())
        with pytest.raises(ValueError, match="unknown"):
            RunConfig(input_path="x", stats=frozenset({"conn", "nope"}))
        with pytest.raises(ValueError):
            RunConfig(input_path="x", nominal_checkpoints=0)

    @pytest.mark.parametrize("groups", [{"conn", "deg"}, {"conn", "deg", "dist"}])
    def test_negative_seed_rejected(self, groups):
        # Seeds derive the distance group's draws, but the run records the
        # seed whichever groups are on, so the rule cannot depend on them.
        with pytest.raises(ValueError, match="seed must be non-negative"):
            RunConfig(input_path="x", stats=frozenset(groups), seed=-1)
        RunConfig(input_path="x", stats=frozenset(groups), seed=0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            run_evolution(quick_config(tmp_path / "absent.txt"))

    def test_distribution_dump_needs_degree_group(self):
        # Without deg there is nothing to dump; the directory would be empty.
        with pytest.raises(ValueError, match="dump_distributions needs the deg"):
            RunConfig(input_path="x", stats=frozenset({"conn", "dist"}), dump_distributions=True)
        RunConfig(input_path="x", stats=frozenset({"deg"}), dump_distributions=True)

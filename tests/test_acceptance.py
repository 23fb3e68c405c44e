"""End-to-end acceptance checks.

Each test exercises one contract of the package and prints a single
[PASS]/[FAIL] line naming the criterion (run ``pytest tests/test_acceptance.py -s``
to watch them go by). Tolerances and time budgets are pinned inline next to
the assertions they guard.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import time

import numpy as np

from conftest import (
    brute_triangles,
    exact_mean_distance,
    is_connected,
    random_edges,
    true_diameter,
)
from netreplay.degrees import cumulative, ks_statistic, powerlaw_fit, stats_from_counts
from netreplay.distances import (
    BoundConfig,
    DistanceCheckpoint,
    EstimatorConfig,
    distance_statistics,
)
from netreplay.generate import (
    gen_complete,
    gen_gnp,
    gen_path,
    gen_preferential,
    gen_two_phase,
    write_stream,
)
from netreplay.graph import Snapshot
from netreplay.pipeline import (
    SERIES,
    RunConfig,
    checkpoint_bounds_seed,
    checkpoint_estimator_seed,
    load_stream,
    run_evolution,
)
from netreplay.triangles import analyze_triangles
from oracles import (
    average_distance_exact,
    bfs,
    components,
    count_triangles,
    diameter_bounds,
    estimate_average_distance,
    ks_brute,
    snapshot_from_edges,
)


def _report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _identity_cells(result):
    """Count checkpoint cells where average degree == density * (n - 1) within
    1 ulp; raises on the first violation. Shared by several tests so every
    pipeline run in this module enforces the identity."""
    avg_s = result.series["average_degree"]
    dens_s = result.series["density"]
    checked = 0
    ns = [r.n for r in result.checkpoints]
    for n, avg, dens in zip(ns, avg_s.values, dens_s.values, strict=True):
        if avg is None or dens is None:
            continue
        lhs, rhs = avg, dens * (n - 1)
        assert abs(lhs - rhs) <= math.ulp(max(abs(lhs), abs(rhs))), (n, avg, dens)
        checked += 1
    return checked


def _spanning_tree_plus(rng, n, m):
    """Connected graph with exactly m links: random attachment tree plus
    uniformly chosen extra pairs."""
    edges = {(int(rng.integers(0, j)), j) for j in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    while len(edges) < m:
        a, b = pairs[int(rng.integers(len(pairs)))]
        edges.add((a, b))
    return sorted(edges)


def _verify_triangles(n, edges):
    snap = snapshot_from_edges(edges, n=n)
    total, per = count_triangles(snap)
    want_total, want_per = brute_triangles(n, edges)
    return total == want_total and per.tolist() == want_per


def test_triangle_counts_match_brute_force():
    t0 = time.perf_counter()
    bad = []

    # Exhaustive sweep: every labeled connected graph on up to 6 nodes.
    exhaustive = 0
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        full = (1 << n) - 1
        for mask in range(1, 1 << len(pairs)):
            adj = [0] * n
            edges = []
            for b, (x, y) in enumerate(pairs):
                if mask >> b & 1:
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
                    edges.append((x, y))
            seen = frontier = 1
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    i = (f & -f).bit_length() - 1
                    f &= f - 1
                    nxt |= adj[i]
                frontier = nxt & ~seen
                seen |= frontier
            if seen != full:
                continue
            exhaustive += 1
            if not _verify_triangles(n, edges):
                bad.append((n, edges))

    # 7 and 8 nodes: full labeled enumeration is 2^21 and 2^28 graphs, far
    # past this test's minute budget, so cover every edge count with seeded
    # connected samples plus the structured extremes.
    stratified = 0
    for n in (7, 8):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for rep in range(10):
                rng = np.random.default_rng([17, n, m, rep])
                edges = _spanning_tree_plus(rng, n, m)
                assert is_connected(n, edges)
                stratified += 1
                if not _verify_triangles(n, edges):
                    bad.append((n, edges))
    extremes = [
        (7, list(itertools.combinations(range(7), 2))),  # complete
        (8, list(itertools.combinations(range(8), 2))),
        (8, [(0, j) for j in range(1, 8)]),  # star
        (8, [(j, j + 1) for j in range(7)]),  # path
        (8, [(j, (j + 1) % 8) for j in range(8)]),  # cycle
        (8, [(j, (j + 1) % 7) for j in range(7)] + [(7, j) for j in range(7)]),  # wheel
    ]
    for n, edges in extremes:
        stratified += 1
        if not _verify_triangles(n, edges):
            bad.append((n, edges))

    # 50 seeded sparse-to-dense G(n, p) with n up to 200.
    sampled = 0
    for i in range(50):
        rng = np.random.default_rng([13, i])
        n = int(rng.integers(20, 201))
        p = float(rng.uniform(0.01, 0.15))
        edges = random_edges(rng, n, p)
        sampled += 1
        if not _verify_triangles(n, edges):
            bad.append((n, ("gnp", i)))

    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0  # pinned budget: 60 s
    _report(
        1,
        "compact-forward triangle counts match brute force",
        ok,
        f"exhaustive n<=6: {exhaustive}, stratified n=7,8: {stratified}, "
        f"G(n,p): {sampled}, mismatches: {len(bad)}, {elapsed:.1f}s",
    )


def test_diameter_bounds_bracket_truth():
    t0 = time.perf_counter()
    graphs = []  # (label, n, edges, is_tree)
    gnp_params = [
        (60, 0.05), (120, 0.03), (200, 0.02), (350, 0.01),
        (500, 0.008), (500, 0.05), (80, 0.10), (40, 0.15),
    ]
    for i, (n, p) in enumerate(gnp_params):
        rng = np.random.default_rng([19, i])
        graphs.append((f"gnp{n}", n, random_edges(rng, n, p), False))
    for n, k in [(300, 2), (500, 3), (200, 2), (120, 4)]:
        _, us, vs = gen_preferential(n, k, seed=n + k)
        graphs.append((f"pa{n}", n, list(zip(us, vs)), False))
    for i, n in enumerate([100, 250, 400, 500]):
        rng = np.random.default_rng([23, i])
        edges = [(int(rng.integers(0, j)), j) for j in range(1, n)]
        graphs.append((f"tree{n}", n, edges, True))
    graphs.append(("cycle100", 100, [(j, (j + 1) % 100) for j in range(100)], False))
    graphs.append(("cycle341", 341, [(j, (j + 1) % 341) for j in range(341)], False))
    graphs.append(("path500", 500, [(j, j + 1) for j in range(499)], True))
    graphs.append(("k40", 40, list(itertools.combinations(range(40), 2)), False))
    assert len(graphs) == 20

    violations = []
    trees_checked = 0
    for idx, (label, n, edges, tree) in enumerate(graphs):
        snap = snapshot_from_edges(edges, n=n)
        mask = components(snap).giant_mask()
        giant = [int(x) for x in np.flatnonzero(mask)]
        d_true = true_diameter(n, edges, within=giant)
        out = diameter_bounds(snap, mask, BoundConfig(), np.random.SeedSequence([29, idx]))
        if not out.lower <= d_true <= out.upper:
            violations.append(f"{label}: {out.lower}..{out.upper} vs {d_true}")
        if tree:
            trees_checked += 1
            one = diameter_bounds(
                snap,
                mask,
                BoundConfig(min_iterations=1),
                np.random.SeedSequence([31, idx]),
            )
            if not (
                one.iterations == 1
                and one.converged
                and one.lower == one.upper == d_true
                and one.lower_history[0] == one.upper_history[0] == d_true
            ):
                violations.append(f"{label}: tree not exact after one iteration")

    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0  # pinned budget: 60 s
    _report(
        2,
        "diameter bounds bracket the exact diameter",
        ok,
        f"20 graphs, {trees_checked} trees exact after one iteration, "
        f"violations: {violations or 'none'}, {elapsed:.1f}s",
    )


def test_distance_estimator_accuracy():
    t0 = time.perf_counter()
    hits = 0
    worst_err = 0.0
    worst_ulp = 0.0
    cross_checked = False
    for seed in range(20):
        rng = np.random.default_rng([7, seed])
        edges = random_edges(rng, 500, 0.05)
        snap = snapshot_from_edges(edges, n=500)
        mask = components(snap).giant_mask()
        nodes = np.flatnonzero(mask)
        g = int(nodes.size)
        total = 0
        for v in nodes:
            total += int(bfs(snap, int(v)).dist[mask].sum(dtype=np.int64))
        exact = total / (g * g)  # integer sum over ordered pairs, one division

        if seed == 0:  # pure-python oracle agrees with the integer route
            oracle = exact_mean_distance(500, edges, within=[int(x) for x in nodes])
            assert oracle == exact
            cross_checked = True

        est, _ = estimate_average_distance(
            snap,
            mask,
            EstimatorConfig(i_min=10, epsilon=0.1),
            np.random.SeedSequence([3, seed]),
        )
        err = abs(est - exact)
        worst_err = max(worst_err, err)
        if err <= 0.15:  # pinned accuracy radius
            hits += 1

        sat = average_distance_exact(snap, mask)
        worst_ulp = max(worst_ulp, abs(sat - exact) / math.ulp(exact))

    elapsed = time.perf_counter() - t0
    ok = hits >= 19 and worst_ulp <= 1.0 and cross_checked  # pinned: 19/20 and 1 ulp
    _report(
        3,
        "sampled average distance stays within 0.15 of exact",
        ok,
        f"hits {hits}/20, worst error {worst_err:.4f}, "
        f"saturated within {worst_ulp:.2f} ulp, {elapsed:.1f}s",
    )


def test_degree_density_identity(tmp_path):
    streams = {
        "path": gen_path(200),
        "complete": gen_complete(30),
        "gnp": gen_gnp(300, 0.02, seed=8),
        "pa": gen_preferential(1200, 3, seed=8),
        "twophase": gen_two_phase(400, 2, 200, 2, seed=8),
    }
    cells = 0
    for name, stream in streams.items():
        path = tmp_path / f"{name}.txt"
        write_stream(str(path), stream)
        res = run_evolution(
            RunConfig(input_path=str(path), stats=frozenset({"deg"}), use_cache=False)
        )
        cells += _identity_cells(res)
    ok = cells > 300
    _report(
        4,
        "average degree equals density times (n-1) at every checkpoint",
        ok,
        f"{cells} checkpoint cells across {len(streams)} runs, all within 1 ulp",
    )


def test_ks_metric_contract(tmp_path):
    rng = np.random.default_rng(2026)

    def random_dist():
        ks = np.sort(rng.choice(41, size=int(rng.integers(2, 13)), replace=False))
        counts = np.zeros(ks[-1] + 1, dtype=np.int64)
        counts[ks] = rng.integers(1, 1000, size=ks.size)
        return counts

    slack = 1e-12  # pinned float slack for the triangle inequality
    checked = 0
    for _ in range(100):
        a, b, c = (cumulative(random_dist()) for _ in range(3))
        assert ks_statistic(a, a) == 0.0
        ab, ba = ks_statistic(a, b), ks_statistic(b, a)
        bc, ac = ks_statistic(b, c), ks_statistic(a, c)
        assert ab == ba
        assert 0.0 <= ab <= 1.0 and 0.0 <= ac <= 1.0
        assert ac <= ab + bc + slack
        checked += 1

    path = tmp_path / "pa.txt"
    write_stream(str(path), gen_preferential(400, 2, seed=3))
    res = run_evolution(
        RunConfig(input_path=str(path), stats=frozenset({"deg"}), use_cache=False)
    )
    final_ks = res.series["ks_vs_final"].values[-1]
    ok = checked == 100 and final_ks == 0.0
    _report(
        5,
        "K-S distance is a metric and ends the run at exactly zero",
        ok,
        f"{checked} random triples (slack {slack}), final checkpoint K-S == {final_ks!r}",
    )


def test_checkpoints_match_fresh_recomputation(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "pa50k.txt"
    write_stream(str(path), gen_preferential(50_000, 2, seed=11))
    cfg = RunConfig(input_path=str(path), nominal_checkpoints=100, seed=5, use_cache=False)
    res = run_evolution(cfg)
    run_s = time.perf_counter() - t0

    stream = load_stream(cfg)
    events = stream.final_m
    mismatches = []
    fresh_degrees = []

    def fresh_snapshot(record):
        u = stream.u[: record.position].astype(np.int64)
        v = stream.v[: record.position].astype(np.int64)
        src = np.concatenate((u, v))
        dst = np.concatenate((v, u))
        order = np.lexsort((dst, src))
        deg = np.bincount(src, minlength=record.n)
        offsets = np.zeros(record.n + 1, dtype=np.int64)
        np.cumsum(deg, out=offsets[1:])
        return Snapshot(
            offsets=offsets,
            neighbors=dst[order].astype(np.int32),
            n=record.n,
            m=record.position,
        )

    def val(name, k):
        return res.series[name].values[k]

    for k, r in enumerate(res.checkpoints):
        snap = fresh_snapshot(r)
        summ = components(snap)
        if summ.component_count != val("component_count", k):
            mismatches.append(f"ckpt {r.index}: component_count")
        if summ.giant_size / r.n != val("giant_fraction", k):
            mismatches.append(f"ckpt {r.index}: giant_fraction")

        deg_max = int(snap.degrees.max()) if r.n else 0
        basic = stats_from_counts(r.n, snap.m, deg_max)
        if basic.average_degree != val("average_degree", k):
            mismatches.append(f"ckpt {r.index}: average_degree")
        if basic.density != val("density", k):
            mismatches.append(f"ckpt {r.index}: density")
        if basic.max_degree != val("max_degree", k):
            mismatches.append(f"ckpt {r.index}: max_degree")
        fresh_degrees.append(snap.degrees)

        checkpoint = DistanceCheckpoint(
            summ.giant_mask(),
            checkpoint_estimator_seed(cfg.seed, r.index),
            checkpoint_bounds_seed(cfg.seed, r.index),
        )
        [((est, samples), out)], _ = distance_statistics(
            snap, [checkpoint], cfg.estimator, cfg.bounds
        )
        if est != val("average_distance", k) or samples != val("average_distance_samples", k):
            mismatches.append(f"ckpt {r.index}: estimator")
        if (
            out.lower != val("diameter_lower", k)
            or out.upper != val("diameter_upper", k)
            or out.iterations != val("diameter_iterations", k)
            or out.converged != val("diameter_converged", k)
        ):
            mismatches.append(f"ckpt {r.index}: bounds")

        tri = analyze_triangles(snap.degrees, basic, *count_triangles(snap))
        if tri != tuple(val(name, k) for name in SERIES["tri"]):
            mismatches.append(f"ckpt {r.index}: triangles")
        if len(mismatches) > 5:
            break

    for k, degrees in enumerate(fresh_degrees):
        if ks_brute(degrees, fresh_degrees[-1]) != val("ks_vs_final", k):
            mismatches.append(f"ckpt {k}: ks_vs_final")
            break

    _identity_cells(res)
    elapsed = time.perf_counter() - t0
    ok = not mismatches and len(res.checkpoints) == 100 and elapsed < 300.0  # 5 min budget
    _report(
        6,
        "every checkpoint statistic equals a fresh recomputation",
        ok,
        f"{events} events, {len(res.checkpoints)} checkpoints, every emitted value "
        f"bit-equal, run {run_s:.1f}s, total {elapsed:.1f}s, "
        f"mismatches: {mismatches or 'none'}",
    )


def test_two_phase_regimes(tmp_path):
    n1, n2 = 6000, 3000
    path = tmp_path / "twophase.txt"
    write_stream(str(path), gen_two_phase(n1, 2, n2, 3, seed=4))
    res = run_evolution(
        RunConfig(input_path=str(path), stats=frozenset({"conn", "deg"}), use_cache=False)
    )
    s = res.series["average_degree"]
    ns = [r.n for r in res.checkpoints]
    phase1 = [v for n, v in zip(ns, s.values, strict=True) if n <= n1]
    phase2 = [v for n, v in zip(ns, s.values, strict=True) if n > n1]
    spread = max(phase1) / min(phase1) - 1
    increasing = all(b > a for a, b in zip(phase2, phase2[1:]))
    _identity_cells(res)
    ok = (
        len(phase1) >= 10
        and len(phase2) >= 10
        and spread <= 0.05  # pinned: flat means within 5%
        and increasing
    )
    _report(
        7,
        "average degree is flat in phase 1 and strictly increasing in phase 2",
        ok,
        f"phase 1: {len(phase1)} points, spread {spread * 100:.2f}% (limit 5%); "
        f"phase 2: {len(phase2)} points, strictly increasing: {increasing}",
    )


def test_powerlaw_exponent_recovery():
    counts = np.array([0] + [round(1e15 * k**-2.0) for k in range(1, 101)], dtype=np.int64)
    fit = powerlaw_fit(counts)
    alpha_err = abs(fit.alpha - 2.0)
    ok = alpha_err <= 1e-6 and fit.r_squared >= 0.999999  # pinned tolerances
    _report(
        8,
        "inverse-square degree distribution recovers exponent 2",
        ok,
        f"alpha off by {alpha_err:.2e} (limit 1e-6), r^2 = {fit.r_squared:.8f}",
    )


def test_scale_envelope(tmp_path):
    child = textwrap.dedent(
        """
        import json, resource, sys, time
        from netreplay.generate import gen_preferential, write_stream
        from netreplay.pipeline import RunConfig, run_evolution

        stream_path, out_dir = sys.argv[1], sys.argv[2]
        write_stream(stream_path, gen_preferential(100_000, 10, seed=2026))
        t0 = time.perf_counter()
        res = run_evolution(RunConfig(
            input_path=stream_path,
            nominal_checkpoints=100,
            out_dir=out_dir,
            use_cache=False,
        ))
        run_s = time.perf_counter() - t0
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({
            "run_s": round(run_s, 1),
            "peak_mb": round(peak_mb, 1),
            "final_n": res.final_n,
            "final_m": res.final_m,
            "checkpoints": len(res.checkpoints),
        }))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path / "big.txt"), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = (
        data["run_s"] < 600.0  # pinned: 10 minutes
        and data["peak_mb"] < 2048.0  # pinned: 2 GB resident
        and data["final_n"] == 100_000
        and data["final_m"] == 999_945
        and data["checkpoints"] == 100
    )
    _report(
        9,
        "10^6-link replay fits 10 minutes and 2 GB",
        ok,
        f"{data['final_m']} links over {data['checkpoints']} checkpoints in "
        f"{data['run_s']}s, peak {data['peak_mb']} MB",
    )


def test_reruns_byte_identical(tmp_path):
    path = tmp_path / "pa.txt"
    write_stream(str(path), gen_preferential(1500, 2, seed=6))

    def tree_bytes(out_dir):
        seen = {}
        for root, _, files in os.walk(out_dir):
            for f in files:
                full = os.path.join(root, f)
                rel = os.path.relpath(full, out_dir)
                with open(full, "rb") as fh:
                    seen[rel] = fh.read()
        return seen

    trees = []
    for d in ("one", "two"):
        run_evolution(
            RunConfig(
                input_path=str(path),
                seed=12,
                out_dir=str(tmp_path / d),
                dump_distributions=True,
            )
        )
        trees.append(tree_bytes(tmp_path / d))

    a, b = trees
    same_files = sorted(a) == sorted(b)
    diffs = [rel for rel in a if rel != "timings.json" and a[rel] != b.get(rel)]
    compared = len(a) - 1
    total = sum(len(v) for v in a.values())
    ok = same_files and not diffs and "timings.json" in a and compared > 10
    _report(
        10,
        "identical configurations produce byte-identical output trees",
        ok,
        f"{compared} files / {total} bytes compared (timing file excluded), "
        f"diffs: {diffs or 'none'}",
    )

"""Replay benchmark for netreplay.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout (the package is imported from ``src/``).
For the chosen workload (every workload when ``--workload`` is omitted) it
generates the input from ``--seed``, then runs one fresh single-threaded
child process after another, one at a time, for about ``--seconds`` seconds.
Each child replays the input once. Every run's outputs are checked against
oracles computed from the generated input, outside the timed region. The
metric names and units come from ``BENCHMARK.json``. The last line printed is
one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced runs with ``--trace 1``. A full record of each
invocation (environment, every sample, output digest, spans) is written
under ``.perfbench/results/``. See README.md beside this file.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse
import glob
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

MIN_RUNS = 3  # per invocation, even when one run outlasts --seconds
CHILD_TIMEOUT_S = 60.0
DEADLINE_S = 150.0  # no run starts that would end later than this after the invocation began
LAYERS = ("ingest", "graph", "connectivity", "degrees", "distances", "triangles", "pipeline")


def run_child(spec: dict, work: str) -> dict:
    """Run child.py on ``spec`` and wait for it; return its result."""
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(os.path.join(work, "child.log"), "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, CHILD, spec_path, result_path],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        if proc.returncode is None:  # the harness was interrupted
            proc.kill()
            proc.wait()
    run = {"exit": proc.returncode}
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as f:
            run.update(json.load(f))
    else:
        with open(os.path.join(work, "child.log"), "rb") as f:
            run["log_tail"] = f.read()[-2000:].decode("utf-8", "replace")
    return run


def tree_digest(out_dir: str) -> str:
    """sha256 over every output file but timings.json, names included."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(out_dir):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out_dir)
            if rel == "timings.json":
                continue
            h.update(rel.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    return h.hexdigest()


def read_series(out_dir: str, name: str) -> list:
    """Value column of a series CSV; None for an empty cell."""
    with open(os.path.join(out_dir, f"{name}.csv"), encoding="utf-8") as f:
        rows = f.read().splitlines()[1:]
    values = []
    for row in rows:
        cell = row.rsplit(",", 1)[1]
        values.append(None if cell == "" else float(cell))
    return values


def check_outputs(run: dict, w: inputs.Workload, expect: inputs.Oracle, out_dir: str) -> list[str]:
    """Compare one run's output tree with the oracle; record its counts.

    Returns the problems found, empty when the run is correct.
    """
    if run["exit"] != 0 or "run_s" not in run:
        return [f"child exited with status {run['exit']}"]
    problems = []
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    with open(os.path.join(out_dir, "timings.json"), encoding="utf-8") as f:
        run["timings"] = json.load(f)["totals"]
    for key in ("final_n", "final_m"):
        if manifest[key] != getattr(expect, key):
            problems.append(f"{key} {manifest[key]} != {getattr(expect, key)}")
    two_m = [2 * c["m"] for c in manifest["checkpoints"]]
    counts = {"checkpoints": len(two_m), "entries_frozen": sum(two_m)}
    if "conn" in w.stats:
        count = read_series(out_dir, "component_count")[-1]
        giant = read_series(out_dir, "giant_fraction")[-1]
        if count != expect.component_count or giant != expect.giant_fraction:
            problems.append(
                f"final components ({count}, {giant}) != "
                f"({expect.component_count}, {expect.giant_fraction})"
            )
    if "deg" in w.stats and read_series(out_dir, "ks_vs_final")[-1] != 0.0:
        problems.append("ks_vs_final does not end at 0")
    if "dist" in w.stats:
        lower = read_series(out_dir, "diameter_lower")
        upper = read_series(out_dir, "diameter_upper")
        if any(lo is not None and lo > up for lo, up in zip(lower, upper)):
            problems.append("diameter_lower > diameter_upper at some checkpoint")
        samples = read_series(out_dir, "average_distance_samples")
        counts["distance_checkpoints"] = sum(s is not None for s in samples)
        counts["estimator_samples"] = int(sum(s for s in samples if s is not None))
        counts["bound_iterations"] = int(
            sum(s for s in read_series(out_dir, "diameter_iterations") if s is not None)
        )
    if "tri" in w.stats:
        tri = read_series(out_dir, "triangles")
        if tri[-1] != expect.triangles:
            problems.append(f"final triangles {tri[-1]} != {expect.triangles}")
        counts["triangles_total"] = int(sum(t for t in tri if t is not None))
        counts["entries_scanned"] = sum(two_m)
    run["counts"] = counts
    run["digest"] = tree_digest(out_dir)
    return problems


def expected_calls(w: inputs.Workload, counts: dict, final_m: int) -> dict[str, tuple[int, int]]:
    """The least and most calls each traced name may get, from the run's outputs."""
    k = counts["checkpoints"]
    dist_k = counts.get("distance_checkpoints", 0)
    exact = {
        "pipeline.load_stream": 1,
        "pipeline.normalize": 0 if w.cache == "warm" else 1,
        "pipeline.save_cache": 1 if w.cache == "cold" else 0,
        "pipeline.load_cache": 1 if w.cache == "warm" else 0,
        "pipeline.finalize_snapshot": k,
        "GrowingGraph.add_link": final_m,
        "IncrementalComponents.add_link": final_m,
        "IncrementalComponents.roots": dist_k,
        "pipeline.cumulative": k + 1 if "deg" in w.stats else 0,
        "pipeline.ks_statistic": k if "deg" in w.stats else 0,
        "pipeline.estimate_average_distance": dist_k,
        "pipeline.diameter_bounds": dist_k,
        "pipeline.analyze_triangles": k if "tri" in w.stats else 0,
    }
    bounds = {name: (n, n) for name, n in exact.items()}
    # Once per checkpoint, plus at most once per link when a link brings a new top id.
    bounds["IncrementalComponents.ensure"] = (k, k + final_m)
    return bounds


def layer_metrics(run: dict, w: inputs.Workload, trace: inputs.TraceInput, untraced_run_s: float) -> dict:
    """Per-layer numbers of one traced run. Times are in seconds."""
    calls = run["trace"]["calls"]
    timings = run["timings"]
    counts = run["counts"]

    def total(name):
        return calls.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return calls.get(name, {}).get("self_s", 0.0)

    def coverage(traced, reported):
        return traced / reported if reported > 0 else 0.0

    union_find = self_time("IncrementalComponents.add_link") + self_time("IncrementalComponents.ensure")
    estimator = total("pipeline.estimate_average_distance")
    bounds = total("pipeline.diameter_bounds")
    samples = counts.get("estimator_samples", 0)
    iterations = counts.get("bound_iterations", 0)
    # Each bounds round: a double sweep (2 BFS), one tree BFS and 2 tree sweeps.
    bfs_runs = samples + 5 * iterations
    mismatches = [f"{name}: not traced, the program has no such name"
                  for name in run["missing_targets"]]
    for name, (least, most) in expected_calls(w, counts, trace.final_m).items():
        made = calls.get(name, {}).get("calls", 0)
        if not least <= made <= most:
            implied = least if least == most else f"{least} to {most}"
            mismatches.append(f"{name}: {made} calls, outputs imply {implied}")
    run["call_mismatches"] = mismatches
    metrics = {
        "ingest.parse_normalize_s": total("pipeline.normalize"),
        "ingest.cache_write_s": total("pipeline.save_cache"),
        "ingest.cache_read_s": total("pipeline.load_cache"),
        "ingest.lines": trace.lines,
        "ingest.duplicates": trace.duplicates,
        "ingest.loops": trace.loops,
        "ingest.cache_bytes": run["cache_bytes"],
        "graph.replay_s": timings.get("replay", 0.0),
        "graph.finalize_s": total("pipeline.finalize_snapshot"),
        "graph.add_link_s": total("GrowingGraph.add_link"),
        "graph.entries_frozen": counts["entries_frozen"],
        "connectivity.union_find_s": union_find,
        "connectivity.conn_s": timings.get("conn", 0.0),
        "connectivity.roots_s": total("IncrementalComponents.roots"),
        "degrees.deg_s": timings.get("deg", 0.0),
        "degrees.ks_s": total("pipeline.cumulative") + total("pipeline.ks_statistic"),
        "distances.estimator_s": estimator,
        "distances.bounds_s": bounds,
        "distances.estimator_samples": samples,
        "distances.bound_iterations": iterations,
        "distances.bfs_runs": bfs_runs,
        "distances.ms_per_bfs": 1000.0 * (estimator + bounds) / bfs_runs if bfs_runs else 0.0,
        "triangles.tri_s": total("pipeline.analyze_triangles"),
        "triangles.triangles_total": counts.get("triangles_total", 0),
        "triangles.entries_scanned": counts.get("entries_scanned", 0),
        "pipeline.post_s": run["run_s"] - run["setup_s"] - sum(timings.values()),
        "pipeline.trace_overhead": run["run_s"] / untraced_run_s - 1.0,
        "check.replay_coverage": coverage(
            total("pipeline.finalize_snapshot") + total("GrowingGraph.add_link") + union_find,
            timings.get("replay", 0.0),
        ),
        "check.dist_coverage": coverage(
            estimator + bounds + total("IncrementalComponents.roots"), timings.get("dist", 0.0)
        ),
        "check.tri_coverage": coverage(
            total("pipeline.analyze_triangles"), timings.get("tri", 0.0)
        ),
        "check.call_mismatches": len(mismatches),
    }
    for layer in LAYERS:
        spent = sum(c["self_s"] for c in calls.values() if c["layer"] == layer)
        metrics[f"{layer}.self_s"] = spent
        metrics[f"{layer}.share"] = spent / run["run_s"]
    return metrics


def environment() -> dict:
    src_files = sorted(glob.glob(os.path.join(SRC, "netreplay", "*.py")))
    src_lines = 0
    for path in src_files:
        with open(path, "rb") as f:
            src_lines += f.read().count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_netreplay_lines": src_lines,
    }


def build_cache(input_path: str) -> None:
    """Write the input's .arrivals sidecar with the package's own loader."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from netreplay import pipeline

    pipeline.load_stream(pipeline.RunConfig(input_path=input_path, use_cache=True))


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bench(w: inputs.Workload, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    """Run one workload for about ``seconds``; return the invocation record."""
    work = os.path.join(WORK, w.name)  # one path, so digests compare across invocations
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    invoked = time.perf_counter()
    generated = inputs.generate(w, seed)
    input_path = os.path.join(work, "input.txt.gz" if w.model == "trace" else "input.txt")
    inputs.write_trace(input_path, generated, seed)
    expect = inputs.oracle(generated)
    sidecar = input_path + ".arrivals"
    if w.cache == "warm":
        build_cache(input_path)
    prepare_s = time.perf_counter() - invoked

    out_dir = os.path.join(work, "out")
    base = {
        "input": os.path.relpath(input_path, ROOT),
        "checkpoints": w.checkpoints,
        "stats": list(w.stats),
        "use_cache": w.cache != "off",
        "out_dir": os.path.relpath(out_dir, ROOT),
    }
    runs: list[dict] = []
    walls: list[float] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1  # untraced and traced runs alternate
        if w.cache == "cold" and os.path.exists(sidecar):
            os.remove(sidecar)
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        run = run_child(dict(base, trace=traced), work)
        run["traced"] = traced
        run["cache_bytes"] = os.path.getsize(sidecar) if os.path.exists(sidecar) else 0
        try:
            run["problems"] = check_outputs(run, w, expect, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            run["problems"] = [f"outputs unreadable: {exc!r}"]
        digests = {r["digest"] for r in runs if "digest" in r}
        if "digest" in run and digests and run["digest"] not in digests:
            run["problems"].append("output tree differs from an earlier run")
        runs.append(run)
        walls.append(time.perf_counter() - t0)
        now, next_wall = time.perf_counter(), statistics.median(walls)
        if len(runs) >= MIN_RUNS and now - started + next_wall > seconds:
            break
        if now - invoked + next_wall > DEADLINE_S:
            break
    measure_s = time.perf_counter() - started
    shutil.rmtree(work, ignore_errors=True)

    good = [r for r in runs if not r["problems"]]
    plain = [r for r in good if not r["traced"]]
    samples: dict[str, list] = {}
    if plain:
        samples["run_s"] = [r["run_s"] for r in plain]
        samples["setup_s"] = [r["setup_s"] for r in plain]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
        if trace:
            untraced = statistics.median(samples["run_s"])
            for r in good:
                if r["traced"]:
                    for name, value in layer_metrics(r, w, generated, untraced).items():
                        samples.setdefault(name, []).append(value)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for name in wanted:
        if name in samples:
            values = samples[name]
            exact = all(isinstance(v, int) for v in values)  # counts stay whole numbers
            metrics[name] = statistics.median_low(values) if exact else statistics.median(values)
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "config": dict(base, cache=w.cache, nodes=w.nodes, links_per_node=w.links_per_node),
        "input": {"lines": generated.lines, "duplicates": generated.duplicates,
                  "loops": generated.loops, "final_n": expect.final_n, "final_m": expect.final_m},
        "oracle": vars(expect),
        "prepare_s": prepare_s,
        "measure_s": measure_s,
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "complete": len(metrics) == len(wanted),
        "digest": good[0]["digest"] if good else None,
        "metrics": metrics,
        "samples": samples,
        "runs": runs,
    }


def report(record: dict, spec: dict) -> dict:
    """Print the record's metrics one per line; return the result object."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
        f"{record['attempted']} runs, {record['failed']} failed; nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} src_lines={env['src_netreplay_lines']} "
        f"digest={record['digest']}"
    )
    for run in record["runs"]:
        for problem in run["problems"] + run.get("call_mismatches", []):
            print(f"#   problem: {problem}", file=sys.stderr)
    for name, value in record["metrics"].items():
        values = record["samples"][name]
        q1, q3 = quartiles(values)
        print(f"{name}: {value:.6g} {units[name]} (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")
    return {
        "correct": record["failed"] == 0 and record["complete"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "netreplay")) or not os.path.exists(spec_path):
        print(f"error: run from a netreplay checkout; {SRC}/netreplay or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    names = [args.workload] if args.workload else list(inputs.WORKLOADS)
    all_correct = True
    for name in names:
        record = bench(inputs.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec)
        results = os.path.join(WORK, "results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
        print(f"# record: {os.path.relpath(path, ROOT)}")
        result = report(record, spec)
        all_correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

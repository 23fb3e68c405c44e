"""Replay orchestration: one pass over the stream, statistics per checkpoint.

``run_evolution`` builds the final graph of a normalized stream once, with
each adjacency entry tagged by its link's arrival. ``checkpoint_plan`` places
every scheduled node-count checkpoint in the stream up front; at each one the
loop takes the snapshot of the links seen so far as a prefix mask of that
graph and computes the enabled statistic groups. Connectivity is maintained
incrementally (links only ever merge components); everything else runs on
the snapshot. ``SERIES`` names the series of each group, in the order
``_measure`` returns their values. Results come back as one EvolutionSeries
per statistic and, when an output directory is configured, land on disk as
CSV files plus a manifest, a gnuplot script, and a separate timing file.

Determinism: all sampling derives from the global seed and the checkpoint
index, never from global state, so a rerun with the same input and
configuration produces byte-identical outputs. Wall-clock timings, the one
legitimately nondeterministic product, are quarantined in timings.json.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time as _time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from netreplay.connectivity import IncrementalComponents
from netreplay.degrees import (
    BasicStats,
    cumulative,
    degree_distribution,
    ks_statistic,
    stats_from_counts,
)
from netreplay.distances import (
    BoundConfig,
    EstimatorConfig,
    diameter_bounds,
    estimate_average_distance,
)
from netreplay.graph import arrival_csr, finalize_snapshot
from netreplay.ingest import (
    ArrivalStream,
    FormatOptions,
    cache_key,
    checkpoint_plan,
    checkpoint_sizes,
    load_cache,
    normalize,
    open_event_file,
    parse_event_stream,
    save_cache,
)
from netreplay.triangles import analyze_triangles

# The one place each series is named: per statistic group, in output order.
SERIES = {
    "conn": ("component_count", "giant_fraction"),
    "deg": ("average_degree", "density", "max_degree", "ks_vs_final"),
    "dist": (
        "average_distance",
        "average_distance_samples",
        "diameter_lower",
        "diameter_upper",
        "diameter_iterations",
        "diameter_converged",
    ),
    "tri": (
        "triangles",
        "clustering",
        "transitivity",
        "triangles_over_max_degree_sq",
        "clustering_over_density",
    ),
}
STAT_GROUPS = tuple(SERIES)
_TIMING_PARTS = ("dist_estimator", "dist_bounds")  # timed inside "dist"


@dataclass(frozen=True)
class RunConfig:
    """Everything a replay run depends on."""

    input_path: str
    nominal_checkpoints: int = 100
    stats: frozenset = frozenset(STAT_GROUPS)
    estimator: EstimatorConfig = EstimatorConfig()
    bounds: BoundConfig = BoundConfig()
    seed: int = 0
    out_dir: Optional[str] = None
    dump_distributions: bool = False
    use_cache: bool = True
    format_options: FormatOptions = FormatOptions()

    def __post_init__(self):
        groups = frozenset(self.stats)
        if not groups:
            raise ValueError("at least one statistic group must be enabled")
        unknown = groups - set(STAT_GROUPS)
        if unknown:
            raise ValueError(f"unknown statistic groups: {sorted(unknown)}")
        object.__setattr__(self, "stats", groups)
        if self.nominal_checkpoints < 1:
            raise ValueError("nominal_checkpoints must be at least 1")


@dataclass(frozen=True)
class CheckpointRecord:
    """Where one checkpoint landed in the stream."""

    index: int  # position in the checkpoint schedule, seeds derive from this
    target_n: int
    position: int  # link events consumed
    n: int
    m: int
    time: int


@dataclass
class EvolutionSeries:
    """One statistic across checkpoints; value None where undefined."""

    name: str
    checkpoint_indices: list[int] = field(default_factory=list)
    ns: list[int] = field(default_factory=list)
    ms: list[int] = field(default_factory=list)
    times: list[int] = field(default_factory=list)
    values: list = field(default_factory=list)

    def append(self, record: CheckpointRecord, value) -> None:
        self.checkpoint_indices.append(record.index)
        self.ns.append(record.n)
        self.ms.append(record.m)
        self.times.append(record.time)
        self.values.append(value)

    def rows(self):
        return zip(self.checkpoint_indices, self.ns, self.ms, self.times, self.values)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("checkpoint,n,m,time,value\n")
            for ci, n, m, t, v in self.rows():
                f.write(f"{ci},{n},{m},{t},{_format_value(v)}\n")


@dataclass
class RunResult:
    config: RunConfig
    final_n: int
    final_m: int
    checkpoints: list[CheckpointRecord]
    series: dict[str, EvolutionSeries]
    manifest: dict
    out_dir: Optional[str]


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def load_stream(config: RunConfig) -> ArrivalStream:
    """Normalized stream for a run, via the binary sidecar when possible.

    The sidecar lives next to the input with an ``.arrivals`` suffix and is
    only trusted when it was written for the input's current size and
    modification time under the same format options. Failures to write it
    are silently ignored; failures to read it fall back to a fresh parse.
    """
    path = config.input_path
    cache_path = path + ".arrivals"
    if config.use_cache:
        key = cache_key(path, config.format_options)
        if os.path.exists(cache_path):
            try:
                return load_cache(cache_path, key)
            except (OSError, ValueError):
                pass
    with open_event_file(path) as f:
        stream = normalize(parse_event_stream(f, config.format_options))
    if config.use_cache:
        try:
            save_cache(stream, cache_path, key)
        except OSError:
            pass
    return stream


def checkpoint_estimator_seed(global_seed: int, checkpoint_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([global_seed, checkpoint_index, 0])


def checkpoint_bounds_seed(global_seed: int, checkpoint_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([global_seed, checkpoint_index, 1])


def run_evolution(config: RunConfig) -> RunResult:
    """Replay the input and measure every enabled statistic per checkpoint."""
    stream = load_stream(config)
    if stream.final_n < 1:
        raise ValueError(f"input {config.input_path!r} contains no nodes")
    schedule = checkpoint_sizes(stream.final_n, config.nominal_checkpoints)
    groups = [group for group in STAT_GROUPS if group in config.stats]

    # A checkpoint's replay time runs from the end of the previous one, so
    # the first includes building the final CSR.
    t_replay = _time.perf_counter()
    csr = arrival_csr(stream.u, stream.v, stream.final_n)
    inc = IncrementalComponents()
    records: list[CheckpointRecord] = []
    values: dict[str, list] = {name: [] for group in groups for name in SERIES[group]}
    checkpoint_timings: list[dict] = []
    # The latest triangle report stays referenced until the next checkpoint
    # replaces it. Freed at once, its arrays leave the top of the heap free,
    # malloc hands that back to the system, and the next checkpoint faults it
    # in again: about 6x the page faults and 5 % more run time on perfbench's
    # pa-dist.
    held: dict = {}
    pos = 0

    for ci, target, position, n in checkpoint_plan(stream, schedule.sizes):
        for a, b in zip(stream.u[pos:position].tolist(), stream.v[pos:position].tolist()):
            inc.add_link(a, b)
        pos = position
        inc.ensure(n)
        snapshot = finalize_snapshot(csr, position, n)
        record = CheckpointRecord(
            index=ci,
            target_n=target,
            position=position,
            n=n,
            m=snapshot.m,
            time=int(stream.time[position - 1]) if position else 0,
        )
        timing = {"checkpoint": ci, "replay": _time.perf_counter() - t_replay}
        try:
            basic = None
            if n >= 2:
                basic = stats_from_counts(n, snapshot.m, int(snapshot.degrees.max()))
            for group in groups:
                t0 = _time.perf_counter()
                names = SERIES[group]
                row = _measure(group, config, ci, snapshot, basic, inc, timing, held)
                for name, value in zip(names, row or (None,) * len(names), strict=True):
                    values[name].append(value)
                timing[group] = _time.perf_counter() - t0
        except Exception as exc:
            raise RuntimeError(
                f"checkpoint {ci} (target n={target}, actual n={n}, m={snapshot.m}): {exc}"
            ) from exc
        records.append(record)
        checkpoint_timings.append(timing)
        t_replay = _time.perf_counter()

    # Until the final distribution is known, the degree group's last series
    # holds each checkpoint's distribution in place of its K-S distance.
    ks_name = SERIES["deg"][-1]
    dists = values.get(ks_name, [])
    if dists:
        final_cumulative = cumulative(dists[-1])
        values[ks_name] = [ks_statistic(cumulative(d), final_cumulative) for d in dists]

    series = {}
    for name, column in values.items():
        s = EvolutionSeries(name=name)
        for record, value in zip(records, column):
            s.append(record, value)
        series[name] = s

    manifest = _build_manifest(config, stream, schedule, records, series)
    result = RunResult(
        config=config,
        final_n=stream.final_n,
        final_m=stream.final_m,
        checkpoints=records,
        series=series,
        manifest=manifest,
        out_dir=config.out_dir,
    )
    if config.out_dir is not None:
        _write_outputs(result, dists if config.dump_distributions else None, checkpoint_timings)
    return result


def _measure(
    group: str, config: RunConfig, checkpoint_index: int, snapshot,
    basic: Optional[BasicStats], inc: IncrementalComponents, timing: dict, held: dict,
) -> Optional[tuple]:
    """One checkpoint's values for ``group``, in ``SERIES`` order; None where
    the whole group is undefined, as distances are while the giant component
    has fewer than two nodes. ``basic`` is None below two nodes. The degree
    group's last value is the degree distribution itself; ``run_evolution``
    turns it into the K-S distance to the final one. The distance group
    records its estimator's and bounds' wall time in ``timing``, and the
    triangle group leaves its full report in ``held``."""
    if group == "conn":
        return inc.component_count, inc.giant_size / snapshot.n
    if group == "deg":
        head = (basic.average_degree, basic.density, basic.max_degree) if basic else (None,) * 3
        return (*head, degree_distribution(snapshot))
    if group == "tri":
        tri = held[group] = analyze_triangles(snapshot, basic)
        return (
            tri.triangles,
            tri.clustering,
            tri.transitivity,
            tri.triangles_over_max_degree_sq,
            tri.clustering_over_density,
        )
    timing["dist_estimator"] = timing["dist_bounds"] = 0.0
    if inc.giant_size < 2:
        return None
    giant = inc.giant_mask()
    est_cfg = dataclasses.replace(
        config.estimator, rng_seed=checkpoint_estimator_seed(config.seed, checkpoint_index)
    )
    t0 = _time.perf_counter()
    estimate, samples = estimate_average_distance(snapshot, giant, est_cfg)
    t1 = _time.perf_counter()
    bnd_cfg = dataclasses.replace(
        config.bounds, rng_seed=checkpoint_bounds_seed(config.seed, checkpoint_index)
    )
    bounds = diameter_bounds(snapshot, giant, bnd_cfg)
    timing["dist_estimator"] = t1 - t0
    timing["dist_bounds"] = _time.perf_counter() - t1
    return estimate, samples, bounds.lower, bounds.upper, bounds.iterations, bounds.converged


def _build_manifest(config, stream, schedule, records, series) -> dict:
    import platform

    from netreplay import __version__

    return {
        "tool": {"name": "netreplay", "version": __version__},
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "input": config.input_path,
        "seed": config.seed,
        "nominal_checkpoints": config.nominal_checkpoints,
        "stats": sorted(config.stats),
        "estimator": {"i_min": config.estimator.i_min, "epsilon": config.estimator.epsilon},
        "bounds": {
            "min_iterations": config.bounds.min_iterations,
            "gap_target": config.bounds.gap_target,
            "iteration_cap": config.bounds.iteration_cap,
        },
        "final_n": stream.final_n,
        "final_m": stream.final_m,
        "scheduled_targets": list(schedule.sizes),
        "checkpoints": [
            {
                "index": r.index,
                "target_n": r.target_n,
                "position": r.position,
                "n": r.n,
                "m": r.m,
                "time": r.time,
            }
            for r in records
        ],
        "series": {name: f"{name}.csv" for name in series},
        "extra_files": ["growth.csv", "links_vs_nodes.csv", "plots.gp"],
        "timings_file": "timings.json",
    }


def _write_outputs(result: RunResult, dists, checkpoint_timings) -> None:
    out = result.out_dir
    os.makedirs(out, exist_ok=True)
    for name, s in result.series.items():
        s.write_csv(os.path.join(out, f"{name}.csv"))
    with open(os.path.join(out, "growth.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write("checkpoint,n,m,time\n")
        for r in result.checkpoints:
            f.write(f"{r.index},{r.n},{r.m},{r.time}\n")
    with open(os.path.join(out, "links_vs_nodes.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write("n,m\n")
        for r in result.checkpoints:
            f.write(f"{r.n},{r.m}\n")
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8", newline="\n") as f:
        json.dump(result.manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    # "totals" keeps one key per timed step, so its values sum to the timed
    # part of the run; parts of a step ("dist" = estimator + bounds) are
    # totalled apart in "part_totals".
    totals: dict[str, float] = {}
    part_totals: dict[str, float] = {}
    for t in checkpoint_timings:
        for k, v in t.items():
            if k != "checkpoint":
                into = part_totals if k in _TIMING_PARTS else totals
                into[k] = into.get(k, 0.0) + v
    with open(os.path.join(out, "timings.json"), "w", encoding="utf-8", newline="\n") as f:
        json.dump(
            {"per_checkpoint": checkpoint_timings, "totals": totals, "part_totals": part_totals},
            f, indent=2, sort_keys=True,
        )
        f.write("\n")
    _write_plot_script(result, os.path.join(out, "plots.gp"))
    if dists is not None:
        ddir = os.path.join(out, "distributions")
        os.makedirs(ddir, exist_ok=True)
        width = len(str(max(r.index for r in result.checkpoints)))
        for record, dist in zip(result.checkpoints, dists):
            name = f"degree_distribution_{record.index:0{width}d}.csv"
            cum = cumulative(dist)
            with open(os.path.join(ddir, name), "w", encoding="utf-8", newline="\n") as f:
                f.write("degree,count,proportion,cumulative\n")
                for k, c, p, q in zip(dist.degrees, dist.counts, dist.proportions(), cum.q):
                    f.write(f"{int(k)},{int(c)},{_format_value(float(p))},{_format_value(float(q))}\n")


def _write_plot_script(result: RunResult, path: str) -> None:
    lines = [
        "# gnuplot script for the evolution series",
        'set datafile separator ","',
        "set term pngcairo size 900,600",
        "set key off",
        "set xlabel 'nodes in sample'",
    ]
    for name in sorted(result.series):
        lines += [
            f"set output '{name}.png'",
            f"set ylabel '{name.replace('_', ' ')}'",
            f"plot '{name}.csv' using 2:5 every ::1 with linespoints",
        ]
    lines += [
        "set output 'growth.png'",
        "set ylabel 'links in sample'",
        "plot 'growth.csv' using 2:3 every ::1 with linespoints",
        "",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines))

"""Replay orchestration: one pass over the stream, statistics per checkpoint.

``checkpoint_plan`` places every scheduled node-count checkpoint in a
normalized stream up front; at each one the loop folds the links seen since
the previous one into its running state and computes the enabled statistic
groups. Connectivity comes from one label array that merges each
checkpoint's new links as a batch (links only ever merge components), and
the degrees from one running count of link endpoints. The degree group
measures the degree tail against the final graph's, and the triangle group
reads one listing of the final graph. Only the triangle and distance groups
need the final graph's adjacency, built once with each entry tagged by its
link's arrival, and only the distance group traverses a snapshot: the
prefix mask of that adjacency, built only when distances are on. The
distance group measures adjacent checkpoints in pairs, (0, 1), (2, 3), ...,
plus a lone last one when their number is odd. A pair's batches run on the
later checkpoint's snapshot, so the earlier one's is never built: the
earlier checkpoint keeps its giant mask until then, and its sources and
degrees leave out the entries of the links that arrived after it.
Its rows still land in checkpoint order, and its seeds still derive from
its own index. ``SERIES`` names the series of each group, in the order
``_measure`` and ``_measure_distances`` return their values.
Results come back as one EvolutionSeries per statistic and, when an output
directory is configured, land on disk as CSV files plus a manifest, a
gnuplot script, and a separate timing file.

Determinism: all sampling derives from the global seed and the checkpoint
index, never from global state, so a rerun with the same input and
configuration produces byte-identical outputs. Wall-clock timings, the one
legitimately nondeterministic product, are quarantined in timings.json.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time as _time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from netreplay.connectivity import Components, components_of, merge_links
from netreplay.degrees import BasicStats, cumulative, ks_statistic, stats_from_counts
from netreplay.distances import (
    BoundConfig,
    DistanceCheckpoint,
    DistanceWork,
    EstimatorConfig,
    MaskError,
    distance_statistics,
)
from netreplay.graph import Snapshot, arrival_csr, finalize_snapshot, late_entries
from netreplay.ingest import (
    ArrivalStream,
    cache_key,
    checkpoint_plan,
    checkpoint_sizes,
    load_cache,
    normalize,
    save_cache,
)
from netreplay.triangles import analyze_triangles, triangle_counts

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
_TIMING_PARTS = ("dist_batch",)  # timed inside "dist"
_WORK_COUNTS = (  # counted, not timed
    "dist_batches", "dist_entries", "snapshots",
    "tri_probes", "tri_searches", "tri_batches",
)


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
    no_time: bool = False  # lines are `<src> <dst>`, numbered 0, 1, 2, ... as their times

    def __post_init__(self):
        groups = frozenset(self.stats)
        if not groups:
            raise ValueError("at least one statistic group must be enabled")
        unknown = groups - set(STAT_GROUPS)
        if unknown:
            raise ValueError(f"unknown statistic groups: {sorted(unknown)}")
        object.__setattr__(self, "stats", groups)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.nominal_checkpoints < 1:
            raise ValueError("nominal_checkpoints must be at least 1")
        if self.dump_distributions and "deg" not in groups:
            raise ValueError("dump_distributions needs the deg statistic group")


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
    """One statistic across checkpoints: one value per entry of
    ``RunResult.checkpoints``, None where undefined."""

    name: str
    values: list = field(default_factory=list)


@dataclass
class RunResult:
    config: RunConfig
    final_n: int
    final_m: int
    checkpoints: list[CheckpointRecord]
    series: dict[str, EvolutionSeries]
    manifest: dict


def _format_value(v) -> str:
    """One CSV cell from a Python scalar (numpy columns reach the writer
    through ``tolist()``): empty for None, 0/1 for a bool, else its repr."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    return repr(v)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(map(_format_value, row)) + "\n")


def load_stream(config: RunConfig, work: Optional[dict] = None) -> ArrivalStream:
    """Normalized stream for a run, via the binary sidecar when possible.

    The sidecar lives next to the input with an ``.arrivals`` suffix and is
    only trusted when it was written for the input's current size and
    modification time with the same ``no_time``. Failures to write it
    are silently ignored; failures to read it fall back to a fresh parse.
    ``work``, if given, receives :func:`normalize`'s counts when the input
    is parsed, and is left as it is when the sidecar serves.
    """
    path = config.input_path
    cache_path = path + ".arrivals"
    if config.use_cache:
        key = cache_key(path, config.no_time)
        if os.path.exists(cache_path):
            try:
                return load_cache(cache_path, key)
            except (OSError, ValueError):
                pass
    stream = normalize(path, config.no_time, work)
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
    t_load = _time.perf_counter()
    load_work: dict = {}  # stays empty when the cache serves
    stream = load_stream(config, load_work)
    load_s = _time.perf_counter() - t_load
    if stream.final_n < 1:
        raise ValueError(f"input {config.input_path!r} contains no nodes")
    sizes = checkpoint_sizes(stream.final_n, config.nominal_checkpoints)
    groups = [group for group in STAT_GROUPS if group in config.stats]

    # A checkpoint's replay time runs from the end of the previous one, so
    # the first includes building the final CSR.
    t_replay = _time.perf_counter()
    csr = None
    if "tri" in groups or "dist" in groups:
        csr = arrival_csr(stream.u, stream.v, stream.final_n)
    label = np.arange(stream.final_n)
    degree = np.zeros(stream.final_n, dtype=np.int64)  # over the links replayed so far
    records: list[CheckpointRecord] = []
    series = {name: EvolutionSeries(name) for group in groups for name in SERIES[group]}
    checkpoint_timings: list[dict] = []
    plan = checkpoint_plan(stream, sizes)
    positions = np.array([position for _, _, position, _ in plan], dtype=np.int64)
    tri_counts = functools.cache(functools.partial(triangle_counts, csr, positions))
    final_tail = None
    if "deg" in groups:
        final_degrees = np.bincount(stream.u, minlength=stream.final_n)
        final_degrees += np.bincount(stream.v, minlength=stream.final_n)
        final_tail = cumulative(np.bincount(final_degrees))
    dists = [] if config.dump_distributions else None
    pos = 0
    # The distance group runs on pairs of adjacent checkpoints, (0, 1),
    # (2, 3), ..., and a lone last one, each pair on its later snapshot: the
    # earlier checkpoint waits here with its record and giant mask.
    waiting = []

    for k, (ci, target, position, n) in enumerate(plan):
        u, v = stream.u[pos:position], stream.v[pos:position]
        merge_links(label, u, v)
        for ends in (u, v):  # every endpoint so far is below n
            degree[:n] += np.bincount(ends, minlength=n)
        pos = position
        degrees = degree[:n]
        components = components_of(label, n)
        snapshot = None  # the previous pair's goes before the next is built
        pair_ends = "dist" in groups and (k % 2 == 1 or k == len(plan) - 1)
        if pair_ends:
            snapshot = finalize_snapshot(csr, position, n)
        record = CheckpointRecord(
            index=ci,
            target_n=target,
            position=position,
            n=n,
            m=position,  # the stream's links are distinct and never loops
            time=int(stream.time[position - 1]) if position else 0,
        )
        timing = {"checkpoint": ci, "replay": _time.perf_counter() - t_replay}
        if snapshot is not None:
            timing["snapshots"] = 1
        members = []  # the distance group's checkpoints measured here
        try:
            basic = None
            if n >= 2:
                basic = stats_from_counts(n, position, int(degrees.max()))
            for group in groups:
                t0 = _time.perf_counter()
                names = SERIES[group]
                if group == "dist":
                    member = record, _distance_checkpoint(config, ci, components)
                    members, waiting = ([*waiting, member], []) if pair_ends else ([], [member])
                    rows, work = _measure_distances(config, csr, snapshot, members)
                    timing.update(vars(work))
                else:
                    rows = [_measure(
                        group, k, degrees, basic, components, timing, tri_counts, final_tail, dists
                    )]
                for row in rows:
                    for name, value in zip(names, row or (None,) * len(names), strict=True):
                        series[name].values.append(value)
                timing[group] = _time.perf_counter() - t0
        except Exception as exc:
            failed = record
            if isinstance(exc, MaskError):  # it counts the pair's measured checkpoints
                failed = [r for r, checkpoint in members if checkpoint is not None][exc.checkpoint]
            raise RuntimeError(
                f"checkpoint {failed.index} (target n={failed.target_n}, actual n={failed.n}, "
                f"m={failed.m}): {exc}"
            ) from exc
        records.append(record)
        checkpoint_timings.append(timing)
        t_replay = _time.perf_counter()

    manifest = _build_manifest(config, stream, sizes, records, series)
    result = RunResult(
        config=config,
        final_n=stream.final_n,
        final_m=stream.final_m,
        checkpoints=records,
        series=series,
        manifest=manifest,
    )
    if config.out_dir is not None:
        _write_outputs(result, dists, checkpoint_timings, load_s, load_work)
    return result


def _measure(
    group: str, k: int, degrees: np.ndarray, basic: Optional[BasicStats], components: Components,
    timing: dict, tri_counts, final_tail: Optional[np.ndarray], dists: Optional[list],
) -> tuple:
    """One checkpoint's values for ``group``, any group but the distances,
    in ``SERIES`` order. ``degrees`` holds the checkpoint's n node degrees,
    and ``basic`` is None below two nodes. The degree group measures the K-S
    distance of the degree tail to ``final_tail``, the final graph's, and
    appends the dense degree histogram to ``dists`` when distributions are
    dumped. The triangle group reads row ``k`` (place in the plan) of the
    lazy ``tri_counts()``; at ``k == 0``, where the listing runs, it records
    in ``timing`` the listing's probes, searches and batches."""
    n = degrees.size
    if group == "conn":
        return components.count, components.giant_size / n
    if group == "deg":
        counts = np.bincount(degrees)
        if dists is not None:
            dists.append(counts)
        head = (basic.average_degree, basic.density, basic.max_degree) if basic else (None,) * 3
        return (*head, ks_statistic(cumulative(counts), final_tail))
    counts = tri_counts()
    if k == 0:
        timing["tri_probes"] = counts.probes
        timing["tri_searches"] = counts.searches
        timing["tri_batches"] = counts.batches
    return analyze_triangles(degrees, basic, int(counts.totals[k]), counts.per_node[k, :n])


def _distance_checkpoint(
    config: RunConfig, checkpoint_index: int, components: Components
) -> Optional[DistanceCheckpoint]:
    """What the distance group measures of a checkpoint: its giant mask and
    its seeds. None while the giant component has fewer than two nodes,
    where distances are undefined."""
    if components.giant_size < 2:
        return None
    return DistanceCheckpoint(
        components.giant_mask(),
        checkpoint_estimator_seed(config.seed, checkpoint_index),
        checkpoint_bounds_seed(config.seed, checkpoint_index),
    )


def _measure_distances(
    config: RunConfig, csr, snapshot: Optional[Snapshot], members: list
) -> tuple[list[Optional[tuple]], DistanceWork]:
    """The distance values of a pair of checkpoints, of a lone one, or of
    none while a pair waits for its later member, in ``SERIES`` order and
    checkpoint order: ``members`` holds each one's record and
    :func:`_distance_checkpoint`, and ``snapshot`` is the last one's. A row
    is None where distances are undefined. Also returns what the batches
    cost: their wall time, count and adjacency entries gathered."""
    checkpoints = [checkpoint for _, checkpoint in members]
    if len(members) == 2 and checkpoints[0] is not None:
        late = late_entries(csr, members[1][0].position, members[0][0].position)
        checkpoints[0] = checkpoints[0]._replace(late=late)
    measured = [checkpoint for checkpoint in checkpoints if checkpoint is not None]
    outcomes, work = distance_statistics(snapshot, measured, config.estimator, config.bounds)
    outcomes = iter(outcomes)
    rows = []
    for checkpoint in checkpoints:
        row = None
        if checkpoint is not None:
            (estimate, samples), bounds = next(outcomes)
            row = estimate, samples, bounds.lower, bounds.upper, bounds.iterations, bounds.converged
        rows.append(row)
    return rows, work


def _build_manifest(config, stream, sizes, records, series) -> dict:
    import platform

    from netreplay import __version__

    return {
        "tool": {"name": "netreplay", "version": __version__},
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "input": config.input_path,
        "seed": config.seed,
        "nominal_checkpoints": config.nominal_checkpoints,
        "stats": sorted(config.stats),
        "estimator": dataclasses.asdict(config.estimator),
        "bounds": dataclasses.asdict(config.bounds),
        "final_n": stream.final_n,
        "final_m": stream.final_m,
        "scheduled_targets": list(sizes),
        "checkpoints": [dataclasses.asdict(r) for r in records],
        "series": {name: f"{name}.csv" for name in series},
        "extra_files": ["growth.csv", "links_vs_nodes.csv", "plots.gp"],
        "timings_file": "timings.json",
    }


def _write_outputs(
    result: RunResult, dists, checkpoint_timings, load_s: float, load_work: dict
) -> None:
    t_write = _time.perf_counter()
    out = result.config.out_dir
    os.makedirs(out, exist_ok=True)
    records = result.checkpoints
    for name, s in result.series.items():
        _write_csv(
            os.path.join(out, f"{name}.csv"),
            "checkpoint,n,m,time,value",
            (
                (r.index, r.n, r.m, r.time, value)
                for r, value in zip(records, s.values, strict=True)
            ),
        )
    _write_csv(
        os.path.join(out, "growth.csv"),
        "checkpoint,n,m,time",
        ((r.index, r.n, r.m, r.time) for r in records),
    )
    _write_csv(os.path.join(out, "links_vs_nodes.csv"), "n,m", ((r.n, r.m) for r in records))
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8", newline="\n") as f:
        json.dump(result.manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_plot_script(result, os.path.join(out, "plots.gp"))
    if dists is not None:
        ddir = os.path.join(out, "distributions")
        os.makedirs(ddir, exist_ok=True)
        width = len(str(max(r.index for r in records)))
        for record, counts in zip(records, dists):
            name = f"degree_distribution_{record.index:0{width}d}.csv"
            degrees = np.flatnonzero(counts)
            kept = counts[degrees]
            columns = (degrees, kept, kept / record.n, cumulative(counts)[degrees])
            rows = zip(*(column.tolist() for column in columns))
            _write_csv(os.path.join(ddir, name), "degree,count,proportion,cumulative", rows)
    # "totals" keeps one key per timed step of the checkpoint loop, so its
    # values sum to the loop's timed part; parts of a step ("dist" holds its
    # batches) are totalled apart in "part_totals", and work
    # counts in "work". "load" (the stream, parsed or from the cache) and
    # "write" (every output file but this one) lie outside the loop and
    # stand apart from all three, as does "load_work", how the parse ran.
    totals: dict[str, float] = {}
    part_totals: dict[str, float] = {}
    work = dict.fromkeys(_WORK_COUNTS, 0)
    for t in checkpoint_timings:
        for k, v in t.items():
            if k != "checkpoint":
                into = work if k in _WORK_COUNTS else part_totals if k in _TIMING_PARTS else totals
                into[k] = into.get(k, 0.0) + v
    timings = {
        "load": load_s,
        "load_work": load_work,
        "part_totals": part_totals,
        "peak_rss_mb": _peak_rss_mb(),
        "per_checkpoint": checkpoint_timings,
        "totals": totals,
        "work": work,
        "write": _time.perf_counter() - t_write,
    }
    with open(os.path.join(out, "timings.json"), "w", encoding="utf-8", newline="\n") as f:
        json.dump(timings, f, indent=2, sort_keys=True)
        f.write("\n")


def _peak_rss_mb() -> Optional[float]:
    """This process's peak resident set so far (``VmHWM``) in MB, or None
    where ``/proc/self/status`` cannot be read. ``ru_maxrss`` is not used:
    a process started by ``subprocess`` inherits its parent's high-water
    mark."""
    try:
        with open("/proc/self/status", "rb") as f:
            for line in f:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


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

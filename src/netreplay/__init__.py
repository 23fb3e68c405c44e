"""Replay timestamped measurement streams and watch graph statistics converge.

A measurement of a large network (a web crawl, a peer-to-peer trace, a
router-level exploration) arrives as a stream of timestamped links. The
central question this package answers: as the measured sample grows, which
statistics of the observed graph have already stabilized, and which are still
drifting? The pipeline replays the stream to a series of growing prefixes,
snapshots the graph at each one, and computes connectivity, degree, distance
and triangle statistics per snapshot so their evolution can be plotted and
judged.
"""

from netreplay.ingest import (
    ArrivalStream,
    CheckpointSchedule,
    FormatOptions,
    RawEvent,
    StreamFormatError,
    checkpoint_plan,
    checkpoint_sizes,
    load_cache,
    normalize,
    open_event_file,
    parse_event_stream,
    save_cache,
)
from netreplay.graph import Snapshot, has_link, snapshot_from_edges
from netreplay.connectivity import ComponentSummary, IncrementalComponents, components
from netreplay.degrees import (
    BasicStats,
    CumulativeDistribution,
    DegreeDistribution,
    basic_stats,
    cumulative,
    degree_distribution,
    ks_statistic,
    powerlaw_fit,
)
from netreplay.distances import (
    BoundConfig,
    BoundsOutcome,
    EstimatorConfig,
    average_distance_exact,
    bfs,
    diameter_bounds,
    diameter_lower_bound,
    diameter_upper_bound,
    estimate_average_distance,
    mean_distance_from,
)
from netreplay.triangles import (
    TriangleReport,
    analyze_triangles,
    clustering_coefficient,
    count_triangles,
    derived_ratios,
    transitivity,
)
from netreplay.pipeline import EvolutionSeries, RunConfig, RunResult, run_evolution

__version__ = "0.1.0"

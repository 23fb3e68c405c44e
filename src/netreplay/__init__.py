"""Replay timestamped measurement streams and watch graph statistics converge.

A measurement of a large network (a web crawl, a peer-to-peer trace, a
router-level exploration) arrives as a stream of timestamped links. The
central question this package answers: as the measured sample grows, which
statistics of the observed graph have already stabilized, and which are still
drifting? The pipeline replays the stream to a series of growing prefixes
and computes connectivity, degree, distance and triangle statistics at each
one, so their evolution can be plotted and judged. Only the distance group
builds a snapshot of the graph: one per pair of adjacent checkpoints, of
the later one's prefix, and one for a lone last checkpoint.
"""

from netreplay.ingest import (
    ArrivalStream,
    StreamFormatError,
    checkpoint_plan,
    checkpoint_sizes,
    load_cache,
    normalize,
    save_cache,
)
from netreplay.graph import Snapshot
from netreplay.connectivity import Components, components_of, merge_links
from netreplay.degrees import (
    BasicStats,
    cumulative,
    ks_statistic,
    powerlaw_fit,
)
from netreplay.distances import (
    BoundConfig,
    BoundsOutcome,
    DistanceCheckpoint,
    EstimatorConfig,
    distance_statistics,
)
from netreplay.triangles import (
    analyze_triangles,
    clustering_coefficient,
    transitivity,
    triangle_counts,
)
from netreplay.pipeline import EvolutionSeries, RunConfig, RunResult, run_evolution

__version__ = "0.1.0"

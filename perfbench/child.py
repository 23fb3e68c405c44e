"""One timed replay in a fresh process: ``child.py SPEC.json RESULT.json``.

The spec names the input and the run configuration. The child times one
``pipeline.run_evolution`` call and its ``load_stream`` call and writes both
to the result file. With ``"trace": true`` it also wraps the names the
pipeline calls into each module and records a span per call. Spans carry
their parent and stay in memory until the run ends. Calls made once per link
are folded into one aggregate per (parent span, name) so that the trace does
not grow with the input. Nothing in the package is edited; the wrappers are
installed from here.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (owner, attribute, layer, aggregate). The owner is a module of the package
# or a class in it. A target the program no longer has is skipped; the
# parent's cross-check counts it as a call mismatch.
TRACE_TARGETS = (
    ("netreplay.pipeline", "load_stream", "ingest", False),
    ("netreplay.pipeline", "normalize", "ingest", False),
    ("netreplay.pipeline", "save_cache", "ingest", False),
    ("netreplay.pipeline", "load_cache", "ingest", False),
    ("netreplay.pipeline", "finalize_snapshot", "graph", False),
    ("netreplay.graph:GrowingGraph", "add_link", "graph", True),
    ("netreplay.connectivity:IncrementalComponents", "add_link", "connectivity", True),
    ("netreplay.connectivity:IncrementalComponents", "ensure", "connectivity", True),
    ("netreplay.connectivity:IncrementalComponents", "roots", "connectivity", False),
    ("netreplay.pipeline", "cumulative", "degrees", False),
    ("netreplay.pipeline", "ks_statistic", "degrees", False),
    ("netreplay.pipeline", "estimate_average_distance", "distances", False),
    ("netreplay.pipeline", "diameter_bounds", "distances", False),
    ("netreplay.pipeline", "analyze_triangles", "triangles", False),
)


class Tracer:
    """Span recorder. A span is [id, name, layer, start, end, parent, self];
    an aggregate is keyed (parent, name) -> [layer, calls, total, self]."""

    def __init__(self):
        self.spans: list[list] = []
        self.aggregates: dict[tuple, list] = {}
        self._stack = [[0.0, -1]]  # frames: [time covered by children, span id]

    def wrap(self, fn, name: str, layer: str, aggregate: bool = False):
        spans, aggregates, stack = self.spans, self.aggregates, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1]
            if aggregate:
                frame = [0.0, parent]
            else:
                span_id = len(spans)
                spans.append([span_id, name, layer, 0.0, 0.0, parent, 0.0])
                frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                if aggregate:
                    agg = aggregates.get((parent, name))
                    if agg is None:
                        agg = aggregates[(parent, name)] = [layer, 0, 0.0, 0.0]
                    agg[1] += 1
                    agg[2] += duration
                    agg[3] += duration - frame[0]
                else:
                    span = spans[span_id]
                    span[3], span[4], span[6] = start, end, duration - frame[0]

        return traced

    def install(self, targets) -> list[str]:
        """Wrap each available target in place; return the ones missing."""
        missing = []
        for owner_path, attr, layer, aggregate in targets:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                missing.append(f"{owner_path}.{attr}")
                continue
            short = class_name or module_name.rsplit(".", 1)[-1]
            setattr(owner, attr, self.wrap(fn, f"{short}.{attr}", layer, aggregate))
        return missing

    def calls(self) -> dict[str, dict]:
        """Per wrapped name: call count, total time and self time."""
        out: dict[str, dict] = {}
        rows = [(s[1], s[2], 1, s[4] - s[3], s[6]) for s in self.spans]
        rows += [(name, a[0], a[1], a[2], a[3]) for (_, name), a in self.aggregates.items()]
        for name, layer, n, total, self_s in rows:
            entry = out.setdefault(name, {"layer": layer, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += n
            entry["total_s"] += total
            entry["self_s"] += self_s
        return out

    def export(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "name": s[1], "layer": s[2], "start": s[3], "end": s[4],
                 "parent": s[5], "self_s": s[6]}
                for s in self.spans
            ],
            "aggregates": [
                {"parent": parent, "name": name, "layer": a[0], "calls": a[1],
                 "total_s": a[2], "self_s": a[3]}
                for (parent, name), a in self.aggregates.items()
            ],
            "calls": self.calls(),
        }


def peak_rss_mb() -> float:
    """Peak resident set of this process's own memory, in MB.

    ``VmHWM`` counts only the address space made at exec. ``ru_maxrss`` is
    not used: on Linux a child started by vfork inherits its parent's
    high-water mark at exec, so it would report the harness's memory
    whenever that is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    from netreplay import pipeline

    tracer = Tracer()
    if spec["trace"]:
        missing = tracer.install(TRACE_TARGETS)
    else:
        missing = tracer.install(TRACE_TARGETS[:1])  # load_stream only, for setup_s
    run = tracer.wrap(pipeline.run_evolution, "pipeline.run_evolution", "pipeline")
    config = pipeline.RunConfig(
        input_path=spec["input"],
        nominal_checkpoints=spec["checkpoints"],
        stats=frozenset(spec["stats"]),
        use_cache=spec["use_cache"],
        out_dir=spec["out_dir"],
    )
    start = time.perf_counter()
    run(config)
    run_s = time.perf_counter() - start
    loads = [s for s in tracer.spans if s[1] == "pipeline.load_stream"]
    result = {
        "run_s": run_s,
        "setup_s": loads[0][4] - loads[0][3],
        "peak_rss_mb": peak_rss_mb(),
        "missing_targets": missing,
    }
    if spec["trace"]:
        result["trace"] = tracer.export()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

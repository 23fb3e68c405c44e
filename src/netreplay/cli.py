"""Command-line front end.

Two subcommands: ``analyze`` replays a trace and writes the evolution series,
``gen`` produces synthetic traces with known structure. The output directory
defaults to ``./netreplay-out`` and can be overridden by the NETREPLAY_OUT
environment variable; an explicit ``--out`` always wins.
"""

from __future__ import annotations

import argparse
import os
import sys

from netreplay.distances import BoundConfig, EstimatorConfig
from netreplay.generate import MODELS, generate, write_stream
from netreplay.pipeline import STAT_GROUPS, RunConfig, run_evolution

DEFAULT_OUT = "netreplay-out"
OUT_ENV_VAR = "NETREPLAY_OUT"


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netreplay",
        description="Replay a timestamped link trace and track statistic evolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="replay a trace and compute per-checkpoint statistics")
    an.add_argument("input", help="trace file, optionally .gz")
    an.add_argument("--checkpoints", type=int, default=RunConfig.nominal_checkpoints,
                    metavar="K", help="nominal number of checkpoints (default %(default)s)")
    an.add_argument("--seed", type=int, default=RunConfig.seed, metavar="S",
                    help="global random seed (default %(default)s)")
    an.add_argument("--stats", default=",".join(STAT_GROUPS), metavar="GROUPS",
                    help=f"comma list from {','.join(STAT_GROUPS)} (default all)")
    an.add_argument("--imin", type=int, default=EstimatorConfig.i_min, metavar="I",
                    help="minimum samples before the distance estimator may stop")
    an.add_argument("--eps", type=float, default=EstimatorConfig.epsilon, metavar="E",
                    help="stability threshold for the distance estimator")
    an.add_argument("--gap", type=int, default=BoundConfig.gap_target, metavar="G",
                    help="diameter bracket width that counts as converged")
    an.add_argument("--min-iters", type=int, default=BoundConfig.min_iterations, metavar="T",
                    help="minimum diameter bounding iterations")
    an.add_argument("--cap", type=int, default=BoundConfig.iteration_cap, metavar="C",
                    help="hard cap on diameter bounding iterations")
    an.add_argument("--out", default=None, metavar="DIR", help="output directory")
    an.add_argument("--dump-distributions", action="store_true",
                    help="also write the per-checkpoint degree distributions")
    an.add_argument("--no-cache", action="store_true",
                    help="ignore and do not write the binary stream cache")

    gen = sub.add_parser("gen", help="generate a synthetic trace")
    gen.add_argument("model", choices=list(MODELS))
    users: dict = {}  # each parameter, in first-use order, and the models that take it
    for model, spec in MODELS.items():
        for p in spec.params:
            users.setdefault(p, []).append(model)
    for p, models in users.items():
        gen.add_argument(_flag(p.name), type=p.kind, metavar=p.metavar,
                         help=f"{p.help} ({', '.join(models)})")
    gen.add_argument("--seed", type=int, metavar="S")
    gen.add_argument("--out", required=True, metavar="FILE", help="trace file to write")
    return parser


def _gen_params(args) -> dict:
    """The model's parameters from the flags, and the seed when one is given;
    ``generate`` supplies the default seed. A flag the model does not take
    is an error, not ignored."""
    model = MODELS[args.model]
    taken = [p.name for p in model.params] + (["seed"] if model.seeded else [])
    every = dict.fromkeys([p.name for spec in MODELS.values() for p in spec.params] + ["seed"])
    extra = [_flag(name) for name in every if name not in taken and getattr(args, name) is not None]
    if extra:
        raise SystemExit(f"netreplay gen {args.model}: does not take {', '.join(extra)}")
    params = {} if args.seed is None else {"seed": args.seed}
    for p in model.params:
        value = getattr(args, p.name)
        if value is None:
            raise SystemExit(f"netreplay gen {args.model}: missing {_flag(p.name)}")
        params[p.name] = value
    return params


def _run_analyze(args) -> int:
    out_dir = args.out or os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT
    groups = frozenset(g.strip() for g in args.stats.split(",") if g.strip())
    config = RunConfig(
        input_path=args.input,
        nominal_checkpoints=args.checkpoints,
        stats=groups,
        estimator=EstimatorConfig(i_min=args.imin, epsilon=args.eps),
        bounds=BoundConfig(
            min_iterations=args.min_iters, gap_target=args.gap, iteration_cap=args.cap
        ),
        seed=args.seed,
        out_dir=out_dir,
        dump_distributions=args.dump_distributions,
        use_cache=not args.no_cache,
    )
    result = run_evolution(config)
    print(
        f"replayed {result.final_m} links over {result.final_n} nodes "
        f"at {len(result.checkpoints)} checkpoints -> {out_dir}"
    )
    return 0


def _run_gen(args) -> int:
    stream = generate(args.model, **_gen_params(args))
    write_stream(args.out, stream)
    print(f"wrote {len(stream[0])} events to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_gen(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"netreplay: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

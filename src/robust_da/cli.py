"""Command-line interface for the benchmark harness.

Subcommands: ``run`` (one configuration), ``sweep`` (contamination grid),
``size-sweep`` (ensemble sizes), ``tune`` (kernel threshold bisection) and
``verify`` (heavy Monte-Carlo consistency checks).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    FILTERS,
    PRESETS,
    ExperimentConfig,
    resolve_threads,
    run_ensemble_size_sweep,
    run_single,
    run_sweep,
)
from .weights import expected_weight_mc, tune_threshold


def _load_config(spec: str | None) -> ExperimentConfig:
    if spec is None:
        return ExperimentConfig()
    if spec in PRESETS:
        return ExperimentConfig.from_dict(dict(PRESETS[spec]))
    path = Path(spec)
    if not path.exists():
        raise SystemExit(
            f"config {spec!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor an existing file"
        )
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    try:
        return ExperimentConfig.from_dict(data)
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}")


def _replace_config(config: ExperimentConfig, args, **updates) -> ExperimentConfig:
    """``replace`` that exits with one line when the harness refuses the result."""
    try:
        return replace(config, **updates)
    except ValueError as exc:
        raise SystemExit(f"{args.config or 'default config'}: {exc}")


def _apply_common(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {"threads": resolve_threads(args.threads)}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if getattr(args, "filter", None):
        updates["filter"] = args.filter
    return _replace_config(config, args, **updates)


def _parse_filters(args, config: ExperimentConfig) -> list[str]:
    if not args.filters:
        return [config.filter]
    filters = [f.strip() for f in args.filters.split(",") if f.strip()]
    for filt in filters:
        _replace_config(config, args, filter=filt)
    return filters


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        for key, value in payload.items():
            print(f"{key},{value}")


def cmd_run(args) -> int:
    config = _apply_common(_load_config(args.config), args)
    result = run_single(config)
    _emit(result.summary, args.format)
    return 0 if result.run.divergence_step is None else 1


def cmd_sweep(args) -> int:
    config = _apply_common(_load_config(args.config), args)
    eps = [float(v) for v in args.epsilon.split(",")]
    sql = [float(v) for v in args.sqrt_lambda.split(",")]
    for e in eps:
        for s in sql:
            _replace_config(config, args, epsilon=e, lam=max(s * s, 1.0))
    filters = _parse_filters(args, config)
    result = run_sweep(config, eps, sql, filters=filters)
    failed = sum(c.n_failed for c in result.cells.values())
    payload = {
        "cells": len(result.cells),
        "replicates_per_cell": config.mc_reps,
        "failed_replicates": failed,
    }
    _emit(payload, args.format)
    return 0 if failed == 0 else 1


def cmd_size_sweep(args) -> int:
    config = _apply_common(_load_config(args.config), args)
    sizes = [int(v) for v in args.sizes.split(",")]
    filters = _parse_filters(args, config)
    for m in sizes:
        for filt in filters:
            _replace_config(config, args, filter=filt, ensemble_size=m)
    result = run_ensemble_size_sweep(config, sizes, filters=filters)
    failed = sum(c.n_failed for c in result.cells.values())
    _emit({"cells": len(result.cells), "failed_replicates": failed}, args.format)
    return 0 if failed == 0 else 1


def cmd_tune(args) -> int:
    tuned = tune_threshold(args.dy, family=args.family, seed=args.seed or 0)
    estimate = expected_weight_mc(args.dy, tuned, family=args.family, seed=args.seed or 0)
    _emit(
        {"d_y": args.dy, "family": args.family, "threshold": tuned, "expected_weight": estimate},
        args.format,
    )
    return 0


def cmd_verify(args) -> int:
    from .checks import run_checks

    failures = run_checks(seed=args.seed or 0, verbose=True)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robust-da", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="preset name or JSON config path")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="output directory for result files")
        p.add_argument("--threads", type=int, help="worker count (ROBUST_DA_THREADS fallback)")
        p.add_argument("--format", choices=("csv", "json"), default="json")

    p_run = sub.add_parser("run", help="run one configuration")
    common(p_run)
    p_run.add_argument("--filter", choices=FILTERS)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="contamination grid sweep")
    common(p_sweep)
    p_sweep.add_argument("--epsilon", default="0,0.1,0.25", help="comma-separated frequencies")
    p_sweep.add_argument(
        "--sqrt-lambda", dest="sqrt_lambda", default="2.5,10,27.5",
        help="comma-separated sqrt inflation degrees",
    )
    p_sweep.add_argument("--filters", help="comma-separated filter list")
    p_sweep.set_defaults(func=cmd_sweep, filter=None)

    p_size = sub.add_parser("size-sweep", help="ensemble size sweep")
    common(p_size)
    p_size.add_argument("--sizes", default="5,10,25,50,100", help="comma-separated ensemble sizes")
    p_size.add_argument("--filters", help="comma-separated filter list")
    p_size.set_defaults(func=cmd_size_sweep, filter=None)

    p_tune = sub.add_parser("tune", help="tune the kernel threshold by bisection")
    p_tune.add_argument("--dy", type=int, required=True)
    p_tune.add_argument("--family", choices=("imq", "sqexp"), default="imq")
    p_tune.add_argument("--seed", type=int)
    p_tune.add_argument("--format", choices=("csv", "json"), default="json")
    p_tune.set_defaults(func=cmd_tune)

    p_verify = sub.add_parser("verify", help="run heavy Monte-Carlo consistency checks")
    p_verify.add_argument("--seed", type=int)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface for the benchmark harness.

Subcommands: ``run`` (one configuration), ``sweep`` (contamination grid),
``size-sweep`` (ensemble sizes), ``tune`` (kernel threshold bisection) and
``verify`` (heavy Monte-Carlo consistency checks).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    FILTERS, PRESETS, ExperimentConfig, run_ensemble_size_sweep, run_single, run_sweep,
)
from .weights import expected_weight_mc, tune_threshold


def _load_config(spec: str | None) -> ExperimentConfig:
    if spec is None:
        return ExperimentConfig()
    if spec in PRESETS:
        return ExperimentConfig.from_dict(dict(PRESETS[spec]))
    path = Path(spec)
    if not os.path.exists(path):  # False, not an OSError, for a name too long
        raise SystemExit(
            f"config {spec!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor an existing file"
        )
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"{path}: cannot read config: {exc}")
    try:
        return ExperimentConfig.from_dict(data)
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}")


def _checked(args, build, *values, **updates):
    """``build(*values, **updates)``, exiting with one line when the library
    refuses its input or cannot write to ``--out``."""
    try:
        return build(*values, **updates)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"{getattr(args, 'config', args.command) or 'default config'}: {exc}")


def _apply_common(config: ExperimentConfig, args) -> ExperimentConfig:
    flags = dict(threads=args.threads, seed=args.seed, out_dir=args.out, filter=args.filter)
    return _checked(args, replace, config, **{k: v for k, v in flags.items() if v is not None})


def _parse_grid(flag: str, text: str, kind: type) -> list:
    """A comma-separated grid, refused with one line naming ``flag`` unless
    every value parses as ``kind`` and the values strictly increase."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError:
        raise SystemExit(
            f"{flag}: expected comma-separated {kind.__name__} values, got {text!r}"
        ) from None
    if any(b <= a for a, b in zip(values, values[1:])):
        raise SystemExit(f"{flag}: values must be strictly increasing, got {text!r}")
    return values


def _parse_filters(args) -> list[str] | None:
    """The ``--filters`` names, None without the flag (the config's filter)."""
    if args.filters is None:
        return None
    return [f.strip() for f in args.filters.split(",") if f.strip()]


def _at_least(flag: str, value: int | None, low: int) -> None:
    """Refuse, with one line naming ``flag``, a given value below ``low``."""
    if value is not None and value < low:
        raise SystemExit(f"{flag} must be an integer >= {low}, got {value}")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2, default=str))


def cmd_run(args) -> int:
    config = _apply_common(_load_config(args.config), args)
    result = _checked(args, run_single, config)
    _emit(result.summary)
    return 0 if result.run.divergence_step is None else 1


def cmd_sweep(args) -> int:
    """``sweep`` over the contamination grid or ``size-sweep`` over ensemble
    sizes; the harness refuses a bad grid or filter list before any replicate."""
    config = _apply_common(_load_config(args.config), args)
    if args.command == "sweep":
        run = run_sweep
        grids = [_parse_grid("--epsilon", args.epsilon, float),
                 _parse_grid("--sqrt-lambda", args.sqrt_lambda, float)]
    else:
        run, grids = run_ensemble_size_sweep, [_parse_grid("--sizes", args.sizes, int)]
    result = _checked(args, run, config, *grids, filters=_parse_filters(args))
    failed = sum(c.n_failed for c in result.cells.values())
    _emit({"cells": len(result.cells), "replicates_per_cell": config.mc_reps,
           "failed_replicates": failed})
    return 0 if failed == 0 else 1


def _tune(d_y: int, family: str, seed: int) -> dict:
    """The tuned threshold at ``d_y`` and its Monte-Carlo expected weight."""
    tuned = tune_threshold(d_y, family=family, seed=seed)
    estimate = expected_weight_mc(d_y, tuned, family=family, seed=seed)
    return {"d_y": d_y, "family": family, "threshold": tuned, "expected_weight": estimate}


def cmd_tune(args) -> int:
    _at_least("--dy", args.dy, 1)
    _at_least("--seed", args.seed, 0)
    _emit(_checked(args, _tune, args.dy, args.family, args.seed or 0))
    return 0


def cmd_verify(args) -> int:
    from .checks import run_checks

    _at_least("--seed", args.seed, 0)
    return 0 if _checked(args, run_checks, seed=args.seed or 0) == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robust-da", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="preset name or JSON config path")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="output directory for result files")
        p.add_argument("--threads", type=int, help="worker count, at least 1")

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
    p_size.set_defaults(func=cmd_sweep, filter=None)

    p_tune = sub.add_parser("tune", help="tune the kernel threshold by bisection")
    p_tune.add_argument("--dy", type=int, required=True)
    p_tune.add_argument("--family", choices=("imq", "sqexp"), default="imq")
    p_tune.add_argument("--seed", type=int)
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

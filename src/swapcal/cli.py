"""Command-line front end.

Subcommands:
    run     --config PATH [--seed S] [--out DIR]
    sweep   --config PATH --T 4096,16384,65536 --seeds 5 [--out DIR]
    audit   --run DIR
    metrics --run DIR --r 1,2,4

Exit codes: 0 success, 1 usage or configuration error, 2 invariant or
audit failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentConfig,
    audit_run_dir,
    compute_metrics_for_run_dir,
    run,
    sweep,
)

USAGE_ERROR = 1
INVARIANT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swapcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory (default from config)")

    p_sweep = sub.add_parser("sweep", help="horizon sweep with a rate fit")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--T", required=True, help="comma-separated horizons")
    p_sweep.add_argument("--seeds", type=int, default=1, help="number of seeds per horizon")
    p_sweep.add_argument("--out", default=None)

    p_audit = sub.add_parser("audit", help="per-round hedging audit of a persisted run")
    p_audit.add_argument("--run", required=True)

    p_metrics = sub.add_parser("metrics", help="recompute metrics for a persisted run")
    p_metrics.add_argument("--run", required=True)
    p_metrics.add_argument("--r", default="2", help="comma-separated error orders")
    p_metrics.add_argument("--per-bin", action="store_true", help="also emit the per-bin table")
    return parser


def _numbers(text: str, cast, option: str) -> list:
    """The comma-separated values of a list option; one that ``cast`` rejects is a usage error."""
    try:
        return [cast(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"{option}: {text!r} is not a comma-separated list of numbers") from None


def _load_config(path: str, seed_override=None) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(path)
    if seed_override is not None:
        raw = cfg.to_dict()
        raw["seed"] = int(seed_override)
        cfg = ExperimentConfig.from_dict(raw)
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        if args.command == "run":
            cfg = _load_config(args.config, args.seed)
            out_dir = args.out or cfg.out
            if out_dir is None:
                print("run: an output directory is required (--out or config 'out')", file=sys.stderr)
                return USAGE_ERROR
            result = run(cfg, out_dir=out_dir)
            rate = len(result.transcript) / result.wall_time if result.wall_time > 0 else float("inf")
            print(f"run: T={result.metrics['T']} N={result.metrics['N']} seed={cfg.seed}")
            print(f"run: cal={result.metrics['cal']:.6g} mcal={result.metrics['mcal']:.6g} smcal={result.metrics['smcal']:.6g}")
            print(f"run: wall={result.wall_time:.3f}s throughput={rate:.0f} rounds/s out={out_dir}")
            return 0
        if args.command == "sweep":
            cfg = _load_config(args.config)
            T_values = _numbers(args.T, int, "--T")
            seeds = [cfg.seed + k for k in range(args.seeds)]
            out_dir = args.out or cfg.out
            report = sweep(cfg, T_values, seeds, out_dir=out_dir)
            print(f"sweep: {len(report.rows)} cells over T={T_values}")
            print(f"sweep: slope={report.slope:.4f} stderr={report.slope_stderr:.4f} residual={report.residual:.3g}")
            return 0
        if args.command == "audit":
            report = audit_run_dir(Path(args.run))
            verdict = "PASS" if report.passed else "FAIL"
            print(f"audit: max={report.max_value:.3g} bound={report.bound:.3g} {verdict}")
            return 0 if report.passed else INVARIANT_ERROR
        if args.command == "metrics":
            r_values = _numbers(args.r, float, "--r")
            rows = compute_metrics_for_run_dir(Path(args.run), r_values, per_bin=args.per_bin)
            for row in rows:
                print(
                    f"metrics: r={row['r']:g} cal={row['cal']:.6g} mcal={row['mcal']:.6g} "
                    f"smcal={row['smcal']:.6g} exact={bool(row['mcal_exact'])}"
                )
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

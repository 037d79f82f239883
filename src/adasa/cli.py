"""Command-line entry point: run a replicated experiment and emit CSV + metadata."""

from __future__ import annotations

import argparse
import logging
import math
import sys
import warnings

from .harness import (
    CI_LEVEL,
    PROBLEMS,
    SCHEMES,
    emit_csv,
    emit_metadata,
    parse_config_file,
    resolve_config,
    run_replications,
)
from .steplength import ConfigurationError

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adasa",
        description=(
            "Replicated stochastic-approximation experiments with harmonic (hsa), "
            "recursive (rsa), and cascading (csa) steplength schemes. Flags left "
            "unset fall back to the config file, then to per-problem baselines "
            "(utility: n=20 iters=4000 eta=0.5 eps=0.5; bimatrix: n=20 iters=4000 "
            "eta=0.01 eps=0.2; network: n=5 iters=4000, constants estimated from "
            "the instance)."
        ),
    )
    parser.add_argument("--problem", choices=PROBLEMS, help="benchmark problem")
    parser.add_argument("--scheme", choices=SCHEMES, help="steplength scheme")
    parser.add_argument("--n", type=int, help="problem dimension (users/strategies)")
    parser.add_argument("--iters", type=int, help="iteration budget N per replication")
    parser.add_argument("--eta", type=float, help="strong-convexity regularization")
    parser.add_argument("--eps", type=float, help="smoothing ball radius")
    parser.add_argument("--theta", type=float, help="csa reduction factor (default 0.5)")
    parser.add_argument("--alpha", type=float, help="hsa steplength scale (default 1)")
    parser.add_argument(
        "--gamma0",
        type=float,
        help="initial steplength; rsa/csa derive one from the constants when unset",
    )
    parser.add_argument(
        "--replications", type=int, help="independent trajectories (default 50)"
    )
    parser.add_argument("--seed", type=int, help="base seed; replication r uses seed+r")
    parser.add_argument("--out", help="output CSV path (default sa_run.csv)")
    parser.add_argument(
        "--config", help="flat key=value file mirroring these flag names"
    )
    return parser


def _merge_settings(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Config-file settings, typed by the parser itself, overlaid by the flags
    given on the command line."""
    settings: dict = {}
    if args.config:
        entries = parse_config_file(args.config)
        for key in entries:
            if key not in vars(args):  # exact flag names only, no abbreviations
                raise SystemExit(f"error: unknown config key {key!r} in {args.config}")
        from_file = parser.parse_args([f"--{k}={v}" for k, v in entries.items()])
        settings = {k: v for k, v in vars(from_file).items() if v is not None}
    settings.update({k: v for k, v in vars(args).items() if v is not None})
    settings.pop("config", None)
    return settings


def main(argv: list[str] | None = None) -> int:
    """Run the CLI with Python warnings (numpy's RuntimeWarnings among them)
    routed to the logging module's "py.warnings" logger, as every other
    diagnostic is; the caller's warning display is restored on exit."""
    shown_by = warnings.showwarning
    logging.captureWarnings(True)
    try:
        return _run(argv)
    finally:
        if warnings.showwarning is not shown_by:  # capture was off before
            logging.captureWarnings(False)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    settings = _merge_settings(parser, parser.parse_args(argv))
    problem = settings.pop("problem", None)
    scheme = settings.pop("scheme", None)
    if problem is None or scheme is None:
        print("error: --problem and --scheme are required (flag or config file)", file=sys.stderr)
        return 2
    if "eps" in settings:
        settings["epsilon"] = settings.pop("eps")
    out = settings.pop("out", "sa_run.csv")
    try:
        config = resolve_config(problem, scheme, out=out, **settings)
        result = run_replications(config)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit_csv(result.trajectories, result.bound, config.out)
    meta_path = emit_metadata(result, config.out)

    print(f"problem={config.problem} scheme={config.scheme} n={config.n} "
          f"iters={config.iters} replications={config.replications} seed={config.seed}")
    print(f"reference residual {result.reference.grad_map_norm:.3e} "
          f"(converged={result.reference.converged})")
    print(f"terminal mean squared error (arithmetic): {result.terminal_mean:.6e}")
    ci = result.terminal_ci()
    print(f"terminal geometric mean squared error: {math.exp(ci.log_center):.6e}")
    if config.replications >= 2:
        print(
            f"terminal {CI_LEVEL:.0%} CI of the geometric mean "
            "(log-domain, shown as errors): "
            f"[{math.exp(ci.lower):.6e}, {math.exp(ci.upper):.6e}]"
        )
    print(f"wrote {config.out} and {meta_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

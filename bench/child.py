"""Run one adasa workload in a fresh interpreter and write its timings as JSON.

Modes:
  sample import adasa.cli and build the problem setup; then time
         --reference-repeats reference solves, half of them before and half
         after timing run_replications against the reference in --sa-from
  run    the call sequence of adasa.cli.main: resolve_config, build_setup,
         saa_reference, run_replications(reference=, setup=), emit_csv,
         emit_metadata
  cli    adasa.cli.main itself, with the same flags (the parity reference)

The problem instance, its pilot constants and the reference solution come from
--instance-seed; replication r draws from --seed + r. With both seeds equal the
run mode makes exactly the calls that adasa.cli.main makes.

Only the standard library is imported before adasa.cli, so the import time
measured here is the one a user of the CLI pays. Untraced, each SA trajectory
is timed on its own as well (rep_s in the report).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

# relative to the working directory the parent gives each child
OUT = "run.csv"
REFERENCE_FILE = "reference.npz"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("sample", "run", "cli"))
    parser.add_argument("--problem", required=True)
    parser.add_argument("--scheme", required=True)
    parser.add_argument("--replications", type=int, required=True)
    parser.add_argument("--iters", type=int, required=True)
    parser.add_argument("--instance-seed", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--reference-repeats", type=int, default=0)
    parser.add_argument("--sa-from", help="reference saved by a run execution")
    parser.add_argument("--trace", help="write spans here and add layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        root = tracer.open(tracer.name_id("workload"))
        span = tracer.open(tracer.name_id("cli.import"))
    t0 = time.perf_counter()
    import adasa.cli

    t_import = time.perf_counter()
    if tracer:
        tracer.close(span)

    if args.mode == "cli":
        adasa.cli.main(
            [
                f"--problem={args.problem}",
                f"--scheme={args.scheme}",
                f"--replications={args.replications}",
                f"--iters={args.iters}",
                f"--seed={args.seed}",
                f"--out={OUT}",
            ]
        )
        _write(args.report, {"mode": args.mode})
        return 0

    import dataclasses

    import numpy as np
    import scipy
    from adasa import harness, problems, sa_core, smoothing

    rep_s = []
    if tracer:
        tracer.install(harness, sa_core, problems, smoothing)
    else:
        time_replications(harness, rep_s)
    t_setup0 = time.perf_counter()
    config = harness.resolve_config(
        args.problem,
        args.scheme,
        iters=args.iters,
        replications=args.replications,
        seed=args.instance_seed,
        out=OUT,
    )
    setup = harness.build_setup(config)
    t_setup = time.perf_counter()
    report = {
        "mode": args.mode,
        "import_s": t_import - t0,
        "build_setup_s": t_setup - t_setup0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    samples = []

    def sample_reference(repeats: int) -> None:
        for _ in range(repeats):
            t = time.perf_counter()
            solve_reference(setup, config)
            samples.append(time.perf_counter() - t)

    # half the solves before the SA phase and half after it, so that they
    # are spread over the interpreter's life
    sample_reference(args.reference_repeats // 2)
    if args.sa_from:
        with np.load(args.sa_from) as saved:
            reference = problems.Reference(
                point=saved["point"],
                grad_map_norm=float(saved["grad_map_norm"]),
                converged=bool(saved["converged"]),
                iterations=int(saved["iterations"]),
            )
        t = time.perf_counter()
        harness.run_replications(
            dataclasses.replace(config, seed=args.seed), reference=reference, setup=setup
        )
        report["sa_s"] = time.perf_counter() - t
    sample_reference(args.reference_repeats - args.reference_repeats // 2)
    report["reference_samples"] = samples
    if args.mode == "run":
        reference = solve_reference(setup, config)
        t_ref = time.perf_counter()
        config = dataclasses.replace(config, seed=args.seed)
        result = harness.run_replications(config, reference=reference, setup=setup)
        t_sa = time.perf_counter()
        harness.emit_csv(result.trajectories, result.bound, config.out)
        harness.emit_metadata(result, config.out)
        t_end = time.perf_counter()
        if tracer:
            tracer.close(root)
        np.savez(REFERENCE_FILE, **dataclasses.asdict(reference))
        report.update(
            reference_s=t_ref - t_setup,
            sa_s=t_sa - t_ref,
            total_s=t_end - t0,
            # what the files were written from, for the agreement check
            terminal_mean=float(result.terminal_errors.mean()),
            last_row=[
                float(result.gammas[-1]),
                float(result.mean_sq_error[-1]),
                float(result.ci_lo[-1]),
                float(result.ci_hi[-1]),
                float(result.bound[-1]),
            ],
        )
        if tracer:
            tracer.save(args.trace)
            layers, table = tracer.summarize(
                config.replications * config.iters, "workload"
            )
            report.update(layers=layers, layer_table=table)
    report["rep_s"] = rep_s
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _write(args.report, report)
    return 0


def time_replications(harness, samples: list) -> None:
    """Append each SA trajectory's seconds to samples.

    One perf_counter pair around the harness's run_sa / run_saddle_sa, which
    run_replications looks up per replication: about a microsecond against a
    trajectory of tens of milliseconds or more, so the untraced timings keep.
    """

    def timed(fn):
        def run(*args, **kwargs):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            samples.append(time.perf_counter() - t)
            return out

        return run

    for attr in ("run_sa", "run_saddle_sa"):
        setattr(harness, attr, timed(getattr(harness, attr)))


def solve_reference(setup, config):
    """The reference solve exactly as run_replications would make it."""
    import numpy as np
    from adasa import harness

    return harness.saa_reference(
        setup.problem,
        sample_size=config.saa_samples,
        seed=np.random.default_rng([config.seed, harness._TAG_REFERENCE]),
    )


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    raise SystemExit(main())

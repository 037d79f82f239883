"""adasa benchmark: replicated SA experiments measured end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root. One invocation measures one workload. Every
workload execution is a fresh interpreter (bench/child.py) that makes the call
sequence of adasa.cli.main with BLAS pinned to one thread; children run one at
a time, a closed loop with a single client. The invocation

  1. runs the workload once (wall_s, peak_rss_mb and the output checks come
     from this execution), then, until --seconds are up and at least once,
     runs sample interpreters on the same inputs: each imports adasa.cli,
     builds the setup, reruns run_replications against the reference the
     execution saved, and repeats the reference solve for about
     REFERENCE_SAMPLE_S around it when one solve is that cheap; so set-up,
     reference and SA timings are sampled across the whole run;
  2. with --trace 1, runs the workload once more with bench/tracer.py wrapping
     adasa's layers, prints the per-layer metrics and the layer-share table,
     and compares the traced run with the untraced one to give the tracing
     overhead;
  3. checks each execution's CSV and metadata;
  4. prints each metric with its unit, the environment with the sample
     counts, and as its last line one JSON object {"correct", "attempted",
     "failed", "metrics"}.

Reference and SA timings are reported as a median and as a 90th percentile
over the run's samples; the SA samples are single trajectories (timed around
harness.run_sa / run_saddle_sa). BENCHMARK.json gates the 90th percentiles:
on a shared host whose speed moves between levels up to 2x apart for seconds
to minutes at a time, a run's median moves with the share of time spent at
each level, while the 90th percentile of many short samples follows the
slower, common level. setup_s is a median. wall_s, a single execution, is
printed but not gated: it is the gated phases plus a few milliseconds of
output, and as one sample it spreads most.

The problem instance, pilot constants and reference solution are those of CLI
seed INSTANCE_SEED on every run; --seed drives the replication streams
(replication r uses seed + r). Reference-solve length and per-iteration cost
depend on the instance, by up to 3x across seeds, so a seed-dependent instance
would hide the differences the benchmark exists to show.

--smoke runs every workload at 3 replications x 300 iterations, untraced and
traced, checks that the bench writes the same CSV and metadata bytes as
adasa.cli.main with the same flags, that tracing leaves the outputs unchanged,
and that every metric is printed with its unit.

Outputs go to .bench_out/<workload>/ under the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


@dataclasses.dataclass(frozen=True)
class Workload:
    problem: str
    scheme: str
    replications: int
    iters: int


WORKLOADS = {
    # ~80% reference solve (projected gradient, ~53 ms per objective
    # evaluation); also smoothing, the CSA schedule and bound, most memory
    "utility-csa-ref": Workload("utility", "csa", 10, 4000),
    # many short replications; the SA loop is most of a run and Dykstra
    # projection most of the loop: where batching replications or a faster
    # projection shows most
    "network-rsa-wide": Workload("network", "rsa", 50, 600),
    # few long replications, per-step overhead (index draws, two simplex
    # projections, a ball draw); HSA because bimatrix RSA/CSA errors are
    # exactly 0 on this instance
    "bimatrix-hsa-long": Workload("bimatrix", "hsa", 4, 8000),
}
INSTANCE_SEED = 0
SMOKE_SIZE = (3, 300)
# a reference solve shorter than this is repeated for about this long in each
# sample interpreter; a longer one (utility) is timed in the execution only
REFERENCE_SAMPLE_S = 1.0
REFERENCE_TOL = 1e-8
TIME_LIMIT_S = 170.0  # one invocation must exit within 180 s
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CSV_HEADER = "k,gamma,mean_sq_error,ci_lo,ci_hi,theory_bound"

# name -> unit; the untraced run prints all of these, BENCHMARK.json gates
# GATED
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "reference_s": "s",
    "reference_s_p90": "s",
    "sa_us_per_iter": "us",
    "sa_us_per_iter_p90": "us",
    "peak_rss_mb": "MB",
    "terminal_mse": "sq_error",
    "failed_frac": "ratio",
}
GATED = ("setup_s", "reference_s_p90", "sa_us_per_iter_p90", "peak_rss_mb")
PER_LAYER = {
    "sa_core.run_self_us": "us",
    "sa_core.step_self_us": "us",
    "sa_core.rep_s_p50": "s",
    "sa_core.rep_s_p80": "s",
    "steplength.gamma_us": "us",
    "steplength.policy_init_ms": "ms",
    "bounds.trajectory_ms": "ms",
    "smoothing.ball_us": "us",
    "smoothing.ball_calls": "count",
    "smoothing.truncation_frac": "ratio",
    "problems.oracle_us": "us",
    "problems.oracle_calls": "count",
    "problems.project_us": "us",
    "problems.project_calls": "count",
    "problems.project_noop_frac": "ratio",
    "problems.reference_iters": "count",
    "problems.objective_evals": "count",
    "problems.objective_ms": "ms",
    "problems.reference_residual": "norm",
    "harness.pilot_oracle_calls": "count",
    "harness.build_setup_s": "s",
    "cli.import_s": "s",
    "harness.aggregate_ms": "ms",
    "harness.csv_ms": "ms",
    "harness.meta_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update({var: "1" for var in BLAS_VARS})
    return env


class Runner:
    """Spawns workload executions one at a time and keeps the tally."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0

    def spawn(self, mode, wl, seed, work: Path, trace=False, reference_repeats=0,
              sa_from=None):
        """(wall seconds, report) of one child; report is None if it failed."""
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        report = work / "report.json"
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            mode,
            f"--problem={wl.problem}",
            f"--scheme={wl.scheme}",
            f"--replications={wl.replications}",
            f"--iters={wl.iters}",
            f"--instance-seed={INSTANCE_SEED}",
            f"--seed={seed}",
            f"--report={report}",
        ]
        if trace:
            cmd.append(f"--trace={work / 'spans.npz'}")
        if reference_repeats:
            cmd.append(f"--reference-repeats={reference_repeats}")
        if sa_from:
            cmd.append(f"--sa-from={sa_from}")
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                cwd=work,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            self.failed += 1
            print(f"{mode} execution timed out", file=sys.stderr)
            return time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self.failed += 1
            print(f"{mode} execution failed:\n{proc.stderr[-4000:]}", file=sys.stderr)
            return wall, None
        with open(report, encoding="utf-8") as handle:
            return wall, json.load(handle)

    def check(self, wl, work: Path, report) -> dict:
        """Output checks of one run; a failed check fails the execution."""
        checks = check_outputs(wl, work, report)
        failed = sorted(k for k, ok in checks.items() if ok is False)
        if failed:
            self.failed += 1
            print(f"{work.name}: failed checks {failed}", file=sys.stderr)
        return checks


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_outputs(wl: Workload, work: Path, report: dict) -> dict:
    """CSV shape and values, reference certificate, metadata agreement.

    The metadata's terminal mean is the error after the final update and the
    CSV's last row the error before it, so both files are checked against the
    in-memory result they were written from. The CSV's SHA-256 is recorded
    for information only: a declared random-stream change may alter it.
    """
    csv_path = work / "run.csv"
    with open(csv_path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        rows = [[float(v) for v in line.split(",")] for line in handle]
    with open(work / "run.csv.meta.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    ref = meta["reference"]
    checks = {
        "csv_shape": header == CSV_HEADER
        and [r[0] for r in rows] == list(range(wl.iters))
        and all(len(r) == 6 for r in rows),
        "finite": all(math.isfinite(r[1]) and math.isfinite(r[2]) for r in rows),
        "ci_ordered": all(r[3] <= r[4] for r in rows),
        "reference_converged": ref["converged"] is True
        and ref["grad_map_norm"] <= REFERENCE_TOL,
        "meta_agrees": bool(rows)
        and meta["terminal_mean_sq_error"] == report["terminal_mean"]
        and all(map(_same, rows[-1][1:], report["last_row"]))
        and meta["config"]["iters"] == len(rows)
        and meta["config"]["replications"] == wl.replications,
    }
    if wl.scheme in ("rsa", "csa"):
        checks["under_bound"] = all(r[2] <= r[5] for r in rows)
    checks["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return checks


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(name: str, seed: int, seconds: float, trace: bool, runner: Runner,
            size=None) -> dict:
    wl = WORKLOADS[name]
    if size is not None:
        wl = dataclasses.replace(wl, replications=size[0], iters=size[1])
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)

    t_end = time.perf_counter() + seconds
    work = out / "run-0"
    wall, run = runner.spawn("run", wl, seed, work)
    if run is None:
        raise SystemExit(f"{name}: the workload execution failed")
    run["wall_s"] = wall
    run["checks"] = runner.check(wl, work, run)
    setup_times = [run["import_s"] + run["build_setup_s"]]
    reference_times = [run["reference_s"]]
    sa_times = [run["sa_s"]]
    rep_times = list(run["rep_s"])
    repeats = int(REFERENCE_SAMPLE_S // run["reference_s"])
    longest = wall
    for i in itertools.count():
        # after the first sample interpreter, one is started only before
        # --seconds are up and with room for it (and the traced execution)
        # before the time limit
        left = runner.deadline - time.perf_counter()
        if i and (time.perf_counter() >= t_end or left < longest * (2.4 if trace else 1.2)):
            break
        wall, rep = runner.spawn("sample", wl, seed, out / f"sample-{i}",
                                 reference_repeats=repeats, sa_from=work / "reference.npz")
        longest = max(longest, wall)
        if rep:
            setup_times.append(rep["import_s"] + rep["build_setup_s"])
            reference_times += rep["reference_samples"]
            sa_times.append(rep["sa_s"])
            rep_times += rep["rep_s"]

    metrics = {
        "wall_s": run["wall_s"],
        "setup_s": statistics.median(setup_times),
        "reference_s": statistics.median(reference_times),
        "reference_s_p90": p90(reference_times),
        "sa_us_per_iter": statistics.median(sa_times) / (wl.replications * wl.iters) * 1e6,
        "sa_us_per_iter_p90": p90(rep_times) / wl.iters * 1e6,
        "peak_rss_mb": run["peak_rss_mb"],
        "terminal_mse": run["terminal_mean"],
    }
    samples = {"setup_s": setup_times, "reference_s": reference_times,
               "sa_s": sa_times, "rep_s": rep_times}
    result = {"workload": name, "size": dataclasses.asdict(wl), "run": run,
              "samples": samples}
    if trace:
        work = out / "trace"
        _, rep = runner.spawn("run", wl, seed, work, trace=True)
        if rep is None:
            raise SystemExit(f"{name}: traced execution failed")
        rep["checks"] = runner.check(wl, work, rep)
        layers = dict(rep.pop("layers"))
        layers["trace.overhead_frac"] = rep["total_s"] / run["total_s"] - 1.0
        result.update(layers=layers, layer_table=rep.pop("layer_table"), traced=rep)
    metrics["failed_frac"] = runner.failed / runner.attempted
    result["metrics"] = metrics
    return result


def environment(seed: int, runner: Runner, result: dict) -> dict:
    return {
        **result["run"]["versions"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: runner.env[var] for var in BLAS_VARS},
        "seed": seed,
        "instance_seed": INSTANCE_SEED,
        "runs": runner.attempted,
        "samples": {k: len(v) for k, v in result["samples"].items()},
    }


def print_metrics(title: str, values: dict, units: dict) -> dict[str, str]:
    """Print `name value unit` lines; returns the printed name -> unit."""
    print(title)
    printed = {}
    for key, unit in units.items():
        if key in values:
            print(f"  {key:<28} {values[key]:<14.6g} {unit}")
            printed[key] = unit
    return printed


def print_table(rows: list[dict]) -> None:
    print("layer share (self time over the run_replications span, and over the run):")
    print(f"  {'layer':<26} {'calls':>9} {'self_s':>10} {'of_SA':>7} {'of_run':>7}")
    for row in rows:
        print(
            f"  {row['layer']:<26} {row['calls']:>9} {row['self_s']:>10.4f} "
            f"{row['share_of_sa']:>7.1%} {row['share_of_run']:>7.1%}"
        )


def report(result: dict, env: dict, runner: Runner, trace: bool) -> dict[str, str]:
    name = result["workload"]
    print(f"csv sha256 {result['run']['checks']['csv_sha256']}")
    printed = print_metrics(f"end-to-end ({name}):", result["metrics"], END_TO_END)
    if trace:
        printed |= print_metrics(f"per layer ({name}, traced):", result["layers"], PER_LAYER)
        print_table(result["layer_table"])
    print("env " + json.dumps(env, sort_keys=True))
    with open(OUT / name / "result.json", "w", encoding="utf-8") as handle:
        json.dump({"env": env, **result}, handle, indent=1)
    return printed


def result_line(result: dict, runner: Runner, trace: bool) -> str:
    source, units = (result["layers"], PER_LAYER) if trace else (result["metrics"], {
        k: END_TO_END[k] for k in GATED})
    return json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": source[k], "unit": u} for k, u in units.items()},
    })


def smoke() -> int:
    """Every workload at smoke size, untraced and traced, plus parity."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    problems = []
    for name in WORKLOADS:
        runner = Runner(time.perf_counter() + 600.0)
        result = measure(name, INSTANCE_SEED, 0, True, runner, size=SMOKE_SIZE)
        printed = report(result, environment(INSTANCE_SEED, runner, result), runner, True)
        want = END_TO_END | PER_LAYER
        missing = [k for k, u in want.items() if printed.get(k) != u]
        wl = dataclasses.replace(WORKLOADS[name], replications=SMOKE_SIZE[0], iters=SMOKE_SIZE[1])
        out = OUT / name
        runner.spawn("cli", wl, INSTANCE_SEED, out / "cli")
        for produced, label in ((out / "run-0", "parity with adasa.cli.main"),
                                (out / "trace", "tracing leaves outputs unchanged")):
            for fname in ("run.csv", "run.csv.meta.json"):
                if (produced / fname).read_bytes() != (out / "cli" / fname).read_bytes():
                    problems.append(f"{name}: {label}: {fname} differs")
        if missing:
            problems.append(f"{name}: metrics not printed with their unit: {missing}")
        if runner.failed:
            problems.append(f"{name}: {runner.failed} of {runner.attempted} executions failed")
    for key, table in (("end_to_end", {k: END_TO_END[k] for k in GATED}),
                       ("per_layer", PER_LAYER)):
        if {e["name"]: e["unit"] for e in declared[key]} != table:
            problems.append(f"BENCHMARK.json {key} does not match the bench")
    if {w["name"] for w in declared["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match the bench")
    for problem in problems:
        print("SMOKE FAIL " + problem)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="adasa benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "adasa" / "cli.py").is_file():
        print(f"error: no adasa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # a terminated bench must not leave its child running: subprocess.run
    # kills and reaps the child when an exception interrupts the wait
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(time.perf_counter() + TIME_LIMIT_S)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), runner)
    report(result, environment(args.seed, runner, result), runner, bool(args.trace))
    print(result_line(result, runner, bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

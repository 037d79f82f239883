"""Replication harness: configuration, replicated runs, CIs, CSV and metadata.

A run resolves a problem instance and its constants from the seed, computes one
shared reference solution, executes `replications` independent SA trajectories
(replication r uses seed base_seed + r), and aggregates per-iteration means,
log-domain confidence intervals, and the scheme's theoretical bound curve.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import stdtrit

from . import bounds as bounds_mod
from .problems import (
    BimatrixProblem,
    NetworkProblem,
    Reference,
    UtilityProblem,
    project_simplex,
    saa_reference,
)
from .sa_core import Trajectory, run_sa, run_saddle_sa
from .smoothing import (
    ROW_BLOCK,
    SmoothedOracle,
    row_norms,
    smoothed_subgradient,
    smoothing_lipschitz,
    truncate_rows,
)
from .steplength import (
    GAMMA_FLOOR,
    ConfigurationError,
    CsaParams,
    StepSchedule,
    csa_schedule,
    csa_steps,
    hsa_steps,
    rsa_steps,
)

PROBLEMS = ("utility", "bimatrix", "network")
SCHEMES = ("hsa", "rsa", "csa")

# independent streams for problem generation, pilot estimation, and reference
_TAG_PROBLEM, _TAG_PILOT, _TAG_REFERENCE = 101, 102, 103
_PILOT_SIZE = 10_000  # oracle samples behind each pilot estimate

LOG_FLOOR = 1e-300  # squared errors can be exactly zero (vertex solutions)

PROBLEM_DEFAULTS: dict[str, dict[str, float | int]] = {
    "utility": {"n": 20, "iters": 4000, "eta": 0.5, "epsilon": 0.5},
    "bimatrix": {"n": 20, "iters": 4000, "eta": 0.01, "epsilon": 0.2},
    "network": {"n": 5, "iters": 4000, "eta": 0.5, "epsilon": 0.5},
}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    scheme: str
    n: int
    iters: int
    eta: float
    epsilon: float
    theta: float = 0.5
    alpha: float = 1.0
    gamma0: float | None = None
    replications: int = 50
    seed: int = 0
    out: str = "sa_run.csv"
    saa_samples: int = 100_000
    pieces: int = 5

    def __post_init__(self) -> None:
        if self.problem not in PROBLEMS:
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1 (>= 2 for CIs)")
        if self.iters < 1:
            raise ConfigurationError("iteration budget must be >= 1")
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError(f"theta={self.theta} outside (0, 1)")


def resolve_config(problem: str, scheme: str, **overrides) -> ExperimentConfig:
    """Config with per-problem baseline defaults; explicit overrides win."""
    if problem not in PROBLEM_DEFAULTS:
        raise ConfigurationError(f"unknown problem {problem!r}")
    merged: dict = dict(PROBLEM_DEFAULTS[problem])
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(problem=problem, scheme=scheme, **merged)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Student-t interval on log errors, with the mean log error at its centre."""

    log_center: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")


def log_t_interval(
    errors: np.ndarray, level: float = 0.90
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise (centre, lower, upper) of the Student-t interval
    mean +/- t_{(1+level)/2, m-1} * s/sqrt(m) on log errors over the m rows.

    Zero errors are floored at LOG_FLOOR before the log; with one row the
    bounds are NaN.
    """
    logs = np.log(np.maximum(errors, LOG_FLOOR))
    reps = logs.shape[0]
    center = logs.mean(axis=0)
    if reps < 2:
        nan = np.full(center.shape, math.nan)
        return center, nan, nan
    half = (
        stdtrit(reps - 1, 0.5 * (1.0 + level))
        * logs.std(axis=0, ddof=1)
        / math.sqrt(reps)
    )
    return center, center - half, center + half


# ---------------------------------------------------------------------------
# problem setup


@dataclass
class RunSetup:
    kind: str  # "min" | "saddle"
    problem: object
    oracle: Callable
    proj: Callable | None
    x0: np.ndarray
    y0: np.ndarray | None
    constants: dict[str, float]


def _setup_utility(config: ExperimentConfig) -> RunSetup:
    problem = UtilityProblem.from_seed(
        config.n,
        config.eta,
        config.epsilon,
        pieces=config.pieces,
        seed=np.random.default_rng([config.seed, _TAG_PROBLEM]),
    )
    pilot_rng = np.random.default_rng([config.seed, _TAG_PILOT])
    subgrad_bound = problem.estimate_subgradient_bound(pilot_rng)
    smoothed = SmoothedOracle(
        inner=problem.oracle, n=config.n, epsilon=config.epsilon, subgrad_bound=subgrad_bound
    )
    oracle = lambda x, rng: smoothed_subgradient(smoothed, x, rng)
    # start at a vertex: initial squared error ~1 on the regularized problem,
    # the level the reported experiments start from
    x0 = np.zeros(config.n)
    x0[-1] = 1.0
    pilot = truncate_rows(
        problem.subgradient_samples(x0, _PILOT_SIZE, pilot_rng), subgrad_bound
    )
    nu2 = _pilot_noise_bound(pilot)
    lip = smoothing_lipschitz(config.n, subgrad_bound, config.epsilon) + config.eta
    constants = {
        "C": subgrad_bound,
        "nu2": nu2,
        "lip": lip,
        "eta": config.eta,
        "d2": 2.0,
        "e0": 2.0,
    }
    return RunSetup("min", problem, oracle, project_simplex, x0, None, constants)


def _setup_bimatrix(config: ExperimentConfig) -> RunSetup:
    problem = BimatrixProblem(n=config.n, eta=config.eta, epsilon=config.epsilon)
    oracle = problem.run_oracle()
    pilot_rng = np.random.default_rng([config.seed, _TAG_PILOT])
    x0 = np.full(config.n, 1.0 / config.n)
    pilot = problem.oracle_samples(x0, x0, _PILOT_SIZE, pilot_rng)
    constants = {
        "C": float(np.percentile(row_norms(pilot), 99.9) * 1.25),
        "nu2": _pilot_noise_bound(pilot),
        "lip": problem.lipschitz(),
        "eta": config.eta,
        "d2": problem.diameter_squared(),
        "e0": problem.diameter_squared(),
    }
    return RunSetup("saddle", problem, oracle, None, x0, x0.copy(), constants)


def _setup_network(config: ExperimentConfig) -> RunSetup:
    problem = NetworkProblem.from_seed(
        config.n, "c3", seed=np.random.default_rng([config.seed, _TAG_PROBLEM])
    )
    consts = problem.constants()
    caps = problem.user_caps()
    # sup ||grad F||: sqrt(n)*k_max for the utility part, 2*lambda_max*||x|| for
    # the congestion part with ||x|| <= ||caps||
    two_lambda_max = consts["lip"] - problem.k_range[1]
    grad_bound = math.sqrt(config.n) * problem.k_range[1] + two_lambda_max * float(
        np.linalg.norm(caps)
    )
    constants = {
        "C": grad_bound,
        "nu2": consts["nu2"],
        "lip": consts["lip"],
        "eta": consts["eta"],
        "d2": consts["d2"],
        "e0": consts["d2"],
    }
    return RunSetup(
        "min",
        problem,
        problem.oracle,
        problem.projection(),
        np.zeros(config.n),
        None,
        constants,
    )


def _pilot_noise_bound(draws: np.ndarray, inflation: float = 1.5) -> float:
    """Inflated mean squared deviation of oracle samples, one per row, from
    their mean: the pilot estimate of nu^2. Each row's squared deviation is
    summed on its own, a block of rows at a time, so the bits are those of the
    whole-array formula without an m x n temporary."""
    center = draws.mean(axis=0)
    sq_dev = np.empty(draws.shape[0])
    for lo in range(0, draws.shape[0], ROW_BLOCK):
        sq_dev[lo : lo + ROW_BLOCK] = ((draws[lo : lo + ROW_BLOCK] - center) ** 2).sum(axis=1)
    return float(sq_dev.mean() * inflation)


_SETUPS = {
    "utility": _setup_utility,
    "bimatrix": _setup_bimatrix,
    "network": _setup_network,
}


def build_setup(config: ExperimentConfig) -> RunSetup:
    return _SETUPS[config.problem](config)


# ---------------------------------------------------------------------------
# steplength policy and bound construction


def _csa_params(config: ExperimentConfig, constants: dict[str, float]) -> CsaParams:
    lip = constants["lip"]
    gamma_init = config.gamma0 if config.gamma0 is not None else 1.0 / lip
    return CsaParams(
        gamma_init=min(gamma_init, (1.0 - 1e-9) * 2.0 / lip),
        theta=config.theta,
        eta=constants["eta"],
        lip=lip,
        nu2=constants["nu2"],
        d2=constants["d2"],
    )


def make_policy(config: ExperimentConfig, constants: dict[str, float]) -> StepSchedule:
    """The scheme's steplengths for config.iters iterations, read in order."""
    if config.scheme == "hsa":
        return StepSchedule(hsa_steps(config.alpha, config.iters))
    if config.scheme == "rsa":
        eta, lip, nu2 = constants["eta"], constants["lip"], constants["nu2"]
        c = eta / 2.0
        if config.gamma0 is not None:
            gamma0 = min(config.gamma0, (1.0 - 1e-12) / c)
        else:
            # scale e0 down when eta*e0/(2 nu2) exceeds 1/L (beta-scaling keeps
            # the sequence optimal); boundary value 1/L itself is admissible
            gamma0 = min(eta * constants["e0"] / (2.0 * nu2), 1.0 / lip)
        return StepSchedule(rsa_steps(gamma0, c, config.iters))
    regimes = csa_schedule(_csa_params(config, constants), config.iters)
    return StepSchedule(csa_steps(regimes, config.iters))


def bound_trajectory(
    config: ExperimentConfig, constants: dict[str, float], gammas: np.ndarray
) -> np.ndarray:
    """Scheme's theoretical bound per iteration; HSA has no published formula."""
    if config.scheme == "rsa":
        return bounds_mod.rsa_bound_trajectory(
            gammas, constants["eta"], constants["nu2"]
        )
    if config.scheme == "csa":
        params = _csa_params(config, constants)
        regimes = csa_schedule(params, config.iters)
        return bounds_mod.csa_bound_trajectory(regimes, params, config.iters)
    return np.full(len(gammas), math.nan)


# ---------------------------------------------------------------------------
# replications


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trajectories: list[Trajectory]
    gammas: np.ndarray
    bound: np.ndarray
    mean_sq_error: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    terminal_errors: np.ndarray
    constants: dict[str, float]
    reference: Reference
    floored_zeros: bool

    @property
    def terminal_mean(self) -> float:
        return float(self.terminal_errors.mean())

    def terminal_ci(self, level: float = 0.90) -> ConfidenceInterval:
        """Log-domain interval of the terminal errors; exp(log_center) is their
        geometric mean."""
        center, lo, hi = log_t_interval(self.terminal_errors[:, None], level)
        return ConfidenceInterval(float(center[0]), float(lo[0]), float(hi[0]))


def _columns(trajectories: Sequence[Trajectory], level: float):
    """Per-iteration gamma, mean, ci_lo and ci_hi columns of equal-length
    trajectories, and whether a zero error was floored for the log CI."""
    if not trajectories:
        raise ValueError("no trajectories to aggregate")
    n_iters = trajectories[0].gammas.size
    if any(t.squared_errors.size != n_iters for t in trajectories):
        raise ValueError("trajectories have mismatched lengths")
    errors = np.stack([t.squared_errors for t in trajectories])
    _, lo, hi = log_t_interval(errors, level)
    floored = bool(np.any(errors < LOG_FLOOR))
    return trajectories[0].gammas, errors.mean(axis=0), lo, hi, floored


def run_replications(
    config: ExperimentConfig,
    reference: Reference | None = None,
    setup: RunSetup | None = None,
    ci_level: float = 0.90,
) -> ExperimentResult:
    """Execute `config.replications` independent trajectories and aggregate.

    The reference solution is computed once (or injected, e.g. to share across
    the schemes being compared) and reused by every replication. A reference
    solved here that misses its tolerance raises RuntimeError, since every
    error curve is measured against it; an injected one is used as given, with
    a warning on the `adasa` logger when it did not converge. Replication 0's
    schedule is built before the reference solve, so a configuration whose
    schedule cannot be built fails before that work.
    """
    setup = setup if setup is not None else build_setup(config)
    first_policy = make_policy(config, setup.constants)
    if reference is None:
        reference = saa_reference(
            setup.problem,
            sample_size=config.saa_samples,
            seed=np.random.default_rng([config.seed, _TAG_REFERENCE]),
        )
        if not reference.converged:
            raise RuntimeError(
                "the reference solve did not converge: it stopped at residual "
                f"{reference.grad_map_norm:.3e} after {reference.iterations} iterations"
            )
    elif not reference.converged:
        logging.getLogger("adasa").warning(
            "the injected reference did not converge (residual %.3e); every error "
            "curve is measured against it",
            reference.grad_map_norm,
        )
    trajectories: list[Trajectory] = []
    for r in range(config.replications):
        rng = np.random.default_rng(config.seed + r)
        policy = first_policy if r == 0 else make_policy(config, setup.constants)
        try:
            if setup.kind == "saddle":
                traj = run_saddle_sa(
                    setup.oracle,
                    policy,
                    setup.x0,
                    setup.y0,
                    config.iters,
                    reference.point,
                    rng,
                )
            else:
                traj = run_sa(
                    setup.oracle,
                    setup.proj,
                    policy,
                    setup.x0,
                    config.iters,
                    reference.point,
                    rng,
                )
        except Exception as exc:
            raise RuntimeError(
                f"replication {r} (seed {config.seed + r}) failed: {exc}"
            ) from exc
        trajectories.append(traj)
    gammas, mean, ci_lo, ci_hi, floored = _columns(trajectories, ci_level)
    return ExperimentResult(
        config=config,
        trajectories=trajectories,
        gammas=gammas,
        bound=bound_trajectory(config, setup.constants, gammas),
        mean_sq_error=mean,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        terminal_errors=np.array([t.terminal_squared_error for t in trajectories]),
        constants=setup.constants,
        reference=reference,
        floored_zeros=floored,
    )


# ---------------------------------------------------------------------------
# output


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_csv(
    trajectories: Sequence[Trajectory],
    bounds: Sequence[float],
    path: str,
    ci_level: float = 0.90,
) -> None:
    """Write `k,gamma,mean_sq_error,ci_lo,ci_hi,theory_bound`, one row per
    iteration; 17 significant digits so values round-trip bit-exactly."""
    gammas, mean, ci_lo, ci_hi, _ = _columns(trajectories, ci_level)
    n_iters = gammas.size
    bounds = np.asarray(bounds, dtype=float)
    if bounds.size != n_iters:
        raise ValueError(
            f"bounds length {bounds.size} does not match trajectory length {n_iters}"
        )
    lines = ["k,gamma,mean_sq_error,ci_lo,ci_hi,theory_bound"]
    for k in range(n_iters):
        lines.append(
            f"{k},{_fmt(gammas[k])},{_fmt(mean[k])},"
            f"{_fmt(ci_lo[k])},{_fmt(ci_hi[k])},{_fmt(bounds[k])}"
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def emit_metadata(result: ExperimentResult, csv_path: str) -> str:
    """Sidecar JSON next to the CSV with resolved parameters and constants."""
    meta_path = csv_path + ".meta.json"
    terminal_ci = result.terminal_ci()
    payload = {
        "config": asdict(result.config),
        "constants": result.constants,
        "reference": {
            "grad_map_norm": result.reference.grad_map_norm,
            "converged": result.reference.converged,
            "iterations": result.reference.iterations,
        },
        "terminal_mean_sq_error": result.terminal_mean,
        "terminal_geo_mean_sq_error": math.exp(terminal_ci.log_center),
        "terminal_log_ci": (
            [terminal_ci.lower, terminal_ci.upper]
            if result.config.replications >= 2
            else None
        ),
        "floored_zero_errors": result.floored_zeros,
        "clamped_steplengths": bool(np.any(result.gammas <= GAMMA_FLOOR)),
        "rng": "numpy PCG64 (default_rng); normals via ziggurat; "
        "replication r seeds base_seed + r",
    }
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return meta_path


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value file mirroring the CLI flag names; # starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out

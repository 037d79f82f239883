"""Projected stochastic gradient engine for minimization and saddle problems.

The engine is deliberately small: it threads a caller-owned RNG through a
sampled-gradient oracle, applies a steplength policy, projects, and records the
squared distance to a reference point before every update. All problem
structure lives in the oracle and the projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import problems

Projection = Callable[[np.ndarray], np.ndarray]


@dataclass
class Trajectory:
    """Steplength used and squared error before update k, for every k, plus the
    error after the final update."""

    gammas: np.ndarray
    squared_errors: np.ndarray
    terminal_squared_error: float
    final_point: np.ndarray


def sa_step(
    x: np.ndarray,
    g: np.ndarray,
    gamma: float,
    proj: Projection | None,
) -> np.ndarray:
    """One projected gradient step proj(x - gamma*g).

    A non-finite x or g makes the step non-finite, so one check on the step
    rejects both.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"steplength must be positive and finite, got {gamma}")
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    candidate = x - gamma * g
    if not np.isfinite(candidate).all():
        raise ValueError("step x - gamma*g has non-finite entries")
    return candidate if proj is None else proj(candidate)


def run_sa(
    oracle: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    proj: Projection | None,
    policy,
    x0: np.ndarray,
    n_iters: int,
    reference: np.ndarray,
    rng: np.random.Generator,
) -> Trajectory:
    """Run n_iters projected SA steps, recording the pre-update error at each k.

    Entry k holds the steplength gamma_k = policy.next_gamma() and
    ||x_k - reference||^2; the error after the final update is stored
    separately on the trajectory.
    sa_step rejects a steplength that is not positive and finite.
    """
    if n_iters < 1:
        raise ValueError(f"iteration budget must be >= 1, got {n_iters}")
    x = np.array(x0, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if x.shape != reference.shape:
        raise ValueError(
            f"reference shape {reference.shape} does not match x0 {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ValueError("x0 contains non-finite entries")
    gammas = np.empty(n_iters)
    errors = np.empty(n_iters)
    for k in range(n_iters):
        gammas[k] = gamma = policy.next_gamma()
        diff = x - reference
        errors[k] = diff @ diff
        x = sa_step(x, oracle(x, rng), gamma, proj)
    diff = x - reference
    return Trajectory(
        gammas=gammas,
        squared_errors=errors,
        terminal_squared_error=float(diff @ diff),
        final_point=x,
    )


def saddle_step(
    x: np.ndarray,
    y: np.ndarray,
    gx: np.ndarray,
    gy: np.ndarray,
    gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected descent step in x and ascent step in y, both onto simplices.

    gx must be the sampled x-gradient and gy the sampled ascent direction for y
    (the y-part of the saddle operator already sign-flipped by the caller).
    The simplex projection rejects a non-finite step.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"steplength must be positive and finite, got {gamma}")
    if gx.shape != x.shape or gy.shape != y.shape:
        raise ValueError(
            f"gradient shapes {gx.shape}/{gy.shape} do not match state "
            f"{x.shape}/{y.shape}"
        )
    return (
        problems.project_simplex(x - gamma * gx),
        problems.project_simplex(y + gamma * gy),
    )


def run_saddle_sa(
    oracle: Callable[
        [np.ndarray, np.ndarray, np.random.Generator],
        tuple[np.ndarray, np.ndarray],
    ],
    policy,
    x0: np.ndarray,
    y0: np.ndarray,
    n_iters: int,
    reference: np.ndarray,
    rng: np.random.Generator,
) -> Trajectory:
    """Saddle-point analogue of run_sa on the stacked pair z = (x, y).

    The oracle returns (gx, gy) with gy in ascent convention; errors are
    ||z_k - reference||^2 against the stacked regularized reference. x and y
    are views into z, overwritten by every step.
    """
    if n_iters < 1:
        raise ValueError(f"iteration budget must be >= 1, got {n_iters}")
    n = np.size(x0)
    z = np.concatenate([np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)])
    x, y = z[:n], z[n:]
    reference = np.asarray(reference, dtype=float)
    if reference.size != z.size:
        raise ValueError("reference must stack the x and y components")
    gammas = np.empty(n_iters)
    errors = np.empty(n_iters)
    for k in range(n_iters):
        gammas[k] = gamma = policy.next_gamma()
        diff = z - reference
        errors[k] = diff @ diff
        gx, gy = oracle(x, y, rng)
        x[...], y[...] = saddle_step(x, y, gx, gy, gamma)
    diff = z - reference
    return Trajectory(
        gammas=gammas,
        squared_errors=errors,
        terminal_squared_error=float(diff @ diff),
        final_point=z,
    )

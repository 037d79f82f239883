"""Local randomized smoothing for nonsmooth stochastic oracles.

Replacing f by the average of f over a uniform epsilon-ball makes the gradient
Lipschitz with constant kappa * (n!!/(n-1)!!) * C/epsilon, where C bounds the
subgradient norms on the enlarged set and kappa is 2/pi for even n, 1 for odd n.
The dimension factor kappa * (n!!/(n-1)!!) equals 2*c_{n-1}/c_n (c_n the unit-ball
volume), so kappa * (n!!/(n-1)!!)/sqrt(n) decreases to sqrt(2/pi) ~ 0.798.
Sampling a subgradient at a ball-perturbed point gives an unbiased estimate of
the smoothed gradient; smoothed_oracle does so on a row of a block draw.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# a sampled oracle on the row contract: oracle(x, row) reads one row of a
# block draw, never the generator
Oracle = Callable[[np.ndarray, np.ndarray], np.ndarray]

LOG_DOUBLE_FACTORIAL_CUTOFF = 150  # beyond this n!! overflows float64
# rows per block of a pass over an m x n sample, so its temporaries stay near
# 1 MB however large m is; the utility Hessian adds its sums block by block,
# and the SA engine draws a trajectory's noise this many steps at a time, so
# this value is also part of the utility reference's bits and of every
# trajectory longer than one block
ROW_BLOCK = 8192


def row_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=1), a block of rows at a time.

    Each row is reduced on its own, so the bits are those of the one-call form
    while only a block's squares, not an m x n copy, are ever live.
    """
    out = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], ROW_BLOCK):
        out[lo : lo + ROW_BLOCK] = np.linalg.norm(a[lo : lo + ROW_BLOCK], axis=1)
    return out


def sample_ball(n: int, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the n-ball of radius epsilon.

    Normalized-Gaussian radial construction: direction from a normalized
    standard normal vector, radius epsilon * U^(1/n). Exact for any n, unlike
    rejection sampling which collapses past n ~ 10.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if epsilon <= 0:
        raise ValueError(f"radius must be positive, got {epsilon}")
    direction = rng.standard_normal(n)
    # np.linalg.norm of a contiguous float vector is sqrt(x @ x), bit for bit
    norm = math.sqrt(direction @ direction)
    while norm == 0.0:  # probability zero, but keep the draw well defined
        direction = rng.standard_normal(n)
        norm = math.sqrt(direction @ direction)
    radius = epsilon * rng.random() ** (1.0 / n)
    return (radius / norm) * direction


def fill_normals(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Standard normals into the rows of out (an m x n array or column view),
    a block of rows at a time: the values and rng's end state are those of
    one rng.standard_normal((m, n)) call, without an m x n temporary."""
    for lo in range(0, out.shape[0], ROW_BLOCK):
        block = out[lo : lo + ROW_BLOCK]
        block[...] = rng.standard_normal(block.shape)
    return out


def sample_ball_batch(
    m: int,
    n: int,
    epsilon: float,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """m independent uniform ball draws, one per row: the m x n directions,
    then the m radii. Written to out (an m x n array or column view) when it
    is given, so a caller can place the draws beside others in one array."""
    directions = fill_normals(np.empty((m, n)) if out is None else out, rng)
    norms = row_norms(directions)[:, None]
    norms[norms == 0.0] = 1.0
    radii = epsilon * rng.uniform(size=(m, 1)) ** (1.0 / n)
    directions *= radii / norms
    return directions


def ball_volume_coeff(n: int) -> float:
    """Unit n-ball volume pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def log_double_factorial(n: int) -> float:
    """log(n!!) with n!! = n(n-2)(n-4)...; 0!! = (-1)!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    total = 0.0
    k = n
    while k > 1:
        total += math.log(k)
        k -= 2
    return total


def double_factorial(n: int) -> float:
    if n > LOG_DOUBLE_FACTORIAL_CUTOFF:
        raise OverflowError(
            f"{n}!! overflows float64; use log_double_factorial instead"
        )
    result = 1
    k = n
    while k > 1:
        result *= k
        k -= 2
    return float(result)


def double_factorial_ratio(n: int) -> float:
    """n!!/(n-1)!!, evaluated in log space so large n cannot overflow."""
    if n <= LOG_DOUBLE_FACTORIAL_CUTOFF:
        return double_factorial(n) / double_factorial(n - 1)
    return math.exp(log_double_factorial(n) - log_double_factorial(n - 1))


def smoothing_lipschitz(n: int, subgrad_bound: float, epsilon: float) -> float:
    """Gradient Lipschitz constant kappa * (n!!/(n-1)!!) * C/epsilon.

    kappa = 2/pi for even n and 1 for odd n; equal to 2*c_{n-1}/c_n * C/epsilon
    with c_n the unit-ball volume. Grows like sqrt(n): kappa * (n!!/(n-1)!!)/sqrt(n)
    decreases to sqrt(2/pi) ~ 0.798, since 2*c_{n-1}/c_n ~ sqrt(2n/pi). Feed the
    result, plus any regularizer modulus, to the steplength policies as L.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if subgrad_bound <= 0 or epsilon <= 0:
        raise ValueError("subgradient bound and radius must be positive")
    kappa = 2.0 / math.pi if n % 2 == 0 else 1.0
    return kappa * double_factorial_ratio(n) * subgrad_bound / epsilon


def smoothed_oracle(inner: Oracle, n: int, subgrad_bound: float | None = None) -> Oracle:
    """Ball-perturbed wrapper around a bounded-subgradient sampled oracle.

    The wrapper reads one row of a block draw: the inner oracle's own noise,
    then an n-vector z uniform on the epsilon-ball. It returns
    inner(x + z, noise), a subgradient sample of the smoothed function at x,
    unbiased for the smoothed gradient up to the truncation tail. inner must
    be valid on the epsilon-enlarged feasible set. When subgrad_bound is set,
    a sample of larger norm is rescaled onto the ball of that radius; this is
    how the unbounded-tail oracles (Gaussian noise) are truncated to honor
    the bound.
    """

    def oracle(x: np.ndarray, row: np.ndarray) -> np.ndarray:
        g = inner(x + row[-n:], row[:-n])
        if subgrad_bound is not None:
            norm = math.sqrt(g.dot(g))  # np.linalg.norm(g), bit for bit
            if norm > subgrad_bound:
                g = g * (subgrad_bound / norm)
        return g

    return oracle


def truncate_rows(g: np.ndarray, bound: float) -> np.ndarray:
    """smoothed_oracle's truncation applied to each row of g, in place:
    rows with norm above bound are rescaled onto the ball of that radius."""
    norms = row_norms(g)
    over = norms > bound
    g[over] *= (bound / norms[over])[:, None]
    return g

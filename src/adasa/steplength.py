"""Steplength schedules: harmonic, recursive, and cascading.

The recursive rule shrinks the steplength through gamma_k = gamma_{k-1} *
(1 - c*gamma_{k-1}); the cascading rule keeps it piecewise constant and drops it
by a factor theta whenever the transient error has decayed to the persistent
level. Regime lengths are computed from the problem constants (eta, L, nu2, D2),
not from observed samples, so every schedule is one array built up front and
read in order by a StepSchedule. The cascading schedule's one representation is
its regime table (csa_schedule), which also feeds the CSA bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import q_factor

GAMMA_FLOOR = 1e-300  # clamp against denormal flush-to-zero


class ConfigurationError(ValueError):
    """Raised when supplied constants violate a scheme's hypotheses."""


def rsa_next(gamma_prev: float, c: float) -> float:
    """One step of the contraction recursion gamma*(1 - c*gamma).

    Smooth strongly convex problems use c = eta/2. The iterate stays in (0, gamma_prev) whenever 0 < gamma_prev < 1/c.
    """
    if c <= 0:
        raise ValueError(f"contraction coefficient must be positive, got {c}")
    if not 0.0 < gamma_prev < 1.0 / c:
        raise ValueError(
            f"gamma={gamma_prev} outside (0, 1/c)=(0, {1.0 / c}); recursion would leave the domain"
        )
    return gamma_prev * (1.0 - c * gamma_prev)


@dataclass(frozen=True)
class CsaParams:
    """Constants driving the cascading schedule.

    gamma_init: starting steplength, in (0, 2/L).
    theta: per-regime reduction factor, in (0, 1).
    eta: strong convexity modulus; lip: gradient Lipschitz constant (eta <= lip).
    nu2: second-moment bound on the gradient noise; d2: squared diameter of X.
    """

    gamma_init: float
    theta: float
    eta: float
    lip: float
    nu2: float
    d2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma_init < 2.0 / self.lip:
            raise ConfigurationError(
                f"gamma_init={self.gamma_init} outside (0, 2/L)=(0, {2.0 / self.lip})"
            )
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError(f"theta={self.theta} outside (0, 1)")
        if self.eta <= 0 or self.eta > self.lip:
            raise ConfigurationError(
                f"need 0 < eta <= L, got eta={self.eta}, L={self.lip}"
            )
        if self.nu2 <= 0 or self.d2 <= 0:
            raise ConfigurationError("nu2 and d2 must be positive")

    def q(self, gamma: float) -> float:
        return q_factor(gamma, self.eta, self.lip)

    def persistent(self, gamma: float) -> float:
        gap = 1.0 - self.q(gamma)
        if gap == 0.0:
            # eta*gamma lost against 1 in rounding (as at the clamp floor):
            # the same quantity with the gap's factor gamma cancelled
            return gamma * self.nu2 / (self.eta * (2.0 - gamma * self.lip))
        return gamma**2 * self.nu2 / gap


def _largest_k(q: float, log_transient0: float, persistent: float) -> int:
    """Largest k >= 0 with q^k * exp(log_transient0) > persistent, or -1 if none.

    Needs q < 1. Closed-form candidate from logs, then adjusted with the same
    float predicate a brute-force scan would evaluate, so results agree with a
    scan exactly.
    """
    if q == 0.0:
        # q^k vanishes for every k >= 1, so only k = 0 can hold
        return 0 if _k_holds(q, 0, log_transient0, persistent) else -1
    log_ratio = math.log(persistent) - log_transient0
    if log_ratio >= 0.0 and not _k_holds(q, 0, log_transient0, persistent):
        return -1
    k = max(0, int(math.floor(log_ratio / math.log(q))))
    while _k_holds(q, k + 1, log_transient0, persistent):
        k += 1
    while k >= 0 and not _k_holds(q, k, log_transient0, persistent):
        k -= 1
    return k


def _k_holds(q: float, k: int, log_transient0: float, persistent: float) -> bool:
    # evaluate q^k * transient0 > persistent without underflow for huge k;
    # q^0 = 1 needs no log, so k = 0 also works at q = 0
    log_qk = k * math.log(q) if k else 0.0
    log_lhs = log_qk + log_transient0
    if log_lhs < -650.0:
        return False
    if abs(log_transient0) < 600.0 and log_qk > -600.0:
        return math.exp(log_lhs) > persistent
    return log_lhs > math.log(persistent)


@dataclass(frozen=True)
class CsaRegime:
    t: int
    gamma: float
    q: float
    length: int
    start: int  # global index of the regime's first iteration
    log_cum_product: float  # log prod_{j<t} q_j^{K_j}


def csa_schedule(params: CsaParams, n_iters: int) -> list[CsaRegime]:
    """Regime table of the cascading schedule, covering at least n_iters
    iterations.

    Phase 1 takes gamma_0 = gamma_init * theta^j for the smallest j with
    D^2 > gamma_0^2 nu2/(1 - q(gamma_0)). Regime t then runs K_t steps at
    gamma_t, where K_t = max{k in Z+ : q_t^k * 2^t * prod_{j<t} q_j^{K_j} * D^2 >
    gamma_t^2 nu2/(1 - q_t)} and gamma_{t+1} = max(theta * gamma_t, GAMMA_FLOOR).
    For t >= 1 an empty set gives K_t = 1, so no regime is skipped outright;
    a zero-length regime gets no row. The product is kept as its log, since it
    underflows long before the schedule stops being meaningful.
    """
    j, gamma = 0, params.gamma_init
    # at q = 1 (eta*gamma lost against 1 in rounding) the transient never
    # decays, so phase 1 passes over such a gamma; once gamma underflows to 0
    # no smaller one is left to try
    while not (params.q(gamma) < 1.0 and params.d2 > params.persistent(gamma)):
        j += 1
        gamma = params.gamma_init * params.theta**j
        if j > 100_000 or gamma == 0.0:
            raise ConfigurationError(
                f"phase 1 failed to find a feasible steplength (gamma_init * "
                f"theta^{j} = {gamma:.3g})"
            )
    regimes: list[CsaRegime] = []
    t, start, log_cum = 0, 0, 0.0
    while start < n_iters:
        q = params.q(gamma)
        if q >= 1.0:
            # eta*gamma is below float epsilon (as at the clamp floor): the
            # transient never decays, so the regime is final
            k = 2**62
        else:
            log_transient0 = t * math.log(2.0) + log_cum + math.log(params.d2)
            k = _largest_k(q, log_transient0, params.persistent(gamma))
            if k < 0:
                if t == 0:
                    # phase 1 guarantees k = 0 satisfies the strict inequality
                    raise AssertionError("phase 1 invariant violated")
                k = 1
        if k > 0:
            regimes.append(CsaRegime(t, gamma, q, k, start, log_cum))
            start += k
            log_cum += k * math.log(q)
        t += 1
        gamma = max(gamma * params.theta, GAMMA_FLOOR)
    return regimes


def hsa_steps(alpha: float, n: int) -> np.ndarray:
    """Harmonic schedule alpha/k; iteration 0 reuses alpha (no division by zero)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    ks = np.arange(n, dtype=float)
    ks[:1] = 1.0
    return alpha / ks


def rsa_steps(gamma0: float, c: float, n: int) -> np.ndarray:
    """Recursive schedule gamma_{k+1} = rsa_next(gamma_k, c), clamped at GAMMA_FLOOR."""
    steps = []
    gamma = gamma0
    for _ in range(n):
        steps.append(gamma)
        gamma = max(rsa_next(gamma, c), GAMMA_FLOOR)
    return np.array(steps, dtype=float)


def csa_steps(regimes: Sequence[CsaRegime], n: int) -> np.ndarray:
    """First n steplengths of a cascading regime table (see csa_schedule)."""
    steps = np.repeat(
        [r.gamma for r in regimes], [min(r.length, n) for r in regimes]
    )
    if steps.size < n:
        raise ValueError(f"regimes cover {steps.size} iterations, {n} requested")
    return steps[:n]


class StepSchedule:
    """Steplength policy reading a precomputed schedule array in order."""

    def __init__(self, gammas: np.ndarray):
        self.gammas = np.asarray(gammas, dtype=float)
        self.used = 0

    def next_gamma(self) -> float:
        gamma = float(self.gammas[self.used])
        self.used += 1
        return gamma

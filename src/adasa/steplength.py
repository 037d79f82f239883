"""Steplength schedules: harmonic, recursive, and cascading.

The recursive rule shrinks the steplength through gamma_k = gamma_{k-1} *
(1 - c*gamma_{k-1}); the cascading rule keeps it piecewise constant and drops it
by a factor theta whenever the transient error has decayed to the persistent
level. Regime lengths are computed from the problem constants (eta, L, nu2, D2),
not from observed samples, so every schedule is one array built up front and
read in order by a StepSchedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
        return gamma**2 * self.nu2 / (1.0 - self.q(gamma))


@dataclass(frozen=True)
class CsaState:
    """Active regime of the cascading schedule.

    cumulative log-product log(prod_{j<t} q_j^{K_j}) is stored instead of the
    raw product: K_j grows with t and the product underflows long before the
    schedule stops being meaningful.
    """

    t: int
    gamma_t: float
    q_t: float
    k_t: int
    log_cum_product: float = 0.0


def csa_phase1(params: CsaParams) -> tuple[int, float, int]:
    """Initialization: find the first steplength whose persistent error fits in D^2.

    Returns (ell, gamma0, K0) with gamma0 = gamma_init * theta^ell, ell the
    smallest j such that D^2 > gamma0^2 nu2 / (1 - q(gamma0)), and K0 the last k
    with q0^k D^2 still above that persistent level.
    """
    j = 0
    gamma = params.gamma_init
    while True:
        # q >= 1 can only occur if gamma_init were outside (0, 2/L); guarded in
        # CsaParams, but kept here so phase 1 never divides by a nonpositive gap
        if params.q(gamma) < 1.0 and params.d2 > params.persistent(gamma):
            break
        j += 1
        gamma = params.gamma_init * params.theta**j
        if j > 100_000:
            raise ConfigurationError("phase 1 failed to find a feasible steplength")
    q0 = params.q(gamma)
    k0 = _largest_k(q0, math.log(params.d2), params.persistent(gamma))
    if k0 < 0:
        # phase 1 guarantees k=0 satisfies the strict inequality
        raise AssertionError("phase 1 invariant violated")
    return j, gamma, k0


def _largest_k(q: float, log_transient0: float, persistent: float) -> int:
    """Largest k >= 0 with q^k * exp(log_transient0) > persistent, or -1 if none.

    Closed-form candidate from logs, then adjusted with the same float predicate
    a brute-force scan would evaluate, so results agree with a scan exactly.
    """
    if q >= 1.0:
        # only reachable when eta*gamma underflows below float epsilon; the
        # transient then never decays, so the regime is effectively final
        return 2**62 if log_transient0 > math.log(persistent) else -1
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


def csa_regime_length(state: CsaState, params: CsaParams) -> int:
    """Length K_t of regime t >= 1.

    K_t = max{k in Z+ : q_t^k * 2^t * prod_{j<t} q_j^{K_j} * D^2 >
    gamma_t^2 nu2/(1-q_t)}; k=0 is included, and an empty set yields K_t = 1 so
    no regime is skipped outright (minimum regime length of one iteration).
    """
    if state.t < 1:
        raise ValueError("regime length recursion applies from t=1; phase 1 sets K0")
    if state.q_t >= 1.0:
        # eta*gamma underflowed below float epsilon (gamma at the clamp floor):
        # the transient never decays, so the regime is effectively final
        return 2**62
    log_transient0 = (
        state.t * math.log(2.0) + state.log_cum_product + math.log(params.d2)
    )
    k = _largest_k(state.q_t, log_transient0, params.persistent(state.gamma_t))
    return k if k >= 0 else 1


def _advance_regime(state: CsaState, params: CsaParams) -> CsaState:
    gamma_next = state.gamma_t * params.theta
    clamped = max(gamma_next, GAMMA_FLOOR)
    nxt = CsaState(
        t=state.t + 1,
        gamma_t=clamped,
        q_t=params.q(clamped),
        k_t=0,
        # a regime of length 0 contributes q^0 = 1, also when q = 0
        log_cum_product=state.log_cum_product
        + (state.k_t * math.log(state.q_t) if state.k_t else 0.0),
    )
    return replace(nxt, k_t=csa_regime_length(nxt, params))


@dataclass(frozen=True)
class CsaRegime:
    t: int
    gamma: float
    q: float
    length: int
    start: int  # global index of the regime's first iteration
    log_cum_product: float  # log prod_{j<t} q_j^{K_j}


def csa_schedule(params: CsaParams, n_iters: int) -> list[CsaRegime]:
    """Expanded regime table covering at least n_iters iterations."""
    ell, gamma0, k0 = csa_phase1(params)
    state = CsaState(t=0, gamma_t=gamma0, q_t=params.q(gamma0), k_t=k0)
    regimes: list[CsaRegime] = []
    start = 0
    while start < n_iters:
        if state.k_t > 0:
            regimes.append(
                CsaRegime(
                    t=state.t,
                    gamma=state.gamma_t,
                    q=state.q_t,
                    length=state.k_t,
                    start=start,
                    log_cum_product=state.log_cum_product,
                )
            )
            start += state.k_t
        state = _advance_regime(state, params)
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

    @property
    def clamped(self) -> bool:
        """Whether a steplength handed out so far sits at GAMMA_FLOOR."""
        return bool(np.any(self.gammas[: self.used] <= GAMMA_FLOOR))

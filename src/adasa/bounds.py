"""Closed-form error quantities for the adaptive schemes.

Everything here is a pure function of the problem constants: the per-step
contraction factor q(gamma), the worst-case error recursion e_k, and the
per-iteration upper-bound trajectories plotted against empirical error curves.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # steplength imports q_factor from here
    from .steplength import CsaParams, CsaRegime

LOG_SPACE_CUTOFF = -250.0 * math.log(10.0)  # switch to exp-of-logs below 1e-250


def q_factor(gamma: float, eta: float, lip: float) -> float:
    """Contraction factor q(gamma) = 1 - eta*gamma*(2 - gamma*lip) on (0, 2/lip)."""
    if not 0.0 < gamma < 2.0 / lip:
        raise ValueError(f"gamma={gamma} outside (0, 2/L)=(0, {2.0 / lip})")
    return 1.0 - eta * gamma * (2.0 - gamma * lip)


def e_k_recursion(e_prev: float, gamma_prev: float, eta: float, nu2: float) -> float:
    """Worst-case error update e_k = (1 - eta*gamma)*e_{k-1} + gamma^2*nu2."""
    if e_prev < 0:
        raise ValueError(f"error must be nonnegative, got {e_prev}")
    if gamma_prev < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma_prev}")
    if eta * gamma_prev >= 1.0:
        raise ValueError(
            f"eta*gamma = {eta * gamma_prev} must stay below 1 for the recursion"
        )
    return (1.0 - eta * gamma_prev) * e_prev + gamma_prev**2 * nu2


def rsa_bound_trajectory(
    gammas: Sequence[float], eta: float, nu2: float
) -> np.ndarray:
    """Upper bound (2*nu2/eta)*gamma_k along a recursive-scheme steplength path."""
    return (2.0 * nu2 / eta) * np.asarray(gammas, dtype=float)


def csa_bound_trajectory(
    schedule: Sequence[CsaRegime], params: CsaParams, n_iters: int
) -> np.ndarray:
    """Per-iteration bound along a cascading schedule.

    Within regime t at global iteration k the bound is
    q_t^(k - start_t) * 2^t * prod_{j<t} q_j^{K_j} * D^2 + gamma_t^2 nu2/(1-q_t),
    so the transient doubles at every regime entry (sawtooth) while the
    persistent term drops. Values below ~1e-250 are assembled in log space;
    a regime with q_t = 0 keeps the direct powers (q^0 = 1, then 0).
    """
    out = np.empty(n_iters, dtype=float)
    log_d2 = math.log(params.d2)
    for regime in schedule:
        if regime.start >= n_iters:
            break
        stop = min(regime.start + regime.length, n_iters)
        ks = np.arange(stop - regime.start, dtype=float)
        log_t0 = regime.t * math.log(2.0) + regime.log_cum_product + log_d2
        if regime.q == 0.0 or (
            log_t0 > LOG_SPACE_CUTOFF
            and ks[-1] * math.log(regime.q) + log_t0 > LOG_SPACE_CUTOFF
        ):
            transient = regime.q**ks * math.exp(log_t0)
        else:
            transient = np.exp(ks * math.log(regime.q) + log_t0)
        out[regime.start : stop] = transient + params.persistent(regime.gamma)
    covered = schedule[-1].start + schedule[-1].length if schedule else 0
    if covered < n_iters:
        raise ValueError(
            f"schedule covers {covered} iterations but {n_iters} were requested"
        )
    return out

"""Benchmark problems, their sampled oracles, projections, and reference solutions.

Three problems: a stochastic utility model (piecewise-linear max of a Gaussian
linear form, regularized and smoothed), a regularized bilinear matrix game on a
pair of simplices, and a network rate-allocation problem with capacity
constraints. Each exposes a sampled-gradient oracle for the SA engine, exact
constants for the steplength schedules, and a deterministic sample-average
objective whose minimizer serves as the reference for error curves.
"""

from __future__ import annotations

import copy
import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .smoothing import ROW_BLOCK, sample_ball, sample_ball_batch

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# a relative change of F this small is rounding, too small for Armijo to rank
# two points (near x* the utility F meets its quadratic model to ~3e-16)
_VALUE_ROUNDING = 1e-14


# ---------------------------------------------------------------------------
# projections


@functools.cache
def _nnls():
    """scipy.optimize.nnls, imported on the first call. Only the capacity
    projection needs scipy.optimize, which costs ~0.17 s and ~23 MB to load,
    so utility and bimatrix runs never load it; NetworkProblem makes the first
    call while it is built, so no projection pays for the import."""
    from scipy.optimize import nnls

    return nnls


@functools.cache
def _ranks(n: int) -> np.ndarray:
    """1.0, ..., n as floats, read-only: float ranks are exact, so css / ranks
    equals css / (int ranks)."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} by sort and threshold."""
    v = np.asarray(v, dtype=float)
    u = v.copy()
    u.sort()
    u = u[::-1]
    # NaN sorts last and -inf first, so after the reversal any NaN or +inf is
    # at u[0] and any -inf at u[-1]
    if not (math.isfinite(u[0]) and math.isfinite(u[-1])):
        raise ValueError("cannot project a vector with non-finite entries")
    css = u.cumsum()
    css -= 1.0
    # IEEE subtraction is sign-exact, so u - q > 0 exactly when u > q
    active = (u > css / _ranks(v.size)).nonzero()[0]
    if not active.size:
        # u[0] - (u[0] - 1) rounds to 0 once u[0] >= 2^53. The projection is
        # invariant to a shift, and entries 1 or more below the maximum
        # project to 0, so the shifted and clipped copy projects the same.
        return project_simplex(np.maximum(v - u[0], -1.0))
    rho = int(active[-1]) + 1
    return np.maximum(v - float(css[rho - 1]) / rho, 0.0)


def project_capacity(
    v: np.ndarray, link_matrix: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """Euclidean projection onto {x >= 0, Ax <= C}, in three stages:

    - unchanged: a feasible v comes back as the same object;
    - clipped: x = max(v, 0) is the nearest point of the orthant, a superset
      of the feasible set, so when Ax <= C it is the projection, exactly;
    - NNLS: while a link is still over capacity, x = v + z for the shortest z
      with Gz >= h, G = [I; -A], h = [-v; Av - C]: least-distance programming,
      solved exactly by one NNLS call (Lawson & Hanson 1974, ch. 23). With w
      the NNLS solution of min ||Ew - f||, w >= 0, E = [G^T; h^T],
      f = e_{n+1}, and r = Ew - f, z = -r[:n]/r[n]; r = 0 means the
      constraints admit no point.

    A v with a NaN or infinite entry is rejected at every stage, before NNLS,
    from the reductions the stages make anyway: a NaN or -inf shows in v.min(),
    and a +inf makes every excess entry inf or NaN (0 * inf is NaN, which
    numpy warns of), so no feasible stage returns it. A finite v so large that
    Av overflows is rejected the same way.
    """
    v = np.asarray(v, dtype=float)
    a_rows = np.asarray(link_matrix, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    low = v.min()
    if low >= 0.0:
        excess = a_rows @ v - capacity
        worst = excess.max()
        if worst <= 0.0:
            return v
    elif math.isfinite(low):
        x = np.maximum(v, 0.0)
        if (a_rows @ x - capacity).max() <= 0.0:
            return x
        excess = a_rows @ v - capacity
        worst = excess.max()
    else:
        worst = low  # NaN or -inf
    if not math.isfinite(worst):
        raise ValueError("cannot project a vector with non-finite entries")
    n = v.size
    e = np.vstack([np.hstack([np.eye(n), -a_rows.T]), np.concatenate([-v, excess])])
    f = np.zeros(n + 1)
    f[n] = 1.0
    w, _ = _nnls()(e, f)
    r = e @ w - f
    # ||r||^2 = -r[n] at the NNLS optimum, so the empty set's r = 0 shows as
    # an r[n] within the rounding of h^T w - 1
    if -r[n] <= w.size * np.finfo(float).eps * (np.abs(e[n]) @ w + 1.0):
        raise ValueError("the capacity constraints admit no point")
    # clip the rounding left on the orthant so the point is exactly nonnegative
    return np.maximum(v - r[:n] / r[n], 0.0)


# ---------------------------------------------------------------------------
# shared solver machinery for reference solutions


@dataclass
class SaaMinimization:
    """Deterministic sample-average minimization: value/gradient, projection, start.

    A problem that supplies `hessian` is solved by projected Newton; one that
    does not, by accelerated projected gradient from `initial_step`.
    """

    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    proj: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    initial_step: float | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class SaaSaddle:
    """Deterministic strongly monotone saddle operator with per-block projections."""

    operator: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    proj_x: Callable[[np.ndarray], np.ndarray]
    proj_y: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    y0: np.ndarray
    step: float


@dataclass
class Reference:
    """Reference solution with the residual at which the solver stopped."""

    point: np.ndarray
    grad_map_norm: float
    converged: bool
    iterations: int


def _minimize_projected(
    saa: SaaMinimization,
    grad_map_tol: float,
    max_iter: int,
    stall_window: int = 5_000,
) -> Reference:
    """Accelerated projected gradient (FISTA) with gradient-based adaptive restart.

    Steps x_new = proj(y - step * grad f(y)) from the momentum point y and
    restarts momentum when (y - x_new) . (x_new - x) > 0 (Beck and Teboulle
    2009; O'Donoghue and Candes 2015). A line search breaks down once value
    differences reach rounding scale, long before the gradient mapping does, so
    the step is fixed; a sustained value increase halves it and restarts momentum.
    y may be infeasible, so its residual only triggers certification at x_new:
    grad_map_norm is always ||p - proj(p - grad f(p))|| at the feasible point p
    returned. On stall or budget exhaustion the best certified point is
    returned with converged=False and a logged warning.
    """
    proj, value_grad = saa.proj, saa.value_grad

    def residual(p: np.ndarray, g: np.ndarray) -> float:
        return float(np.linalg.norm(p - proj(p - g)))

    x = y = proj(np.asarray(saa.x0, dtype=float))
    t, step = 1.0, saa.initial_step
    best_x, best_res = x, math.inf
    best_trial, last_improvement = math.inf, 0
    f_prev, rising, it = math.inf, 0, 0
    while it < max_iter:
        f, g = value_grad(y)
        trial = residual(y, g)
        if y is x and trial < best_res:  # no momentum, so y is feasible
            best_x, best_res = x, trial
        if best_res <= grad_map_tol:
            return Reference(best_x, best_res, True, it)
        if trial < 0.9 * best_trial:
            best_trial, last_improvement = trial, it
        if it - last_improvement > stall_window:
            break
        rising = rising + 1 if f > f_prev + 1e-12 * max(1.0, abs(f_prev)) else 0
        f_prev = f
        restart = rising >= 5
        if restart:
            step, rising = 0.5 * step, 0
        x_new = proj(y - step * g)
        it += 1
        if trial <= grad_map_tol:
            certified = residual(x_new, value_grad(x_new)[1])
            if certified < best_res:
                best_x, best_res = x_new, certified
            if certified <= grad_map_tol:
                return Reference(x_new, certified, True, it)
        if restart or float((y - x_new) @ (x_new - x)) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x_new + beta * (x_new - x) if beta > 0.0 else x_new
        x, t = x_new, t_next
    certified = residual(x, value_grad(x)[1])
    if certified < best_res:
        best_x, best_res = x, certified
    logging.getLogger("adasa").warning(
        "accelerated projected gradient stopped at residual %.3e; "
        "returning best iterate",
        best_res,
    )
    return Reference(best_x, best_res, False, it)


def _minimize_newton(saa: SaaMinimization, grad_map_tol: float, max_iter: int) -> Reference:
    """Projected Newton with Armijo backtracking (Lee, Sun and Saunders 2014).

    Each outer step minimizes the quadratic model g.d + d.H d/2 over the
    feasible set with _minimize_projected at step 1/lambda_max(H), the model
    gradient's exact Lipschitz constant, to a tolerance that tightens with the
    residual. It then halves the step from 1 until F decreases by 1e-4 of the
    model slope (Armijo). Once F changes by no more than its rounding, F cannot
    rank two points and the certificate does: a step is then taken only if it
    lowers the residual. Every iterate is certified as in _minimize_projected,
    so grad_map_norm is ||p - proj(p - grad f(p))|| at the feasible point p
    returned. max_iter bounds the outer steps and each inner solve. When no
    step decreases F, or the outer steps run out, the best certified point is
    returned with converged=False and a logged warning.
    """
    proj, value_grad, hessian = saa.proj, saa.value_grad, saa.hessian

    def residual(p: np.ndarray, g: np.ndarray) -> float:
        return float(np.linalg.norm(p - proj(p - g)))

    x = proj(np.asarray(saa.x0, dtype=float))
    f, g = value_grad(x)
    res = residual(x, g)
    best_x, best_res = x, res
    it, stop = 0, "ran out of steps"
    while best_res > grad_map_tol and it < max_iter:
        h = hessian(x)

        def model(p: np.ndarray, x=x, g=g, h=h) -> tuple[float, np.ndarray]:
            d = p - x
            hd = h @ d
            return float(g @ d + 0.5 * (d @ hd)), g + hd

        inner = _minimize_projected(
            SaaMinimization(model, proj, x, 1.0 / float(np.linalg.eigvalsh(h)[-1])),
            max(0.1 * grad_map_tol, min(0.1, res) * res),
            max_iter,
        )
        d = inner.point - x
        slope = float(g @ d)
        t = 1.0
        while True:
            # x and x + d are feasible, so proj only removes rounding
            x_t = proj(x + t * d)
            f_t, g_t = value_grad(x_t)
            res_t = residual(x_t, g_t)
            if abs(f_t - f) <= _VALUE_ROUNDING * abs(f):
                accept = res_t < res
            else:
                accept = f_t <= f + 1e-4 * t * slope
            if accept or t < 1e-10:
                break
            t *= 0.5
        it += 1
        if not accept:
            stop = "found no step that decreases F"
            break
        x, f, g, res = x_t, f_t, g_t, res_t
        if res < best_res:
            best_x, best_res = x, res
    if best_res <= grad_map_tol:
        return Reference(best_x, best_res, True, it)
    logging.getLogger("adasa").warning(
        "projected Newton %s at residual %.3e; returning best iterate", stop, best_res
    )
    return Reference(best_x, best_res, False, it)


def _solve_saddle_extragradient(
    saa: SaaSaddle,
    grad_map_tol: float,
    max_iter: int,
    stall_window: int = 20_000,
) -> Reference:
    x = saa.proj_x(np.asarray(saa.x0, dtype=float))
    y = saa.proj_y(np.asarray(saa.y0, dtype=float))
    gamma = saa.step
    best = (x, y, math.inf)
    last_improvement = 0
    for it in range(max_iter):
        fx, fy = saa.operator(x, y)
        if it % 25 == 0:
            res = float(
                np.linalg.norm(
                    np.concatenate([x - saa.proj_x(x - fx), y - saa.proj_y(y - fy)])
                )
            )
            if res < 0.9 * best[2]:
                last_improvement = it
            if res < best[2]:
                best = (x, y, res)
            if res <= grad_map_tol:
                return Reference(np.concatenate([x, y]), res, True, it)
            if it - last_improvement > stall_window:
                break
        xm = saa.proj_x(x - gamma * fx)
        ym = saa.proj_y(y - gamma * fy)
        fxm, fym = saa.operator(xm, ym)
        x = saa.proj_x(x - gamma * fxm)
        y = saa.proj_y(y - gamma * fym)
    else:
        it = max_iter
    logging.getLogger("adasa").warning(
        "extragradient stopped at residual %.3e; returning best iterate", best[2]
    )
    return Reference(np.concatenate([best[0], best[1]]), best[2], False, it)


def saa_reference(
    problem,
    sample_size: int = 100_000,
    seed: int | np.random.Generator = 0,
    grad_map_tol: float = 1e-8,
    max_iter: int = 500_000,
) -> Reference:
    """Reference solution from the problem's deterministic objective: a sample
    average of `sample_size` draws where the expectation has no closed form.

    Minimization problems whose SAA carries a Hessian (utility) run projected
    Newton, max_iter bounding its outer steps; the others (network) run
    accelerated projected gradient with adaptive restart. Both stop once the
    unit-step gradient-mapping norm at a feasible point falls below
    grad_map_tol. Saddle problems run extragradient against the same
    natural-residual criterion. A solver that stops short returns its best
    certified iterate with converged=False and a logged warning.
    """
    if sample_size < 1_000:
        raise ValueError(f"sample_size must be >= 1000, got {sample_size}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    saa = problem.build_saa(sample_size, rng)
    if isinstance(saa, SaaSaddle):
        return _solve_saddle_extragradient(saa, grad_map_tol, max_iter)
    if saa.hessian is not None:
        return _minimize_newton(saa, grad_map_tol, max_iter)
    return _minimize_projected(saa, grad_map_tol, max_iter)


# ---------------------------------------------------------------------------
# stochastic utility problem


def _upper_envelope(
    intercepts: np.ndarray, slopes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce max-affine pieces to the upper envelope.

    Returns (intercepts, slopes, knots) with slopes strictly increasing and
    knots the abscissas where consecutive envelope pieces exchange the max.
    """
    order = np.lexsort((intercepts, slopes))
    stack: list[tuple[float, float]] = []  # (slope, intercept)
    for idx in order:
        s_new, v_new = float(slopes[idx]), float(intercepts[idx])
        if stack and stack[-1][0] == s_new:
            if stack[-1][1] >= v_new:
                continue
            stack.pop()
        while len(stack) >= 2:
            s_top, v_top = stack[-1]
            s_sub, v_sub = stack[-2]
            t_top = (v_sub - v_top) / (s_top - s_sub)
            t_new = (v_sub - v_new) / (s_new - s_sub)
            if t_new <= t_top:
                stack.pop()
            else:
                break
        stack.append((s_new, v_new))
    s_h = np.array([p[0] for p in stack])
    v_h = np.array([p[1] for p in stack])
    knots = (v_h[:-1] - v_h[1:]) / (s_h[1:] - s_h[:-1])
    return v_h, s_h, knots


def _gaussian_max_affine(
    mu: np.ndarray,
    sigma: np.ndarray,
    v_h: np.ndarray,
    s_h: np.ndarray,
    knots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E[max_i(v_i + s_i U)], dE/dmu, dE/dsigma for U ~ N(mu, sigma^2).

    Closed form piece by piece over the envelope knots; the boundary terms
    cancel because the envelope is continuous at every knot. One piece at a
    time on length-m vectors: value and sigma term sum from zero left to right,
    numpy's row-sum order below 8 pieces; d_mu, d_sigma are one gemv each. At
    zero sigma (floored at 1e-300) z**2 overflows to inf: exp(-inf) = 0 holds.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.maximum(np.atleast_1d(np.asarray(sigma, dtype=float)), 1e-300)
    m = mu.size
    r = s_h.size
    if r == 1:
        value = v_h[0] + s_h[0] * mu
        return value, np.full(m, s_h[0]), np.zeros(m)
    d_cdf, d_pdf = np.empty((m, r)), np.empty((m, r))
    value, sigma_term = np.zeros(m), np.zeros(m)
    cdf_prev = pdf_prev = 0.0
    for k in range(r):
        if k < r - 1:
            with np.errstate(over="ignore"):
                z = (knots[k] - mu) / sigma
                cdf, pdf = ndtr(z), np.exp(-0.5 * z**2) / _SQRT_2PI
        else:
            cdf, pdf = 1.0, 0.0
        d_cdf[:, k] = step_cdf = cdf - cdf_prev
        d_pdf[:, k] = step_pdf = pdf_prev - pdf
        value += (v_h[k] + s_h[k] * mu) * step_cdf
        sigma_term += step_pdf * s_h[k]
        cdf_prev, pdf_prev = cdf, pdf
    value += sigma * sigma_term
    return value, d_cdf @ s_h, d_pdf @ s_h


@dataclass
class UtilityProblem:
    """Regularized, smoothed stochastic utility model on the unit simplex.

    The sampled integrand is max_i(v_i + s_i * t) with t = sum_j (j/n + xi_j) x_j
    and standard normal xi, plus the strong-convexity term (eta/2)||x||^2.
    Smoothing perturbs the query point with a uniform epsilon-ball draw.
    """

    n: int
    intercepts: np.ndarray
    slopes: np.ndarray
    eta: float
    epsilon: float

    def __post_init__(self) -> None:
        self.intercepts = np.asarray(self.intercepts, dtype=float)
        self.slopes = np.asarray(self.slopes, dtype=float)
        if self.intercepts.shape != self.slopes.shape:
            raise ValueError("intercepts and slopes must align")
        self.coeff_base = np.arange(1, self.n + 1) / self.n
        self._envelope = _upper_envelope(self.intercepts, self.slopes)

    @classmethod
    def from_seed(
        cls,
        n: int,
        eta: float,
        epsilon: float,
        pieces: int = 5,
        seed: int | np.random.Generator = 0,
    ) -> "UtilityProblem":
        """Pieces drawn uniform on [0,1]; slopes sorted ascending and intercepts
        descending so several pieces are active on the envelope."""
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        intercepts = np.sort(rng.uniform(0.0, 1.0, pieces))[::-1].copy()
        slopes = np.sort(rng.uniform(0.0, 1.0, pieces))
        return cls(n=n, intercepts=intercepts, slopes=slopes, eta=eta, epsilon=epsilon)

    def oracle(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Subgradient sample of the regularized integrand at the queried point."""
        xi = rng.standard_normal(self.n)
        coeff = self.coeff_base + xi
        t = float(coeff @ x)
        active = int((self.intercepts + self.slopes * t).argmax())
        return self.slopes[active] * coeff + self.eta * x

    def estimate_subgradient_bound(
        self,
        rng: np.random.Generator,
        pilot_size: int = 100_000,
        percentile: float = 99.9,
        inflation: float = 1.25,
    ) -> float:
        """Percentile bound on subgradient norms over the enlarged simplex.

        The Gaussian noise makes the true supremum infinite; the smoothed oracle
        truncates at this estimate, taken at the barycenter.

        The rows, their norms and rng's end state are those of
        row_norms(subgradient_samples(center, pilot_size, rng)), but only the
        ball block is live at full size: rng skips the xi block a block of rows
        at a time, draws the ball block, and a copy of its state from before
        the skip replays xi one block at a time beside the ball rows.
        """
        center = np.full(self.n, 1.0 / self.n)
        replay = np.random.Generator(copy.deepcopy(rng.bit_generator))
        for lo in range(0, pilot_size, ROW_BLOCK):
            rng.standard_normal((min(ROW_BLOCK, pilot_size - lo), self.n))
        points = sample_ball_batch(pilot_size, self.n, self.epsilon, rng)
        norms = np.empty(pilot_size)
        for lo in range(0, pilot_size, ROW_BLOCK):
            p = points[lo : lo + ROW_BLOCK]
            rows = self._subgradient_rows(replay.standard_normal(p.shape), p, center)
            norms[lo : lo + ROW_BLOCK] = np.linalg.norm(rows, axis=1)
        return float(np.percentile(norms, percentile) * inflation)

    def subgradient_samples(
        self, x: np.ndarray, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """m samples of the inner oracle at ball-perturbed copies of x, one per
        row: the xi block, then the ball block, drawn at once and combined a
        block of rows at a time by _subgradient_rows."""
        coeff = rng.standard_normal((m, self.n))
        points = sample_ball_batch(m, self.n, self.epsilon, rng)
        for lo in range(0, m, ROW_BLOCK):
            self._subgradient_rows(
                coeff[lo : lo + ROW_BLOCK], points[lo : lo + ROW_BLOCK], x
            )
        return coeff

    def _subgradient_rows(
        self, c: np.ndarray, p: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        """The inner oracle on rows of xi draws c and ball draws p, in place:
        c comes back holding the samples at x + p, and p is overwritten.

        Each operation keeps its operands and works row by row, so the rows
        are bitwise those of the out-of-place formula the tests keep, however
        the rows are split into blocks.
        """
        p += x
        c += self.coeff_base
        t = np.einsum("ij,ij->i", c, p)
        active = np.argmax(self.intercepts + self.slopes * t[:, None], axis=1)
        c *= self.slopes[active][:, None]
        p *= self.eta
        c += p
        return c

    def build_saa(self, sample_size: int, rng: np.random.Generator) -> SaaMinimization:
        """Deterministic objective: the Gaussian expectation is exact (closed form
        for a max-affine function under a normal), the ball perturbation is a
        fixed sample average of `sample_size` draws. The Gaussian at x + z_i has
        mean (x + z_i) @ a and deviation ||x + z_i||, formed from Z @ x alone.
        The closed-form Hessian lets the reference be solved by projected
        Newton. Every reduction over the sample axis (Z^T c in the gradient,
        the Hessian's sums) goes through einsum rather than BLAS: a BLAS
        reduction changes its bits with the thread count, and with them x*.

        value_grad keeps the per-sample mean and deviation of its last point;
        hessian reuses them at that point (Newton asks for H where it has just
        evaluated F) and recomputes them, to the same bits, anywhere else."""
        z_samples = sample_ball_batch(sample_size, self.n, self.epsilon, rng)
        z_mean = z_samples.mean(axis=0)
        v_h, s_h, knots = self._envelope
        a = self.coeff_base
        eta = self.eta
        z_a = z_samples @ a
        z_sq = np.einsum("ij,ij->i", z_samples, z_samples)
        last: dict = {}  # x, mu and sigma of the last value_grad call

        def moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            mu = z_a + a @ x
            sig = np.sqrt(np.maximum(z_sq + 2.0 * (z_samples @ x) + x @ x, 0.0))
            return mu, sig

        def value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
            last.clear()  # free the old point's terms before making new ones
            mu, sig = moments(x)
            last.update(x=x.copy(), mu=mu, sig=sig)
            # per sample, a block at a time, so the per-piece columns stay
            # block-sized; each row's terms, gemv dots included, keep their bits
            psi, d_mu, d_sig = (np.empty(sample_size) for _ in range(3))
            for lo in range(0, sample_size, ROW_BLOCK):
                rows = slice(lo, lo + ROW_BLOCK)
                psi[rows], d_mu[rows], d_sig[rows] = _gaussian_max_affine(
                    mu[rows], sig[rows], v_h, s_h, knots
                )
            value = float(psi.mean() + 0.5 * eta * (sig**2).mean())
            c = d_sig / np.maximum(sig, 1e-12)
            grad = (
                a * d_mu.mean()
                + x * c.mean()
                + np.einsum("i,ij->j", c, z_samples) / sample_size
                + eta * (x + z_mean)
            )
            return value, grad

        jumps = np.diff(s_h)
        n = self.n

        def hessian(x: np.ndarray) -> np.ndarray:
            # u_i = x + z_i; w_j = jump_j phi(zeta_j), zeta_j = (t_j - mu)/sigma.
            # psi_mumu = c = psi_sigma/sigma = sum w/sigma, e = psi_musigma/sigma
            # = sum w zeta/sigma^2, d = (psi_sigmasigma - c)/sigma^2
            # = sum w (zeta^2 - 1)/sigma^3, b = mean e u, and
            # H = mean c (aa^T + I) + ab^T + ba^T + mean d uu^T + eta I.
            # sum_i d_i z_i z_i^T is summed as its upper triangle, row j of a
            # block as one einsum over the block's transposed copy zt, and
            # mirrored at the end.
            if last and np.array_equal(last["x"], x):
                mu_all, sig_all = last["mu"], last["sig"]
            else:
                mu_all, sig_all = moments(x)
            sum_c = sum_e = sum_d = 0.0
            ez, dz, dzz = np.zeros(n), np.zeros(n), np.zeros((n, n))
            for lo in range(0, sample_size, ROW_BLOCK):
                zt = np.ascontiguousarray(z_samples[lo : lo + ROW_BLOCK].T)
                hi = lo + zt.shape[1]
                mu = mu_all[lo:hi]
                sig = np.maximum(sig_all[lo:hi], 1e-12)
                w0, w1, w2 = np.zeros(hi - lo), np.zeros(hi - lo), np.zeros(hi - lo)
                for t_j, jump in zip(knots, jumps):
                    zeta = (t_j - mu) / sig
                    w = jump * np.exp(-0.5 * zeta**2) / _SQRT_2PI
                    w0 += w
                    w *= zeta
                    w1 += w
                    w *= zeta
                    w2 += w
                c = w0 / sig
                e = w1 / sig**2
                d = (w2 - w0) / sig**3
                sum_c += c.sum()
                sum_e += e.sum()
                sum_d += d.sum()
                ez += np.einsum("ki,i->k", zt, e)
                dz += np.einsum("ki,i->k", zt, d)
                for j in range(n):
                    dzz[j, j:] += np.einsum("ki,i->k", zt[j:], zt[j] * d)
            dzz += np.triu(dzz, 1).T
            mean_c = sum_c / sample_size
            b = (sum_e * x + ez) / sample_size
            xdz = np.outer(x, dz)
            h = (
                mean_c * np.outer(a, a)
                + np.outer(a, b)
                + np.outer(b, a)
                + (sum_d * np.outer(x, x) + xdz + xdz.T + dzz) / sample_size
            )
            h[np.diag_indices(n)] += mean_c + eta
            # the sums ab^T + ba^T and xdz + xdz^T round in a different order
            # on either side of the diagonal
            return 0.5 * (h + h.T)

        return SaaMinimization(
            value_grad=value_grad,
            proj=project_simplex,
            x0=np.full(self.n, 1.0 / self.n),
            hessian=hessian,
        )


# ---------------------------------------------------------------------------
# bilinear matrix game


def _index_weights(u: np.ndarray) -> np.ndarray:
    shift = min(0.0, float(u.min()))
    w = u - shift
    total = w.sum()
    if total <= 1e-300:
        return np.full(u.size, 1.0 / u.size)
    return w / total


def _draw_index(u: np.ndarray, rng: np.random.Generator) -> int:
    """Index q with probability (u_q - min(0, u)) / sum_j (u_j - min(0, u)),
    driven by a single uniform variate."""
    w = _index_weights(u)
    return min(int(np.add.accumulate(w).searchsorted(rng.random(), "right")), u.size - 1)


def _draw_indices(u: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """_draw_index on each row of u, row i driven by uniforms[i]: the same
    weights, cumulative sums and comparisons, so the same indices. On a single
    row it is about twice as slow as _draw_index, which the SA loop keeps."""
    shift = np.minimum(u.min(axis=1, keepdims=True), 0.0)
    w = u - shift
    total = w.sum(axis=1, keepdims=True)
    flat = total <= 1e-300
    w = np.where(flat, 1.0 / u.shape[1], w / np.where(flat, 1.0, total))
    below = np.cumsum(w, axis=1) <= uniforms[:, None]
    return np.minimum(np.count_nonzero(below, axis=1), u.shape[1] - 1)


@dataclass
class BimatrixProblem:
    """Regularized bilinear game min_x max_y y^T A x on a pair of simplices,
    with A_ij = (i + j - 1)/(2n - 1) (1-based), symmetric with A_nn = 1."""

    n: int
    eta: float
    epsilon: float
    matrix: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.matrix is None:
            i = np.arange(1, self.n + 1)
            self.matrix = (i[:, None] + i[None, :] - 1.0) / (2.0 * self.n - 1.0)

    def exact_gradient(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unregularized pair (A^T y, -A x)."""
        return self.matrix.T @ y, -(self.matrix @ x)

    def sampled_gradient(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row/column sample (A_{l(y), .}, -A_{., l(x)}); zero-mean noise around
        the exact pair at any feasible (x, y)."""
        l_row = _draw_index(y, rng)
        l_col = _draw_index(x, rng)
        return self.matrix[l_row, :].copy(), -self.matrix[:, l_col].copy()

    def run_oracle(
        self,
    ) -> Callable[[np.ndarray, np.ndarray, np.random.Generator], tuple[np.ndarray, np.ndarray]]:
        """Smoothed regularized saddle oracle for the engine.

        One joint uniform draw from the 2n-ball perturbs both blocks; indices are
        sampled at the perturbed pair, and the y-part is returned in ascent
        convention: (A_{l(y+z2), .} + eta*(x+z1), A_{., l(x+z1)} - eta*(y+z2)).
        """
        n, eta, eps, a = self.n, self.eta, self.epsilon, self.matrix

        def oracle(x, y, rng):
            zeta = sample_ball(2 * n, eps, rng)
            xh = x + zeta[:n]
            yh = y + zeta[n:]
            l_row = _draw_index(yh, rng)
            l_col = _draw_index(xh, rng)
            gx = a[l_row, :] + eta * xh
            gy = a[:, l_col] - eta * yh
            return gx, gy

        return oracle

    def oracle_samples(
        self, x: np.ndarray, y: np.ndarray, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """m run-oracle samples at (x, y), one row [gx, gy] each, from block
        draws: the 2n-ball rows, then a uniform pair per row (y's index, x's).

        The rows are built in place in the ball block, a block of rows at a
        time. IEEE addition commutes and a - b is a + (-b) exactly, so
        eta*xh + A_l and (-eta)*yh + A_l are run_oracle's bits."""
        n, eta, a = self.n, self.eta, self.matrix
        out = sample_ball_batch(m, 2 * n, self.epsilon, rng)
        uniforms = rng.uniform(size=(m, 2))
        for lo in range(0, m, ROW_BLOCK):
            xh, yh = out[lo : lo + ROW_BLOCK, :n], out[lo : lo + ROW_BLOCK, n:]
            xh += x
            yh += y
            l_row = _draw_indices(yh, uniforms[lo : lo + ROW_BLOCK, 0])
            l_col = _draw_indices(xh, uniforms[lo : lo + ROW_BLOCK, 1])
            xh *= eta
            xh += a[l_row]
            yh *= -eta
            yh += a.T[l_col]
        return out

    def lipschitz(self) -> float:
        """Exact Lipschitz constant ||A||_2 + eta of the regularized operator
        that build_saa forms, used in place of the generic smoothed-oracle
        bound. It is not a constant of the run oracle's mean: that oracle draws
        its indices at the perturbed point, and where that point leaves the
        orthant the draw is biased away from the operator.
        """
        return float(np.linalg.norm(self.matrix, 2)) + self.eta

    def diameter_squared(self) -> float:
        return 4.0  # sqrt(2)^2 per simplex, stacked

    def build_saa(self, sample_size: int, rng: np.random.Generator) -> SaaSaddle:
        """Deterministic regularized saddle operator (A^T y + eta x, -A x + eta y),
        the mean of the unperturbed row/column draws, so nothing is sampled.
        The run oracle draws its indices at y + z and x + z with weights
        (u - min(0, u))/sum, which are not linear in z: where the perturbed
        point leaves the orthant, its mean differs from this operator."""
        a, eta = self.matrix, self.eta

        def operator(x, y):
            return a.T @ y + eta * x, -(a @ x) + eta * y

        lip = self.lipschitz()
        return SaaSaddle(
            operator=operator,
            proj_x=project_simplex,
            proj_y=project_simplex,
            x0=np.full(self.n, 1.0 / self.n),
            y0=np.full(self.n, 1.0 / self.n),
            step=0.7 / lip,
        )


# ---------------------------------------------------------------------------
# network utility problem


def network_gradient(
    x: np.ndarray, k: np.ndarray, link_matrix: np.ndarray
) -> np.ndarray:
    """Gradient of -sum_i k_i log(1+x_i) + ||Ax||^2 at x (exact per sample)."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    if x.min() <= -1.0:
        raise ValueError("log(1+x) undefined: some component is <= -1")
    a = np.asarray(link_matrix, dtype=float)
    return -k / (1.0 + x) + 2.0 * a.T @ (a @ x)


def network_value(x: np.ndarray, k: np.ndarray, link_matrix: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.min() <= -1.0:
        raise ValueError("log(1+x) undefined: some component is <= -1")
    ax = np.asarray(link_matrix, dtype=float) @ x
    return float(-(k * np.log1p(x)).sum() + ax @ ax)


CAPACITY_C3 = np.array([0.10, 0.15, 0.20, 0.10, 0.15, 0.20, 0.20, 0.15, 0.25])


def capacity_vector(name: str) -> np.ndarray:
    """Capacity presets: c3 is the base vector, c2 = c3/0.75, c1 = 2*c3."""
    scale = {"c1": 2.0, "c2": 1.0 / 0.75, "c3": 1.0}
    if name not in scale:
        raise ValueError(f"unknown capacity preset {name!r}; use c1, c2 or c3")
    return CAPACITY_C3 * scale[name]


@dataclass
class NetworkProblem:
    """Rate allocation for n users over the links of a 0/1 adjacency matrix.

    Sampled cost -sum_i k_i(xi) log(1+x_i) + ||Ax||^2 with k_i uniform on
    k_range, subject to x >= 0 and Ax <= capacity. Already smooth, so no
    smoothing layer is attached.
    """

    n: int
    link_matrix: np.ndarray
    capacity: np.ndarray
    k_range: tuple[float, float] = (0.2, 1.0)

    def __post_init__(self) -> None:
        self.link_matrix = np.asarray(self.link_matrix, dtype=float)
        self.capacity = np.asarray(self.capacity, dtype=float)
        if self.link_matrix.shape != (self.capacity.size, self.n):
            raise ValueError("link matrix must be (links, users) matching capacity")
        bad = np.flatnonzero(~(np.isfinite(self.capacity) & (self.capacity > 0.0)))
        if bad.size:
            raise ValueError(
                f"link {bad[0]} has capacity {self.capacity[bad[0]]}; "
                "capacities must be positive and finite"
            )
        if np.any(self.link_matrix.sum(axis=1) < 1):
            raise ValueError("every link must carry at least one user")
        if np.any(self.link_matrix.sum(axis=0) < 1):
            # a user crossing no link makes the cost unbounded below
            raise ValueError("every user must cross at least one link")
        self._gram = self.link_matrix.T @ self.link_matrix
        # network_gradient's 2.0 * a.T, formed once: the same array, same bits
        self._two_a_t = 2.0 * self.link_matrix.T
        _nnls()  # scipy.optimize loads with the problem, not in a projection

    @classmethod
    def from_seed(
        cls,
        n: int,
        capacity: np.ndarray | str = "c3",
        density: float = 0.35,
        seed: int | np.random.Generator = 0,
        k_range: tuple[float, float] = (0.2, 1.0),
    ) -> "NetworkProblem":
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        cap = capacity_vector(capacity) if isinstance(capacity, str) else np.asarray(capacity)
        links = cap.size
        a = (rng.uniform(size=(links, n)) < density).astype(float)
        for l in range(links):
            if a[l].sum() < 1:
                a[l, rng.integers(n)] = 1.0
        for i in range(n):
            if a[:, i].sum() < 1:
                a[rng.integers(links), i] = 1.0
        return cls(n=n, link_matrix=a, capacity=cap, k_range=k_range)

    def sample_k(self, rng: np.random.Generator) -> np.ndarray:
        """k uniform on k_range: the bits of rng.uniform(lo, hi, n), which
        forms lo + (hi - lo) * U from the same doubles."""
        lo, hi = self.k_range
        return lo + (hi - lo) * rng.random(self.n)

    def oracle(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """network_gradient(x, sample_k(rng), A), bit for bit, for a float x."""
        k = self.sample_k(rng)
        if x.min() <= -1.0:
            raise ValueError("log(1+x) undefined: some component is <= -1")
        # -k / (1 + x), one ufunc fewer: negation is exact and IEEE + and /
        # are sign-symmetric
        return k / (-1.0 - x) + self._two_a_t @ (self.link_matrix @ x)

    def projection(self) -> Callable[[np.ndarray], np.ndarray]:
        a, cap = self.link_matrix, self.capacity
        return lambda v: project_capacity(v, a, cap)

    def user_caps(self) -> np.ndarray:
        """Per-user upper bound min over crossed links of C_l."""
        masked = np.where(self.link_matrix > 0, self.capacity[:, None], np.inf)
        return masked.min(axis=0)

    def constants(self) -> dict[str, float]:
        """eta/L/nu2/D2 for the steplength schedules.

        eta: k_min/(1+x_max)^2 plus the smallest eigenvalue of 2 A^T A when
        positive; L: k_max + 2 lambda_max(A^T A); nu2: exact bound
        n*(k_hi-k_lo)^2/12 since (1+x) >= 1 on the feasible set.
        """
        caps = self.user_caps()
        x_max = float(caps.max())
        eigs = np.linalg.eigvalsh(self._gram)
        k_lo, k_hi = self.k_range
        eta = k_lo / (1.0 + x_max) ** 2 + max(0.0, 2.0 * float(eigs[0]))
        lip = k_hi + 2.0 * float(eigs[-1])
        nu2 = self.n * (k_hi - k_lo) ** 2 / 12.0
        d2 = float((caps**2).sum())
        return {"eta": eta, "lip": lip, "nu2": nu2, "d2": d2}

    def build_saa(self, sample_size: int, rng: np.random.Generator) -> SaaMinimization:
        """The sampled cost is linear in k, so its expectation is the cost at
        E[k] = (k_lo + k_hi)/2, exactly: nothing is sampled, and sample_size
        and rng are unused."""
        k_bar = np.full(self.n, 0.5 * (self.k_range[0] + self.k_range[1]))
        a = self.link_matrix
        gram = self._gram

        def value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
            ax = a @ x
            value = float(-(k_bar * np.log1p(x)).sum() + ax @ ax)
            return value, -k_bar / (1.0 + x) + 2.0 * gram @ x

        consts = self.constants()
        return SaaMinimization(
            value_grad=value_grad,
            proj=self.projection(),
            x0=np.zeros(self.n),
            initial_step=1.0 / consts["lip"],
        )

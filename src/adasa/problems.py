"""Benchmark problems, their sampled oracles, projections, and reference solutions.

Three problems: a stochastic utility model (piecewise-linear max of a Gaussian
linear form, regularized and smoothed), a regularized bilinear matrix game on a
pair of simplices, and a network rate-allocation problem with capacity
constraints. Each exposes a sampled-gradient oracle for the SA engine, exact
constants for the steplength schedules, and a deterministic sample-average
objective whose minimizer serves as the reference for error curves.

The SA noise of each problem comes from one block sampler, draw(m, rng), whose
(m, w) array holds one step's variates per row; the run oracles read a row,
never the generator, and the pilots evaluate the same rows in blocks.
"""

from __future__ import annotations

import copy
import functools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

# sample_ball is imported only so that a tracer can patch it here; no
# problem draws one ball at a time
from .smoothing import ROW_BLOCK, fill_normals, sample_ball, sample_ball_batch  # noqa: F401

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
# a relative change of F this small is rounding, too small for Armijo to rank
# two points (near x* the utility F meets its quadratic model to ~3e-16)
_VALUE_ROUNDING = 1e-14
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# projections


def _nnls(
    e: np.ndarray,
    f: np.ndarray,
    passive: Sequence[int] = (),
    max_iter: int | None = None,
) -> tuple[np.ndarray, float]:
    """min ||Ew - f|| over w >= 0, and that norm, by Lawson & Hanson's
    active-set method (Solving Least Squares Problems, 1974, ch. 23), exact in
    finitely many steps. It replaces scipy's nnls, whose import cost a
    network run 0.34-0.50 s and ~42 MB, and which aborts the interpreter on a
    matrix with no columns; that gives w = 0 and ||f|| here.

    Each subproblem, least squares on the passive columns, is solved by
    np.linalg.lstsq on those columns of E, and the final w takes one
    refinement step from E's own residual: lstsq's SVD can leave a residual
    gradient ~10x that of a QR solve, which the least-distance point's
    division by r[n] would carry. A column that enters with a coefficient
    <= 0, which rounding alone can give, is barred until the next column
    enters. `passive` warm-starts the method: its columns (each once) are
    solved for first, and those with coefficients <= 0 leave until all that
    remain are positive. RuntimeError after max_iter subproblem solves
    (default 3 × columns, as scipy's)."""
    e = np.asarray(e, dtype=float)
    f = np.asarray(f, dtype=float)
    k = e.shape[1]
    w = np.zeros(k)
    f_norm = math.sqrt(f @ f)
    if not k:
        return w, f_norm
    max_iter = 3 * k if max_iter is None else max_iter
    solves = 0

    def solve(cols: list[int]) -> np.ndarray:
        nonlocal solves
        solves += 1
        if solves > max_iter:
            raise RuntimeError(f"NNLS did not converge in {max_iter} iterations")
        return np.linalg.lstsq(e[:, cols], f)[0]

    # the dual e_j^T (f - Ew) is rounded to ~eps |e_j| (|f| + |E| |w|_1)
    col = math.sqrt((e * e).sum(axis=0).max())
    rounding = 10.0 * max(e.shape) * _EPS * col
    kept = list(dict.fromkeys(passive))
    while kept:
        s = solve(kept)
        if s.min() > 0.0:
            w[kept] = s
            break
        kept = [j for j, sj in zip(kept, s.tolist()) if sj > 0.0]
    barred: list[int] = []
    while True:
        dual = (f - e @ w) @ e
        dual[kept + barred] = -np.inf
        j = int(dual.argmax())
        if not dual[j] > rounding * (f_norm + col * w.sum()):
            if kept:
                step = np.linalg.lstsq(e[:, kept], f - e @ w)[0]
                w[kept] = np.maximum(w[kept] + step, 0.0)
            break
        trial = solve(kept + [j])
        if trial[-1] <= 0.0:
            barred.append(j)
            continue
        kept.append(j)
        barred = []
        while min(trial.tolist(), default=1.0) <= 0.0:
            # move from w toward the trial until a coefficient reaches 0
            wp = w[kept]
            out = trial <= 0.0
            ratio = wp[out] / (wp[out] - trial[out])
            at = int(ratio.argmin())
            wp += ratio[at] * (trial - wp)
            wp[out.nonzero()[0][at]] = 0.0
            w[kept] = np.maximum(wp, 0.0)
            kept = [j for j, wj in zip(kept, wp.tolist()) if wj > 0.0]
            trial = solve(kept)
        w[kept] = trial
    r = e @ w - f
    return w, math.sqrt(r @ r)


# W. J. Cody's rational Chebyshev approximations to erf and erfc (Math. Comp.
# 23, 1969; the coefficients of his CALERF): erf(x) = x A(x^2)/B(x^2) for
# |x| <= 0.5, erfc(y) = exp(-y^2) C(y)/D(y) on (0.5, 4], and
# erfc(y) = exp(-y^2) (1/sqrt(pi) - y^-2 P(y^-2)/Q(y^-2)) / y past 4. Each
# list runs from the leading coefficient; a denominator's leading 1 is left
# out. C and P are halved, which is exact, so they give erfc(y)/2.
_ERF_A = (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3)
_ERF_B = (2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
          2.84423683343917062e3)
_ERFC_C = tuple(0.5 * c for c in (
    2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
    6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
    1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3))
_ERFC_D = (1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
           1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
           3.43936767414372164e3, 1.23033935480374942e3)
_ERFC_P = tuple(0.5 * c for c in (
    1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
    1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4))
_ERFC_Q = (2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_HALF_RSQRT_PI = 0.5 * 5.6418958354775628695e-1  # Cody's 1/sqrt(pi)


def _ratio(y: np.ndarray, num: Sequence[float], den: Sequence[float]) -> np.ndarray:
    """num(y)/den(y) by Horner, in place on a new array; den's leading 1 is
    implied."""
    p = y * num[0]
    q = y + den[0]
    for a, b in zip(num[1:-1], den[1:]):
        p += a
        p *= y
        q *= y
        q += b
    p += num[-1]
    p /= q
    return p


def _normal_cdf(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Phi(z), the standard normal CDF, given e = exp(-z^2/2), by Cody's
    erf/erfc approximations in y = |z|/sqrt(2); the caller has e for the pdf.

    The (0.5, 4] rational runs on every entry, in place, since most of the
    utility reference's entries lie there; the other two ranges are patched
    at their indices, which gather and scatter faster than a boolean mask.
    Against mpmath at 40 digits, on a grid over [-38.4, 9] and at 100k random
    points, its relative error is at most 1.6e-15 for |z| <= 5 and 5.7e-14
    (508 ulp) while Phi is a normal float (z >= -37.5); scipy's ndtr reads
    4.4e-15 and 2.4e-13 (2015 ulp). Most of it is e's: exp carries the
    rounding of z^2/2, ~z^2/2 ulp. Below, Phi is subnormal, within that
    relative error plus one unit of 2^-1074, and underflows to 0 past
    z ~ -38.5.
    Phi(+-0) = 0.5, Phi(-inf) = 0, Phi(inf) = 1 and Phi(nan) = nan, with no
    floating-point warning."""
    y = np.abs(z)
    y *= _SQRT_HALF
    with np.errstate(invalid="ignore", over="ignore"):  # |z| = inf: patched
        cdf = _ratio(y, _ERFC_C, _ERFC_D)
        tail = np.nonzero(y > 4.0)
        if tail[0].size:
            yt = y[tail]
            u = 1.0 / (yt * yt)
            cdf[tail] = (_HALF_RSQRT_PI - u * _ratio(u, _ERFC_P, _ERFC_Q)) / yt
    cdf *= e  # Phi(-|z|) = erfc(y)/2
    np.subtract(1.0, cdf, out=cdf, where=z > 0.0)
    small = np.nonzero(y <= 0.5)
    if small[0].size:
        x = z[small] * _SQRT_HALF
        cdf[small] = 0.5 + 0.5 * x * _ratio(x * x, _ERF_A, _ERF_B)
    return cdf


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


def _simplex_threshold(values: list[float], total: float) -> float | None:
    """project_simplex's sort and threshold for {x >= 0, sum x = total}, on
    Python floats (a link has a handful of users): tau with
    sum max(values - tau, 0) = total, for total > 0. None when even the largest
    value is not above its threshold in floats (total below its rounding)."""
    css, tau = -total, None
    for rho, u in enumerate(sorted(values, reverse=True), 1):
        css += u
        if u <= css / rho:
            break
        tau = css / rho
    return tau


def _capacity_projection(
    link_matrix: np.ndarray, capacity: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Euclidean projection onto {x >= 0, Ax <= C}, as a function of v, with
    what depends on A and C alone formed once. It works in four stages:

    - unchanged: a feasible v comes back as the same object;
    - clipped: x = max(v, 0) is the nearest point of the orthant, a superset
      of the feasible set, so when Ax <= C it is the projection, exactly;
    - held links: hold the link the current point overloads most, and find
      the nearest point of {x >= 0, a_k x <= C_k for each held k}. While
      every held row is 0/1 with C_k > 0, that point is the clipped point
      off the held users, 0 on each user two held links share, and on the
      other users of each held link k, v minus a threshold tau_k > 0 and
      clipped, so that they sum to C_k (sort and threshold,
      `_simplex_threshold`), when each shared user has v_i <= the sum of its
      links' thresholds: then it meets the KKT conditions, with the
      thresholds as multipliers. That set contains the feasible set, so when
      the point meets every capacity it is the projection, exactly; else the
      link it overloads most is held too. A weighted row, C_k <= 0, a
      threshold <= 0 or a shared user above its thresholds ends the stage;
    - least distance: x = v + z for the shortest z with Gz >= h,
      G = [I; -A], h = [-v; Av - C], solved exactly by one NNLS call
      (Lawson & Hanson 1974, ch. 23; `_nnls`): with w the solution of
      min ||Ew - f||, w >= 0, E = [G^T; h^T/s] (s the power of two that
      brings h to at most 1), f = e_{n+1}, r = Ew - f: z = -s r[:n]/r[n], and
      r = 0 means the constraints admit no point. Column i < n of E stands
      for x_i >= 0 and column n + l for link l; NNLS starts from the active
      constraints of the last point the stage found, or of the clipped point
      (their zero entries and the held links), and the link that ended the
      stage.

    A v with a NaN or infinite entry is rejected before any stage returns it
    and before NNLS: an infinity shows in the minimum or the maximum of v, and
    a NaN there or in every overload of the clipped point (0 * NaN is NaN).
    A finite v so large that Av overflows is rejected the same way.
    """
    a_rows = np.asarray(link_matrix, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    n = a_rows.shape[1]
    # the users of each link whose own set is a capped simplex, None for the
    # others (r * r == r holds for the floats 0 and 1 alone)
    simplex = (a_rows * a_rows == a_rows).all(axis=1) & (capacity > 0.0)
    users = [
        row.nonzero()[0].tolist() if ok else None
        for row, ok in zip(a_rows, simplex.tolist())
    ]
    caps = capacity.tolist()
    g_t = np.concatenate([np.eye(n), -a_rows.T], axis=1)
    f = np.zeros(n + 1)
    f[n] = 1.0

    def held_point(entries: list[float], clipped: np.ndarray, held: list[int]):
        """The nearest point of {x >= 0, a_k x <= C_k for k in held}, with
        entries = v as floats, or None where the stage ends."""
        crossing = [0] * n  # the held links of each user
        for k in held:
            for i in users[k]:
                crossing[i] += 1
        point = clipped.tolist()
        reach = [0.0] * n  # the sum of the thresholds over a user's links
        for k in held:
            private = [i for i in users[k] if crossing[i] == 1]
            tau = _simplex_threshold([entries[i] for i in private], caps[k])
            if tau is None or tau <= 0.0:
                return None
            for i in private:
                point[i] = max(entries[i] - tau, 0.0)
            for i in users[k]:
                reach[i] += tau
        for i, count in enumerate(crossing):
            if count > 1:
                if entries[i] > reach[i]:
                    return None
                point[i] = 0.0
        return np.array(point)

    def project(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        # min and max of a few Python floats cost a third of the ndarray
        # methods; they may skip a NaN, which every overload then carries
        entries = v.tolist()
        low = min(entries)
        if not (math.isfinite(low) and math.isfinite(max(entries))):
            raise ValueError("cannot project a vector with non-finite entries")
        clipped = v if low >= 0.0 else np.maximum(v, 0.0)
        over = (a_rows @ clipped - capacity).tolist()
        worst = max(over)
        if worst <= 0.0:
            return clipped
        if not math.isfinite(worst):
            raise ValueError("cannot project a vector with non-finite entries")
        held: list[int] = []
        point = clipped
        while True:
            l = over.index(worst)
            if users[l] is None:
                break
            held.append(l)
            x = held_point(entries, clipped, held)
            if x is None:
                break
            point = x
            over = (a_rows @ x - capacity).tolist()
            for k in held:
                over[k] = 0.0  # met up to the rounding of its threshold
            worst = max(over)
            if worst <= 0.0:
                return x
        zeros = (point == 0.0).nonzero()[0].tolist()
        h = np.concatenate([-v, a_rows @ v - capacity])
        size = np.abs(h)
        top = size.max()
        if not math.isfinite(top):
            raise ValueError("cannot project a vector with non-finite entries")
        # h over a power of two, exactly: unscaled, max(Ax - C) grows like |v|^3
        scale = 2.0 ** max(0, math.frexp(top)[1])
        e = np.concatenate([g_t, h[None] / scale])
        w, _ = _nnls(e, f, zeros + [n + k for k in held] + [n + l])
        r = e @ w - f
        # ||r||^2 = -r[n] at the NNLS optimum, so the empty set's r = 0 shows
        # as an r[n] within the rounding of h^T w / s - 1
        if -r[n] <= w.size * _EPS * (size @ w / scale + 1.0):
            raise ValueError("the capacity constraints admit no point")
        # clip the rounding left on the orthant so the point is exactly
        # nonnegative
        return np.maximum(v - scale * r[:n] / r[n], 0.0)

    return project


def project_capacity(
    v: np.ndarray, link_matrix: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """The Euclidean projection of v onto {x >= 0, Ax <= C}, by the stages of
    `_capacity_projection` (which a problem forms once for all its v)."""
    return _capacity_projection(link_matrix, capacity)(v)


# ---------------------------------------------------------------------------
# shared solver machinery for reference solutions


@dataclass
class SaaMinimization:
    """Deterministic sample-average minimization, solved by projected Newton:
    value/gradient, model Hessian, projection and start. The model Hessian
    need only be positive definite: the utility SAA's is a sample block's,
    the others' the objective's own. `lift`, when set, maps the minimizer to
    the reference point the SA engine runs against (the bimatrix game's x* to
    its stacked saddle point).
    """

    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    hessian: Callable[[np.ndarray], np.ndarray]
    proj: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    lift: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class Reference:
    """Reference solution with the residual at which the solver stopped."""

    point: np.ndarray
    grad_map_norm: float
    converged: bool
    iterations: int


def _minimize_projected(
    grad: Callable[[np.ndarray], np.ndarray],
    proj: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    step: float,
    grad_map_tol: float,
    max_iter: int,
    stall_window: int = 5_000,
) -> Reference:
    """Newton's inner solver: accelerated projected gradient (FISTA) with
    gradient-based adaptive restart on the quadratic model whose gradient is
    `grad`, from proj(x0).

    Steps x_new = proj(y - step * grad(y)) from the momentum point y and
    restarts momentum when (y - x_new) . (x_new - x) > 0 (Beck and Teboulle
    2009; O'Donoghue and Candes 2015). The step is fixed: Newton passes
    1/lambda_max(H), the model gradient's exact Lipschitz constant, at which
    FISTA converges without a line search. Each iteration projects once: at
    a feasible y, max(1, 1/step) ||y - x_new|| bounds ||y - proj(y - grad(y))||
    (the gradient mapping is monotone in the step; Beck 2017, section 10.3).
    The bound drives the stall test; once it meets the tolerance, an exact
    residual certifies y if y is x (no momentum, so feasible), else x_new:
    grad_map_norm is always ||p - proj(p - grad(p))|| at the feasible point p
    returned. On stall or budget exhaustion the best certified point is
    returned with converged=False and a logged warning.
    """

    def residual(p: np.ndarray, g: np.ndarray) -> float:
        return float(np.linalg.norm(p - proj(p - g)))

    x = y = proj(x0)
    t = 1.0
    best_x, best_res = x, math.inf
    best_bound, last_improvement = math.inf, 0
    it = 0
    while it < max_iter:
        g = grad(y)
        x_new = proj(y - step * g)
        it += 1
        gap = y - x_new
        bound = max(1.0, 1.0 / step) * math.sqrt(gap @ gap)
        if bound <= grad_map_tol:
            p, g_p = (y, g) if y is x else (x_new, grad(x_new))
            certified = residual(p, g_p)
            if certified < best_res:
                best_x, best_res = p, certified
            if certified <= grad_map_tol:
                return Reference(p, certified, True, it)
        if bound < 0.9 * best_bound:
            best_bound, last_improvement = bound, it
        if it - last_improvement > stall_window:
            break
        dx = x_new - x
        if float(gap @ dx) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x_new + beta * dx if beta > 0.0 else x_new
        x, t = x_new, t_next
    certified = residual(x, grad(x))
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
    feasible set, H = saa.hessian(x) any positive definite model (the exact
    Hessian or a subsample's: F and its gradient decide the step and the
    certificate), with _minimize_projected, given the model gradient
    g + H(p - x) and the step 1/lambda_max(H), to a tolerance that tightens
    with the residual, projecting once per inner iteration and once per
    certification. It then halves the step from 1 until F decreases by
    1e-4 of the model slope (Armijo). Once F changes by no more than its
    rounding, F cannot rank two points and the certificate does: a step is
    then taken only if it lowers the residual. Every iterate is certified, so
    grad_map_norm is ||p - proj(p - grad f(p))|| at the feasible point p
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

        def model_grad(p: np.ndarray, x=x, g=g, h=h) -> np.ndarray:
            return g + h @ (p - x)

        step = 1.0 / float(np.linalg.eigvalsh(h)[-1])
        tol = max(0.1 * grad_map_tol, min(0.1, res) * res)
        inner = _minimize_projected(model_grad, proj, x, step, tol, max_iter)
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


def saa_reference(
    problem,
    sample_size: int = 100_000,
    seed: int | np.random.Generator = 0,
    grad_map_tol: float = 1e-8,
    max_iter: int = 500_000,
) -> Reference:
    """Reference solution from the problem's deterministic objective: a sample
    average of `sample_size` draws where the expectation has no closed form.

    Every problem's SAA carries a Hessian and is solved by projected Newton,
    max_iter bounding its outer steps and each inner solve. It stops once the
    unit-step gradient-mapping norm at a feasible point falls below
    grad_map_tol, and the SAA's lift, if any, then maps the point to the
    reference. A solve that stops short returns its best certified iterate
    with converged=False and a logged warning.
    """
    if sample_size < 1_000:
        raise ValueError(f"sample_size must be >= 1000, got {sample_size}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    saa = problem.build_saa(sample_size, rng)
    ref = _minimize_newton(saa, grad_map_tol, max_iter)
    if saa.lift is not None:
        ref = replace(ref, point=saa.lift(ref.point))
    return ref


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
    numpy's row-sum order below 8 pieces; d_mu, d_sigma are one gemv each.
    Each knot's exp(-z^2/2) is computed once and serves both the pdf and
    _normal_cdf's erfc. At zero sigma (floored at 1e-300) z is +-inf off the
    knot and z**2 overflows to inf: exp(-inf) = 0 holds, and the CDF is 0 or 1.
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
                e = np.exp(-0.5 * z**2)
            cdf, pdf = _normal_cdf(z, e), e / _SQRT_2PI
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

    def oracle(self, point: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Subgradient sample of the regularized integrand at point for the
        noise draw xi: the smoothed_oracle inner on a row of draw. It makes
        _subgradient_rows' operations on one row, so its output is bitwise
        that row's: its dot product is the one vecdot takes per row."""
        coeff = self.coeff_base + xi
        t = coeff.dot(point)
        active = (self.intercepts + self.slopes * t).argmax()
        g = self.slopes[active] * coeff
        g += self.eta * point
        return g

    def draw(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m rows [xi, z]: the m x n block of standard normals xi, then
        sample_ball_batch's m ball draws z, each block written in place."""
        rows = np.empty((m, 2 * self.n))
        fill_normals(rows[:, : self.n], rng)
        sample_ball_batch(m, self.n, self.epsilon, rng, out=rows[:, self.n :])
        return rows

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
        row of draw(m, rng), combined in place a block of rows at a time by
        _subgradient_rows: a view of the rows' first n columns."""
        rows = self.draw(m, rng)
        coeff, points = rows[:, : self.n], rows[:, self.n :]
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
        the rows are split into blocks, and row k is the oracle's output on
        row k of the draws. vecdot takes one BLAS dot per row, the oracle's
        coeff.dot(point); t only picks the active piece, so no output bit
        depends on how it is summed unless it ties a knot to the last bit.
        """
        p += x
        c += self.coeff_base
        t = np.vecdot(c, p)
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
        Every reduction over the sample axis (Z^T c in the gradient, the
        Hessian's sums) goes through einsum rather than BLAS: a BLAS reduction
        changes its bits with the thread count, and with them x*.

        hessian is the closed-form Hessian of the same average over the first
        ROW_BLOCK samples alone (all of them when there are no more), a
        subsampled model (Byrd, Chin, Neveitt and Nocedal 2011): Newton's step
        only needs a positive definite model, which eta I guarantees, while F,
        its gradient, the line search and the certificate read every sample."""
        z_samples = sample_ball_batch(sample_size, self.n, self.epsilon, rng)
        z_mean = z_samples.mean(axis=0)
        v_h, s_h, knots = self._envelope
        a = self.coeff_base
        eta = self.eta
        z_a = z_samples @ a
        z_sq = np.einsum("ij,ij->i", z_samples, z_samples)

        def moments(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
            """The mean and deviation of the first m samples' Gaussians at x."""
            mu = z_a[:m] + a @ x
            sig = np.sqrt(np.maximum(z_sq[:m] + 2.0 * (z_samples[:m] @ x) + x @ x, 0.0))
            return mu, sig

        def value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
            mu, sig = moments(x, sample_size)
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
        m = min(ROW_BLOCK, sample_size)

        def hessian(x: np.ndarray) -> np.ndarray:
            # u_i = x + z_i; w_j = jump_j phi(zeta_j), zeta_j = (t_j - mu)/sigma.
            # psi_mumu = c = psi_sigma/sigma = sum w/sigma, e = psi_musigma/sigma
            # = sum w zeta/sigma^2, d = (psi_sigmasigma - c)/sigma^2
            # = sum w (zeta^2 - 1)/sigma^3, b = mean e u, and
            # H = mean c (aa^T + I) + ab^T + ba^T + mean d uu^T + eta I, with
            # means over the first m samples. sum_i d_i z_i z_i^T is summed as
            # its upper triangle, row j as one einsum over the block's
            # transposed copy zt, and mirrored.
            zt = np.ascontiguousarray(z_samples[:m].T)
            mu, sig = moments(x, m)
            sig = np.maximum(sig, 1e-12)
            w0, w1, w2 = np.zeros(m), np.zeros(m), np.zeros(m)
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
            dzz = np.zeros((n, n))
            for j in range(n):
                dzz[j, j:] = np.einsum("ki,i->k", zt[j:], zt[j] * d)
            dzz += np.triu(dzz, 1).T
            mean_c = c.sum() / m
            b = (e.sum() * x + np.einsum("ki,i->k", zt, e)) / m
            xdz = np.outer(x, np.einsum("ki,i->k", zt, d))
            h = (
                mean_c * np.outer(a, a)
                + np.outer(a, b)
                + np.outer(b, a)
                + (d.sum() * np.outer(x, x) + xdz + xdz.T + dzz) / m
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


def _draw_index(w: np.ndarray, u: float | np.ndarray) -> np.intp | np.ndarray:
    """Index q with probability w_q / sum(w), for nonnegative weights w, from
    u uniform on [0, 1): the number of cumulative weights at or below u,
    capped at n - 1 by leaving out the last (rounding can leave it below 1).
    u is a float, or an array of uniforms for an array of indices."""
    return np.add.accumulate(w / w.sum())[:-1].searchsorted(u, "right")


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
        l_row = _draw_index(y, rng.random())
        l_col = _draw_index(x, rng.random())
        return self.matrix[l_row, :].copy(), -self.matrix[:, l_col].copy()

    def draw(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m rows [z, u]: sample_ball_batch's m draws z from the 2n-ball, then
        a uniform pair u per row (y's index, then x's), each block written in
        place."""
        n2 = 2 * self.n
        rows = np.empty((m, n2 + 2))
        sample_ball_batch(m, n2, self.epsilon, rng, out=rows[:, :n2])
        rows[:, n2:] = rng.uniform(size=(m, 2))
        return rows

    def run_oracle(
        self,
    ) -> Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Smoothed regularized saddle oracle for the engine, on a row of draw.

        The indices are drawn at the feasible pair, as in sampled_gradient, so
        the row and column are unbiased for A^T y and A x. One joint uniform
        draw z from the 2n-ball perturbs the regularization terms, and the
        y-part is returned in ascent convention:
        (A_{l(y), .} + eta*(x+z1), A_{., l(x)} - eta*(y+z2)). Its mean is the
        operator (A^T y + eta x, A x - eta y), which smoothing leaves as it is
        because it is affine.
        """
        n, eta, a = self.n, self.eta, self.matrix
        n2 = 2 * n

        def oracle(x, y, row):
            gx = a[_draw_index(y, row[n2]), :] + eta * (x + row[:n])
            gy = a[:, _draw_index(x, row[n2 + 1])] - eta * (y + row[n:n2])
            return gx, gy

        return oracle

    def oracle_samples(
        self, x: np.ndarray, y: np.ndarray, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """m run-oracle samples at (x, y), one row [gx, gy] each, from the rows
        of draw(m, rng): a view of their first 2n columns.

        The samples are built in place in the ball columns, a block of rows at
        a time. IEEE addition commutes and a - b is a + (-b) exactly, so
        eta*(x+z1) + A_l and (-eta)*(y+z2) + A_l are run_oracle's bits."""
        n, eta, a = self.n, self.eta, self.matrix
        rows = self.draw(m, rng)
        l_row = _draw_index(y, rows[:, 2 * n])
        l_col = _draw_index(x, rows[:, 2 * n + 1])
        for lo in range(0, m, ROW_BLOCK):
            block = rows[lo : lo + ROW_BLOCK]
            xh, yh = block[:, :n], block[:, n : 2 * n]
            xh += x
            yh += y
            xh *= eta
            xh += a[l_row[lo : lo + ROW_BLOCK]]
            yh *= -eta
            yh += a.T[l_col[lo : lo + ROW_BLOCK]]
        return rows[:, : 2 * n]

    def lipschitz(self) -> float:
        """Exact Lipschitz constant ||A||_2 + eta of the regularized saddle
        operator (A^T y + eta x, -A x + eta y), the run oracle's mean, used
        in place of the generic smoothed-oracle bound.
        """
        return float(np.linalg.norm(self.matrix, 2)) + self.eta

    def diameter_squared(self) -> float:
        return 4.0  # sqrt(2)^2 per simplex, stacked

    def build_saa(self, sample_size: int, rng: np.random.Generator) -> SaaMinimization:
        """The game's saddle point as a minimization in x; the operator is
        exact, so nothing is sampled. For a fixed x the inner max over the
        simplex is attained at y(x) = P(Ax/eta), so x* minimizes
        phi(x) = y(x)^T A x + (eta/2)(||x||^2 - ||y(x)||^2), eta-strongly convex
        (Nesterov 2005): gradient A^T y(x) + eta x (Danskin), generalized
        Hessian C^T C/eta + eta I with C the rows of A on the support of y(x),
        centred. lift stacks (x*, y(x*)); there the y-part of the saddle's
        natural residual is zero, so phi's residual certifies the pair."""
        a, eta = self.matrix, self.eta

        def best_response(x: np.ndarray) -> np.ndarray:
            return project_simplex(a @ x / eta)

        def value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
            ax = a @ x
            y = project_simplex(ax / eta)
            return float(y @ ax + 0.5 * eta * (x @ x - y @ y)), a.T @ y + eta * x

        def hessian(x: np.ndarray) -> np.ndarray:
            rows = a[best_response(x) > 0.0]
            c = rows - rows.mean(axis=0)
            return c.T @ c / eta + eta * np.eye(self.n)

        return SaaMinimization(
            value_grad=value_grad,
            proj=project_simplex,
            x0=np.full(self.n, 1.0 / self.n),
            hessian=hessian,
            lift=lambda x: np.concatenate([x, best_response(x)]),
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
        self._project = _capacity_projection(self.link_matrix, self.capacity)

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

    def draw(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m rows k, each uniform on k_range: the bits of
        rng.uniform(lo, hi, (m, n)), which forms lo + (hi - lo) * U from the
        same doubles. The doubles of rng.random((m, n)) are those of m
        rng.random(n) calls in turn, so row i is the i-th of m sample_k
        calls."""
        lo, hi = self.k_range
        return lo + (hi - lo) * rng.random((m, self.n))

    def sample_k(self, rng: np.random.Generator) -> np.ndarray:
        """One k: draw's single row."""
        return self.draw(1, rng)[0]

    def oracle(self, x: np.ndarray, k: np.ndarray) -> np.ndarray:
        """network_gradient(x, k, A), bit for bit, for a float x; k is a row
        of draw."""
        if x.min() <= -1.0:
            raise ValueError("log(1+x) undefined: some component is <= -1")
        # -k / (1 + x), one ufunc fewer: negation is exact and IEEE + and /
        # are sign-symmetric
        return k / (-1.0 - x) + self._two_a_t @ (self.link_matrix @ x)

    def projection(self) -> Callable[[np.ndarray], np.ndarray]:
        return self._project

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
        and rng are unused. Its Hessian is diag(k/(1+x)^2) + 2 A^T A."""
        k_bar = np.full(self.n, 0.5 * (self.k_range[0] + self.k_range[1]))
        a = self.link_matrix
        gram = self._gram

        def value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
            ax = a @ x
            value = float(-(k_bar * np.log1p(x)).sum() + ax @ ax)
            return value, -k_bar / (1.0 + x) + 2.0 * gram @ x

        def hessian(x: np.ndarray) -> np.ndarray:
            return np.diag(k_bar / (1.0 + x) ** 2) + 2.0 * gram

        return SaaMinimization(
            value_grad=value_grad,
            proj=self.projection(),
            x0=np.zeros(self.n),
            hessian=hessian,
        )

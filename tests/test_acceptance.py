"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines as they complete. The end-to-end criteria share session-scoped
replication suites from conftest.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from adasa.bounds import e_k_recursion, q_factor
from adasa.problems import (
    BimatrixProblem,
    NetworkProblem,
    network_gradient,
    network_value,
    saa_reference,
)
from adasa.smoothing import (
    ball_volume_coeff,
    double_factorial,
    sample_ball_batch,
    smoothing_lipschitz,
)
from adasa.steplength import GAMMA_FLOOR, CsaParams, csa_schedule


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_rsa_optimality_inequality():
    t0 = time.time()
    eta, nu2, lip, e0 = 0.5, 1.0, 2.0, 1.6
    gamma_star = [eta * e0 / (2.0 * nu2)]
    for _ in range(50):
        gamma_star.append(gamma_star[-1] * (1.0 - 0.5 * eta * gamma_star[-1]))
    e_star = [e0]
    for g in gamma_star[:-1]:
        e_star.append(e_k_recursion(e_star[-1], g, eta, nu2))

    rng = np.random.default_rng(100)
    worst = math.inf
    for _ in range(1000):
        k = int(rng.integers(1, 51))
        gammas = rng.uniform(0.0, 1.0, k) * (1.0 / lip)
        gammas[gammas == 0.0] = 1.0 / lip
        e = e0
        for g in gammas:
            e = e_k_recursion(e, g, eta, nu2)
        gap = e - e_star[k] - nu2 * (gammas[-1] - gamma_star[k - 1]) ** 2
        worst = min(worst, gap)
    elapsed = time.time() - t0
    ok = worst >= -1e-12 and elapsed < 5.0
    assert _report(1, ok, f"min optimality gap {worst:.3e} (>= -1e-12), {elapsed:.2f}s")


def test_criterion_02_rsa_bound_identity():
    eta, nu2, e0 = 0.5, 1.0, 1.8
    gamma = eta * e0 / (2.0 * nu2)
    e = e0
    worst = 0.0
    for _ in range(10_000):
        e = e_k_recursion(e, gamma, eta, nu2)
        gamma = gamma * (1.0 - 0.5 * eta * gamma)
        worst = max(worst, abs(e - 2.0 * nu2 / eta * gamma))
    ok = worst <= 1e-12 * e0
    assert _report(2, ok, f"max |e_k - (2nu2/eta)gamma_k| = {worst:.3e} <= {1e-12 * e0:.1e}")


def test_criterion_03_generic_recursion_sums():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(20):
        c = rng.uniform(5.0, 50.0)
        gamma = rng.uniform(0.2, 0.99) / c
        target = gamma / c
        total = 0.0
        # the tail identity sum_{i>=K} gamma_i^2 = gamma_K/c makes this stop
        # rule sufficient for the 1e-6 tolerance
        while gamma >= 5e-8 * c:
            total += gamma * gamma
            gamma = gamma * (1.0 - c * gamma)
        worst = max(worst, abs(total - target))
    ok = worst <= 1e-6
    assert _report(3, ok, f"max |sum gamma_k^2 - gamma0/c| = {worst:.3e} <= 1e-6")


def _brute_force_lengths(params, count):
    """K_t for t < count by direct scans from a scanned phase 1, zero-length
    regimes included."""
    j = 0
    while True:
        gamma = params.gamma_init * params.theta**j
        if params.q(gamma) < 1.0 and params.d2 > params.persistent(gamma):
            break
        j += 1
    lengths, log_cum = [], 0.0
    for t in range(count):
        q = params.q(gamma)
        transient0 = 2.0**t * math.exp(log_cum) * params.d2
        persistent = params.persistent(gamma)
        k = 1
        if transient0 > persistent:
            k = 0
            while q ** (k + 1) * transient0 > persistent:
                k += 1
        lengths.append(k)
        log_cum += k * math.log(q) if k else 0.0
        gamma = max(gamma * params.theta, GAMMA_FLOOR)
    return lengths


def test_criterion_04_csa_epoch_oracle():
    params = CsaParams(gamma_init=0.1, theta=0.5, eta=1.0, lip=2.0, nu2=1.0, d2=1.0)
    first = csa_schedule(params, 1)[0]
    worked = first.t == 0 and first.q == pytest.approx(0.82) and first.length == 14

    rng = np.random.default_rng(300)
    checked, mismatches = 0, 0
    while checked < 100:
        eta = rng.uniform(0.15, 1.5)
        lip = eta * rng.uniform(1.2, 7.0)
        params = CsaParams(
            gamma_init=rng.uniform(0.05, 0.95) * 2.0 / lip,
            theta=rng.uniform(0.25, 0.9),
            eta=eta,
            lip=lip,
            nu2=rng.uniform(0.1, 5.0),
            d2=rng.uniform(0.3, 10.0),
        )
        want = _brute_force_lengths(params, 4)
        if max(want) > 3_000_000:
            continue
        # a zero-length regime has no row in the table
        rows = csa_schedule(params, sum(want[:3]) + 1)
        got = {r.t: r.length for r in rows}
        mismatches += sum(got.get(t, 0) != k for t, k in enumerate(want[1:], 1))
        checked += 3
    ok = worked and mismatches == 0 and checked >= 100
    assert _report(
        4, ok, f"worked instance K0=14: {worked}; {checked} random regimes, "
        f"{mismatches} brute-force mismatches"
    )


def test_criterion_05_q_ratio_limits():
    eta, lip = 1.0, 2.0
    cap = 2.0 * eta * lip / (lip - eta)
    grid = (np.arange(1, 1001) / 1001.0) * (2.0 / lip)
    ratios = np.array([-math.log(q_factor(g, eta, lip)) / g for g in grid])
    in_range = bool(np.all(ratios > 0) and np.all(ratios <= cap + 1e-12))
    at_zero = -math.log(q_factor(1e-8, eta, lip)) / 1e-8
    limit_ok = abs(at_zero - 2.0 * eta) / (2.0 * eta) <= 1e-4
    ok = in_range and limit_ok
    assert _report(
        5, ok, f"ratio in (0, {cap:g}] on 1000-point grid: {in_range}; "
        f"ratio(1e-8) = {at_zero:.6f} vs 2*eta = {2 * eta} (rel err "
        f"{abs(at_zero - 2 * eta) / (2 * eta):.2e})"
    )


def test_criterion_06_smoothing_constants():
    clause1 = smoothing_lipschitz(2, 1.0, 0.5) == pytest.approx(8.0 / math.pi, rel=1e-12)

    clause3 = True
    for n in range(1, 31):
        kappa = 2.0 / math.pi if n % 2 == 0 else 1.0
        lhs = kappa * double_factorial(n) / double_factorial(n - 1)
        rhs = 2.0 * ball_volume_coeff(n - 1) / ball_volume_coeff(n)
        clause3 = clause3 and lhs == pytest.approx(rhs, rel=1e-10)

    # by clause 3, L(n,1,1) = 2c_{n-1}/c_n = (2/sqrt(pi)) Gamma(n/2+1)/Gamma(n/2+1/2)
    # ~ (2/sqrt(pi)) sqrt(n/2) = sqrt(2n/pi), so L(n,1,1)/sqrt(n) -> sqrt(2/pi)
    measured = smoothing_lipschitz(400, 1.0, 1.0) / math.sqrt(400)
    target = math.sqrt(2.0 / math.pi)
    clause2 = abs(measured - target) / target <= 0.02

    ok = clause1 and clause2 and clause3
    _report(
        6, ok,
        f"L(2,1,0.5)=8/pi: {clause1}; ratio identity n<=30: {clause3}; "
        f"growth ratio at n=400 = {measured:.6f} vs sqrt(2/pi) = "
        f"{target:.6f} (rel {abs(measured - target) / target:.1e}): {clause2}",
    )
    assert clause1 and clause3
    assert clause2, (
        f"growth ratio L(400,1,1)/sqrt(400) = {measured:.6f} is not within 2% "
        f"of its limit sqrt(2/pi) = {target:.6f}"
    )


def test_criterion_07_sandwich_property(utility_suite):
    t0 = time.time()
    problem = utility_suite["setup"].problem
    cap = utility_suite["setup"].constants["C"]
    rng = np.random.default_rng(700)
    m = 20_000
    failures = 0
    for _ in range(100):
        x = rng.dirichlet(np.ones(problem.n))
        z = sample_ball_batch(m, problem.n, problem.epsilon, rng)
        xi = rng.standard_normal((m, problem.n))
        w = x[None, :] + z
        t = np.einsum("ij,ij->i", problem.coeff_base[None, :] + xi, w)
        smoothed = (
            problem.intercepts[None, :] + problem.slopes[None, :] * t[:, None]
        ).max(axis=1) + 0.5 * problem.eta * (w**2).sum(axis=1)
        xi2 = rng.standard_normal((m, problem.n))
        t2 = (problem.coeff_base[None, :] + xi2) @ x
        plain = (
            problem.intercepts[None, :] + problem.slopes[None, :] * t2[:, None]
        ).max(axis=1) + 0.5 * problem.eta * float(x @ x)
        f_hat, se_hat = smoothed.mean(), smoothed.std(ddof=1) / math.sqrt(m)
        f_val, se_val = plain.mean(), plain.std(ddof=1) / math.sqrt(m)
        slack = 3.0 * math.hypot(se_hat, se_val)
        if not (f_val - slack <= f_hat <= f_val + problem.epsilon * cap + slack):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60.0
    assert _report(
        7, ok, f"sandwich f <= f_hat <= f + eps*C at 100 points, "
        f"{failures} violations, {elapsed:.1f}s"
    )


def test_criterion_08_zero_mean_sampled_gradient():
    problem = BimatrixProblem(n=20, eta=0.01, epsilon=0.2)
    rng = np.random.default_rng(800)
    m = 100_000
    worst_sigma_ratio = 0.0
    for _ in range(10):
        x = rng.dirichlet(np.ones(20))
        y = rng.dirichlet(np.ones(20))
        draws = np.empty((m, 40))
        for i in range(m):
            gx, gy = problem.sampled_gradient(x, y, rng)
            draws[i, :20] = gx
            draws[i, 20:] = gy
        exact = np.concatenate(problem.exact_gradient(x, y))
        err = np.linalg.norm(draws.mean(axis=0) - exact)
        sigma = math.sqrt(draws.var(axis=0).sum() / m)
        worst_sigma_ratio = max(worst_sigma_ratio, err / (3.0 * sigma))
    ok = worst_sigma_ratio <= 1.0
    assert _report(
        8, ok, f"mean vs (A'y, -Ax) at 10 points, worst error = "
        f"{worst_sigma_ratio:.2f} of the 3-sigma budget"
    )


def test_criterion_09_bilinear_game_end_to_end(bimatrix_suite):
    rsa = bimatrix_suite["rsa"].terminal_errors.mean()
    csa = bimatrix_suite["csa"].terminal_errors.mean()
    hsa = bimatrix_suite["hsa"].terminal_errors.mean()
    elapsed = sum(bimatrix_suite["elapsed"].values())
    ok = rsa <= 1e-6 and csa <= 1e-6 and hsa >= 1e-1 and elapsed < 300.0
    assert _report(
        9, ok, f"terminal mean squared error rsa={rsa:.2e} csa={csa:.2e} "
        f"(<= 1e-6) vs hsa={hsa:.2e} (>= 1e-1); {elapsed:.0f}s"
    )


def test_criterion_10_utility_problem_end_to_end(utility_suite):
    rsa = utility_suite["rsa"].terminal_errors.mean()
    csa = utility_suite["csa"].terminal_errors.mean()
    hsa = utility_suite["hsa"].terminal_errors.mean()
    elapsed = sum(utility_suite["elapsed"].values())
    window = 1e-4 <= rsa <= 1e-2 and 1e-4 <= csa <= 1e-2
    separation = hsa >= 100.0 * rsa and hsa >= 100.0 * csa
    ok = window and separation and elapsed < 300.0
    assert _report(
        10, ok, f"terminal rsa={rsa:.2e} csa={csa:.2e} (in [1e-4, 1e-2]) vs "
        f"hsa={hsa:.2e} ({hsa / max(rsa, csa):.0f}x worse); {elapsed:.0f}s"
    )


def test_criterion_11_network_problem(network_suite):
    rng = np.random.default_rng(1100)
    problem = network_suite["setup"].problem
    k = problem.sample_k(rng)
    x = rng.uniform(0.0, 0.2, problem.n)
    g = network_gradient(x, k, problem.link_matrix)
    fd_ok = True
    for i in range(problem.n):
        e = np.zeros(problem.n)
        e[i] = 1e-6
        fd = (
            network_value(x + e, k, problem.link_matrix)
            - network_value(x - e, k, problem.link_matrix)
        ) / 2e-6
        fd_ok = fd_ok and abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))

    single = NetworkProblem(
        n=1, link_matrix=np.array([[1.0]]), capacity=np.array([10.0]),
        k_range=(4.0, 4.0),
    )
    ref1 = saa_reference(single, sample_size=1000, seed=0, grad_map_tol=1e-12)
    closed_form_err = abs(ref1.point[0] - (-1.0 + math.sqrt(9.0)) / 2.0)

    hsa_ci = network_suite["hsa"].terminal_ci()
    rsa_ci = network_suite["rsa"].terminal_ci()
    csa_ci = network_suite["csa"].terminal_ci()
    ordering = rsa_ci.upper < hsa_ci.lower and csa_ci.upper < hsa_ci.lower
    ok = fd_ok and closed_form_err <= 1e-10 and ordering
    assert _report(
        11, ok, f"finite differences: {fd_ok}; 1-user closed-form error "
        f"{closed_form_err:.1e} (<= 1e-10); terminal CIs (errors) rsa="
        f"[{math.exp(rsa_ci.lower):.2e},{math.exp(rsa_ci.upper):.2e}] csa="
        f"[{math.exp(csa_ci.lower):.2e},{math.exp(csa_ci.upper):.2e}] below hsa="
        f"[{math.exp(hsa_ci.lower):.2e},{math.exp(hsa_ci.upper):.2e}]: {ordering}"
    )


def test_criterion_12_bound_domination(utility_suite):
    level = scipy.stats.t.ppf(0.95, 49)
    fractions = {}
    for scheme in ("rsa", "csa"):
        result = utility_suite[scheme]
        errors = np.stack([t.squared_errors for t in result.trajectories])
        half = level * errors.std(axis=0, ddof=1) / math.sqrt(errors.shape[0])
        below = result.mean_sq_error <= result.bound + half
        fractions[scheme] = float(below.mean())
    ok = all(f >= 0.99 for f in fractions.values())
    assert _report(
        12, ok, "mean error below theory bound (+MC half-width) at "
        f"{fractions['rsa']:.1%} (rsa) and {fractions['csa']:.1%} (csa) "
        "of iterations (>= 99%)"
    )

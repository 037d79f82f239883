import math

import numpy as np
import pytest

from adasa.harness import _TAG_PILOT, _TAG_PROBLEM
from adasa.problems import UtilityProblem
from adasa.smoothing import (
    ROW_BLOCK,
    ball_volume_coeff,
    double_factorial,
    double_factorial_ratio,
    log_double_factorial,
    row_norms,
    sample_ball,
    sample_ball_batch,
    smoothed_oracle,
    smoothing_lipschitz,
)


@pytest.mark.parametrize("m", [5, ROW_BLOCK - 1, 2 * ROW_BLOCK, 2 * ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
def test_row_norms_equal_the_one_call_norm_bitwise(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, 20)) * rng.lognormal(0.0, 3.0, (m, 1))
    assert np.array_equal(row_norms(a), np.linalg.norm(a, axis=1))


def test_ball_batch_equals_the_unblocked_draw_bitwise():
    m, n, eps = 2 * ROW_BLOCK + 3, 20, 0.5
    rng = np.random.default_rng(8)
    directions = rng.standard_normal((m, n))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    radii = eps * rng.uniform(size=(m, 1)) ** (1.0 / n)
    want = directions * (radii / norms)
    assert np.array_equal(sample_ball_batch(m, n, eps, np.random.default_rng(8)), want)


def test_ball_batch_written_to_a_column_view_bitwise():
    # the draws and the generator's end state do not depend on where they go
    m, n, eps = 2 * ROW_BLOCK + 3, 7, 0.3
    got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
    block = np.zeros((m, n + 3))
    out = sample_ball_batch(m, n, eps, got_rng, out=block[:, 2 : 2 + n])
    assert np.shares_memory(out, block)
    assert block[:, 2 : 2 + n].tobytes() == sample_ball_batch(m, n, eps, want_rng).tobytes()
    assert not block[:, :2].any() and not block[:, 2 + n :].any()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestBallSampling:
    def test_support_constraint_million_draws(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7):
            z = sample_ball_batch(1_000_000 if n == 2 else 100_000, n, 0.3, rng)
            norms = np.linalg.norm(z, axis=1)
            assert np.all(norms <= 0.3 + 1e-15)

    def test_single_draw_matches_support(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = sample_ball(5, 0.7, rng)
            assert np.linalg.norm(z) <= 0.7

    def test_one_dimensional_second_moment(self):
        # 1-D ball is the interval [-eps, eps]; E[z^2] = eps^2/3
        rng = np.random.default_rng(2)
        eps = 0.8
        z = sample_ball_batch(1_000_000, 1, eps, rng)[:, 0]
        target = eps**2 / 3.0
        se = (z**2).std(ddof=1) / 1000.0
        assert abs((z**2).mean() - target) <= 4.0 * se

    def test_componentwise_zero_mean(self):
        rng = np.random.default_rng(3)
        n, eps, m = 4, 0.5, 1_000_000
        z = sample_ball_batch(m, n, eps, rng)
        sigma = eps / math.sqrt(n + 2)  # isotropic second moment of the ball
        assert np.all(np.abs(z.mean(axis=0)) <= 4.0 * sigma / math.sqrt(m))


class TestVolumeCoefficients:
    def test_known_values(self):
        assert ball_volume_coeff(1) == pytest.approx(2.0, rel=1e-14)
        assert ball_volume_coeff(2) == pytest.approx(math.pi, rel=1e-14)
        assert ball_volume_coeff(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    def test_ratio_identity_up_to_thirty(self):
        # kappa * n!!/(n-1)!! equals 2 c_{n-1}/c_n for every dimension
        for n in range(1, 31):
            kappa = 2.0 / math.pi if n % 2 == 0 else 1.0
            lhs = kappa * double_factorial(n) / double_factorial(n - 1)
            rhs = 2.0 * ball_volume_coeff(n - 1) / ball_volume_coeff(n)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_double_factorial_log_space(self):
        assert double_factorial(6) == 48.0
        assert double_factorial(7) == 105.0
        assert log_double_factorial(7) == pytest.approx(math.log(105.0), rel=1e-14)
        # beyond the overflow cutoff the ratio is still finite and consistent
        # with the volume-coefficient identity evaluated through lgamma
        n = 220
        lhs = double_factorial_ratio(n)
        log_c = lambda m: (m / 2.0) * math.log(math.pi) - math.lgamma(m / 2.0 + 1.0)
        rhs = 2.0 * math.exp(log_c(n - 1) - log_c(n)) / (2.0 / math.pi)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestLipschitzConstant:
    def test_even_instance(self):
        assert smoothing_lipschitz(2, 1.0, 0.5) == pytest.approx(8.0 / math.pi, rel=1e-14)

    def test_odd_instance(self):
        assert smoothing_lipschitz(3, 1.0, 1.0) == pytest.approx(1.5, rel=1e-14)

    def test_sqrt_n_growth_constant(self):
        # kappa*(n!!/(n-1)!!)/sqrt(n) decreases to sqrt(2/pi) ~ 0.79788
        ratios = [
            smoothing_lipschitz(n, 1.0, 1.0) / math.sqrt(n) for n in (4, 40, 400, 4000)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[2] == pytest.approx(math.sqrt(2.0 / math.pi), rel=2e-3)
        assert ratios[3] == pytest.approx(math.sqrt(2.0 / math.pi), rel=2e-4)

    def test_scaling_in_bound_and_radius(self):
        base = smoothing_lipschitz(5, 1.0, 0.5)
        assert smoothing_lipschitz(5, 3.0, 0.5) == pytest.approx(3 * base)
        assert smoothing_lipschitz(5, 1.0, 0.25) == pytest.approx(2 * base)

    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_bounds_the_curvature_of_the_utility_saa(self, n):
        # the paper's smoothing inequality on a real instance: the SAA of the
        # ball-smoothed utility is eta-regularized, so lambda_max(H) - eta is
        # the local Lipschitz constant of the smoothed gradient, which
        # L_eps(n, C, eps) bounds with C the pilot subgradient bound
        problem = UtilityProblem.from_seed(
            n, eta=0.5, epsilon=0.5, seed=np.random.default_rng([0, _TAG_PROBLEM])
        )
        bound = problem.estimate_subgradient_bound(np.random.default_rng([0, _TAG_PILOT]))
        lip = smoothing_lipschitz(n, bound, problem.epsilon)
        saa = problem.build_saa(20_000, np.random.default_rng(0))
        rng = np.random.default_rng(n)
        points = [np.full(n, 1.0 / n), np.eye(n)[0], np.eye(n)[-1]] + [
            rng.dirichlet(np.full(n, 0.3)) for _ in range(4)
        ]
        for x in points:
            assert np.linalg.eigvalsh(saa.hessian(x))[-1] - problem.eta <= lip


def _l1_oracle(point, noise):
    g = np.sign(point)
    g[g == 0] = 1.0
    return g


class TestSmoothedSubgradient:
    def test_linear_function_is_exact(self):
        a = np.array([0.3, -1.2, 0.7])
        oracle = smoothed_oracle(lambda point, noise: a.copy(), 3)
        for row in sample_ball_batch(50, 3, 0.4, np.random.default_rng(5)):
            assert np.array_equal(oracle(np.zeros(3), row), a)

    def test_absolute_value_mean_vanishes_at_origin(self):
        oracle = smoothed_oracle(_l1_oracle, 1)
        m = 20_000
        rows = sample_ball_batch(m, 1, 0.5, np.random.default_rng(6))
        draws = np.array([oracle(np.zeros(1), row)[0] for row in rows])
        assert abs(draws.mean()) <= 3.0 / math.sqrt(m)

    def test_truncation_enforces_norm_bound(self):
        big = np.full(4, 10.0)
        oracle = smoothed_oracle(lambda point, noise: big, 4, subgrad_bound=0.5)
        out = oracle(np.zeros(4), sample_ball_batch(1, 4, 0.1, np.random.default_rng(7))[0])
        assert np.linalg.norm(out) == pytest.approx(0.5)
        assert big.tolist() == [10.0] * 4  # the inner oracle's array is not scaled

    def test_row_is_the_inner_noise_then_the_ball_draw(self):
        seen = []

        def inner(point, noise):
            seen.append((point.copy(), noise.copy()))
            return np.zeros(2)

        smoothed_oracle(inner, 2)(np.array([1.0, 2.0]), np.array([7.0, 8.0, 9.0, 0.5, -0.5]))
        (point, noise), = seen
        assert point.tolist() == [1.5, 1.5] and noise.tolist() == [7.0, 8.0, 9.0]

    def test_monte_carlo_lipschitz_bound(self):
        # averaged l1 subgradients at two points obey the smoothed-gradient
        # Lipschitz bound with C = sqrt(n), up to sampling error
        rng = np.random.default_rng(8)
        m, eps = 100_000, 0.5
        for n in range(1, 7):
            lip = smoothing_lipschitz(n, math.sqrt(n), eps)
            x = rng.uniform(-0.3, 0.3, n)
            y = rng.uniform(-0.3, 0.3, n)
            zx = sample_ball_batch(m, n, eps, rng)
            zy = sample_ball_batch(m, n, eps, rng)
            gx = np.sign(x[None, :] + zx).mean(axis=0)
            gy = np.sign(y[None, :] + zy).mean(axis=0)
            se = 2.0 * math.sqrt(n / m)  # component variance is at most 1
            assert np.linalg.norm(gx - gy) <= lip * np.linalg.norm(x - y) + 4.0 * se

    def test_mean_matches_finite_difference_of_smoothed_value(self):
        # common random numbers across +h/-h keep the Monte-Carlo noise out of
        # the finite-difference estimate of the smoothed l1 objective
        rng = np.random.default_rng(9)
        n, eps, m, h = 2, 0.5, 400_000, 1e-3
        x = np.array([0.1, -0.2])
        z = sample_ball_batch(m, n, eps, rng)
        grad_est = np.sign(x[None, :] + z).mean(axis=0)
        fd = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            up = np.abs(x[None, :] + e[None, :] + z).sum(axis=1).mean()
            dn = np.abs(x[None, :] - e[None, :] + z).sum(axis=1).mean()
            fd[i] = (up - dn) / (2.0 * h)
        assert np.linalg.norm(grad_est - fd) <= 4.0 * math.sqrt(n / m) + 2e-3


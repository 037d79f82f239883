import logging
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls  # the oracle; no adasa path loads it

from adasa import problems as problems_mod
from adasa import smoothing
from adasa.harness import _TAG_PROBLEM, _TAG_REFERENCE, build_setup, resolve_config
from adasa.problems import (
    BimatrixProblem,
    NetworkProblem,
    SaaMinimization,
    UtilityProblem,
    _draw_index,
    _gaussian_max_affine,
    _minimize_projected,
    _nnls,
    capacity_vector,
    network_gradient,
    network_value,
    project_capacity,
    project_simplex,
    saa_reference,
)


class TestProjectSimplex:
    def test_feasible_point_unchanged(self):
        assert np.allclose(project_simplex(np.array([0.5, 0.5])), [0.5, 0.5])

    def test_hand_kkt(self):
        assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_symmetry(self):
        assert np.allclose(project_simplex(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_feasibility_and_idempotence(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            v = rng.normal(0, 3, rng.integers(1, 12))
            p = project_simplex(v)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0)
            assert np.allclose(project_simplex(p), p, atol=1e-12)

    def test_variational_inequality(self):
        # (v - p)'(q - p) <= 0 for every feasible q characterizes the projection
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(0, 2, 6)
            p = project_simplex(v)
            for _ in range(20):
                q = rng.dirichlet(np.ones(6))
                assert (v - p) @ (q - p) <= 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_nonfinite_rejected_at_any_position(self, bad, at):
        # the check reads only the ends of the sorted vector
        v = np.array([0.3, -1.0, 2.0, 0.0, 0.5])
        v[at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            project_simplex(v)

    @pytest.mark.parametrize("v", [[1e16, 0.0], [1e17, 0.0], [1e300, -1e300]])
    def test_huge_entries_project_onto_simplex(self, v):
        # u[0] - (u[0] - 1) rounds to 0 here, so no threshold index is active
        p = project_simplex(np.array(v))
        assert p.sum() == 1.0 and np.all(p >= 0.0)
        assert p.tolist() == [1.0, 0.0]

    def test_matches_the_frozen_formula_bitwise(self):
        rng = np.random.default_rng(40)
        cases = [rng.normal(0.0, 3.0, rng.integers(1, 30)) for _ in range(3000)]
        cases += [rng.uniform(-1.0, 1.0, 20) * 10.0 ** rng.integers(-300, 300) for _ in range(500)]
        # ties, signed zeros, a single entry, the >= 2^53 fallback
        cases += [np.round(rng.normal(0.0, 1.0, 12), 1) for _ in range(500)]
        cases += [np.array(v) for v in (
            [0.0, -0.0, 0.0], [-0.0], [0.0], [0.7], [-5.0], [1e300],
            [0.5, 0.5], [0.25] * 4, [-0.0, 1.0, -0.0], [1.0, 1.0, 0.0, -0.0],
            [2.0**53, 0.0], [2.0**53, 2.0**53, -3.0], [1e16, 1e16 - 2.0], [1e300, -1e300],
        )]
        for v in cases:
            assert project_simplex(v).tobytes() == _frozen_project_simplex(v).tobytes()


def _frozen_project_simplex(v):
    """project_simplex as it was before its numpy calls were cut."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = u.cumsum() - 1.0
    active = (u - css / np.arange(1.0, v.size + 1.0) > 0).nonzero()[0]
    if not active.size:
        return _frozen_project_simplex(np.maximum(v - u[0], -1.0))
    rho = active[-1] + 1
    return np.maximum(v - css[rho - 1] / rho, 0.0)


def _least_distance(g, h):
    """E and f of min ||z|| subject to Gz >= h as an NNLS problem (Lawson &
    Hanson 1974, ch. 23)."""
    e = np.vstack([g.T, h])
    f = np.zeros(e.shape[0])
    f[-1] = 1.0
    return e, f


class TestNnls:
    """problems._nnls against scipy.optimize.nnls, the solver it replaced."""

    eps = np.finfo(float).eps

    def test_matches_scipy_on_random_least_distance_problems(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 12))
            g = rng.standard_normal((m, n))
            # h = G z0 - slack: z0 meets every constraint, so w is unique;
            # a slack of 0.1 or more keeps the multipliers moderate (scipy's
            # nnls returns w ~ 3e16 with a residual it reports as 0 on some
            # nearly empty sets)
            h = g @ rng.standard_normal(n) - 0.1 - rng.exponential(size=m)
            e, f = _least_distance(g, h)
            want_w, want_norm = scipy_nnls(e, f)
            w, norm = _nnls(e, f)
            passive = want_w > 0.0
            # both solvers' errors grow with the passive columns' condition
            kappa = np.linalg.cond(e[:, passive]) if passive.any() else 1.0
            assert abs(norm - want_norm) <= 64.0 * self.eps
            scale = kappa * max(1.0, np.abs(want_w).max())
            assert np.abs(w - want_w).max() <= 64.0 * self.eps * scale

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_no_columns_give_zero_and_the_norm_of_f(self, rows):
        f = np.arange(3.0, 3.0 + rows)
        w, norm = _nnls(np.zeros((rows, 0)), f)
        assert w.shape == (0,)
        assert norm == np.linalg.norm(f)

    def test_an_exhausted_budget_raises(self):
        # each of the three columns enters on its own solve
        e, f = np.eye(3), np.array([1.0, 2.0, 3.0])
        assert np.array_equal(_nnls(e, f)[0], f)
        with pytest.raises(RuntimeError, match="did not converge in 2 iterations"):
            _nnls(e, f, max_iter=2)

    def test_a_warm_start_reaches_the_cold_solution(self):
        rng = np.random.default_rng(18)
        for _ in range(500):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 10))
            g = rng.standard_normal((m, n))
            h = g @ rng.standard_normal(n) - rng.exponential(size=m)
            e, f = _least_distance(g, h)
            cold, norm = _nnls(e, f)
            # any columns, wrong, dependent or repeated ones included
            warm, warm_norm = _nnls(e, f, rng.integers(0, m, rng.integers(0, m + 2)).tolist())
            assert abs(warm_norm - norm) <= 64.0 * self.eps
            assert np.allclose(e @ warm, e @ cold, rtol=0.0, atol=1e-12)

    def test_nearly_dependent_columns_keep_the_solution(self):
        # the least-distance system of projecting v ~ 1e6 onto x0 <= 1/4,
        # x0 + x1 <= 1/2: E has rank 2 up to |C| / |v| ~ 1e-7, so a 3-column
        # passive set is dependent to rounding (its Gram matrix singular);
        # cold, or warm started from x1 = 0 and both links, the solution
        # keeps the links
        v = np.array([1593866.7274416222, 527565.48])
        a = np.array([[1.0, 0.0], [1.0, 1.0]])
        c = np.array([0.25, 0.5])
        g = np.vstack([np.eye(2), -a])
        h = np.concatenate([-v, a @ v - c]) / 2.0**22
        e, f = _least_distance(g, h)
        want_w, want_norm = scipy_nnls(e, f)
        for passive in ([], [1, 3, 2]):
            w, norm = _nnls(e, f, passive)
            assert np.flatnonzero(w).tolist() == [2, 3]
            assert np.abs(w - want_w).max() <= 1e-8 * np.abs(want_w).max()
        x = project_capacity(v, a, c)
        assert np.abs(x - [0.25, 0.25]).max() <= 64.0 * self.eps * np.abs(v).max()


class TestProjectCapacity:
    # user 3 crosses no link, so A v meets a +inf there only through 0 * inf
    _links = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    _caps = np.array([1.0, 1.0])
    # a base point that each stage returns, with the point it returns (None:
    # the stage is NNLS)
    _stages = {
        "feasible": ([0.2, 0.3, 0.1, 5.0], [0.2, 0.3, 0.1, 5.0]),
        "clipped": ([-0.5, 0.3, 0.2, -1.0], [0.0, 0.3, 0.2, 0.0]),
        "one-link": ([2.0, 1.0, -0.1, 0.5], [1.0, 0.0, 0.0, 0.5]),
        # both links held; the user they share ends at 0
        "two-links": ([2.0, 2.0, 2.0, 0.5], [1.0, 0.0, 1.0, 0.5]),
        # the shared user is above both thresholds, so NNLS
        "nnls": ([2.0, 3.0, 2.0, 0.5], None),
    }

    # numpy warns of the 0 * inf in A v before the projection raises
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    @pytest.mark.parametrize("at", [0, 1, 3])
    @pytest.mark.parametrize("stage", sorted(_stages))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_at_every_stage_before_nnls(self, monkeypatch, bad, stage, at):
        def no_nnls(e, f, passive=()):
            raise AssertionError("a non-finite vector reached NNLS")

        base, point = self._stages[stage]
        v = np.array(base)
        monkeypatch.setattr(problems_mod, "_nnls", no_nnls)
        if point is None:
            with pytest.raises(AssertionError):
                project_capacity(v, self._links, self._caps)
        else:
            out = project_capacity(v, self._links, self._caps)
            assert np.array_equal(out, point)
        v[at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            project_capacity(v, self._links, self._caps)

    @pytest.mark.parametrize(
        "v,a", [([np.inf, 0.5], [[-1.0, 1.0]]), ([0.5, np.inf], [[1.0, -1.0]])]
    )
    def test_infinity_hidden_by_a_negative_weight_is_rejected(self, v, a):
        # A v = -inf meets the capacity, so the overload alone would return
        # the point with its +inf
        with pytest.raises(ValueError, match="non-finite"):
            project_capacity(np.array(v), np.array(a), np.array([1.0]))

    def test_interior_point_fixed(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        c = np.array([1.0, 0.6])
        v = np.array([0.2, 0.3])
        assert np.allclose(project_capacity(v, a, c), v, atol=1e-9)

    def test_feasible_input_returned_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = rng.integers(1, 8)
            links = rng.integers(1, 6)
            a = (rng.uniform(size=(links, n)) < 0.5).astype(float)
            a[a.sum(axis=1) == 0, rng.integers(n)] = 1.0
            c = rng.uniform(0.1, 1.0, links)
            u = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.8)
            scale = (c / np.maximum(a @ u, 1e-300)).min()
            v = u * min(1.0, scale) * rng.uniform(0.0, 0.999)
            assert np.array_equal(project_capacity(v, a, c), v)

    def test_one_dimensional_clip(self):
        out = project_capacity(np.array([2.0]), np.array([[1.0]]), np.array([0.5]))
        assert out[0] == pytest.approx(0.5, abs=1e-10)

    def test_feasibility_audit(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = rng.integers(1, 6)
            links = rng.integers(1, 5)
            a = (rng.uniform(size=(links, n)) < 0.5).astype(float)
            for l in range(links):
                if a[l].sum() == 0:
                    a[l, rng.integers(n)] = 1.0
            c = rng.uniform(0.1, 1.0, links)
            v = rng.normal(0, 1, n)
            out = project_capacity(v, a, c)
            assert np.all(a @ out <= c + 1e-8)
            assert np.all(out >= -1e-12)
            again = project_capacity(out, a, c)
            assert np.allclose(again, out, atol=1e-8)

    def test_variational_inequality(self):
        rng = np.random.default_rng(3)
        a = (rng.uniform(size=(4, 5)) < 0.5).astype(float)
        a[a.sum(axis=1) == 0, 0] = 1.0
        c = rng.uniform(0.2, 1.0, 4)
        for _ in range(40):
            v = rng.normal(0, 1, 5)
            p = project_capacity(v, a, c)
            for _ in range(10):
                u = rng.uniform(0, 1, 5)
                scale = (c / np.maximum(a @ u, 1e-12)).min()
                q = u * min(1.0, scale) * rng.uniform()
                assert (v - p) @ (q - p) <= 1e-7

    @pytest.mark.parametrize(
        "v,a,c",
        [
            ([0.3], [[1.0]], [-1.0]),
            ([-0.3, 2.0], [[1.0, 1.0]], [-1.0]),
            ([1.0, 1.0], [[1.0, 0.0], [1.0, 1.0]], [0.5, -0.2]),
        ],
    )
    def test_empty_set_rejected(self, v, a, c):
        with pytest.raises(ValueError, match="admit no point"):
            project_capacity(np.array(v), np.array(a), np.array(c))


class TestUtilityProblem:
    def _problem(self, **kw):
        defaults = dict(
            n=4,
            intercepts=np.array([0.0, 0.5]),
            slopes=np.array([1.0, 0.5]),
            eta=0.5,
            epsilon=0.5,
        )
        defaults.update(kw)
        return UtilityProblem(**defaults)

    def test_single_piece_oracle_is_linear(self):
        problem = self._problem(intercepts=np.array([0.2]), slopes=np.array([0.7]))
        xi = np.random.default_rng(4).standard_normal(4)
        x = np.full(4, 0.25)
        out = problem.oracle(x, xi)
        expected = 0.7 * (problem.coeff_base + xi) + 0.5 * x
        assert np.allclose(out, expected)

    def test_two_piece_crossover(self):
        problem = self._problem()
        # pieces 0 + 1*t and 0.5 + 0.5*t swap the max at t = 1
        v_h, s_h, knots = problem._envelope
        assert v_h.tolist() == [0.5, 0.0] and s_h.tolist() == [0.5, 1.0]
        assert knots == pytest.approx([1.0])

    def test_integrand_convexity_on_random_segments(self):
        # E[max_i(v_i + s_i U)] with U ~ N(t, sigma^2), the integrand's Gaussian
        # expectation that the SAA objective evaluates, is convex in t
        problem = UtilityProblem.from_seed(6, eta=0.5, epsilon=0.5, seed=9)
        rng = np.random.default_rng(5)
        for _ in range(200):
            t1, t2 = rng.normal(0, 3, 2)
            lam = rng.uniform()
            sigma = rng.uniform(1e-3, 2.0)

            def value(t):
                return float(_gaussian_max_affine(t, sigma, *problem._envelope)[0][0])

            chord = lam * value(t1) + (1 - lam) * value(t2)
            assert value(lam * t1 + (1 - lam) * t2) <= chord + 1e-12

    def test_oracle_determinism(self):
        problem = UtilityProblem.from_seed(5, eta=0.5, epsilon=0.5, seed=10)
        x = np.full(5, 0.2)
        a, b = (
            [problem.oracle(x + row[5:], row[:5]) for row in problem.draw(3, np.random.default_rng(42))]
            for _ in range(2)
        )
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_oracle_mean_matches_smoothed_gradient(self):
        # average oracle output at fixed x against a common-random-numbers
        # finite difference of the Monte-Carlo smoothed value
        from adasa.smoothing import sample_ball_batch

        problem = UtilityProblem.from_seed(4, eta=0.5, epsilon=0.4, seed=11)
        n, eps = 4, 0.4
        x = np.full(n, 0.25)
        rng = np.random.default_rng(6)
        m = 400_000
        z = sample_ball_batch(m, n, eps, rng)
        xi = rng.standard_normal((m, n))
        coeff = problem.coeff_base[None, :] + xi

        def value_batch(pt):
            w = pt[None, :] + z
            t = np.einsum("ij,ij->i", coeff, w)
            vals = (problem.intercepts[None, :] + problem.slopes[None, :] * t[:, None]).max(axis=1)
            return vals + 0.5 * problem.eta * (w**2).sum(axis=1)

        t = np.einsum("ij,ij->i", coeff, x[None, :] + z)
        active = np.argmax(problem.intercepts[None, :] + problem.slopes[None, :] * t[:, None], axis=1)
        grads = problem.slopes[active][:, None] * coeff + problem.eta * (x[None, :] + z)
        grad_mean = grads.mean(axis=0)
        se = math.sqrt(grads.var(axis=0).sum() / m)

        h = 1e-3
        fd = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[i] = (value_batch(x + e).mean() - value_batch(x - e).mean()) / (2 * h)
        assert np.linalg.norm(grad_mean - fd) <= 4.0 * se + 5e-3

    def test_pilot_bound_matches_out_of_place_formula(self):
        # the in-place pilot runs the same IEEE operations in the same order,
        # on a single block, a ragged last block and many blocks, and leaves
        # the generator where the one-shot draws leave it
        problem = UtilityProblem.from_seed(20, eta=0.5, epsilon=0.5, seed=3)
        sizes = [2_000] * 3 + [smoothing.ROW_BLOCK - 1, smoothing.ROW_BLOCK + 1, 100_000]
        for seed, size in enumerate(sizes):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = problem.estimate_subgradient_bound(got_rng, pilot_size=size)
            want = _out_of_place_subgradient_bound(problem, want_rng, size)
            assert got == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_pilot_bound_keeps_one_sample_block_live(self):
        # the xi rows are replayed a block at a time beside the ball rows
        problem = UtilityProblem.from_seed(20, eta=0.5, epsilon=0.5, seed=3)
        peak = _traced_peak(
            lambda: problem.estimate_subgradient_bound(np.random.default_rng(0))
        )
        assert peak < 1.4 * 100_000 * 20 * 8

    def test_sandwich_property(self):
        # f <= f_hat <= f + eps*C at random feasible points, within MC noise
        problem = UtilityProblem.from_seed(6, eta=0.5, epsilon=0.5, seed=12)
        rng = np.random.default_rng(7)
        cap = problem.estimate_subgradient_bound(rng, pilot_size=20_000)
        for _ in range(10):
            x = rng.dirichlet(np.ones(6))
            f_hat, se_hat = _mc_smoothed_value(problem, x, 20_000, rng)
            f_val, se_val = _mc_plain_value(problem, x, 20_000, rng)
            sigma = 3.0 * math.hypot(se_hat, se_val)
            assert f_val - sigma <= f_hat <= f_val + problem.epsilon * cap + sigma


def _traced_peak(call):
    """Peak bytes that tracemalloc sees allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _frozen_value_grad(problem, z, x):
    """build_saa's value_grad as it was before it went a block at a time:
    the same formula on the whole sample at once."""
    v_h, s_h, knots = problem._envelope
    a, eta = problem.coeff_base, problem.eta
    mu = z @ a + a @ x
    sig = np.sqrt(np.maximum(np.einsum("ij,ij->i", z, z) + 2.0 * (z @ x) + x @ x, 0.0))
    psi, d_mu, d_sig = _gaussian_max_affine(mu, sig, v_h, s_h, knots)
    value = float(psi.mean() + 0.5 * eta * (sig**2).mean())
    c = d_sig / np.maximum(sig, 1e-12)
    grad = (
        a * d_mu.mean()
        + x * c.mean()
        + np.einsum("i,ij->j", c, z) / z.shape[0]
        + eta * (x + z.mean(axis=0))
    )
    return value, grad


def _out_of_place_subgradient_bound(problem, rng, pilot_size):
    """Pilot bound with one new array per operation, ball draw included."""
    n = problem.n
    center = np.full(n, 1.0 / n)
    xi = rng.standard_normal((pilot_size, n))
    directions = rng.standard_normal((pilot_size, n))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = problem.epsilon * rng.uniform(size=(pilot_size, 1)) ** (1.0 / n)
    z = directions * (radii / norms)
    points = center[None, :] + z
    coeff = problem.coeff_base[None, :] + xi
    t = np.einsum("ij,ij->i", coeff, points)
    active = np.argmax(
        problem.intercepts[None, :] + problem.slopes[None, :] * t[:, None], axis=1
    )
    grads = problem.slopes[active][:, None] * coeff + problem.eta * points
    return float(np.percentile(np.linalg.norm(grads, axis=1), 99.9) * 1.25)


def _direct_saa_value_grad(problem, z, x):
    """Reference SAA objective built from w = x + Z directly, one row per draw."""
    from adasa.problems import _gaussian_max_affine

    w = x[None, :] + z
    sig = np.linalg.norm(w, axis=1)
    psi, d_mu, d_sig = _gaussian_max_affine(w @ problem.coeff_base, sig, *problem._envelope)
    value = float(psi.mean() + 0.5 * problem.eta * (sig**2).mean())
    grad = (
        problem.coeff_base * d_mu.mean()
        + (w * (d_sig / np.maximum(sig, 1e-12))[:, None]).mean(axis=0)
        + problem.eta * (x + z.mean(axis=0))
    )
    return value, grad


class TestUtilitySaa:
    n, samples, seed = 8, 5_000, 31

    def _saa_and_draws(self):
        from adasa.smoothing import sample_ball_batch

        problem = UtilityProblem.from_seed(self.n, eta=0.5, epsilon=0.5, seed=13)
        saa = problem.build_saa(self.samples, np.random.default_rng(self.seed))
        z = sample_ball_batch(
            self.samples, self.n, problem.epsilon, np.random.default_rng(self.seed)
        )
        return problem, saa, z

    def test_matches_direct_formula(self):
        problem, saa, z = self._saa_and_draws()
        vertex = np.zeros(self.n)
        vertex[0] = 1.0
        rng = np.random.default_rng(8)
        points = [saa.x0, vertex] + [rng.dirichlet(np.ones(self.n)) for _ in range(5)]
        for x in points:
            value, grad = saa.value_grad(x)
            ref_value, ref_grad = _direct_saa_value_grad(problem, z, x)
            assert value == pytest.approx(ref_value, rel=1e-12)
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12

    def test_gradient_matches_central_differences(self):
        _, saa, _ = self._saa_and_draws()
        x = np.random.default_rng(9).dirichlet(np.ones(self.n))
        _, grad = saa.value_grad(x)
        h = 1e-6
        fd = np.empty(self.n)
        for i in range(self.n):
            e = np.zeros(self.n)
            e[i] = h
            fd[i] = (saa.value_grad(x + e)[0] - saa.value_grad(x - e)[0]) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-7

    @staticmethod
    def _hessian_instance():
        problem = UtilityProblem.from_seed(5, eta=0.5, epsilon=0.5, seed=14)
        return problem, problem.build_saa(2000, np.random.default_rng(21))

    @pytest.mark.parametrize(
        "x", [[0.3, 0.1, 0.25, 0.15, 0.2], [0.6, 0.4, 0.0, 0.0, 0.0]], ids=["interior", "face"]
    )
    def test_hessian_matches_central_differences(self, x):
        _, saa = self._hessian_instance()
        x = np.array(x)
        h = 1e-5
        fd = np.empty((x.size, x.size))
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = h
            fd[:, i] = (saa.value_grad(x + e)[1] - saa.value_grad(x - e)[1]) / (2 * h)
        assert np.max(np.abs(saa.hessian(x) - fd)) <= 1e-9

    def test_hessian_symmetric_and_strongly_convex(self):
        problem, saa = self._hessian_instance()
        rng = np.random.default_rng(5)
        for _ in range(5):
            hess = saa.hessian(rng.dirichlet(np.ones(problem.n)))
            assert np.array_equal(hess, hess.T)
            assert np.linalg.eigvalsh(hess)[0] >= problem.eta * (1.0 - 1e-9)

    @pytest.mark.parametrize(
        "x", [[0.3, 0.1, 0.25, 0.15, 0.2], [0.6, 0.4, 0.0, 0.0, 0.0]], ids=["interior", "face"]
    )
    def test_hessian_is_the_first_blocks_formula(self, x, monkeypatch):
        # 2 * ROW_BLOCK + 3 samples: two full blocks and a ragged one, of which
        # the Hessian reads the first alone
        from adasa.smoothing import sample_ball_batch

        block, m = smoothing.ROW_BLOCK, 2 * smoothing.ROW_BLOCK + 3
        problem = UtilityProblem.from_seed(5, eta=0.5, epsilon=0.5, seed=14)
        x, other = np.array(x), np.full(5, 0.2)
        z = sample_ball_batch(m, 5, problem.epsilon, np.random.default_rng(22))
        want = _full_formula_hessian(problem, z[:block], x)

        saa = problem.build_saa(m, np.random.default_rng(22))
        cold = saa.hessian(x)  # no value_grad call yet
        saa.value_grad(x)
        after = saa.hessian(x)
        saa.value_grad(other)
        elsewhere = saa.hessian(x)
        assert np.array_equal(cold, after) and np.array_equal(cold, elsewhere)
        assert np.array_equal(cold, cold.T)
        assert np.max(np.abs(cold - want)) <= 1e-13 * np.max(np.abs(want))

        # no sample past the first block reaches the Hessian; F reads them all
        def poisoned(*args, **kwargs):
            draws = sample_ball_batch(*args, **kwargs)
            draws[block:] = np.nan
            return draws

        monkeypatch.setattr(problems_mod, "sample_ball_batch", poisoned)
        saa = problem.build_saa(m, np.random.default_rng(22))
        assert np.array_equal(saa.hessian(x), cold)
        value, grad = saa.value_grad(x)
        assert math.isnan(value) and np.isnan(grad).all()

    def test_value_grad_matches_the_whole_sample_formula_bitwise(self):
        # one block, a ragged second block, several blocks; two envelopes
        x_points = [np.full(20, 0.05), np.random.default_rng(26).dirichlet(np.ones(20))]
        for seed, m in enumerate([1_000, smoothing.ROW_BLOCK + 1, 3 * smoothing.ROW_BLOCK + 17]):
            problem = UtilityProblem.from_seed(20, eta=0.5, epsilon=0.5, seed=seed)
            z = smoothing.sample_ball_batch(m, 20, problem.epsilon, np.random.default_rng(27))
            saa = problem.build_saa(m, np.random.default_rng(27))
            for x in x_points:
                value, grad = saa.value_grad(x)
                want_value, want_grad = _frozen_value_grad(problem, z, x)
                assert value == want_value and grad.tobytes() == want_grad.tobytes()

    def test_value_grad_memory_above_the_sample(self):
        # the per-piece columns of _gaussian_max_affine stay block-sized
        problem = UtilityProblem.from_seed(20, eta=0.5, epsilon=0.5, seed=0)
        saa = problem.build_saa(100_000, np.random.default_rng(28))
        assert _traced_peak(lambda: saa.value_grad(np.full(20, 0.05))) < 8 * 2**20


def _full_formula_hessian(problem, z, x):
    """The utility SAA Hessian from one einsum over all m rows of z at once, the
    form build_saa's upper-triangle sum over its first block must reproduce."""
    _, s_h, knots = problem._envelope
    a, m = problem.coeff_base, z.shape[0]
    mu = z @ a + a @ x
    sig = np.maximum(np.sqrt(np.maximum((z * z).sum(axis=1) + 2.0 * (z @ x) + x @ x, 0.0)), 1e-12)
    zeta = (knots[None, :] - mu[:, None]) / sig[:, None]
    w = np.diff(s_h)[None, :] * np.exp(-0.5 * zeta**2) / math.sqrt(2.0 * math.pi)
    c = w.sum(axis=1) / sig
    e = (w * zeta).sum(axis=1) / sig**2
    d = ((w * zeta**2).sum(axis=1) - w.sum(axis=1)) / sig**3
    u = x[None, :] + z
    b = np.einsum("i,ij->j", e, u) / m
    h = (
        c.mean() * (np.outer(a, a) + np.eye(a.size))
        + np.outer(a, b)
        + np.outer(b, a)
        + np.einsum("ij,ik->jk", u * d[:, None], u) / m
        + problem.eta * np.eye(a.size)
    )
    return 0.5 * (h + h.T)


def _mc_smoothed_value(problem, x, m, rng):
    from adasa.smoothing import sample_ball_batch

    z = sample_ball_batch(m, problem.n, problem.epsilon, rng)
    xi = rng.standard_normal((m, problem.n))
    w = x[None, :] + z
    t = np.einsum("ij,ij->i", problem.coeff_base[None, :] + xi, w)
    vals = (problem.intercepts[None, :] + problem.slopes[None, :] * t[:, None]).max(axis=1)
    vals = vals + 0.5 * problem.eta * (w**2).sum(axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(m))


def _mc_plain_value(problem, x, m, rng):
    xi = rng.standard_normal((m, problem.n))
    t = (problem.coeff_base[None, :] + xi) @ x
    vals = (problem.intercepts[None, :] + problem.slopes[None, :] * t[:, None]).max(axis=1)
    vals = vals + 0.5 * problem.eta * float(x @ x)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(m))


class TestGaussianMaxAffine:
    def test_value_and_derivatives_match_quadrature(self):
        from scipy.integrate import quad

        from adasa.problems import _gaussian_max_affine, _upper_envelope

        rng = np.random.default_rng(1)
        v = rng.uniform(0, 1, 6)
        s = rng.uniform(0, 1, 6)
        v_h, s_h, knots = _upper_envelope(v, s)
        assert np.all(np.diff(knots) > 0)

        def psi_quad(mu, sigma):
            f = lambda u: np.max(v + s * u) * math.exp(
                -0.5 * ((u - mu) / sigma) ** 2
            ) / (sigma * math.sqrt(2 * math.pi))
            return quad(f, mu - 12 * sigma, mu + 12 * sigma, limit=800,
                        epsabs=1e-12, epsrel=1e-12)[0]

        h = 1e-4
        for mu in (-3.0, -0.5, 0.4, 2.0):
            for sigma in (0.05, 0.4, 1.5):
                val, dmu, dsig = _gaussian_max_affine(
                    np.array([mu]), np.array([sigma]), v_h, s_h, knots
                )
                assert val[0] == pytest.approx(psi_quad(mu, sigma), abs=1e-9)
                fd_mu = (psi_quad(mu + h, sigma) - psi_quad(mu - h, sigma)) / (2 * h)
                fd_sig = (psi_quad(mu, sigma + h) - psi_quad(mu, sigma - h)) / (2 * h)
                assert dmu[0] == pytest.approx(fd_mu, abs=1e-7)
                assert dsig[0] == pytest.approx(fd_sig, abs=1e-7)

    def test_zero_sigma_is_the_envelope_without_warnings(self):
        from adasa.problems import _upper_envelope

        v_h, s_h, knots = _upper_envelope(
            np.array([1.0, 0.5, -1.0]), np.array([-0.5, 0.25, 1.0])
        )
        assert knots.size == 2
        mu = np.array([-4.0, knots[0] - 0.5, knots.mean(), knots[1] + 0.5, 50.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, dmu, dsig = _gaussian_max_affine(mu, np.zeros(5), v_h, s_h, knots)
        pieces = v_h[None, :] + s_h[None, :] * mu[:, None]
        assert np.array_equal(val, pieces.max(axis=1))
        assert np.array_equal(dmu, s_h[pieces.argmax(axis=1)])
        assert np.array_equal(dsig, np.zeros(5))


def _normal_cdf_of(z):
    """problems._normal_cdf given the exponential as _gaussian_max_affine
    forms it."""
    with np.errstate(over="ignore"):
        e = np.exp(-0.5 * z**2)
    return problems_mod._normal_cdf(z, e)


class TestNormalCdf:
    # a grid over [-38, 9], a log-spaced lower tail down to -38.4, where Phi is
    # subnormal from z ~ -37.5 on, and the floats at and next to the range
    # edges |z| = 0.5 sqrt(2) and 4 sqrt(2)
    edges = np.array([0.5, 4.0]) * math.sqrt(2.0)
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 9.0)])
    grid = np.concatenate(
        [np.linspace(-38.0, 9.0, 9401), -np.geomspace(1.0, 38.4, 400), edges, -edges]
    )

    def test_matches_mpmath_to_the_stated_error(self):
        mpmath = pytest.importorskip("mpmath")
        z = self.grid
        with mpmath.workdps(40):
            exact = [mpmath.ncdf(mpmath.mpf(v)) for v in z.tolist()]
            err = np.array(
                [float(abs(mpmath.mpf(g) - x)) for g, x in zip(_normal_cdf_of(z).tolist(), exact)]
            )
        ref = np.array([float(x) for x in exact])
        normal = ref >= np.finfo(float).tiny
        assert normal.sum() > 9_000 and 0 < (~normal).sum() < 200
        rel = err / ref
        assert rel[np.abs(z) <= 5.0].max() <= 1.5e-15
        assert rel[normal].max() <= 5.7e-14
        assert (err[normal] / np.spacing(ref[normal])).max() <= 498
        # subnormal Phi: the same relative error, plus the last place's rounding
        assert np.all(err[~normal] <= 5.7e-14 * ref[~normal] + 2.0**-1074)

    def test_agrees_with_scipy_ndtr(self):
        from scipy.special import ndtr  # a cross-check only; no adasa path loads it

        z = np.concatenate([self.grid, np.random.default_rng(3).normal(0.0, 3.0, 5_000)])
        want = ndtr(z)
        got = _normal_cdf_of(z)
        near = np.abs(z) <= 5.0
        assert np.all(np.abs(got - want)[near] <= 5.6e-15 * want[near])
        normal = want >= np.finfo(float).tiny
        assert np.all(np.abs(got - want)[normal] <= 3e-13 * want[normal])

    def test_special_values_without_warnings(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-320, -1e-320,
                      -38.5, -40.0, 40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _normal_cdf_of(z)
        assert got[:2].tolist() == [0.5, 0.5]
        assert got[2:4].tolist() == [1.0, 0.0]
        assert math.isnan(got[4])
        assert got[5:11].tolist() == [1.0, 0.0, 0.5, 0.5, 0.0, 0.0]
        assert got[11] == 1.0

    def test_is_elementwise_whatever_the_shape(self):
        z = np.random.default_rng(4).normal(0.0, 4.0, (300, 4))
        whole = _normal_cdf_of(z)
        for j in range(4):
            assert np.array_equal(whole[:, j], _normal_cdf_of(np.ascontiguousarray(z[:, j])))


class TestBimatrixProblem:
    def test_matrix_structure(self):
        problem = BimatrixProblem(n=6, eta=0.01, epsilon=0.2)
        a = problem.matrix
        assert np.allclose(a, a.T)
        assert a[5, 5] == 1.0
        assert np.all((a > 0) & (a <= 1))
        assert a[0, 0] == pytest.approx(1.0 / 11.0)

    def test_vertex_index_is_deterministic(self):
        problem = BimatrixProblem(n=5, eta=0.01, epsilon=0.2)
        y = np.zeros(5)
        y[2] = 1.0
        rng = np.random.default_rng(8)
        for _ in range(20):
            gx, _ = problem.sampled_gradient(np.full(5, 0.2), y, rng)
            assert np.array_equal(gx, problem.matrix[2])

    def test_simplex_weights_equal_coordinates(self):
        # index q is drawn on [cumsum(y)[q - 1], cumsum(y)[q]), a width of y_q
        rng = np.random.default_rng(9)
        y = rng.dirichlet(np.ones(7))
        uniforms = np.linspace(0.0, 1.0, 100_001)[:-1]
        counts = np.bincount(_draw_index(y, uniforms), minlength=7)
        assert np.allclose(counts / uniforms.size, y, atol=2e-5)

    def test_zero_mean_sampled_gradient(self):
        # the paper's symmetric matrix, and a non-symmetric one on which drawing
        # a column for x (mean Ay) instead of a row (mean A^T y) is caught
        rng = np.random.default_rng(10)
        for matrix in (None, rng.uniform(size=(8, 8))):
            problem = BimatrixProblem(n=8, eta=0.01, epsilon=0.2, matrix=matrix)
            x = rng.dirichlet(np.ones(8))
            y = rng.dirichlet(np.ones(8))
            m = 100_000
            draws = np.empty((m, 16))
            for i in range(m):
                gx, gy = problem.sampled_gradient(x, y, rng)
                draws[i, :8] = gx
                draws[i, 8:] = gy
            exact = np.concatenate(problem.exact_gradient(x, y))
            err = np.linalg.norm(draws.mean(axis=0) - exact)
            tol = 3.0 * math.sqrt(draws.var(axis=0).sum() / m)
            assert err <= tol

    def test_oracle_means_match_reference_operator(self):
        # the engine's oracle and the pilot's block draws are unbiased for the
        # regularized operator (A^T y + eta x, -A x + eta y), built here from
        # exact_gradient, at a smoothing radius whose perturbed points leave
        # the orthant; the oracle returns its y-part in the ascent convention,
        # A x - eta y. A non-symmetric A tells a row draw from a column draw,
        # and Dirichlet(0.3) points sit near the simplices' faces.
        rng = np.random.default_rng(12)
        n = 20
        problem = BimatrixProblem(
            n=n, eta=0.2, epsilon=0.2, matrix=rng.uniform(size=(n, n))
        )
        x = rng.dirichlet(np.full(n, 0.3))
        y = rng.dirichlet(np.full(n, 0.3))
        gx, gy = problem.exact_gradient(x, y)
        exact = np.concatenate([gx + problem.eta * x, -gy - problem.eta * y])
        oracle = problem.run_oracle()
        m = 50_000
        engine = np.array(
            [np.concatenate(oracle(x, y, row)) for row in problem.draw(m, rng)]
        )
        pilot = problem.oracle_samples(x, y, m, rng)
        for draws in (engine, pilot):
            # every coordinate within 4 standard errors of the operator
            z = (draws.mean(axis=0) - exact) / np.sqrt(draws.var(axis=0) / m)
            assert np.abs(z).max() <= 4.0

    def test_oracle_samples_match_the_frozen_formula_bitwise(self):
        # perturbed points leave the orthant and x has zero weights, so the
        # signed zeros of both blocks and the empty index intervals are
        # exercised
        rng = np.random.default_rng(29)
        x, y = rng.dirichlet(np.ones(20)), np.full(20, 0.05)
        x[:3] = 0.0
        for matrix in (None, rng.normal(size=(20, 20))):
            problem = BimatrixProblem(n=20, eta=0.3, epsilon=0.5, matrix=matrix)
            for m in (10, smoothing.ROW_BLOCK - 1, smoothing.ROW_BLOCK + 3, 2 * smoothing.ROW_BLOCK + 5):
                got_rng, want_rng = np.random.default_rng(m), np.random.default_rng(m)
                got = problem.oracle_samples(x, y, m, got_rng)
                want = _frozen_oracle_samples(problem, x, y, m, want_rng)
                assert got.tobytes() == want.tobytes()
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_oracle_samples_memory(self):
        # the rows are built in the ball block, a block of rows at a time
        problem = BimatrixProblem(n=20, eta=0.01, epsilon=0.2)
        x = np.full(20, 0.05)
        rng = np.random.default_rng(30)
        assert _traced_peak(lambda: problem.oracle_samples(x, x, 10_000, rng)) < 8 * 2**20

    def test_regularized_secant_inequalities(self):
        # eta-strong convexity in x and eta-strong concavity in y
        problem = BimatrixProblem(n=5, eta=0.3, epsilon=0.2)
        a, eta = problem.matrix, 0.3
        rng = np.random.default_rng(11)

        def lagrangian(x, y):
            return y @ a @ x + 0.5 * eta * x @ x - 0.5 * eta * y @ y

        for _ in range(100):
            x1, x2 = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
            y = rng.dirichlet(np.ones(5))
            gx = a.T @ y + eta * x1
            lhs = lagrangian(x2, y) - lagrangian(x1, y)
            assert lhs >= gx @ (x2 - x1) + 0.5 * eta * np.sum((x2 - x1) ** 2) - 1e-12
            y1, y2 = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
            x = rng.dirichlet(np.ones(5))
            gy = a @ x - eta * y1
            lhs = lagrangian(x, y2) - lagrangian(x, y1)
            assert lhs <= gy @ (y2 - y1) - 0.5 * eta * np.sum((y2 - y1) ** 2) + 1e-12

    def test_run_oracle_determinism(self):
        problem = BimatrixProblem(n=6, eta=0.01, epsilon=0.2)
        oracle = problem.run_oracle()
        x = np.full(6, 1 / 6)
        outs1, outs2 = (
            [oracle(x, x, row) for row in problem.draw(2, np.random.default_rng(3))]
            for _ in range(2)
        )
        for (a1, b1), (a2, b2) in zip(outs1, outs2):
            assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def _frozen_oracle_samples(problem, x, y, m, rng):
    """BimatrixProblem.oracle_samples with one new array per operation in
    place of its in-place rows: the same draws, the indices drawn at the
    feasible pair."""
    n, eta, a = problem.n, problem.eta, problem.matrix
    zeta = smoothing.sample_ball_batch(m, 2 * n, problem.epsilon, rng)
    uniforms = rng.uniform(size=(m, 2))
    xh = x + zeta[:, :n]
    yh = y + zeta[:, n:]
    # cumulative weights at or below each uniform, capped at n - 1
    l_row = np.minimum(np.cumsum(y / y.sum()).searchsorted(uniforms[:, 0], "right"), n - 1)
    l_col = np.minimum(np.cumsum(x / x.sum()).searchsorted(uniforms[:, 1], "right"), n - 1)
    return np.hstack([a[l_row] + eta * xh, a.T[l_col] - eta * yh])


class TestBatchedDraws:
    def test_bimatrix_oracle_samples_equal_run_oracle_bitwise(self):
        # the SA oracle on row k of draw is row k of the pilot; perturbed
        # points leave the orthant, so the signs of both blocks are exercised
        m = 500
        x = np.full(20, 1.0 / 20)
        y = np.random.default_rng(22).dirichlet(np.ones(20))
        for matrix in (None, np.random.default_rng(31).normal(size=(20, 20))):
            problem = BimatrixProblem(n=20, eta=0.3, epsilon=0.5, matrix=matrix)
            rows = problem.draw(m, np.random.default_rng(23))
            assert rows.shape == (m, 42)
            oracle = problem.run_oracle()
            want = np.array([np.concatenate(oracle(x, y, row)) for row in rows])
            got = problem.oracle_samples(x, y, m, np.random.default_rng(23))
            assert got.tobytes() == want.tobytes()

    def test_utility_pilot_rows_equal_smoothed_oracle(self):
        # the SA oracle on row k of draw is row k of the pilot before the
        # truncation, which then differs only in how the norm is summed
        problem = UtilityProblem.from_seed(20, eta=0.5, epsilon=0.5, seed=4)
        m = 500
        x0 = np.zeros(20)
        x0[-1] = 1.0
        rows = problem.draw(m, np.random.default_rng(23))
        assert rows.shape == (m, 40)
        pilot = problem.subgradient_samples(x0, m, np.random.default_rng(23))
        plain = smoothing.smoothed_oracle(problem.oracle, 20)
        want = np.array([plain(x0, row) for row in rows])
        assert pilot.tobytes() == want.tobytes()
        cap = float(np.median(np.linalg.norm(want, axis=1)))  # truncate half
        got = smoothing.truncate_rows(pilot, cap)
        capped_oracle = smoothing.smoothed_oracle(problem.oracle, 20, cap)
        want = np.array([capped_oracle(x0, row) for row in rows])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        capped = np.linalg.norm(want, axis=1) >= cap * (1.0 - 1e-12)
        assert 0 < capped.sum() < m

    def test_utility_samples_equal_the_unblocked_formula_bitwise(self):
        problem = UtilityProblem.from_seed(20, eta=0.5, epsilon=0.5, seed=4)
        m = 2 * smoothing.ROW_BLOCK + 3
        x = np.random.default_rng(24).dirichlet(np.ones(20))
        rng = np.random.default_rng(25)
        coeff = problem.coeff_base + rng.standard_normal((m, 20))
        points = x + smoothing.sample_ball_batch(m, 20, problem.epsilon, rng)
        t = np.einsum("ij,ij->i", coeff, points)
        active = np.argmax(problem.intercepts + problem.slopes * t[:, None], axis=1)
        want = problem.slopes[active][:, None] * coeff + problem.eta * points
        got = problem.subgradient_samples(x, m, np.random.default_rng(25))
        assert np.array_equal(got, want)


class TestNetworkProblem:
    def test_gradient_at_origin(self):
        a = np.array([[1.0, 0.0], [1.0, 1.0]])
        k = np.array([0.4, 0.9])
        assert np.allclose(network_gradient(np.zeros(2), k, a), -k)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        a = (rng.uniform(size=(5, 4)) < 0.5).astype(float)
        a[a.sum(axis=1) == 0, 0] = 1.0
        k = rng.uniform(0.2, 1.0, 4)
        x = rng.uniform(0.0, 0.4, 4)
        g = network_gradient(x, k, a)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (network_value(x + e, k, a) - network_value(x - e, k, a)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6)

    def test_log_domain_error(self):
        with pytest.raises(ValueError):
            network_gradient(np.array([-1.5]), np.array([0.5]), np.array([[1.0]]))

    @pytest.mark.parametrize("k_range", [(0.2, 1.0), (4.0, 4.0), (-3.0, 7.5)])
    def test_sample_k_equals_uniform_bitwise(self, k_range):
        problem = NetworkProblem.from_seed(5, "c3", seed=1, k_range=k_range)
        got, want = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2000):
            assert problem.sample_k(got).tobytes() == want.uniform(*k_range, 5).tobytes()

    @pytest.mark.parametrize("k_range", [(0.2, 1.0), (-3.0, 7.5)])
    def test_draw_rows_equal_sample_k_calls_bitwise(self, k_range):
        problem = NetworkProblem.from_seed(5, "c3", seed=1, k_range=k_range)
        got, want = np.random.default_rng(8), np.random.default_rng(8)
        rows = problem.draw(300, got)
        assert rows.tobytes() == np.array([problem.sample_k(want) for _ in range(300)]).tobytes()
        assert got.bit_generator.state == want.bit_generator.state

    def test_oracle_equals_network_gradient_bitwise(self):
        problem = NetworkProblem.from_seed(5, "c3", seed=2)
        points = np.random.default_rng(6).uniform(0.0, 0.3, (500, 5))
        for x, k in zip(points, problem.draw(500, np.random.default_rng(7))):
            g = problem.oracle(x, k)
            h = network_gradient(x, k, problem.link_matrix)
            assert g.tobytes() == h.tobytes()
        with pytest.raises(ValueError, match="log"):
            problem.oracle(np.full(5, -1.0), k)

    def test_capacity_presets(self):
        c3 = capacity_vector("c3")
        assert np.allclose(capacity_vector("c1"), 2 * c3)
        assert np.allclose(capacity_vector("c2"), c3 / 0.75)
        with pytest.raises(ValueError):
            capacity_vector("c4")

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.inf, np.nan])
    def test_nonpositive_or_nonfinite_capacity_names_the_link(self, bad):
        with pytest.raises(ValueError, match="link 1 has capacity"):
            NetworkProblem(n=2, link_matrix=[[1, 0], [0, 1]], capacity=[0.5, bad])

    def test_from_seed_connectivity(self):
        for seed in range(5):
            problem = NetworkProblem.from_seed(5, "c3", seed=seed)
            assert np.all(problem.link_matrix.sum(axis=1) >= 1)
            assert np.all(problem.link_matrix.sum(axis=0) >= 1)

    def test_constants_are_coherent(self):
        problem = NetworkProblem.from_seed(5, "c3", seed=3)
        consts = problem.constants()
        assert 0 < consts["eta"] <= consts["lip"]
        assert consts["nu2"] == pytest.approx(5 * 0.8**2 / 12.0)
        assert consts["d2"] > 0

    def test_single_user_closed_form(self):
        problem = NetworkProblem(
            n=1,
            link_matrix=np.array([[1.0]]),
            capacity=np.array([10.0]),
            k_range=(4.0, 4.0),
        )
        ref = saa_reference(problem, sample_size=1000, seed=0, grad_map_tol=1e-12)
        assert abs(ref.point[0] - 1.0) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_saa_hessian_matches_central_differences(self, seed):
        problem = NetworkProblem.from_seed(5, "c3", seed=seed)
        saa = problem.build_saa(1000, np.random.default_rng(0))
        rng = np.random.default_rng(seed)
        h = 1e-6
        for _ in range(3):
            # n * max(x) < min(C), so A x < C: interior and feasible
            x = rng.uniform(0.1, 0.9, 5) * problem.capacity.min() / 5
            hess = saa.hessian(x)
            assert np.array_equal(hess, hess.T)
            fd = np.empty((5, 5))
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd[:, i] = (saa.value_grad(x + e)[1] - saa.value_grad(x - e)[1]) / (2 * h)
            assert np.max(np.abs(hess - fd)) <= 1e-8

    def test_reference_uses_the_exact_mean_k(self):
        # the cost is linear in k, so the SAA is the cost at (k_lo + k_hi)/2
        # and neither the sample size nor the seed moves the reference
        problem = NetworkProblem.from_seed(5, "c3", seed=0)
        x = np.full(5, 0.01)
        value, grad = problem.build_saa(1000, np.random.default_rng(0)).value_grad(x)
        k_mean = np.full(5, 0.6)
        assert value == pytest.approx(network_value(x, k_mean, problem.link_matrix), rel=1e-14)
        assert np.allclose(grad, network_gradient(x, k_mean, problem.link_matrix), rtol=1e-14)
        refs = [saa_reference(problem, sample_size=m, seed=s) for m, s in [(1000, 0), (50_000, 7)]]
        assert refs[0].converged
        assert np.array_equal(refs[0].point, refs[1].point)


class _QuadraticToy:
    """Strongly convex quadratic with a known minimizer, for the solver oracle.

    The SAA carries the Hessian hessian_scale * I (the true one is I); it
    counts its value_grad calls in `evaluations`.
    """

    def __init__(self, target, hessian_scale=1.0):
        self.target = np.asarray(target, dtype=float)
        self.hessian_scale = hessian_scale
        self.evaluations = 0

    def build_saa(self, sample_size, rng):
        b = self.target

        def value_grad(x):
            self.evaluations += 1
            d = x - b
            return 0.5 * float(d @ d), d

        scale = self.hessian_scale
        return SaaMinimization(
            value_grad=value_grad,
            proj=lambda v: v,
            x0=np.zeros_like(b),
            hessian=lambda x: scale * np.eye(b.size),
        )


class TestSaaReference:
    def test_quadratic_matches_closed_form(self):
        toy = _QuadraticToy([0.3, -1.2, 2.5])
        ref = saa_reference(toy, sample_size=1000, seed=0)
        assert np.allclose(ref.point, toy.target, atol=1e-6)
        assert ref.converged

    def test_overstated_curvature_takes_short_full_steps(self):
        # a Hessian 10x too large makes the model step 1/10 of the way: Armijo
        # accepts each unit step as it is, one evaluation per step
        toy = _QuadraticToy([0.3, -1.2, 2.5], hessian_scale=10.0)
        ref = saa_reference(toy, sample_size=1000, seed=0)
        assert ref.converged
        assert np.allclose(ref.point, toy.target, atol=1e-6)
        assert ref.iterations > 100
        assert toy.evaluations == ref.iterations + 1

    def test_understated_curvature_backtracks(self):
        # a Hessian 10x too small overshoots 10-fold: F rises at steps 1, 1/2
        # and 1/4, so every outer step evaluates F four times to accept 1/8
        toy = _QuadraticToy([0.3, -1.2, 2.5], hessian_scale=0.1)
        ref = saa_reference(toy, sample_size=1000, seed=0)
        assert ref.converged
        assert np.allclose(ref.point, toy.target, atol=1e-6)
        assert toy.evaluations == 4 * ref.iterations + 1

    @pytest.mark.parametrize(
        "problem",
        [
            UtilityProblem.from_seed(5, eta=0.5, epsilon=0.5, seed=14),
            NetworkProblem.from_seed(5, "c3", seed=0),
        ],
        ids=["utility", "network"],
    )
    def test_certificate_is_recomputable(self, problem):
        ref = saa_reference(problem, sample_size=2000, seed=21)
        assert ref.converged
        p = ref.point
        assert np.all(p >= 0.0)
        if isinstance(problem, UtilityProblem):
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
        else:
            assert np.all(problem.link_matrix @ p <= problem.capacity + 1e-9)
        saa = problem.build_saa(2000, np.random.default_rng(21))
        residual = np.linalg.norm(p - saa.proj(p - saa.value_grad(p)[1]))
        assert residual == pytest.approx(ref.grad_map_norm, rel=1e-9)
        assert residual <= 1e-8
        tight = saa_reference(problem, sample_size=2000, seed=21, grad_map_tol=1e-12)
        assert tight.converged
        assert np.linalg.norm(p - tight.point) <= 1e-6

    @pytest.mark.parametrize(
        "problem",
        [
            UtilityProblem.from_seed(5, eta=0.5, epsilon=0.5, seed=14),
            NetworkProblem.from_seed(5, "c3", seed=0),
        ],
        ids=["utility", "network"],
    )
    def test_budget_exhaustion_returns_certified_point_and_warns(self, problem, caplog):
        with caplog.at_level(logging.WARNING, logger="adasa"):
            ref = saa_reference(problem, sample_size=2000, seed=21, max_iter=1)
        assert "returning best iterate" in caplog.text
        assert not ref.converged
        p = ref.point
        assert np.all(p >= 0.0)
        if isinstance(problem, UtilityProblem):
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
        else:
            assert np.all(problem.link_matrix @ p <= problem.capacity)
        saa = problem.build_saa(2000, np.random.default_rng(21))
        residual = np.linalg.norm(p - saa.proj(p - saa.value_grad(p)[1]))
        assert residual == pytest.approx(ref.grad_map_norm, rel=1e-9)
        assert residual > 1e-8

    def test_bimatrix_unregularized_limit(self):
        # as eta -> 0 the saddle point approaches (e_1, e_n)
        problem = BimatrixProblem(n=10, eta=1e-4, epsilon=0.2)
        ref = saa_reference(problem, sample_size=1000, seed=0)
        target = np.zeros(20)
        target[0] = 1.0
        target[-1] = 1.0
        assert np.linalg.norm(ref.point - target) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("eta", [0.05, 2.0])
    @pytest.mark.parametrize("n", [5, 50])
    def test_utility_first_block_hessian_finds_the_full_hessians_minimizer(
        self, n, eta, seed
    ):
        # Newton's model Hessian reads the first of 3 blocks; the full-sample
        # Hessian must lead to the same certified point in as many steps, +-1
        m = 3 * smoothing.ROW_BLOCK
        problem = UtilityProblem.from_seed(n, eta=eta, epsilon=0.5, seed=seed)
        ref = saa_reference(problem, sample_size=m, seed=seed)
        assert ref.converged and ref.grad_map_norm <= 1e-8

        z = smoothing.sample_ball_batch(m, n, problem.epsilon, np.random.default_rng(seed))
        saa = problem.build_saa(m, np.random.default_rng(seed))
        full = replace(saa, hessian=lambda x: _full_formula_hessian(problem, z, x))
        want = problems_mod._minimize_newton(full, 1e-8, 500_000)
        assert want.converged
        assert np.max(np.abs(ref.point - want.point)) <= 1e-6
        assert abs(ref.iterations - want.iterations) <= 1

    def test_default_utility_reference_newton_steps(self):
        # the CLI's utility reference at seed 0 (n = 20, 100k samples); a
        # count repeats exactly where a timing does not
        config = resolve_config("utility", "csa")
        setup = build_setup(config)
        ref = saa_reference(
            setup.problem,
            sample_size=config.saa_samples,
            seed=np.random.default_rng([config.seed, _TAG_REFERENCE]),
        )
        assert ref.converged and ref.grad_map_norm <= 1e-8
        assert ref.iterations == 4

    def test_repeatability(self):
        problem = UtilityProblem.from_seed(5, eta=0.5, epsilon=0.5, seed=14)
        r1 = saa_reference(problem, sample_size=2000, seed=21)
        r2 = saa_reference(problem, sample_size=2000, seed=21)
        assert np.array_equal(r1.point, r2.point)

    def test_sample_size_floor(self):
        with pytest.raises(ValueError):
            saa_reference(_QuadraticToy([0.0]), sample_size=10, seed=0)


class _Counted:
    """A function that counts its calls."""

    def __init__(self, function):
        self.function, self.calls = function, 0

    def __call__(self, *args):
        self.calls += 1
        return self.function(*args)


class TestInnerSolver:
    """_minimize_projected projects once per iteration, once for proj(x0) and
    once per certification, and certifies the point it returns."""

    # an ill-conditioned quadratic model on the simplex with a boundary
    # minimizer: H = QQ^T + 0.01 I, grad = H p - b
    _rng = np.random.default_rng(3)
    _q = _rng.standard_normal((6, 6))
    _h = _q @ _q.T + 0.01 * np.eye(6)
    _b = _rng.standard_normal(6)
    _step = 1.0 / float(np.linalg.eigvalsh(_h)[-1])
    _x0 = np.full(6, 1.0 / 6.0)

    def _grad(self, p):
        return self._h @ p - self._b

    def _certificate(self, p):
        return float(np.linalg.norm(p - project_simplex(p - self._grad(p))))

    @pytest.mark.parametrize("max_iter", [1, 7, 40])
    def test_budget_run_projects_once_per_iteration(self, max_iter, caplog):
        proj = _Counted(project_simplex)
        with caplog.at_level(logging.WARNING, logger="adasa"):
            ref = _minimize_projected(self._grad, proj, self._x0, self._step, 0.0, max_iter)
        assert "returning best iterate" in caplog.text
        assert not ref.converged and ref.iterations == max_iter
        # proj(x0), one per step, and the certification of the last iterate
        assert proj.calls == max_iter + 2
        assert ref.grad_map_norm == self._certificate(ref.point)

    def test_converged_run_certifies_once(self):
        proj = _Counted(project_simplex)
        ref = _minimize_projected(self._grad, proj, self._x0, self._step, 1e-10, 100_000)
        assert ref.converged and ref.iterations > 20
        assert proj.calls == ref.iterations + 2
        assert ref.grad_map_norm == self._certificate(ref.point) <= 1e-10

    def test_a_feasible_solution_is_certified_with_the_gradient_in_hand(self):
        # from a point that already meets the tolerance, the first step's gap
        # triggers certification of y = proj(x0), which has no momentum
        x0 = _minimize_projected(
            self._grad, project_simplex, self._x0, self._step, 1e-12, 100_000
        ).point
        grads = []

        def grad(p):
            grads.append(p)
            return self._grad(p)

        proj = _Counted(project_simplex)
        ref = _minimize_projected(grad, proj, x0, self._step, 1e-8, 100_000)
        assert ref.converged and ref.iterations == 1
        assert np.array_equal(ref.point, project_simplex(x0))
        assert len(grads) == 1 and proj.calls == 3
        assert ref.grad_map_norm == self._certificate(ref.point) <= 1e-8

    def test_network_reference_makes_fewer_projections_and_nnls_calls(self, monkeypatch):
        # the CLI's seed-0 instance, the bench's; a residual computed at every
        # inner iteration made 106 projections, 6 of them by NNLS
        problem = NetworkProblem.from_seed(5, "c3", seed=np.random.default_rng([0, _TAG_PROBLEM]))
        projections = _Counted(problem.projection())
        solves = _Counted(problems_mod._nnls)
        monkeypatch.setattr(problem, "projection", lambda: projections)
        monkeypatch.setattr(problems_mod, "_nnls", solves)
        ref = saa_reference(problem)
        assert ref.converged and ref.grad_map_norm <= 1e-8
        assert 0 < projections.calls < 106
        assert solves.calls < 6


def _saddle_residual(problem, point):
    """Natural residual ||z - P(z - F(z))|| of the regularized game at the
    stacked z = (x, y), F = (A^T y + eta x, -A x + eta y) from exact_gradient."""
    n, eta = problem.n, problem.eta
    x, y = point[:n], point[n:]
    gx, gy = problem.exact_gradient(x, y)
    fx, fy = gx + eta * x, gy + eta * y
    return float(
        np.linalg.norm(
            np.concatenate([x - project_simplex(x - fx), y - project_simplex(y - fy)])
        )
    )


def _frozen_extragradient(problem, tol=1e-10, max_iter=200_000):
    """Extragradient on the saddle operator at step 0.7/L from the two
    barycentres, the solver the bimatrix reference used before the game was
    reduced to a minimization in x."""
    a, eta = problem.matrix, problem.eta
    gamma = 0.7 / problem.lipschitz()
    x = y = np.full(problem.n, 1.0 / problem.n)

    def operator(x, y):
        return a.T @ y + eta * x, -(a @ x) + eta * y

    for _ in range(max_iter):
        if _saddle_residual(problem, np.concatenate([x, y])) <= tol:
            return np.concatenate([x, y])
        fx, fy = operator(x, y)
        xm, ym = project_simplex(x - gamma * fx), project_simplex(y - gamma * fy)
        fx, fy = operator(xm, ym)
        x, y = project_simplex(x - gamma * fx), project_simplex(y - gamma * fy)
    raise AssertionError("extragradient did not converge")


class TestBimatrixReference:
    """The game's reference: x* minimizes phi(x) = max_y L(x, y) by projected
    Newton, lifted to the stacked (x*, P(Ax*/eta))."""

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("eta", [1e-4, 0.01, 0.05])
    def test_default_game_converges(self, n, eta):
        problem = BimatrixProblem(n=n, eta=eta, epsilon=0.2)
        ref = saa_reference(problem, sample_size=1000, seed=0)
        assert ref.converged
        assert ref.grad_map_norm <= 1e-8
        assert _saddle_residual(problem, ref.point) <= 1e-8

    @pytest.mark.parametrize("kind", ["uniform", "gaussian"])
    @pytest.mark.parametrize("n", [5, 20])
    @pytest.mark.parametrize("eta", [0.2, 0.5])
    def test_random_game_matches_extragradient_and_certifies_the_pair(
        self, kind, n, eta
    ):
        rng = np.random.default_rng(40 + n)
        matrix = rng.uniform(size=(n, n)) if kind == "uniform" else rng.normal(size=(n, n))
        problem = BimatrixProblem(n=n, eta=eta, epsilon=0.2, matrix=matrix)
        ref = saa_reference(problem, sample_size=1000, seed=0)
        assert ref.converged
        assert ref.point.shape == (2 * n,)
        assert np.linalg.norm(ref.point - _frozen_extragradient(problem)) <= 1e-6
        # at (x, y(x)) the y-part of the natural residual is zero, so phi's
        # gradient-mapping residual is the residual of the pair
        residual = _saddle_residual(problem, ref.point)
        assert abs(residual - ref.grad_map_norm) <= 1e-12
        assert residual <= 1e-8

    @pytest.mark.parametrize("eta", [0.1, 0.01])
    @pytest.mark.parametrize("kind", ["uniform", "gaussian"])
    def test_off_default_game_converges(self, kind, eta):
        # the fast half of the reference's off-default gate set
        rng = np.random.default_rng(0)
        matrix = rng.uniform(size=(20, 20)) if kind == "uniform" else rng.standard_normal((20, 20))
        problem = BimatrixProblem(n=20, eta=eta, epsilon=0.2, matrix=matrix)
        ref = saa_reference(problem, sample_size=1000, seed=0)
        assert ref.converged
        assert ref.grad_map_norm <= 1e-8
        assert _saddle_residual(problem, ref.point) <= 1e-8

    def test_bench_instance_is_the_vertex_pair(self):
        problem = BimatrixProblem(n=20, eta=0.01, epsilon=0.2)
        ref = saa_reference(problem, sample_size=100_000, seed=0)
        target = np.zeros(40)
        target[0] = target[-1] = 1.0
        assert ref.point.tobytes() == target.tobytes()
        assert ref.converged and ref.iterations == 1

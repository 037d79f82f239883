import math

import numpy as np
import pytest

from adasa.bounds import rsa_bound_trajectory
from adasa import problems
from adasa.problems import project_simplex
from adasa.sa_core import (
    Trajectory,
    run_sa,
    run_saddle_sa,
    sa_step,
    saddle_step,
)
from adasa.smoothing import ROW_BLOCK
from adasa.steplength import StepSchedule, rsa_steps


def no_noise(m, rng):
    """A block sampler for noise-free oracles: m empty rows."""
    return np.empty((m, 0))


def normals(width):
    """A block sampler of standard normal rows of the given width."""
    return lambda m, rng: rng.standard_normal((m, width))


class FixedPolicy:
    def __init__(self, gamma):
        self.gamma = gamma

    def next_gamma(self):
        return self.gamma


class TestSaStep:
    def test_zero_gradient_is_fixed_point(self):
        x = np.array([0.5, 0.5])
        out = sa_step(x, np.zeros(2), 1.0, project_simplex)
        assert np.allclose(out, x)

    def test_projection_pulls_back_to_vertex(self):
        out = sa_step(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1.0, project_simplex)
        assert np.allclose(out, [1.0, 0.0])

    def test_identity_projection_plain_step(self):
        out = sa_step(np.array([0.5, 0.5]), np.array([1.0, -1.0]), 0.25, None)
        assert np.allclose(out, [0.25, 0.75])

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ValueError):
            sa_step(np.array([np.inf, 0.0]), np.zeros(2), 0.1, None)
        with pytest.raises(ValueError):
            sa_step(np.zeros(2), np.array([np.nan, 0.0]), 0.1, None)
        with pytest.raises(ValueError):
            sa_step(np.zeros(2), np.zeros(2), -0.1, None)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sa_step(np.zeros(2), np.zeros(3), 0.1, None)


class TestRunSa:
    def test_deterministic_quadratic_contraction(self):
        # f(x) = ||x||^2/2 with no noise and gamma = 0.5: x_k = 0.5^k
        traj = run_sa(
            oracle=lambda x, row: x,
            draw=no_noise,
            proj=None,
            policy=FixedPolicy(0.5),
            x0=np.array([1.0]),
            n_iters=20,
            reference=np.array([0.0]),
            rng=np.random.default_rng(0),
        )
        assert traj.gammas.tolist() == [0.5] * 20
        for k, err in enumerate(traj.squared_errors):
            assert err == pytest.approx(0.25**k, rel=1e-12)
        assert traj.terminal_squared_error == pytest.approx(0.25**20, rel=1e-12)

    def test_single_iteration_budget(self):
        traj = run_sa(
            lambda x, row: x, no_noise, None, FixedPolicy(0.5), np.array([1.0]), 1,
            np.array([0.0]), np.random.default_rng(0),
        )
        assert traj.gammas.tolist() == [0.5]
        assert traj.squared_errors.tolist() == [1.0]
        assert traj.terminal_squared_error == 0.25

    def test_policy_failure_on_nonpositive_gamma(self):
        with pytest.raises(ValueError, match="steplength"):
            run_sa(
                lambda x, row: x, no_noise, None, FixedPolicy(0.0), np.array([1.0]), 3,
                np.array([0.0]), np.random.default_rng(0),
            )

    def test_every_iterate_feasible(self):
        seen = []

        def recording_proj(v):
            out = project_simplex(v)
            seen.append(out)
            return out

        run_sa(
            oracle=lambda x, row: row,
            draw=normals(6),
            proj=recording_proj,
            policy=FixedPolicy(0.3),
            x0=np.full(6, 1 / 6),
            n_iters=200,
            reference=np.full(6, 1 / 6),
            rng=np.random.default_rng(1),
        )
        assert len(seen) == 200
        for x in seen:
            assert x.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(x >= 0)

    def test_seed_determinism(self):
        def noisy(x, row):
            return x + row

        runs = [
            run_sa(noisy, normals(3), None, FixedPolicy(0.1), np.ones(3), 50,
                   np.zeros(3), np.random.default_rng(123))
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].squared_errors, runs[1].squared_errors)
        assert np.array_equal(runs[0].final_point, runs[1].final_point)

    def test_reference_shape_checked(self):
        with pytest.raises(ValueError):
            run_sa(lambda x, row: x, no_noise, None, FixedPolicy(0.1), np.ones(3), 5,
                   np.zeros(2), np.random.default_rng(0))


class TestChunkedDraws:
    @pytest.mark.parametrize("engine", ["min", "saddle"])
    def test_rows_reach_their_steps_a_chunk_at_a_time(self, engine):
        # row k of the draws, in order, goes to step k; the sampler is called
        # with a full chunk, then with what is left
        sizes, seen = [], []

        def draw(m, rng):
            start = sum(sizes)
            sizes.append(m)
            return np.arange(start, start + m, dtype=float)[:, None]

        def gradient(x, row):
            seen.append(float(row[0]))
            return np.zeros_like(x)

        n_iters = ROW_BLOCK + 3
        third = np.full(3, 1 / 3)
        rng = np.random.default_rng(0)
        if engine == "min":
            run_sa(gradient, draw, None, FixedPolicy(0.1), third, n_iters, third, rng)
        else:
            run_saddle_sa(
                lambda x, y, row: (gradient(x, row), np.zeros_like(y)), draw,
                FixedPolicy(0.1), third, third, n_iters, np.zeros(6), rng,
            )
        assert sizes == [ROW_BLOCK, 3]
        assert seen == list(range(n_iters))


class TestSaddleStep:
    def test_zero_gradients_fixed_point(self):
        x, y = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        out_x, out_y = saddle_step(x, y, np.zeros(2), np.zeros(2), 0.5)
        assert np.allclose(out_x, x) and np.allclose(out_y, y)

    def test_exact_gradients_move_toward_saddle_vertices(self):
        # n=2 game matrix: column 1 dominates column 2, row 2 dominates row 1,
        # so one exact step shifts x toward e_1 and y toward e_2
        a = (np.arange(1, 3)[:, None] + np.arange(1, 3)[None, :] - 1.0) / 3.0
        eta = 0.1
        x = np.array([0.5, 0.5])
        y = np.array([0.5, 0.5])
        gx = a.T @ y + eta * x
        gy = a @ x - eta * y
        out_x, out_y = saddle_step(x, y, gx, gy, 0.2)
        assert out_x[0] > 0.5 and out_y[1] > 0.5

    def test_iterates_stay_on_simplices(self):
        rng = np.random.default_rng(2)
        x = y = np.full(4, 0.25)
        for _ in range(100):
            x, y = saddle_step(
                x, y, rng.standard_normal(4), rng.standard_normal(4), 0.3
            )
            for v in (x, y):
                assert v.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(v >= 0)

    def test_projects_through_problems_module(self, monkeypatch):
        # the simplex projection is looked up on adasa.problems at call time,
        # so a wrapper installed there sees both projections of every step
        calls = []

        def counting(v):
            calls.append(v)
            return project_simplex(v)

        monkeypatch.setattr(problems, "project_simplex", counting)
        third = np.full(3, 1 / 3)
        saddle_step(third, third, np.ones(3), np.ones(3), 0.1)
        assert len(calls) == 2

    def test_dimension_mismatch(self):
        third = np.full(3, 1 / 3)
        with pytest.raises(ValueError):
            saddle_step(third, third, np.zeros(2), np.zeros(3), 0.1)


class TestRunSaddle:
    def test_records_and_reference_stacking(self):
        def oracle(x, y, row):
            return np.zeros_like(x), np.zeros_like(y)

        ref = np.concatenate([np.full(3, 1 / 3), np.full(3, 1 / 3)])
        traj = run_saddle_sa(
            oracle, no_noise, FixedPolicy(0.1), np.full(3, 1 / 3), np.full(3, 1 / 3), 5,
            ref, np.random.default_rng(0),
        )
        assert traj.gammas.tolist() == [0.1] * 5
        assert traj.squared_errors.tolist() == [0.0] * 5
        assert traj.terminal_squared_error == 0.0

    def test_oracle_gets_views_that_later_steps_overwrite(self):
        seen, copies = [], []

        def oracle(x, y, row):
            seen.append((x, y))
            copies.append(np.concatenate([x, y]))
            return np.array([1.0, 0.0]), np.array([0.0, 1.0])

        x0, y0 = np.array([0.5, 0.5]), np.array([0.5, 0.5])
        traj = run_saddle_sa(
            oracle, no_noise, FixedPolicy(0.1), x0, y0, 3, np.zeros(4),
            np.random.default_rng(0),
        )
        assert x0.tolist() == [0.5, 0.5] and y0.tolist() == [0.5, 0.5]
        for x, y in seen:
            assert np.shares_memory(x, traj.final_point)
            assert np.concatenate([x, y]).tolist() == traj.final_point.tolist()
        assert copies[0].tolist() == [0.5, 0.5, 0.5, 0.5]
        assert copies[1].tolist() != copies[0].tolist()

    def test_reference_size_checked(self):
        with pytest.raises(ValueError):
            run_saddle_sa(
                lambda x, y, row: (x, y), no_noise, FixedPolicy(0.1),
                np.full(3, 1 / 3), np.full(3, 1 / 3), 5, np.zeros(3),
                np.random.default_rng(0),
            )


class CountingPolicy:
    """Hands out gammas[k] at step k and counts the calls."""

    def __init__(self, gammas):
        self.gammas = list(gammas)
        self.calls = 0

    def next_gamma(self):
        gamma = self.gammas[self.calls]
        self.calls += 1
        return gamma


def _faulty_at(step, good, bad=None):
    """Oracle returning bad(point) at `step` and good(point) at every other
    step (step None: never bad); the list it returns counts the calls."""
    calls = []

    def oracle(*args):
        calls.append(None)
        faulty = step is not None and len(calls) == step + 1
        return (bad if faulty else good)(*args[:-1])

    return oracle, calls


_FAULT_STEP = 4
# steplengths the engines must reject
_BAD_GAMMAS = [0.0, -0.1, math.nan, math.inf]


class TestChecksFireAtTheFaultyStep:
    """Each per-step check raises at the step where its fault occurs."""

    def _run_sa(self, oracle, gammas, proj=None):
        policy = CountingPolicy(gammas)
        with pytest.raises(ValueError) as info:
            run_sa(oracle, no_noise, proj, policy, np.full(3, 1 / 3), 10,
                   np.zeros(3), np.random.default_rng(0))
        return policy, info.value

    @pytest.mark.parametrize("bad_entry", [math.nan, math.inf, -math.inf])
    def test_nonfinite_gradient_without_projection(self, bad_entry):
        def bad(x):
            g = np.zeros_like(x)
            g[1] = bad_entry
            return g

        oracle, calls = _faulty_at(_FAULT_STEP, np.zeros_like, bad)
        policy, err = self._run_sa(oracle, [0.1] * 10)
        assert "non-finite" in str(err)
        assert len(calls) == policy.calls == _FAULT_STEP + 1

    def test_overflowing_step_without_projection(self):
        # finite x and g whose step x - gamma*g overflows
        oracle, calls = _faulty_at(
            _FAULT_STEP, np.zeros_like, lambda x: np.full_like(x, -1e308)
        )
        with np.errstate(over="ignore"):
            policy, err = self._run_sa(oracle, [10.0] * 10)
        assert "non-finite" in str(err)
        assert len(calls) == _FAULT_STEP + 1

    @staticmethod
    def _capacity(v):
        # a capacity no third of the simplex reaches, so every good step is
        # returned as it is
        return problems.project_capacity(v, np.ones((1, 3)), np.array([2.0]))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad_entry", [math.nan, math.inf, -math.inf])
    def test_nonfinite_gradient_with_capacity_projection(self, bad_entry):
        # sa_step leaves the check to the projection
        def bad(x):
            g = np.zeros_like(x)
            g[1] = bad_entry
            return g

        oracle, calls = _faulty_at(_FAULT_STEP, np.zeros_like, bad)
        policy, err = self._run_sa(oracle, [0.1] * 10, proj=self._capacity)
        assert "non-finite" in str(err)
        assert len(calls) == policy.calls == _FAULT_STEP + 1

    def test_overflowing_step_with_capacity_projection(self):
        oracle, calls = _faulty_at(
            _FAULT_STEP, np.zeros_like, lambda x: np.full_like(x, -1e308)
        )
        with np.errstate(over="ignore"):
            policy, err = self._run_sa(oracle, [10.0] * 10, proj=self._capacity)
        assert "non-finite" in str(err)
        assert len(calls) == _FAULT_STEP + 1

    @pytest.mark.parametrize("gamma", _BAD_GAMMAS)
    def test_bad_steplength_after_the_first_step(self, gamma):
        gammas = [0.1] * 10
        gammas[_FAULT_STEP] = gamma
        oracle, calls = _faulty_at(None, np.zeros_like)
        policy, err = self._run_sa(oracle, gammas, proj=project_simplex)
        assert "steplength" in str(err)
        assert policy.calls == len(calls) == _FAULT_STEP + 1

    def test_gradient_of_the_wrong_shape(self):
        oracle, calls = _faulty_at(_FAULT_STEP, np.zeros_like, lambda x: np.zeros(1))
        policy, err = self._run_sa(oracle, [0.1] * 10, proj=project_simplex)
        assert "shape" in str(err)
        assert len(calls) == _FAULT_STEP + 1

    def _run_saddle(self, oracle, gammas):
        policy = CountingPolicy(gammas)
        third = np.full(3, 1 / 3)
        with pytest.raises(ValueError) as info:
            run_saddle_sa(oracle, no_noise, policy, third, third, 10, np.zeros(6),
                          np.random.default_rng(0))
        return policy, info.value

    @staticmethod
    def _zeros(x, y):
        return np.zeros_like(x), np.zeros_like(y)

    @pytest.mark.parametrize("block", [0, 1])
    def test_saddle_nonfinite_gradient(self, block):
        def bad(x, y):
            pair = [np.zeros_like(x), np.zeros_like(y)]
            pair[block][0] = math.nan
            return tuple(pair)

        oracle, calls = _faulty_at(_FAULT_STEP, self._zeros, bad)
        policy, err = self._run_saddle(oracle, [0.1] * 10)
        assert "non-finite" in str(err)
        assert len(calls) == policy.calls == _FAULT_STEP + 1

    @pytest.mark.parametrize("gamma", _BAD_GAMMAS)
    def test_saddle_bad_steplength_after_the_first_step(self, gamma):
        gammas = [0.1] * 10
        gammas[_FAULT_STEP] = gamma
        oracle, calls = _faulty_at(None, self._zeros)
        policy, err = self._run_saddle(oracle, gammas)
        assert "steplength" in str(err)
        assert policy.calls == len(calls) == _FAULT_STEP + 1

    def test_saddle_gradient_of_the_wrong_shape(self):
        oracle, calls = _faulty_at(
            _FAULT_STEP, self._zeros, lambda x, y: (np.zeros(3), np.zeros(4))
        )
        policy, err = self._run_saddle(oracle, [0.1] * 10)
        assert "shape" in str(err)
        assert len(calls) == _FAULT_STEP + 1


class TestBoundDomination:
    def test_mean_error_below_recursion_bound_with_exact_constants(self):
        # box-constrained quadratic with Rademacher noise: eta = L = 1 and
        # nu2 = sigma^2 * n exactly, so the recursion bound must dominate the
        # replication mean at every iteration up to Monte-Carlo width
        n, sigma, reps, n_iters = 4, 0.5, 50, 1500
        eta = lip = 1.0
        nu2 = sigma**2 * n
        x0 = np.full(n, 0.5)  # ||x0 - x*||^2 = 1 <= e0 = 2 nu2/(eta L) = 2
        proj = lambda v: np.clip(v, -1.0, 1.0)

        def draw(m, rng):
            return sigma * rng.choice([-1.0, 1.0], size=(m, n))

        def oracle(x, row):
            return x + row

        # the recursion starts at eta*e0/(2 nu2) = 1/L
        gamma0 = 1.0 / lip
        errors = []
        gammas = None
        for r in range(reps):
            policy = StepSchedule(rsa_steps(gamma0, eta / 2.0, n_iters))
            traj = run_sa(oracle, draw, proj, policy, x0, n_iters, np.zeros(n),
                          np.random.default_rng(500 + r))
            errors.append(traj.squared_errors)
            gammas = traj.gammas
        errors = np.asarray(errors)
        mean = errors.mean(axis=0)
        half = 1.677 * errors.std(axis=0, ddof=1) / math.sqrt(reps)
        bound = rsa_bound_trajectory(gammas, eta, nu2)
        assert np.all(mean <= bound + half)

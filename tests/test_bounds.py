import math

import numpy as np
import pytest

from adasa.bounds import (
    csa_bound_trajectory,
    e_k_recursion,
    q_factor,
    rsa_bound_trajectory,
)
from adasa.steplength import ConfigurationError, CsaParams, CsaRegime, csa_schedule


class TestQFactor:
    def test_hand_value_at_vertex(self):
        assert q_factor(0.5, 1.0, 2.0) == 0.5

    def test_limit_toward_zero(self):
        assert q_factor(1e-12, 1.0, 2.0) == pytest.approx(1.0, abs=1e-11)

    def test_minimum_at_inverse_lipschitz(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            lip = rng.uniform(0.5, 10.0)
            eta = lip * rng.uniform(0.05, 1.0)
            q_min = q_factor(1.0 / lip, eta, lip)
            assert q_min == pytest.approx(1.0 - eta / lip, rel=1e-12)
            gamma = rng.uniform(0.0, 2.0 / lip) or 1.0 / lip
            assert q_factor(gamma, eta, lip) >= q_min - 1e-15

    def test_domain_errors(self):
        for gamma in (0.0, -0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                q_factor(gamma, 1.0, 2.0)


class TestErrorRecursion:
    def test_hand_value(self):
        assert e_k_recursion(1.0, 0.25, 0.5, 1.0) == 0.9375

    def test_zero_gamma_fixed_point(self):
        assert e_k_recursion(0.7, 0.0, 0.5, 1.0) == 0.7

    def test_optimal_sequence_identity(self):
        # along gamma*_k the recursion value equals (2 nu2/eta) gamma*_k
        eta, nu2, e0 = 0.5, 1.0, 1.5
        gamma = eta * e0 / (2.0 * nu2)
        e = e0
        for _ in range(2_000):
            e = e_k_recursion(e, gamma, eta, nu2)
            gamma = gamma * (1.0 - 0.5 * eta * gamma)
            assert e == pytest.approx(2.0 * nu2 / eta * gamma, abs=1e-13 * e0)

    def test_precondition(self):
        with pytest.raises(ValueError):
            e_k_recursion(1.0, 2.5, 0.5, 1.0)


class TestTransientPersistent:
    # the constant-step split q^k * e0 + gamma^2 nu2/(1-q), with the persistent
    # term from CsaParams and the contraction factor from q_factor
    def _params(self):
        return CsaParams(gamma_init=0.5, theta=0.5, eta=1.0, lip=2.0, nu2=1.0, d2=1.0)

    def test_persistent_matches_simplified_form(self):
        persistent = self._params().persistent(0.5)
        assert persistent == 0.5
        gamma, eta, lip, nu2 = 0.5, 1.0, 2.0, 1.0
        assert persistent == pytest.approx(gamma * nu2 / (eta * (2 - gamma * lip)))

    def test_persistent_increasing_in_gamma(self):
        params = self._params()
        grid = np.linspace(1e-4, 2.0 / params.lip - 1e-4, 1000)
        values = [params.persistent(g) for g in grid]
        assert np.all(np.diff(values) > 0)

    def test_sum_satisfies_constant_step_recursion(self):
        # S_k = q^k e0 + P obeys S_{k+1} = q S_k + gamma^2 nu2 seeded at e0 + P;
        # the same recursion seeded at e0 gives the constant-step bound RHS,
        # which sits exactly q^k * P below the sum
        params, e0 = self._params(), 1.0
        gamma = 0.4
        q = q_factor(gamma, params.eta, params.lip)
        assert params.q(gamma) == q
        persistent = params.persistent(gamma)
        s = [q**k * e0 + persistent for k in range(200)]
        rhs = e0
        for k in range(199):
            assert s[k + 1] == pytest.approx(q * s[k] + gamma**2 * params.nu2, rel=1e-12)
            assert s[k] - rhs == pytest.approx(q**k * persistent, rel=1e-12)
            rhs = q * rhs + gamma**2 * params.nu2


class TestRsaBoundTrajectory:
    def test_bound_zero_closes_the_loop(self):
        eta, nu2, e0 = 0.5, 1.0, 1.7
        gamma0 = eta * e0 / (2.0 * nu2)
        bound = rsa_bound_trajectory([gamma0], eta, nu2)
        assert bound[0] == pytest.approx(e0, rel=1e-15)

    def test_matches_error_recursion_value(self):
        bound = rsa_bound_trajectory([0.25, 0.234375], 0.5, 1.0)
        assert bound[1] == 0.9375

    def test_strictly_decreasing_along_policy(self):
        gammas = [0.3]
        for _ in range(500):
            gammas.append(gammas[-1] * (1 - 0.25 * gammas[-1]))
        bound = rsa_bound_trajectory(gammas, 0.5, 1.0)
        assert np.all(np.diff(bound) < 0)


class TestCsaBoundTrajectory:
    def _setup(self, n_iters=4000):
        params = CsaParams(gamma_init=0.3, theta=0.5, eta=0.9, lip=2.2, nu2=1.0, d2=2.0)
        schedule = csa_schedule(params, n_iters)
        return params, schedule, csa_bound_trajectory(schedule, params, n_iters)

    def test_regime_zero_closed_form(self):
        params, schedule, bound = self._setup()
        r0 = schedule[0]
        pers = r0.gamma**2 / (1.0 - r0.q)
        for k in range(min(r0.length, 200)):
            assert bound[k] == pytest.approx(r0.q**k * 2.0 + pers, rel=1e-9)

    def test_transient_doubles_and_persistent_drops_at_boundaries(self):
        params, schedule, bound = self._setup()
        for prev, cur in zip(schedule, schedule[1:]):
            if cur.start >= len(bound):
                break
            pers_prev = prev.gamma**2 * params.nu2 / (1.0 - prev.q)
            pers_cur = cur.gamma**2 * params.nu2 / (1.0 - cur.q)
            assert pers_cur < pers_prev
            transient_old_end = (
                prev.q**prev.length
                * 2.0**prev.t
                * math.exp(prev.log_cum_product)
                * params.d2
            )
            entry = bound[cur.start] - pers_cur
            assert entry == pytest.approx(2.0 * transient_old_end, rel=1e-9)

    def test_regime_boundary_bound_identity(self):
        # within a regime the transient strictly exceeds the persistent level,
        # so the bound at the last iterate is below twice the transient there,
        # which is the doubled product entering the next regime
        params, schedule, bound = self._setup()
        for regime in schedule[:-1]:
            transient_end = (
                regime.q ** (regime.length - 1)
                * 2.0**regime.t
                * math.exp(regime.log_cum_product)
                * params.d2
            )
            pers = regime.gamma**2 * params.nu2 / (1.0 - regime.q)
            last = regime.start + regime.length - 1
            if last < len(bound):
                assert bound[last] <= 2.0 * transient_end * (1 + 1e-12)

    def test_finite_positive_and_vanishing(self):
        params, schedule, bound = self._setup(20_000)
        assert np.all(np.isfinite(bound))
        assert np.all(bound > 0)
        starts = [r.start for r in schedule if r.start < 20_000]
        assert bound[starts[-1]] < 1e-3 * bound[starts[0]]

    def test_requires_diameter(self):
        # the bound reads D^2 from the same CsaParams that built the schedule
        with pytest.raises(ConfigurationError):
            CsaParams(gamma_init=0.3, theta=0.5, eta=0.9, lip=2.2, nu2=1.0, d2=0.0)

    def test_zero_contraction_factor(self):
        # eta = L and gamma = 1/L give q = 0: the transient is D^2 * 2^t at a
        # regime's first iteration and 0 after it, with no log(0) taken
        params = CsaParams(gamma_init=1.0, theta=0.5, eta=1.0, lip=1.0, nu2=1.0, d2=2.0)
        assert params.q(1.0) == 0.0
        schedule = csa_schedule(params, 50)
        bound = csa_bound_trajectory(schedule, params, 50)
        assert np.all(np.isfinite(bound)) and np.all(bound > 0)
        zero = CsaRegime(t=0, gamma=1.0, q=0.0, length=3, start=0, log_cum_product=0.0)
        assert csa_bound_trajectory([zero], params, 3).tolist() == [3.0, 1.0, 1.0]

import math

import numpy as np
import pytest

from adasa.bounds import csa_bound_trajectory
from adasa.harness import ExperimentConfig, make_policy
from adasa.steplength import (
    ConfigurationError,
    CsaParams,
    CsaRegime,
    GAMMA_FLOOR,
    StepSchedule,
    csa_schedule,
    csa_steps,
    hsa_steps,
    rsa_next,
    rsa_steps,
)


class TestHarmonic:
    def test_values(self):
        assert hsa_steps(1.0, 5)[1] == 1.0
        assert hsa_steps(1.0, 5)[4] == 0.25
        assert hsa_steps(0.5, 3)[2] == 0.25
        assert hsa_steps(1.0, 0).size == 0

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            hsa_steps(0.0, 3)
        with pytest.raises(ValueError):
            hsa_steps(-1.0, 3)

    def test_policy_reuses_alpha_at_step_zero(self):
        policy = StepSchedule(hsa_steps(0.5, 4))
        gammas = [policy.next_gamma() for _ in range(4)]
        assert gammas == [0.5, 0.5, 0.25, 0.5 / 3]


def _rsa_gamma0(eta, nu2, e0, lip):
    # make_policy's default RSA start: eta*e0/(2 nu2), clamped at 1/L
    config = ExperimentConfig("network", "rsa", n=2, iters=1, eta=eta, epsilon=0.5)
    return make_policy(config, {"eta": eta, "nu2": nu2, "e0": e0, "lip": lip}).next_gamma()


class TestRsaInit:
    def test_direct_value(self):
        assert _rsa_gamma0(0.5, 1.0, 1.0, lip=1.0) == 0.25

    def test_boundary_accepted(self):
        # eta*e0/(2 nu2) = 1/L exactly is still admissible
        assert _rsa_gamma0(1.0, 1.0, 1.0, lip=2.0) == 0.5

    def test_nonpositive_e0_rejected(self):
        with pytest.raises(ValueError):
            _rsa_gamma0(1.0, 0.5, 0.0, lip=2.0)

    def test_violation_clamped_to_inverse_lipschitz(self):
        # scaling e0 down by any beta < 1 keeps the sequence optimal, so a start
        # above 1/L is lowered to 1/L
        assert _rsa_gamma0(1.0, 1.0, 1.5, lip=2.0) == 0.5


class TestRsaNext:
    def test_hand_value(self):
        assert rsa_next(0.25, 0.25) == 0.234375

    def test_strictly_decreasing_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = rng.uniform(0.1, 5.0)
            gamma = rng.uniform(0.0, 1.0) * (1.0 / c) * 0.999 + 1e-12
            nxt = rsa_next(gamma, c)
            assert 0.0 < nxt < gamma

    def test_tiny_gamma_nearly_unchanged(self):
        assert rsa_next(1e-12, 1.0) == pytest.approx(1e-12, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            rsa_next(1.0, 1.0)
        with pytest.raises(ValueError):
            rsa_next(2.5, 0.5)


class TestRsaNonsmoothInit:
    def test_policy_uses_eta_contraction(self):
        # the bounded-subgradient variant contracts with c = eta from
        # gamma0 = eta*D^2/M^2, here with D = M = 1
        eta = 0.125
        policy = StepSchedule(rsa_steps(0.125, eta, 2))
        first = policy.next_gamma()
        assert first == 0.125
        assert policy.next_gamma() == 0.125 * (1 - 0.125 * 0.125)


class TestGenericRecursionTail:
    def test_partial_sum_telescopes(self):
        # gamma_k^2 = (gamma_k - gamma_{k+1})/c exactly, so the running sum
        # plus the analytic tail gamma_K/c recovers gamma0/c
        gamma, c = 0.5, 1.0
        total = 0.0
        for _ in range(200_000):
            total += gamma * gamma
            gamma = gamma * (1.0 - c * gamma)
        assert total + gamma / c == pytest.approx(0.5, abs=1e-10)

    def test_direct_summation_for_fast_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            c = rng.uniform(5.0, 30.0)
            gamma = rng.uniform(0.2, 0.99) / c
            target = gamma / c
            total = 0.0
            while gamma >= 5e-8 * c:
                total += gamma * gamma
                gamma = gamma * (1.0 - c * gamma)
            assert total == pytest.approx(target, abs=1e-6)


class TestRsaMonotoneDecay:
    def test_million_steps_no_underflow(self):
        # smooth instance: gamma0 = eta*e0/(2 nu2) = 0.25 (eta=0.5, nu2=e0=1), c = eta/2
        steps = rsa_steps(0.25, 0.25, 1_000_000)
        assert steps[0] == 0.25
        assert np.all(steps > 0.0)
        assert np.all(np.diff(steps) < 0.0)
        policy = StepSchedule(steps)
        assert [policy.next_gamma() for _ in range(steps.size)] == steps.tolist()
        assert steps[-1] > GAMMA_FLOOR


class TestCsaPhase1:
    def test_no_reduction_needed(self):
        params = CsaParams(gamma_init=0.5, theta=0.5, eta=1.0, lip=2.0, nu2=1.0, d2=1.0)
        first = csa_schedule(params, 1)[0]
        # gamma0 = 0.5 is feasible: q(0.5)=0.5, persistent 0.25/0.5=0.5 < 1; but
        # 0.5^1*1 = pers exactly, so K0 = 0 and the table starts at t = 1
        assert first.t == 1 and first.gamma == 0.5 * 0.5
        assert first.start == 0 and first.log_cum_product == 0.0

    def test_worked_instance(self):
        params = CsaParams(gamma_init=0.1, theta=0.5, eta=1.0, lip=2.0, nu2=1.0, d2=1.0)
        first = csa_schedule(params, 1)[0]
        assert first.t == 0 and first.gamma == 0.1
        assert first.q == pytest.approx(0.82)
        assert params.persistent(first.gamma) == pytest.approx(1.0 / 18.0)
        assert first.length == 14

    def test_tiny_diameter_forces_reduction(self):
        params = CsaParams(gamma_init=0.5, theta=0.5, eta=1.0, lip=2.0, nu2=1.0, d2=0.01)
        j = 0
        while True:
            g = 0.5 * 0.5**j
            q = 1.0 - 1.0 * g * (2.0 - g * 2.0)
            if q < 1.0 and 0.01 > g * g / (1.0 - q):
                break
            j += 1
        assert j > 0
        first = csa_schedule(params, 1)[0]
        # powers of two: gamma_t = gamma0 * theta^t exactly, also when K0 = 0
        assert first.gamma == 0.5 * 0.5 ** (j + first.t)


def _brute_force_regimes(params: CsaParams, count: int) -> list[tuple]:
    """(t, gamma_t, q_t, K_t, log prod_{j<t} q_j^{K_j}) for t < count by direct
    scans: phase 1 tries gamma_init*theta^j in turn, and K_t counts k up from 0
    (an empty set gives K_t = 1 for t >= 1)."""
    j = 0
    while True:
        gamma = params.gamma_init * params.theta**j
        if params.q(gamma) < 1.0 and params.d2 > params.persistent(gamma):
            break
        j += 1
    out, log_cum = [], 0.0
    for t in range(count):
        q = params.q(gamma)
        transient0 = 2.0**t * math.exp(log_cum) * params.d2
        persistent = params.persistent(gamma)
        k = 1
        if transient0 > persistent:
            k = 0
            while q ** (k + 1) * transient0 > persistent:
                k += 1
        out.append((t, gamma, q, k, log_cum))
        log_cum += k * math.log(q) if k else 0.0
        gamma = max(gamma * params.theta, GAMMA_FLOOR)
    return out


def _as_table(regimes: list[tuple]) -> list[CsaRegime]:
    """Rows for the nonzero-length regimes, with their global start indices."""
    table, start = [], 0
    for t, gamma, q, k, log_cum in regimes:
        if k > 0:
            table.append(CsaRegime(t, gamma, q, k, start, log_cum))
            start += k
    return table


class TestCsaRegimeLength:
    def test_matches_brute_force_on_random_schedules(self):
        # every row of the first five regimes, zero-length regimes (no row)
        # included, against the scan
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 40:
            eta = rng.uniform(0.2, 1.5)
            lip = eta * rng.uniform(1.3, 6.0)
            params = CsaParams(
                gamma_init=rng.uniform(0.05, 0.95) * 2.0 / lip,
                theta=rng.uniform(0.3, 0.85),
                eta=eta,
                lip=lip,
                nu2=rng.uniform(0.1, 4.0),
                d2=rng.uniform(0.5, 8.0),
            )
            regimes = _brute_force_regimes(params, 5)
            if max(k for *_, k, _ in regimes) > 2_000_000:
                continue
            want = _as_table(regimes)
            got = csa_schedule(params, sum(r.length for r in want) - want[-1].length + 1)
            assert [r for r in got if r.t < 5] == want
            checked += len(regimes) - 1

    def test_theta_near_one_shrinks_regimes(self):
        # strong contraction instance: q is small, so a conservative theta
        # leaves no iterations where the doubled transient beats the barely
        # reduced persistent level
        def first_regime_length(theta):
            params = CsaParams(
                gamma_init=0.5, theta=theta, eta=1.8, lip=2.0, nu2=1.0, d2=1.0
            )
            rows = csa_schedule(params, 1)
            assert rows[-1].t >= 1
            return sum(r.length for r in rows if r.t == 1)

        # K_t nonincreasing as theta grows; near theta = 1 the t = 1 regime has
        # length 0, so it gets no row
        lengths = [first_regime_length(th) for th in (0.3, 0.6, 0.9, 0.9999)]
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] == 0
        assert lengths[0] > 0

    def test_closed_form_upper_bound(self):
        params = CsaParams(gamma_init=0.4, theta=0.5, eta=0.8, lip=2.5, nu2=1.2, d2=3.0)
        schedule = csa_schedule(params, 10**6)
        assert schedule[-1].t > 8
        gamma0 = params.gamma_init  # phase 1 keeps gamma_init on this instance
        assert schedule[0].t == 0 and schedule[0].gamma == gamma0
        for regime in schedule:
            t = regime.t
            if not 1 <= t <= 8:
                continue
            cap = math.log(
                gamma0**2 * (params.theta**2 / 2.0) ** t * params.nu2
                / (params.d2 * (1.0 - regime.q))
            ) / math.log(regime.q)
            assert regime.length <= cap + 1e-9


class TestCsaGamma:
    def _params(self):
        return CsaParams(gamma_init=0.3, theta=0.5, eta=0.9, lip=2.2, nu2=1.0, d2=2.0)

    def test_constant_within_regime_and_drops_at_boundaries(self):
        params = self._params()
        n = 3000
        schedule = csa_schedule(params, n)
        policy = StepSchedule(csa_steps(schedule, n))
        gammas = np.array([policy.next_gamma() for _ in range(n)])
        for regime in schedule:
            stop = min(regime.start + regime.length, n)
            segment = gammas[regime.start : stop]
            assert np.all(segment == regime.gamma)
        assert np.all(np.diff(gammas) <= 0)
        drops = np.nonzero(np.diff(gammas) < 0)[0] + 1
        starts = [r.start for r in schedule if 0 < r.start < n]
        assert list(drops) == starts

    def test_functional_api_matches_policy(self):
        # the rows tile the iterations in order, and each gamma_t repeated K_t
        # times gives the policy's stream
        params = self._params()
        schedule = csa_schedule(params, 500)
        assert [r.start for r in schedule] == np.cumsum(
            [0] + [r.length for r in schedule[:-1]]
        ).tolist()
        assert [r.t for r in schedule] == sorted({r.t for r in schedule})
        walked = []
        for regime in schedule:
            walked += [regime.gamma] * min(regime.length, 500)
        policy = StepSchedule(csa_steps(schedule, 500))
        for gamma in walked[:500]:
            assert gamma == policy.next_gamma()

    def test_short_regime_table_rejected(self):
        params = self._params()
        schedule = csa_schedule(params, 10)
        covered = schedule[-1].start + schedule[-1].length
        with pytest.raises(ValueError, match="cover"):
            csa_steps(schedule, covered + 1)

    def test_summability_proxies(self):
        # sum K_j theta^j must diverge while sum K_j theta^(2j) converges; the
        # increments K_j theta^j settle near a positive constant (the cumulative
        # product tracks the persistent level, cancelling the 2^t factors), so
        # the partial sums grow linearly without bound
        params = self._params()
        schedule = csa_schedule(params, 2**40)
        assert schedule[-1].t >= 30
        by_t = {r.t: r.length for r in schedule}
        lengths = [by_t.get(t, 0) for t in range(31)]  # no row: length 0
        theta = params.theta
        s1 = np.array([k * theta**j for j, k in enumerate(lengths)])
        s2 = np.array([k * theta ** (2 * j) for j, k in enumerate(lengths)])
        assert np.all(s1[1:] > 0)
        assert s1[10:].min() > 0.3 * s1[10:].mean()  # increments do not vanish
        assert s1.sum() > 1.7 * s1[:16].sum()  # linear growth of partial sums
        assert s2[25:].sum() < 0.01 * s2.sum()  # Cauchy tail


class TestNumericalFloor:
    def test_advance_clamps_at_floor(self):
        # theta*gamma0 = 3e-301 is clamped to GAMMA_FLOOR, where q = 1: the
        # transient never decays, so that regime is final and effectively endless
        params = CsaParams(gamma_init=0.3, theta=1e-300, eta=0.9, lip=2.2, nu2=1.0, d2=2.0)
        schedule = csa_schedule(params, 10**6)
        last = schedule[-1]
        assert [r.t for r in schedule] == [0, 1]
        assert last.gamma == GAMMA_FLOOR and last.q == 1.0
        assert last.length == 2**62
        assert csa_steps(schedule, 10**6)[-1] == GAMMA_FLOOR

    def test_persistent_level_is_finite_where_q_rounds_to_one(self):
        # 1 - q(GAMMA_FLOOR) is 0 in floats; the limit gamma nu2/(eta(2 - gamma L))
        # stands in, and the bound along the clamped schedule stays finite
        params = CsaParams(gamma_init=0.3, theta=1e-300, eta=0.9, lip=2.2, nu2=1.0, d2=2.0)
        assert params.q(GAMMA_FLOOR) == 1.0
        want = GAMMA_FLOOR * 1.0 / (0.9 * (2.0 - GAMMA_FLOOR * 2.2))
        assert params.persistent(GAMMA_FLOOR) == want > 0.0
        schedule = csa_schedule(params, 100)
        bound = csa_bound_trajectory(schedule, params, 100)
        assert np.all(np.isfinite(bound)) and bound[-1] > want

    def test_phase1_underflow_is_a_configuration_error(self):
        # gamma_init*theta is too small for q < 1 and gamma_init*theta^2 is 0
        params = CsaParams(gamma_init=0.1, theta=1e-200, eta=1.0, lip=1.0, nu2=1.0, d2=1e-3)
        with pytest.raises(ConfigurationError, match="phase 1 failed"):
            csa_schedule(params, 10)

    def test_rsa_policy_floor_flag(self):
        # c*gamma0 = 1/2: the next value 0.75e-300 falls below the floor, and so
        # does every value computed from the floor itself
        gamma0 = 1.5e-300
        steps = rsa_steps(gamma0, 0.5 / gamma0, 3)
        assert steps.tolist() == [gamma0, GAMMA_FLOOR, GAMMA_FLOOR]
        assert (steps <= GAMMA_FLOOR).tolist() == [False, True, True]

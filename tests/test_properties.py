"""Property tests of the steplength schedules over random valid constants, of
the capacity projection over random networks, and bitwise-equivalence tests of
the per-step kernels and the Gaussian max-affine kernel against frozen copies
of their earlier formulas."""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import nnls

from adasa.bounds import csa_bound_trajectory
from adasa import problems
from adasa.problems import project_capacity, project_simplex
from adasa.sa_core import run_sa
from adasa.smoothing import sample_ball
from adasa.steplength import (
    GAMMA_FLOOR,
    CsaParams,
    StepSchedule,
    csa_schedule,
    csa_steps,
    hsa_steps,
    rsa_next,
    rsa_steps,
)

SETTINGS = settings(deadline=None)


@st.composite
def csa_params(draw):
    eta = draw(st.floats(0.05, 2.0))
    lip = eta * draw(st.floats(1.0, 10.0))
    return CsaParams(
        gamma_init=draw(st.floats(0.01, 0.99)) * 2.0 / lip,
        theta=draw(st.floats(0.1, 0.95)),
        eta=eta,
        lip=lip,
        nu2=draw(st.floats(0.01, 10.0)),
        d2=draw(st.floats(0.1, 10.0)),
    )


@SETTINGS
@given(
    c=st.floats(1e-3, 10.0),
    start=st.floats(1e-3, 0.999),
    n=st.integers(1, 500),
)
def test_rsa_steps_follow_the_recursion(c, start, n):
    steps = rsa_steps(start / c, c, n)
    assert steps.shape == (n,)
    assert steps[0] == start / c
    assert np.all(steps > 0.0)
    assert np.all(np.diff(steps) < 0.0)
    for prev, cur in zip(steps, steps[1:]):
        assert cur == rsa_next(prev, c)


@SETTINGS
@given(params=csa_params(), n=st.integers(1, 3000))
# eta = L and gamma_init = 1/L give q = 0 in phase 1
@example(params=CsaParams(1.0, 0.5, 1.0, 1.0, 1.0, 2.0), n=1)
def test_csa_steps_drop_exactly_at_regime_starts(params, n):
    regimes = csa_schedule(params, n)
    steps = csa_steps(regimes, n)
    assert steps.shape == (n,)
    assert np.all(np.diff(steps) <= 0.0)
    drops = (np.nonzero(np.diff(steps) < 0.0)[0] + 1).tolist()
    assert drops == [r.start for r in regimes if 0 < r.start < n]


@SETTINGS
@given(params=csa_params(), n1=st.integers(1, 3000), extra=st.integers(1, 3000))
@example(params=CsaParams(1.0, 0.5, 1.0, 1.0, 1.0, 2.0), n1=1, extra=1)
# theta*gamma0 falls below GAMMA_FLOOR: the clamped regime has q = 1 and is final
@example(params=CsaParams(0.3, 1e-300, 0.9, 2.2, 1.0, 2.0), n1=1, extra=3000)
def test_csa_schedule_rows_are_a_prefix_of_longer_schedules(params, n1, extra):
    short = csa_schedule(params, n1)
    longer = csa_schedule(params, n1 + extra)
    assert longer[: len(short)] == short


@SETTINGS
@given(alpha=st.floats(1e-6, 1e3), n=st.integers(2, 100))
def test_hsa_steps_reuse_alpha_at_step_zero(alpha, n):
    steps = hsa_steps(alpha, n)
    assert steps[:2].tolist() == [alpha, alpha]
    assert steps[n - 1] == alpha / (n - 1)


@SETTINGS
@given(
    gammas=st.lists(
        st.one_of(st.just(GAMMA_FLOOR), st.floats(1e-12, 1.0)), min_size=1, max_size=50
    ),
    data=st.data(),
)
def test_step_schedule_reads_in_order_and_flags_the_floor(gammas, data):
    used = data.draw(st.integers(0, len(gammas)))
    policy = StepSchedule(np.array(gammas))
    assert [policy.next_gamma() for _ in range(used)] == gammas[:used]
    # the engine records every steplength it used; the run's clamp flag is
    # read from that record
    traj = run_sa(
        lambda x, row: np.zeros(1), lambda m, rng: np.empty((m, 0)), None,
        StepSchedule(np.array(gammas)), np.zeros(1), len(gammas), np.zeros(1),
        np.random.default_rng(0),
    )
    assert traj.gammas.tolist() == gammas
    assert bool(np.any(traj.gammas <= GAMMA_FLOOR)) == (GAMMA_FLOOR in gammas)


@SETTINGS
@given(params=csa_params(), n=st.integers(1, 3000))
def test_csa_bound_at_least_persistent_term(params, n):
    regimes = csa_schedule(params, n)
    bound = csa_bound_trajectory(regimes, params, n)
    for regime in regimes:
        stop = min(regime.start + regime.length, n)
        assert np.all(bound[regime.start : stop] >= params.persistent(regime.gamma))


@st.composite
def capacity_instances(draw):
    """A random 0/1 link matrix with no empty rows, C in (0.1, 1), v ~ N(0, 1)."""
    n = draw(st.integers(1, 8))
    links = draw(st.integers(1, 6))
    a = draw(hnp.arrays(bool, (links, n))).astype(float)
    for l in np.flatnonzero(a.sum(axis=1) == 0):
        a[l, draw(st.integers(0, n - 1))] = 1.0
    c = draw(
        hnp.arrays(
            float, links, elements=st.floats(0.1, 1.0, exclude_min=True, exclude_max=True)
        )
    )
    v = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    return v, a, c


def kkt_residual(v, x, a, c):
    """Stationarity, dual sign and complementarity of x as the projection of v.

    The multipliers of the constraints active at x are recovered by NNLS from
    v - x = A^T lam - mu; inactive constraints get zero multipliers.
    """
    slack = c - a @ x
    links, users = slack <= 1e-12, x <= 1e-12
    normals = np.hstack([a[links].T, -np.eye(x.size)[:, users]])
    if normals.shape[1] == 0:  # nothing active: x must be v itself
        return float(np.linalg.norm(v - x))
    mult, stationarity = nnls(normals, v - x)
    lam, mu = mult[: links.sum()], mult[links.sum() :]
    return max(
        stationarity,
        float(-mult.min(initial=0.0)),
        float(np.abs(lam * slack[links]).max(initial=0.0)),
        float(np.abs(mu * x[users]).max(initial=0.0)),
    )


@SETTINGS
@given(instance=capacity_instances())
def test_capacity_projection_is_feasible_idempotent_and_kkt(instance):
    v, a, c = instance
    x = project_capacity(v, a, c)
    assert np.all(x >= 0.0)
    assert np.all(a @ x - c <= 1e-12)
    assert np.max(np.abs(project_capacity(x, a, c) - x)) <= 1e-12
    assert kkt_residual(v, x, a, c) <= 1e-10


@SETTINGS
@given(instance=capacity_instances(), magnitude=st.sampled_from([1e2, 1e4, 1e6]))
def test_capacity_projection_of_large_vectors_is_feasible_and_kkt(instance, magnitude):
    """The least-distance row h = [-v; Av - C] grows with |v|; unscaled, NNLS
    lost feasibility like |v|^3 (max(Ax - C) ~1e-2 at |v| ~ 1e4). The KKT
    check runs on the problem divided by m = max|v|, whose projection is x/m."""
    v, a, c = instance
    v = v * magnitude
    x = project_capacity(v, a, c)
    m = max(1.0, float(np.abs(v).max()))
    assert np.all(x >= 0.0)
    assert np.all(a @ x - c <= 64.0 * np.finfo(float).eps * m)
    assert kkt_residual(v / m, x / m, a, c / m) <= 1e-10


@SETTINGS
@given(
    instance=capacity_instances(),
    onto_simplex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    g_scale=st.sampled_from([1e-6, 1e-2, 1.0, 1e2]),
    s=st.sampled_from([1e-3, 0.05, 0.5, 1.0, 2.0, 20.0, 100.0]),
)
def test_step_gap_bounds_the_unit_residual_at_a_feasible_point(
    instance, onto_simplex, seed, g_scale, s
):
    """The bound _minimize_projected stops on: at a feasible y,
    ||y - P(y - g)|| <= max(1, 1/s) ||y - P(y - s g)|| for every step s,
    because the gradient mapping's norm falls and the step's gap rises with s.
    The relative and absolute slack cover the rounding of the projections."""
    v, a, c = instance
    proj = project_simplex if onto_simplex else (lambda u: project_capacity(u, a, c))
    y = proj(v)
    g = np.random.default_rng(seed).standard_normal(v.size) * g_scale
    unit = np.linalg.norm(y - proj(y - g))
    gap = np.linalg.norm(y - proj(y - s * g))
    assert unit <= max(1.0, 1.0 / s) * gap * (1.0 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# frozen formulas: each step kernel must reproduce these bit for bit


def frozen_project_simplex(v):
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    active = u - css / idx > 0
    rho = idx[active][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def frozen_draw_index(u, uniform):
    shift = min(0.0, float(u.min()))
    w = u - shift
    total = w.sum()
    w = np.full(u.size, 1.0 / u.size) if total <= 1e-300 else w / total
    return int(np.searchsorted(np.cumsum(w), uniform, side="right").clip(0, u.size - 1))


def frozen_sample_ball(n, epsilon, rng):
    direction = rng.standard_normal(n)
    norm = np.linalg.norm(direction)
    while norm == 0.0:
        direction = rng.standard_normal(n)
        norm = np.linalg.norm(direction)
    radius = epsilon * rng.uniform() ** (1.0 / n)
    return (radius / norm) * direction


def frozen_capacity_feasible(v, a, c):
    excess = a @ v - c
    return bool(np.all(v >= 0.0) and np.all(excess <= 0.0))


def frozen_gaussian_max_affine(mu, sigma, v_h, s_h, knots):
    """The whole-matrix formula. Its CDF is problems._normal_cdf on the same
    exponential as the pdf, so this pins the assembly; TestNormalCdf in
    test_problems.py pins the CDF's accuracy against mpmath."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.maximum(np.atleast_1d(np.asarray(sigma, dtype=float)), 1e-300)
    m = mu.size
    r = s_h.size
    if r == 1:
        value = v_h[0] + s_h[0] * mu
        return value, np.full(m, s_h[0]), np.zeros(m)
    z = (knots[None, :] - mu[:, None]) / sigma[:, None]
    e = np.exp(-0.5 * z**2)
    cdf = np.empty((m, r + 1))
    cdf[:, 0] = 0.0
    cdf[:, 1:r] = problems._normal_cdf(z, e)
    cdf[:, r] = 1.0
    pdf = np.zeros((m, r + 1))
    pdf[:, 1:r] = e / problems._SQRT_2PI
    d_cdf = np.diff(cdf, axis=1)
    d_pdf = pdf[:, :-1] - pdf[:, 1:]
    value = ((v_h[None, :] + s_h[None, :] * mu[:, None]) * d_cdf).sum(axis=1)
    value += sigma * (d_pdf * s_h[None, :]).sum(axis=1)
    d_mu = d_cdf @ s_h
    d_sigma = d_pdf @ s_h
    return value, d_mu, d_sigma


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


simplex_inputs = st.one_of(
    # ties: few distinct values
    hnp.arrays(
        float, st.integers(1, 30), elements=st.sampled_from([-1.0, 0.0, 0.25, 0.5, 2.0])
    ),
    # mixed signs and scales, n = 1 included
    hnp.arrays(float, st.integers(1, 30), elements=st.floats(-1e6, 1e6)),
    # one-hot, scaled
    st.builds(
        lambda n, i, scale: np.eye(n)[i % n] * scale,
        st.integers(1, 30),
        st.integers(0, 29),
        st.floats(-1e3, 1e3),
    ),
)


@SETTINGS
@given(v=simplex_inputs)
@example(v=np.array([0.7]))
@example(v=np.array([-3.0, -3.0, -3.0]))
def test_project_simplex_bitwise_equals_frozen_formula(v):
    assert same_bits(project_simplex(v), frozen_project_simplex(v))


# simplex points: nonnegative weights over their sum, zeros and ties included
simplex_points = (
    hnp.arrays(
        float,
        st.integers(1, 30),
        elements=st.sampled_from([0.0, 0.1, 0.25, 1.0]) | st.floats(0.0, 1.0),
    )
    .filter(lambda w: w.sum() > 0.0)
    .map(lambda w: w / w.sum())
)


@SETTINGS
@given(
    u=simplex_points,
    pick=st.integers(0, 2**31),
    uniform=st.floats(0.0, 1.0, exclude_max=True),
)
# rounding leaves cumsum(w)[-1] = 1 - 2^-53, the largest uniform, so only the
# cap at the last index keeps the index in range
@example(u=np.full(10, 0.1), pick=0, uniform=1.0 - 2.0**-53)
def test_draw_index_bitwise_equals_frozen_formula(u, pick, uniform):
    # at a simplex point the index is that of the earlier shifted-weight draw,
    # one uniform at a time and for an array of them
    cumulative = np.cumsum(u / u.sum())
    # a uniform that ties a cumulative weight, or any uniform at all
    values = [v for v in (float(cumulative[pick % u.size]), uniform) if v < 1.0]
    want = [frozen_draw_index(u, value) for value in values]
    assert [int(problems._draw_index(u, value)) for value in values] == want
    assert problems._draw_index(u, np.array(values)).tolist() == want


def test_draw_index_last_index_fallback_is_reached():
    u = np.full(10, 0.1)
    top = 1.0 - 2.0**-53
    assert np.cumsum(u / u.sum())[-1] == top
    assert problems._draw_index(u, top) == 9
    assert problems._draw_index(u, np.array([top, 0.0])).tolist() == [9, 0]


@SETTINGS
@given(
    n=st.integers(1, 80),
    epsilon=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-150, 1e150),
)
def test_sample_ball_norm_bitwise_equals_frozen_formula(n, epsilon, seed, scale):
    got = sample_ball(n, epsilon, np.random.default_rng(seed))
    want = frozen_sample_ball(n, epsilon, np.random.default_rng(seed))
    assert same_bits(got, want)
    # the identity behind it, on the contiguous vectors the oracles return
    g = np.random.default_rng(seed).standard_normal(n) * scale
    assert math.sqrt(g @ g) == np.linalg.norm(g)


@st.composite
def gaussian_envelope_inputs(draw):
    """An upper envelope of 1-7 random pieces (slopes on a 0.1 grid, so knots
    stay finite) and m Gaussians centred on either side of, or at, its knots."""
    pieces = draw(st.integers(1, 7))
    v = draw(hnp.arrays(float, pieces, elements=st.floats(-2.0, 2.0)))
    s = draw(hnp.arrays(float, pieces, elements=st.integers(-20, 20))) / 10.0
    v_h, s_h, knots = problems._upper_envelope(v, s)
    m = draw(st.integers(1, 50))
    centres = np.append(knots, 0.0)
    at = draw(hnp.arrays(int, m, elements=st.integers(0, centres.size - 1)))
    offset = draw(
        hnp.arrays(float, m, elements=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    )
    sigma = draw(
        hnp.arrays(
            float,
            m,
            elements=st.one_of(st.sampled_from([0.0, 1e-300]), st.floats(1e-3, 10.0)),
        )
    )
    return centres[at] + offset, sigma, v_h, s_h, knots


ONE_PIECE = problems._upper_envelope(np.array([0.3]), np.array([0.5]))
KNOT_AT_ONE = problems._upper_envelope(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


@SETTINGS
@given(instance=gaussian_envelope_inputs())
# r = 1: the early return
@example(instance=(np.array([-1.0, 2.0]), np.array([0.0, 0.5]), *ONE_PIECE))
# mu exactly at the knot of max(1, u), at zero, tiny and unit sigma
@example(instance=(np.full(3, 1.0), np.array([0.0, 1e-300, 1.0]), *KNOT_AT_ONE))
def test_gaussian_max_affine_bitwise_equals_frozen_formula(instance):
    got = problems._gaussian_max_affine(*instance)
    with np.errstate(over="ignore"):
        want = frozen_gaussian_max_affine(*instance)
    for a, b in zip(got, want):
        assert same_bits(a, b)


@st.composite
def capacity_boundary_instances(draw):
    """Points near the boundary of {x >= 0, Ax <= C}: signed zeros, small
    negatives, and capacities equal to the load on some links."""
    n = draw(st.integers(1, 8))
    links = draw(st.integers(1, 6))
    a = draw(hnp.arrays(bool, (links, n))).astype(float)
    for l in np.flatnonzero(a.sum(axis=1) == 0):
        a[l, draw(st.integers(0, n - 1))] = 1.0
    v = draw(
        hnp.arrays(
            float,
            n,
            elements=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e-3, 1.0)),
        )
    )
    load = a @ v
    slack = draw(
        hnp.arrays(float, links, elements=st.sampled_from([0.0, 1e-12, 0.3, -1e-12]))
    )
    c = np.maximum(load + slack, 0.05)
    return v, a, c


@SETTINGS
@given(instance=capacity_boundary_instances())
def test_capacity_short_circuit_matches_frozen_predicate(instance):
    v, a, c = instance
    assert (project_capacity(v, a, c) is v) == frozen_capacity_feasible(v, a, c)


@st.composite
def orthant_instances(draw):
    """capacity_instances with v scaled from well inside to far outside the
    capacities, so each of the projection's stages is reached."""
    v, a, c = draw(capacity_instances())
    return v * draw(st.sampled_from([0.03, 0.3, 1.0, 3.0])), a, c


def least_distance_system(v, a, c):
    """E and f of project_capacity's NNLS stage for any v, h unscaled."""
    n = v.size
    e = np.vstack([np.hstack([np.eye(n), -a.T]), np.concatenate([-v, a @ v - c])])
    f = np.zeros(n + 1)
    f[n] = 1.0
    return e, f


def frozen_least_distance(v, a, c):
    """project_capacity's NNLS stage, applied to any v, solved by scipy's
    nnls."""
    e, f = least_distance_system(v, a, c)
    w, _ = nnls(e, f)
    r = e @ w - f
    n = v.size
    return np.maximum(v - r[:n] / r[n], 0.0)


def rounding_scale(v, x):
    """The scale of the least-distance formula's rounding at a projection x of
    v: eps |v_i| (1 + ||x - v||^2), 1 / r[n] being that factor."""
    z = x - v
    return max(1.0, float(np.abs(v).max()) * (1.0 + float(z @ z)))


class CountedNnls:
    """problems._nnls, counting its calls."""

    def __init__(self):
        self.calls = 0
        self.solve = problems._nnls

    def __call__(self, e, f, passive=()):
        self.calls += 1
        return self.solve(e, f, passive)


def no_nnls(e, f, passive=()):
    raise AssertionError("NNLS called where the orthant clip is the projection")


@SETTINGS
@given(instance=orthant_instances())
# feasible, clipped, and over capacity after the clip
@example(instance=(np.array([0.05]), np.array([[1.0]]), np.array([0.1])))
@example(instance=(np.array([-0.5, 0.05]), np.array([[1.0, 1.0]]), np.array([0.1])))
@example(instance=(np.array([0.3, -0.2]), np.array([[1.0, 0.0]]), np.array([0.1])))
def test_capacity_orthant_stage_is_exact_and_skips_nnls(instance):
    v, a, c = instance
    clipped = np.maximum(v, 0.0)
    if np.all(a @ clipped - c <= 0.0):
        with mock.patch.object(problems, "_nnls", no_nnls):
            x = project_capacity(v, a, c)
        assert same_bits(x, clipped)
        # the NNLS formula meets the exact clip up to its own rounding
        gap = np.abs(x - frozen_least_distance(v, a, c)).max()
        assert gap <= 8.0 * np.finfo(float).eps * rounding_scale(v, x)
    else:
        # past the clip, the held-links stage or a single NNLS call
        solves = CountedNnls()
        with mock.patch.object(problems, "_nnls", solves):
            project_capacity(v, a, c)
        assert solves.calls <= 1


@st.composite
def weighted_capacity_instances(draw):
    """orthant_instances whose link weights are drawn from {0, 0.5, 1, 2} on
    some draws and whose capacities may be 0 or negative: the held-links
    stage must step aside for both."""
    v, a, c = draw(orthant_instances())
    if draw(st.booleans()):
        weights = draw(hnp.arrays(float, a.shape, elements=st.sampled_from([0.5, 1.0, 2.0])))
        a = a * weights
    if draw(st.booleans()):
        c = c.copy()
        c[draw(st.integers(0, c.size - 1))] = draw(st.sampled_from([0.0, -0.5]))
    return v, a, c


@SETTINGS
@given(instance=weighted_capacity_instances())
# a 0/1 link stage exact on its own; a weighted row and a zero capacity at
# the most overloaded link; a negative capacity (the empty set)
@example(
    instance=(np.array([2.0, 1.0, -0.1]), np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), np.ones(2))
)
@example(instance=(np.array([2.0, 1.0]), np.array([[0.5, 2.0]]), np.array([0.3])))
@example(instance=(np.array([2.0, 1.0]), np.array([[1.0, 1.0]]), np.array([0.0])))
@example(instance=(np.array([0.3, 0.2]), np.eye(2), np.array([0.1, -0.5])))
def test_capacity_one_link_stage_is_exact_or_steps_aside(instance):
    v, a, c = instance
    over = a @ np.maximum(v, 0.0) - c
    if over.max() <= 0.0:
        return
    if np.any(c < 0.0):
        # every row is nonnegative and carries a user, so Ax <= C < 0 fails
        with np.testing.assert_raises_regex(ValueError, "admit no point"):
            project_capacity(v, a, c)
        return
    solves = CountedNnls()
    with mock.patch.object(problems, "_nnls", solves):
        x = project_capacity(v, a, c)
    row = a[int(over.argmax())]
    capped_simplex = np.all(row * row == row) and c[int(over.argmax())] > 0.0
    if not capped_simplex:
        assert solves.calls == 1
    want = frozen_least_distance(v, a, c)
    gap = np.abs(x - want).max()
    assert gap <= 16.0 * np.finfo(float).eps * rounding_scale(v, want)


def test_capacity_held_links_stage_is_exact_past_one_link():
    """Where the nearest point of the most overloaded link alone overloads
    another link, the stage holds that link too. Every point it returns is
    the oracle's to rounding, and it settles some of these cases without
    NNLS: those whose users shared by two held links end at 0."""
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    settled = reached = 0
    for _ in range(600):
        n = int(rng.integers(2, 7))
        links = int(rng.integers(2, 5))
        a = (rng.uniform(size=(links, n)) < 0.5).astype(float)
        a[a.sum(axis=1) == 0, rng.integers(n)] = 1.0
        c = rng.uniform(0.1, 1.0, links)
        v = rng.uniform(-0.5, 1.5, n)
        over = a @ np.maximum(v, 0.0) - c
        if over.max() <= 0.0:
            continue
        l = int(over.argmax())
        one = np.maximum(v, 0.0)
        on = a[l] == 1.0
        one[on] = c[l] * project_simplex(v[on] / c[l])
        if np.all(a @ one - c <= 1e-12):
            continue
        solves = CountedNnls()
        with mock.patch.object(problems, "_nnls", solves):
            x = project_capacity(v, a, c)
        want = frozen_least_distance(v, a, c)
        assert np.abs(x - want).max() <= 16.0 * eps * rounding_scale(v, want)
        reached += 1
        settled += solves.calls == 0
    assert settled >= 10 and reached - settled >= 10


@SETTINGS
@given(instance=orthant_instances())
# two links through the projection's vertex: w is not unique
@example(
    instance=(np.array([0.12573022, -0.13210486]), np.array([[1.0, 0.0], [1.0, 1.0]]), np.full(2, 0.125))
)
def test_nnls_matches_scipy_on_least_distance_systems(instance):
    """The in-house NNLS against scipy's, as the oracle: w, its residual norm
    and the projected point agree to a few ulp of their scale. Where more
    constraints are active than the point needs (two links through one
    vertex), w is not unique and only Ew is compared."""
    v, a, c = instance
    if np.all(a @ np.maximum(v, 0.0) - c <= 0.0):
        return
    e, f = least_distance_system(v, a, c)
    want_w, want_norm = nnls(e, f)
    w, norm = problems._nnls(e, f)
    eps = np.finfo(float).eps
    either = (w > 0.0) | (want_w > 0.0)
    if np.linalg.matrix_rank(e[:, either]) == either.sum():
        assert np.abs(w - want_w).max() <= 16.0 * eps * max(1.0, float(np.abs(want_w).max()))
    else:
        scale = max(1.0, float(np.abs(e @ want_w).max()))
        assert np.abs(e @ (w - want_w)).max() <= 16.0 * eps * scale
    assert abs(norm - want_norm) <= 16.0 * eps
    n = v.size
    r = e @ w - f
    x = np.maximum(v - r[:n] / r[n], 0.0)
    want = frozen_least_distance(v, a, c)
    assert np.abs(x - want).max() <= 16.0 * eps * rounding_scale(v, want)

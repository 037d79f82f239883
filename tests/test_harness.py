import functools
import json
import logging
import math
import warnings

import numpy as np
import pytest
import scipy.stats

import adasa.cli
from adasa import harness, problems, sa_core, smoothing
from adasa.cli import main as cli_main
from adasa.harness import (
    LOG_FLOOR,
    build_setup,
    ConfidenceInterval,
    ExperimentConfig,
    ExperimentResult,
    emit_csv,
    emit_metadata,
    log_t_interval,
    parse_config_file,
    resolve_config,
    run_replications,
)
from adasa.problems import Reference
from adasa.sa_core import Trajectory
from adasa.steplength import GAMMA_FLOOR, ConfigurationError


def _read_csv(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfidenceInterval:
    def test_zero_variance_log_domain(self):
        center, lo, hi = log_t_interval(np.ones((3, 2)))
        assert center.tolist() == lo.tolist() == hi.tolist() == [0.0, 0.0]

    def test_log_center_of_geometric_samples(self):
        center, _, _ = log_t_interval(np.array([[1.0], [math.e], [math.e**2]]))
        assert center[0] == pytest.approx(1.0, abs=1e-12)

    def test_log_interval_matches_scipy(self):
        samples = np.array([[1.0, 0.5], [2.0, 0.25], [3.0, 4.0], [7.0, 1e-3]])
        _, lo, hi = log_t_interval(samples, level=0.90)
        for j in range(samples.shape[1]):
            logs = np.log(samples[:, j])
            ref_lo, ref_hi = scipy.stats.t.interval(
                0.90, logs.size - 1, loc=logs.mean(), scale=scipy.stats.sem(logs)
            )
            assert lo[j] == pytest.approx(ref_lo, rel=1e-12)
            assert hi[j] == pytest.approx(ref_hi, rel=1e-12)

    def test_needs_two_samples(self):
        center, lo, hi = log_t_interval(np.array([[2.0, 3.0]]))
        assert center.tolist() == [math.log(2.0), math.log(3.0)]
        assert np.all(np.isnan(lo)) and np.all(np.isnan(hi))

    def test_zero_errors_floored_before_log(self):
        center, lo, hi = log_t_interval(np.array([[0.0], [0.0]]))
        assert center[0] == lo[0] == hi[0] == math.log(LOG_FLOOR)

    def test_interval_order_enforced(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(log_center=0.5, lower=1.0, upper=0.0)

    @pytest.mark.parametrize("level", [-0.2, 0.0, 1.0, 1.5, math.nan])
    def test_level_outside_the_unit_interval_is_rejected(self, level):
        errors = np.array([[1.0, 0.5], [2.0, 0.25], [3.0, 4.0]])
        with pytest.raises(ValueError, match="outside"):
            log_t_interval(errors, level)
        with pytest.raises(ValueError, match="outside"):
            log_t_interval(errors[:1], level)


def _toy_trajectory(errors, gammas=None):
    gammas = gammas if gammas is not None else [0.1] * len(errors)
    return Trajectory(gammas=np.array(gammas, dtype=float),
                      squared_errors=np.array(errors, dtype=float),
                      terminal_squared_error=errors[-1], final_point=np.zeros(1))


def _toy_result(errors, gammas, out="sa_run.csv"):
    """Network/RSA result over toy trajectories, one row of errors each."""
    reps, iters = errors.shape
    config = ExperimentConfig("network", "rsa", n=1, iters=iters, eta=0.5,
                              epsilon=0.5, replications=reps, out=out)
    _, ci_lo, ci_hi = log_t_interval(errors)
    return ExperimentResult(
        config=config, trajectories=[_toy_trajectory(list(e), gammas) for e in errors],
        gammas=np.array(gammas, dtype=float), bound=np.ones(iters),
        mean_sq_error=errors.mean(axis=0), ci_lo=ci_lo, ci_hi=ci_hi,
        terminal_errors=errors[:, -1], constants={},
        reference=Reference(np.zeros(1), 0.0, True, 0), floored_zeros=False,
    )


class TestEmitCsv:
    def test_single_trajectory_two_lines(self, tmp_path):
        path = tmp_path / "run.csv"
        emit_csv([_toy_trajectory([0.5])], [0.9], str(path))
        content = path.read_text()
        assert content.endswith("\n")
        lines = content.splitlines()
        assert len(lines) == 2
        assert lines[0] == "k,gamma,mean_sq_error,ci_lo,ci_hi,theory_bound"

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        errors = rng.uniform(1e-8, 1.0, 7)
        gammas = rng.uniform(0.01, 1.0, 7)
        bounds = rng.uniform(0, 2, 7)
        path = tmp_path / "run.csv"
        emit_csv([_toy_trajectory(list(errors), list(gammas))], bounds, str(path))
        _, rows = _read_csv(str(path))
        for k, row in enumerate(rows):
            assert float(row[1]) == gammas[k]
            assert float(row[2]) == errors[k]
            assert float(row[5]) == bounds[k]

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([_toy_trajectory([0.5, 0.2])], [0.9], str(tmp_path / "x.csv"))
        with pytest.raises(ValueError):
            emit_csv(
                [_toy_trajectory([0.5]), _toy_trajectory([0.5, 0.1])],
                [0.9],
                str(tmp_path / "y.csv"),
            )

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            emit_csv([_toy_trajectory([0.5])], [0.9], "/nonexistent-dir/run.csv")


class TestConfig:
    def test_per_problem_defaults(self):
        cfg = resolve_config("utility", "rsa")
        assert (cfg.n, cfg.iters, cfg.eta, cfg.epsilon) == (20, 4000, 0.5, 0.5)
        cfg = resolve_config("bimatrix", "csa")
        assert (cfg.n, cfg.eta, cfg.epsilon) == (20, 0.01, 0.2)
        cfg = resolve_config("network", "hsa")
        assert cfg.n == 5

    def test_overrides_win(self):
        cfg = resolve_config("utility", "rsa", n=7, eta=0.25)
        assert cfg.n == 7 and cfg.eta == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            resolve_config("utility", "sgd")
        with pytest.raises(ValueError):
            ExperimentConfig("utility", "rsa", n=5, iters=0, eta=0.5, epsilon=0.5)

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\nproblem=bimatrix\nscheme = csa\nn=6\ntheta=0.25 # inline\n"
        )
        parsed = parse_config_file(str(path))
        assert parsed == {"problem": "bimatrix", "scheme": "csa", "n": "6", "theta": "0.25"}

    def test_parse_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))


@pytest.fixture(scope="module")
def small_bimatrix_result():
    config = resolve_config("bimatrix", "rsa", n=4, iters=60, replications=3, seed=99)
    return run_replications(config)


class TestRunReplications:
    def test_minimal_run_has_distinct_noise(self):
        config = resolve_config("bimatrix", "rsa", n=4, iters=1, replications=2, seed=5)
        result = run_replications(config)
        assert all(t.squared_errors.size == 1 for t in result.trajectories)
        finals = [t.final_point for t in result.trajectories]
        assert not np.array_equal(finals[0], finals[1])

    def test_identical_configs_produce_identical_outputs(self, tmp_path):
        config = resolve_config(
            "bimatrix", "rsa", n=4, iters=25, replications=2, seed=7
        )
        paths = []
        for name in ("a.csv", "b.csv"):
            result = run_replications(config)
            path = tmp_path / name
            emit_csv(result.trajectories, result.bound, str(path))
            emit_metadata(result, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        meta = [json.loads((p.parent / (p.name + ".meta.json")).read_text()) for p in paths]
        meta[0]["config"]["out"] = meta[1]["config"]["out"] = ""
        assert meta[0] == meta[1]

    def test_gamma_columns_per_scheme(self):
        for scheme in ("hsa", "rsa", "csa"):
            config = resolve_config(
                "bimatrix", scheme, n=4, iters=300, replications=2, seed=3,
                alpha=0.7,
            )
            result = run_replications(config)
            g = result.gammas
            if scheme == "hsa":
                expected = [0.7] + [0.7 / k for k in range(1, 300)]
                assert np.array_equal(g, expected)
            elif scheme == "rsa":
                c = config.eta / 2.0
                for k in range(299):
                    assert g[k + 1] == g[k] * (1.0 - c * g[k])
            else:
                assert np.all(np.diff(g) <= 0)
                assert len(np.unique(g)) < 30  # piecewise constant

    def test_bound_column_attached(self, small_bimatrix_result, tmp_path):
        result = small_bimatrix_result
        assert result.bound.shape == (result.config.iters,)
        assert np.all(np.isfinite(result.bound))
        path = tmp_path / "bound.csv"
        emit_csv(result.trajectories, result.bound, str(path))
        _, rows = _read_csv(str(path))
        assert [float(row[5]) for row in rows] == result.bound.tolist()

    def test_metadata_contents(self, small_bimatrix_result, tmp_path):
        path = tmp_path / "meta.csv"
        emit_csv(small_bimatrix_result.trajectories, small_bimatrix_result.bound, str(path))
        meta_path = emit_metadata(small_bimatrix_result, str(path))
        meta = json.loads(open(meta_path).read())
        assert set(meta["constants"]) >= {"C", "nu2", "lip", "eta"}
        assert meta["config"]["problem"] == "bimatrix"
        assert "rng" in meta

    @pytest.mark.parametrize("last_gamma,clamped", [(0.05, False), (GAMMA_FLOOR, True)])
    def test_clamp_flag_read_from_the_gammas(self, tmp_path, last_gamma, clamped):
        result = _toy_result(np.array([[1.0, 0.5], [1.0, 0.25]]), [0.1, last_gamma])
        meta_path = emit_metadata(result, str(tmp_path / "toy.csv"))
        assert json.loads(open(meta_path).read())["clamped_steplengths"] is clamped

    def test_replication_failure_reports_seed(self):
        config = resolve_config("bimatrix", "rsa", n=4, iters=10, replications=2,
                                seed=13)
        setup = build_setup(config)

        def poisoned(x, y, rng):
            raise ValueError("oracle exploded")

        setup.oracle = poisoned
        with pytest.raises(RuntimeError, match="seed 13"):
            run_replications(config, setup=setup)


    def test_unconverged_reference_raises_unless_injected(self, monkeypatch, caplog):
        config = resolve_config("bimatrix", "rsa", n=4, iters=10, replications=2,
                                seed=13)
        setup = build_setup(config)
        stalled = _fixed_reference(setup)
        stalled.grad_map_norm, stalled.converged, stalled.iterations = 3.25e-4, False, 7
        monkeypatch.setattr(harness, "saa_reference", lambda *args, **kwargs: stalled)
        with pytest.raises(RuntimeError, match="residual 3.250e-04 after 7 iterations"):
            run_replications(config, setup=setup)
        with caplog.at_level(logging.WARNING, logger="adasa"):
            run_replications(config, reference=_fixed_reference(setup), setup=setup)
            assert not caplog.records
            result = run_replications(config, reference=stalled, setup=setup)
        assert result.reference is stalled
        assert [r.getMessage() for r in caplog.records] == [
            "the injected reference did not converge (residual 3.250e-04); every "
            "error curve is measured against it"
        ]

    @pytest.mark.parametrize("kind", ["min", "saddle"])
    def test_failure_in_a_later_replication_names_it(self, kind):
        problem = "network" if kind == "min" else "bimatrix"
        config = resolve_config(problem, "rsa", n=4, iters=10, replications=3,
                                seed=13)
        setup = build_setup(config)
        inner, calls = setup.oracle, []

        def poisoned(*args):
            # the fourth step of replication 1 sees a NaN gradient sample
            calls.append(None)
            out = inner(*args)
            if len(calls) != config.iters + 4:
                return out
            return (out[0] * math.nan, out[1]) if kind == "saddle" else out * math.nan

        setup.oracle = poisoned
        reference = _fixed_reference(setup)
        with pytest.raises(RuntimeError, match=r"replication 1 \(seed 14\)") as info:
            run_replications(config, reference=reference, setup=setup)
        assert isinstance(info.value.__cause__, ValueError)
        assert "non-finite" in str(info.value)
        assert len(calls) == config.iters + 4


def _fixed_reference(setup):
    """A feasible stand-in reference, so a test skips the reference solve."""
    size = setup.x0.size * (2 if setup.kind == "saddle" else 1)
    point = np.full(size, 1.0 / setup.x0.size)
    return Reference(point=point, grad_map_norm=0.0, converged=True, iterations=0)


def _frozen_pilot_noise_bound(draws, inflation=1.5):
    """harness._pilot_noise_bound as it was, on the whole sample at once."""
    center = draws.mean(axis=0)
    return float(((draws - center) ** 2).sum(axis=1).mean() * inflation)


@pytest.mark.parametrize(
    "m", [1, 10, smoothing.ROW_BLOCK, smoothing.ROW_BLOCK + 1, 3 * smoothing.ROW_BLOCK + 7]
)
def test_pilot_noise_bound_matches_the_whole_sample_formula_bitwise(m):
    rng = np.random.default_rng(m)
    for draws in (rng.normal(0.3, 2.0, (m, 40)), rng.uniform(-1.0, 1.0, (m, 5))):
        assert harness._pilot_noise_bound(draws) == _frozen_pilot_noise_bound(draws)


class TestLayerHooks:
    """The benchmark's tracer times the step, the steplength and the simplex
    projection by replacing these module attributes, so the engine must look
    each one up at call time, once per iteration (twice for the saddle
    projections). Inlining one would silently zero its layer. The ball draws
    are made a chunk of steps at a time, one sample_ball_batch call per chunk
    of each replication, and no step draws a single ball."""

    @pytest.mark.parametrize(
        "problem,balls,projections",
        [("utility", 1, 0), ("network", 0, 0), ("bimatrix", 1, 2)],
    )
    def test_engine_calls_each_hook_per_iteration(
        self, monkeypatch, problem, balls, projections
    ):
        counts = {}

        def counting(module, attr):
            inner = getattr(module, attr)

            def wrapper(*args, **kwargs):
                counts[attr] = counts.get(attr, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, attr, wrapper)

        counting(sa_core, "sa_step")
        counting(sa_core, "saddle_step")
        counting(problems, "project_simplex")
        counting(smoothing, "sample_ball")
        counting(problems, "sample_ball")
        counting(problems, "sample_ball_batch")
        make_policy = harness.make_policy

        def counting_policy(*args):
            policy = make_policy(*args)
            inner = policy.next_gamma

            def next_gamma():
                counts["next_gamma"] = counts.get("next_gamma", 0) + 1
                return inner()

            policy.next_gamma = next_gamma
            return policy

        monkeypatch.setattr(harness, "make_policy", counting_policy)
        config = resolve_config(problem, "csa", n=4, iters=25, replications=3, seed=1)
        setup = harness.build_setup(config)
        counts.clear()
        harness.run_replications(config, reference=_fixed_reference(setup), setup=setup)
        steps = config.iters * config.replications
        step = "saddle_step" if setup.kind == "saddle" else "sa_step"
        assert counts.pop(step) == steps
        assert counts.pop("next_gamma") == steps
        assert counts.pop("project_simplex", 0) == projections * steps
        assert counts.pop("sample_ball_batch", 0) == balls * config.replications
        assert counts == {}

    @pytest.mark.parametrize("problem", ["network", "bimatrix"])
    def test_harness_looks_up_each_stage_per_replication(self, monkeypatch, problem):
        # the benchmark times each trajectory by wrapping harness.run_sa /
        # run_saddle_sa and the schedule and bound by wrapping make_policy and
        # bound_trajectory, so run_replications must look each one up at call
        # time: the engine and the policy once per replication, the bound once
        counts = {}
        for attr in ("run_sa", "run_saddle_sa", "make_policy", "bound_trajectory"):
            inner = getattr(harness, attr)

            def wrapper(*args, _attr=attr, _inner=inner, **kwargs):
                counts[_attr] = counts.get(_attr, 0) + 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(harness, attr, wrapper)
        config = resolve_config(problem, "csa", n=4, iters=5, replications=3, seed=1)
        setup = harness.build_setup(config)
        harness.run_replications(config, reference=_fixed_reference(setup), setup=setup)
        engine = "run_saddle_sa" if setup.kind == "saddle" else "run_sa"
        assert counts == {engine: 3, "make_policy": 3, "bound_trajectory": 1}

def _frozen_ball(m, n, eps, rng):
    """sample_ball_batch as one unblocked formula."""
    directions = rng.standard_normal((m, n))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * ((eps * rng.uniform(size=(m, 1)) ** (1.0 / n)) / norms)


class TestStreamLayout:
    """A replication's trajectory against a loop that makes the documented
    draws itself, step by step, with the formulas written out."""

    def test_network_trajectory_equals_a_per_step_sample_k_loop(self):
        config = resolve_config("network", "rsa", iters=300, replications=1, seed=3)
        setup = build_setup(config)
        problem, reference = setup.problem, _fixed_reference(setup)
        gammas = harness.make_policy(config, setup.constants).gammas
        got = sa_core.run_sa(
            setup.oracle, setup.draw, setup.proj, harness.make_policy(config, setup.constants),
            setup.x0, config.iters, reference.point, np.random.default_rng(config.seed),
        )
        rng = np.random.default_rng(config.seed)
        x, errors = setup.x0.copy(), []
        for gamma in gammas:
            errors.append(float((x - reference.point) @ (x - reference.point)))
            g = problems.network_gradient(x, problem.sample_k(rng), problem.link_matrix)
            x = problems.project_capacity(x - gamma * g, problem.link_matrix, problem.capacity)
        assert got.squared_errors.tolist() == errors
        assert got.final_point.tobytes() == x.tobytes()

    @pytest.mark.parametrize("cap", ["setup", "median"])
    def test_utility_run_past_one_chunk_equals_the_two_chunk_loop(self, cap):
        # ROW_BLOCK + 3 steps: a chunk of ROW_BLOCK rows, then one of 3, each
        # laid out as xi block, ball directions, ball radii; the median cap
        # truncates about half of the samples
        n_iters = smoothing.ROW_BLOCK + 3
        config = resolve_config("utility", "hsa", n=4, iters=n_iters, replications=1,
                                seed=2, alpha=0.1)
        setup = build_setup(config)
        problem, n, eps = setup.problem, config.n, config.epsilon
        bound = setup.constants["C"]
        if cap == "median":
            pilot = problem.subgradient_samples(setup.x0, 1000, np.random.default_rng(4))
            bound = float(np.median(np.linalg.norm(pilot, axis=1)))
        oracle = smoothing.smoothed_oracle(problem.oracle, n, bound)
        reference = _fixed_reference(setup).point
        got = sa_core.run_sa(
            oracle, setup.draw, setup.proj, harness.make_policy(config, setup.constants),
            setup.x0, n_iters, reference, np.random.default_rng(config.seed),
        )
        gammas = harness.make_policy(config, setup.constants).gammas
        rng = np.random.default_rng(config.seed)
        x, errors, truncated = setup.x0.copy(), [], 0
        for lo, m in ((0, smoothing.ROW_BLOCK), (smoothing.ROW_BLOCK, 3)):
            xi = rng.standard_normal((m, n))
            z = _frozen_ball(m, n, eps, rng)
            for k in range(m):
                errors.append(float((x - reference) @ (x - reference)))
                point = x + z[k]
                coeff = problem.coeff_base + xi[k]
                t = np.einsum("i,i->", coeff, point)
                active = np.argmax(problem.intercepts + problem.slopes * t)
                g = problem.slopes[active] * coeff + problem.eta * point
                norm = np.linalg.norm(g)
                if norm > bound:
                    g, truncated = g * (bound / norm), truncated + 1
                x = problems.project_simplex(x - gammas[lo + k] * g)
        assert got.squared_errors.tolist() == errors
        assert got.final_point.tobytes() == x.tobytes()
        if cap == "median":
            assert 0 < truncated < n_iters


class TestCiColumnsAudit:
    def test_log_ci_brackets_mean_on_transient_dominated_run(self):
        # a small-alpha harmonic run stays transient-dominated, so the error is
        # nearly deterministic across replications and the log of the reported
        # mean sits between ci_lo and ci_hi at every iteration
        config = resolve_config("utility", "hsa", iters=300, replications=50,
                                seed=2, alpha=0.1, saa_samples=20_000)
        result = run_replications(config)
        logs = np.log(np.maximum(result.mean_sq_error, 1e-300))
        assert np.all(result.ci_lo <= logs + 1e-12)
        assert np.all(logs <= result.ci_hi + 1e-12)


class TestCli:
    def test_end_to_end_with_config_file_and_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        out_file = tmp_path / "out.csv"
        cfg_file.write_text(
            "problem=bimatrix\nscheme=rsa\nn=4\niters=30\nreplications=3\nseed=4\n"
        )
        rc = cli_main(
            ["--config", str(cfg_file), "--iters", "20", "--out", str(out_file)]
        )
        assert rc == 0
        header, rows = _read_csv(str(out_file))
        assert len(rows) == 20  # CLI flag overrode the config file's 30
        assert header == ["k", "gamma", "mean_sq_error", "ci_lo", "ci_hi", "theory_bound"]
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["config"]["iters"] == 20
        assert "terminal mean squared error" in capsys.readouterr().out

    def test_missing_problem_errors(self, capsys):
        assert cli_main(["--scheme", "rsa"]) == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["1e-20", "1e-300"])
    def test_csa_run_with_an_endless_regime_finishes(self, tmp_path, theta):
        # theta 1e-20 drops eta*gamma below float epsilon, so q rounds to 1;
        # theta 1e-300 also clamps the steplength at GAMMA_FLOOR
        out = str(tmp_path / "out.csv")
        argv = ["--problem", "network", "--scheme", "csa", "--theta", theta]
        assert cli_main(argv + ["--iters", "40", "--replications", "2", "--out", out]) == 0
        _, rows = _read_csv(out)
        assert np.all(np.isfinite(np.array(rows, dtype=float)[:, 5]))
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["clamped_steplengths"] is (theta == "1e-300")

    def test_configuration_error_is_reported_without_a_traceback(self, tmp_path, capsys):
        out = str(tmp_path / "out.csv")
        argv = ["--problem", "network", "--scheme", "csa", "--theta", "1.5"]
        assert cli_main(argv + ["--iters", "5", "--replications", "2", "--out", out]) == 2
        assert capsys.readouterr().err == "error: theta=1.5 outside (0, 1)\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--theta", "1.5"], "theta=1.5 outside (0, 1)"),
            (["--replications", "0"], "replications must be >= 1 (>= 2 for CIs)"),
            (["--n", "0"], "dimension n=0 must be >= 1"),
            (["--eta", "-1"], "eta=-1.0 must be finite and > 0"),
            (["--eta", "nan"], "eta=nan must be finite and > 0"),
            (["--scheme", "rsa", "--eta", "0"], "eta=0.0 must be finite and > 0"),
            (
                ["--problem", "bimatrix", "--scheme", "hsa", "--eta", "0"],
                "eta=0.0 must be finite and > 0",
            ),
            (["--eps", "0"], "eps=0.0 must be finite and > 0"),
            (["--eps", "inf"], "eps=inf must be finite and > 0"),
            (["--alpha", "0"], "alpha=0.0 must be finite and > 0"),
            (["--gamma0", "-1"], "gamma0=-1.0 must be finite and > 0"),
            # network takes its eta from the instance and is not smoothed
            (
                ["--problem", "network", "--eta", "3"],
                "network sets its own eta and has no eps",
            ),
            (
                ["--problem", "network", "--eps", "7"],
                "network sets its own eta and has no eps",
            ),
        ],
        ids=["theta", "replications", "n", "eta", "eta-nan", "eta-zero-utility-rsa",
             "eta-zero-bimatrix-hsa", "eps", "eps-inf", "alpha", "gamma0",
             "network-eta", "network-eps"],
    )
    def test_configuration_errors_are_reported_before_setup(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        def no_setup(config):
            raise AssertionError("build_setup ran for a configuration it cannot use")

        monkeypatch.setattr(harness, "build_setup", no_setup)
        argv = ["--problem", "utility", "--scheme", "csa", "--out", str(tmp_path / "o.csv")]
        assert cli_main(argv + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("saa_samples", 999),
            ("pieces", 0),
            ("eta", math.inf),
            ("eta", 0.0),
            ("alpha", math.nan),
        ],
    )
    def test_settings_without_a_flag_are_checked_too(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            resolve_config("utility", "rsa", **{field: value})
        resolve_config("utility", "rsa", saa_samples=1_000, pieces=1)

    def test_schedule_errors_are_reported_before_the_reference_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # CSA phase 1 finds no steplength from gamma0 = 1e-20; that is only
        # known once the setup gives the constants, but before the reference
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference was solved for a schedule that fails")

        monkeypatch.setattr(harness, "saa_reference", no_reference)
        out = tmp_path / "o.csv"
        argv = ["--problem", "utility", "--scheme", "csa", "--gamma0", "1e-20"]
        assert cli_main(argv + ["--iters", "50", "--replications", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: phase 1 failed to find a feasible steplength"
        )
        assert not out.exists()

    def test_warnings_are_logged_and_the_display_restored(self, tmp_path, caplog, monkeypatch):
        # a network run whose oracle goes non-finite: numpy warns of the
        # 0 * inf in A x, then project_capacity rejects the NaN it made
        def infinite_step(config):
            load = np.array([[0.0, 1.0]]) @ np.array([np.inf, 0.0])
            problems.project_capacity(np.append(load, 0.0), np.eye(2), np.ones(2))

        monkeypatch.setattr(adasa.cli, "run_replications", infinite_step)
        argv = ["--problem", "network", "--scheme", "rsa", "--out", str(tmp_path / "o.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            shown_by = warnings.showwarning
            with caplog.at_level(logging.WARNING, logger="py.warnings"):
                with pytest.raises(ValueError, match="non-finite"):
                    cli_main(argv)
            assert warnings.showwarning is shown_by
        (record,) = [r for r in caplog.records if r.name == "py.warnings"]
        assert "RuntimeWarning: invalid value encountered in matmul" in record.getMessage()

    def test_warning_capture_left_on_when_it_was_on(self, tmp_path, monkeypatch):
        monkeypatch.setattr(adasa.cli, "run_replications", lambda config: 1 / 0)
        argv = ["--problem", "network", "--scheme", "rsa", "--out", str(tmp_path / "o.csv")]
        with warnings.catch_warnings():
            logging.captureWarnings(True)
            try:
                captured = warnings.showwarning
                with pytest.raises(ZeroDivisionError):
                    cli_main(argv)
                assert warnings.showwarning is captured
            finally:
                logging.captureWarnings(False)

    def test_unknown_config_key_names_it(self, tmp_path):
        # exact flag names only: an abbreviation the parser would accept on the
        # command line is still an unknown key in the file
        for line in ("bogus=1", "iter=30"):
            cfg_file = tmp_path / "bad.cfg"
            cfg_file.write_text(f"problem=bimatrix\nscheme=rsa\n{line}\n")
            with pytest.raises(SystemExit) as exc:
                cli_main(["--config", str(cfg_file)])
            key = line.split("=")[0]
            assert isinstance(exc.value.code, str) and repr(key) in exc.value.code


class TestReportedStatistics:
    def test_geometric_mean_lies_inside_its_interval(self, tmp_path, capsys, monkeypatch):
        # one outlier among 50 replications: the arithmetic mean (~0.02) falls
        # outside the log-domain interval, the geometric mean it brackets not
        terminal = np.array([1e-6] * 49 + [1.0])
        out = str(tmp_path / "toy.csv")
        toy = _toy_result(terminal[:, None], [0.1], out=out)
        monkeypatch.setattr(adasa.cli, "run_replications", lambda config: toy)
        assert cli_main(["--problem", "network", "--scheme", "rsa", "--out", out]) == 0

        meta = json.loads((tmp_path / "toy.csv.meta.json").read_text())
        lo, hi = meta["terminal_log_ci"]
        assert lo <= math.log(meta["terminal_geo_mean_sq_error"]) <= hi
        assert not lo <= math.log(meta["terminal_mean_sq_error"]) <= hi
        assert meta["terminal_mean_sq_error"] == float(terminal.mean())

        stdout = capsys.readouterr().out
        geo = float(stdout.split("terminal geometric mean squared error: ")[1].split()[0])
        printed = stdout.split("(log-domain, shown as errors): [")[1].split("]")[0]
        shown_lo, shown_hi = (float(v) for v in printed.split(", "))
        assert shown_lo <= geo <= shown_hi
        assert "terminal mean squared error (arithmetic)" in stdout


class TestInteriorGame:
    """The paper's claims on a bilinear game whose equilibrium is interior: the
    symmetric A = (B + B^T)/2, B uniform, at eta = eps = 0.2. (On the default
    game the equilibrium is a vertex, where RSA and CSA reach an error of
    exactly 0.) The setup is _setup_bimatrix's own, on this matrix."""

    @pytest.fixture(scope="class")
    def suite(self):
        b = np.random.default_rng(0).uniform(size=(20, 20))
        sizes = {"eta": 0.2, "epsilon": 0.2, "replications": 10, "iters": 4000}
        with pytest.MonkeyPatch.context() as patch:
            game = functools.partial(problems.BimatrixProblem, matrix=(b + b.T) / 2)
            patch.setattr(harness, "BimatrixProblem", game)
            setup = build_setup(resolve_config("bimatrix", "hsa", **sizes))
        reference, results = None, {}
        for scheme in ("hsa", "rsa", "csa"):
            config = resolve_config("bimatrix", scheme, **sizes)
            results[scheme] = run_replications(config, reference=reference, setup=setup)
            reference = results[scheme].reference
        return results

    def test_rsa_and_csa_beat_hsa(self, suite):
        hsa = suite["hsa"].terminal_mean
        assert suite["rsa"].terminal_mean < hsa
        assert suite["csa"].terminal_mean < hsa

    @pytest.mark.parametrize("scheme", ["rsa", "csa"])
    def test_mean_error_stays_under_the_bound(self, suite, scheme):
        result = suite[scheme]
        over = np.flatnonzero(result.mean_sq_error > result.bound)
        assert over.size == 0, f"over the bound at {over.size} iterations from k={over[0]}"

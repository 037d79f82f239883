"""The package's module-level import graph has no cycles, and importing the
CLI stays light."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.stats

import adasa
from adasa.harness import _t_quantile, log_t_interval

PACKAGE = Path(adasa.__file__).resolve().parent


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_level_imports(body, modules):
    """Sibling modules imported when the module executes: function and class
    bodies run later, and TYPE_CHECKING blocks never run."""
    for node in body:
        if isinstance(node, ast.ImportFrom) and (
            node.level == 1 or (node.module or "").startswith("adasa")
        ):
            parts = (node.module or "").split(".")[node.level == 0 :]
            if parts and parts[0]:
                yield parts[0]
            else:  # from . import x
                yield from (a.name for a in node.names if a.name in modules)
        elif isinstance(node, ast.If):
            if not _is_type_checking(node):
                yield from _module_level_imports(node.body, modules)
            yield from _module_level_imports(node.orelse, modules)


def import_graph() -> dict[str, set[str]]:
    files = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    graph = {}
    for name, path in files.items():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph[name] = set(_module_level_imports(tree.body, files)) - {name}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path [a, b, ..., a], or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt) :] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    assert "bounds" in graph["steplength"]
    assert "problems" in graph["sa_core"]
    cycle = find_cycle(graph)
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"


def test_cycle_finder_sees_a_cycle_and_skips_type_checking_blocks():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from .x import f\n"
        "from . import y\n"
        "from adasa.v import k\n"
        "if TYPE_CHECKING:\n"
        "    from .z import T\n"
        "def g():\n"
        "    from .w import h\n"
    )
    found = set(_module_level_imports(tree.body, {"v", "w", "x", "y", "z"}))
    assert found == {"v", "x", "y"}


_SCIPY_LOADS = """
import sys
import adasa.cli
from adasa import harness, problems


def loaded(stage):
    mods = {m for m in sys.modules if m.split(".")[0] == "scipy"}
    print(stage, bool(mods), "scipy.special" in mods, "scipy.optimize" in mods)


loaded("import")
config = harness.resolve_config("bimatrix", "hsa", iters=50, replications=3, out=sys.argv[1])
result = harness.run_replications(config)
harness.emit_csv(result.trajectories, result.bound, config.out)
harness.emit_metadata(result, config.out)
loaded("bimatrix")
print("quantiles", harness._t_quantile.cache_info().misses)
setup = harness.build_setup(harness.resolve_config("utility", "rsa"))
loaded("utility")
problems.saa_reference(setup.problem, sample_size=2_000)
harness.build_setup(harness.resolve_config("network", "rsa"))
loaded("network")
print("stats", "scipy.stats" in sys.modules)
"""


def _run_script(script, *args):
    """stdout lines of script run by a fresh interpreter on this package."""
    src = str(PACKAGE.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.splitlines()


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    """No run loads a scipy module: not the CLI import, not a whole bimatrix
    run (its three interval requests compute one t quantile), not the utility
    problem and its reference solve, nor the network problem."""
    assert _run_script(_SCIPY_LOADS, str(tmp_path / "run.csv")) == [
        "import False False False",
        "bimatrix False False False",
        "quantiles 1",
        "utility False False False",
        "network False False False",
        "stats False",
    ]


_RUN = """
import sys
from adasa import harness

config = harness.resolve_config(sys.argv[1], "rsa", iters=50, replications=1, out=sys.argv[2])
setup = harness.build_setup(config)
result = harness.run_replications(config, setup=setup)
harness.emit_csv(result.trajectories, result.bound, config.out)
harness.emit_metadata(result, config.out)
print(result.reference.converged, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_network_run_loads_no_scipy_module(tmp_path):
    """A network run, setup, reference solve, a replication and its output,
    projects onto the link capacities without any scipy module."""
    assert _run_script(_RUN, "network", str(tmp_path / "run.csv")) == ["True []"]


def test_utility_run_loads_no_scipy_module(tmp_path):
    """A utility run, setup, reference solve, a replication and its output,
    takes its normal CDF from numpy alone."""
    assert _run_script(_RUN, "utility", str(tmp_path / "run.csv")) == ["True []"]


_NO_SCIPY_CLI = """
import sys
from importlib.abc import MetaPathFinder


class RefuseScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is for the tests only")
        return None


sys.meta_path.insert(0, RefuseScipy())
from adasa.cli import main

problem, out = sys.argv[1:]
print(main(["--problem", problem, "--scheme", "rsa", "--iters", "50",
            "--replications", "3", "--out", out]))
"""


@pytest.mark.parametrize("problem", ["utility", "network", "bimatrix"])
def test_cli_runs_where_scipy_cannot_be_imported(tmp_path, problem):
    """scipy is a test dependency only: with every scipy import refused, the
    CLI still runs each problem and writes its CSV and metadata."""
    out = tmp_path / f"{problem}.csv"
    assert _run_script(_NO_SCIPY_CLI, problem, str(out))[-1] == "0"
    assert out.stat().st_size > 0
    assert Path(f"{out}.meta.json").stat().st_size > 0


def _exact_t_cdf_brackets(df, p, q):
    """Whether the exact p-quantile of t(df) lies strictly between the float
    q's rounding midpoints, i.e. q is that quantile correctly rounded:
    P(|T| <= t) = I_{t^2/(df+t^2)}(1/2, df/2), at 200 bits."""
    with mpmath.workprec(200):
        two_sided = lambda t: mpmath.betainc(  # noqa: E731
            mpmath.mpf(1) / 2, mpmath.mpf(df) / 2, 0, t * t / (df + t * t),
            regularized=True,
        )
        q = mpmath.mpf(q)
        below = (q + mpmath.mpf(math.nextafter(float(q), -math.inf))) / 2
        above = (q + mpmath.mpf(math.nextafter(float(q), math.inf))) / 2
        return two_sided(below) < 2 * mpmath.mpf(p) - 1 < two_sided(above)


def test_t_quantile_is_correctly_rounded():
    for df in [*range(1, 201), 499, 999, 4999]:
        for p in (0.95, 0.975, 0.995):
            q = _t_quantile(df, p)
            assert _exact_t_cdf_brackets(df, p, q), (df, p, q)


def test_t_quantile_matches_scipy_at_the_golden_runs_df():
    # the golden runs have 3 replications, so their intervals use df = 2
    assert _t_quantile(2, 0.5 * (1.0 + 0.90)) == scipy.stats.t.ppf(0.95, 2)


@pytest.mark.parametrize(
    "df,p,error",
    [(0, 0.95, ValueError), (-3, 0.95, ValueError), (2.0, 0.95, TypeError),
     (2, 0.3, ValueError), (2, 1.0, ValueError), (2, math.nan, ValueError)],
)
def test_t_quantile_rejects_a_df_or_p_outside_its_domain(df, p, error):
    with pytest.raises(error):
        _t_quantile(df, p)


def test_log_t_interval_is_the_centre_plus_minus_the_quantile_half_width():
    rng = np.random.default_rng(5)
    for df in range(1, 201):
        errors = rng.lognormal(0.0, 1.0, size=(df + 1, 3))
        center, lo, hi = log_t_interval(errors, level=0.90)
        logs = np.log(errors)
        half = _t_quantile(df, 0.95) * logs.std(axis=0, ddof=1) / math.sqrt(df + 1)
        assert np.array_equal(lo, center - half) and np.array_equal(hi, center + half)

"""The package's module-level import graph has no cycles, and importing the
CLI stays light."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.stats

import adasa
from adasa.harness import log_t_interval

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
from adasa import harness

print("scipy.stats" in sys.modules, "scipy.optimize" in sys.modules)
for problem in ("utility", "bimatrix", "network"):
    harness.build_setup(harness.resolve_config(problem, "rsa"))
    print(problem, "scipy.optimize" in sys.modules)
"""


def test_cli_import_leaves_scipy_stats_out():
    """The CLI never loads scipy.stats, and only the network problem, while
    its setup is built, loads scipy.optimize."""
    src = str(PACKAGE.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    lines = subprocess.run(
        [sys.executable, "-c", _SCIPY_LOADS],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    assert lines == ["False False", "utility False", "bimatrix False", "network True"]


def test_log_t_interval_matches_scipy_stats_quantile_bitwise():
    rng = np.random.default_rng(5)
    for df in range(1, 201):
        errors = rng.lognormal(0.0, 1.0, size=(df + 1, 3))
        center, lo, hi = log_t_interval(errors, level=0.90)
        logs = np.log(errors)
        half = scipy.stats.t.ppf(0.95, df) * logs.std(axis=0, ddof=1) / math.sqrt(df + 1)
        assert np.array_equal(lo, center - half) and np.array_equal(hi, center + half)

"""The benchmark's hook surface: every name bench/child.py and bench/tracer.py
look up on adasa still exists, and the oracle they wrap returns what the
tracer's truncation count reads.

The bench scripts are parsed, never imported or run, so this guard costs no
benchmark work; a rename in adasa that the bench still uses fails here
instead of in a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from adasa import harness, problems, steplength

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("harness", "problems", "sa_core", "smoothing")
# the bench's local names for adasa objects, and the classes they may hold
OBJECTS = {
    "setup": (harness.RunSetup,),
    "config": (harness.ExperimentConfig,),
    "result": (harness.ExperimentResult,),
    "reference": (problems.Reference,),
    "policy": (steplength.StepSchedule,),
    "problem": (problems.UtilityProblem, problems.BimatrixProblem, problems.NetworkProblem),
}


def _lookups(tree: ast.AST) -> set[tuple[str, str]]:
    """(module or local name, attribute) pairs a bench script looks up:
    plain attribute reads, the tracer's patch(module, "attr") calls and
    getattr(module, attr) over a loop of literal names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add((node.value.id, node.attr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "patch"
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            found.add((node.args[0].id, node.args[1].value))
        elif (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Tuple)
        ):
            names = [c.value for c in node.iter.elts if isinstance(c, ast.Constant)]
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "getattr"
                    and isinstance(inner.args[0], ast.Name)
                    and isinstance(inner.args[1], ast.Name)
                    and inner.args[1].id == node.target.id
                ):
                    found.update((inner.args[0].id, name) for name in names)
    return found


def _bench_lookups() -> set[tuple[str, str]]:
    found = set()
    for script in ("child.py", "tracer.py"):
        found |= _lookups(ast.parse((BENCH / script).read_text(encoding="utf-8")))
    return found


def _has(cls, attr: str) -> bool:
    fields = getattr(cls, "__dataclass_fields__", {})
    return attr in fields or hasattr(cls, attr)


def test_every_name_the_bench_looks_up_exists():
    found = _bench_lookups()
    # the forms the walker reads, one of each, so that a bench rewritten in
    # another form fails here rather than checking nothing
    assert {
        ("harness", "build_setup"),
        ("harness", "run_sa"),
        ("harness", "run_saddle_sa"),
        ("sa_core", "sa_step"),
        ("problems", "sample_ball"),
        ("smoothing", "sample_ball"),
        ("setup", "oracle"),
        ("policy", "next_gamma"),
    } <= found
    missing = []
    for owner, attr in sorted(found):
        if owner in MODULES:
            if not hasattr(importlib.import_module(f"adasa.{owner}"), attr):
                missing.append(f"adasa.{owner}.{attr}")
        elif owner in OBJECTS:
            missing += [
                f"{cls.__name__}.{attr}" for cls in OBJECTS[owner] if not _has(cls, attr)
            ]
    assert not missing, f"bench/ looks up names adasa no longer has: {missing}"
    import adasa.cli

    assert callable(adasa.cli.main)


@pytest.mark.parametrize("problem", ["utility", "bimatrix", "network"])
def test_the_tracer_wraps_the_solver_entry_each_reference_problem_has(problem):
    # _instrument_saa wraps the value_grad of what build_saa returns, and
    # child.py's solve_reference calls harness.saa_reference on the setup's
    # problem, which must return a point of the engine's size
    config = harness.resolve_config(
        problem, "rsa", n=4, iters=5, replications=1, saa_samples=1_000
    )
    setup = harness.build_setup(config)
    saa = setup.problem.build_saa(config.saa_samples, np.random.default_rng(0))
    assert isinstance(saa, problems.SaaMinimization)
    assert callable(saa.value_grad)
    assert callable(saa.hessian)
    reference = harness.saa_reference(
        setup.problem, sample_size=config.saa_samples, seed=np.random.default_rng(0)
    )
    start = np.concatenate([setup.x0, setup.y0]) if setup.kind == "saddle" else setup.x0
    assert reference.point.shape == start.shape


@pytest.mark.parametrize("problem", ["utility", "bimatrix", "network"])
def test_setup_oracle_returns_what_the_truncation_count_reads(problem):
    # the tracer's _count_cap takes the norm of a 1-D array or of a tuple of them
    config = harness.resolve_config(problem, "rsa", n=4, iters=5, replications=1)
    setup = harness.build_setup(config)
    row = setup.draw(1, np.random.default_rng(0))[0]
    if setup.kind == "saddle":
        out = setup.oracle(setup.x0, setup.y0, row)
        assert isinstance(out, tuple)
        parts = out
    else:
        out = setup.oracle(setup.x0, row)
        parts = (out,)
    for part in parts:
        assert isinstance(part, np.ndarray) and part.ndim == 1
    assert np.isfinite(sum(float(p @ p) for p in parts))

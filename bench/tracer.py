"""Outside-in span tracer for adasa.

The tracer replaces the public callables that adasa's layers receive or look
up at call time (module globals, the oracle and projection on a RunSetup, a
policy's next_gamma, a problem's build_saa objective) with wrappers. Nothing
inside the adasa package is edited. Each wrapper records one span: name,
start, end, parent span and run id (0 outside the SA trajectories, r + 1 inside
the r-th trajectory). Spans are kept in flat arrays in memory and written out
once, when the workload has finished.

Counts that need a look at a call's output (projections that left their input
unchanged, oracle outputs sitting on the truncation cap) are taken after the
call in a span of their own, "trace.count", so that their cost shows as
tracing cost and not as the parent layer's self time.
"""

from __future__ import annotations

import array
import math
import time
from collections import Counter

# feasible inputs come back from a projection equal up to rounding
_NOOP_RTOL = 1e-12
# a truncated oracle output has norm C up to rounding
_CAP_RTOL = 1e-12


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.run = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: Counter[str] = Counter()
        self.values: dict[str, float] = {}
        self.run_id = 0
        self._runs = 0
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(args, result) runs in a trace.count span."""
        nid = self.name_id(name)
        count_nid = self.name_id("trace.count")
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                idx = open_(count_nid)
                try:
                    after(args, out)
                finally:
                    close(idx)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, harness, sa_core, problems, smoothing) -> None:
        """Patch adasa's public callables; must run before build_setup."""

        def patch(module, attr, name, after=None):
            setattr(module, attr, self.wrap(name, getattr(module, attr), after))

        patch(harness, "build_setup", "harness.build_setup", self._instrument_setup)
        patch(harness, "saa_reference", "harness.saa_reference", self._record_reference)
        patch(harness, "run_replications", "harness.run_replications")
        patch(harness, "make_policy", "steplength.policy_init", self._instrument_policy)
        patch(harness, "bound_trajectory", "bounds.trajectory")
        patch(harness, "emit_csv", "harness.emit_csv")
        patch(harness, "emit_metadata", "harness.emit_metadata")
        for attr in ("run_sa", "run_saddle_sa"):
            setattr(harness, attr, self._wrap_run(getattr(harness, attr)))
        patch(sa_core, "sa_step", "sa_core.step")
        patch(sa_core, "saddle_step", "sa_core.step")
        # saddle_step imports project_simplex at call time; the utility
        # reference solve looks it up when build_saa runs
        patch(problems, "project_simplex", "problems.project", self._count_noop)
        # smoothing.perturbation and the bimatrix oracle each hold their own
        # module-level binding of sample_ball
        patch(smoothing, "sample_ball", "smoothing.ball")
        patch(problems, "sample_ball", "smoothing.ball")

    def _wrap_run(self, fn):
        traced = self.wrap("sa_core.run", fn)

        def run(*args, **kwargs):
            self._runs += 1
            self.run_id = self._runs
            try:
                return traced(*args, **kwargs)
            finally:
                self.run_id = 0

        return run

    def _instrument_setup(self, args, setup) -> None:
        cap = float(setup.constants["C"])
        setup.oracle = self.wrap(
            "problems.oracle", setup.oracle, lambda a, g: self._count_cap(g, cap)
        )
        if setup.proj is not None:
            setup.proj = self.wrap("problems.project", setup.proj, self._count_noop)
        problem = setup.problem
        problem.build_saa = self.wrap(
            "problems.build_saa", problem.build_saa, self._instrument_saa
        )

    def _instrument_saa(self, args, saa) -> None:
        attr = "value_grad" if hasattr(saa, "value_grad") else "operator"
        setattr(saa, attr, self.wrap("problems.objective", getattr(saa, attr)))

    def _instrument_policy(self, args, policy) -> None:
        policy.next_gamma = self.wrap("steplength.gamma", policy.next_gamma)

    def _record_reference(self, args, reference) -> None:
        self.values["reference_iters"] = reference.iterations
        self.values["reference_residual"] = reference.grad_map_norm

    def _count_noop(self, args, out) -> None:
        if self.run_id:
            v = args[0]
            if abs(out - v).max() <= _NOOP_RTOL * (1.0 + abs(v).max()):
                self.counts["project_noop"] += 1

    def _count_cap(self, g, cap: float) -> None:
        if self.run_id:
            parts = g if isinstance(g, tuple) else (g,)
            sq = sum(float(p @ p) for p in parts)
            if sq >= (cap * (1.0 - _CAP_RTOL)) ** 2:
                self.counts["oracle_capped"] += 1

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        import numpy as np

        return {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "run": np.frombuffer(self.run, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summarize(self, sa_iters: int, root: str) -> tuple[dict, list[dict]]:
        """Per-layer metrics and the layer-share table.

        A span's self time is its duration minus its children's durations;
        spans nest strictly, so children never overlap. SA-phase metrics
        (oracle, projection, step, steplength, smoothing) use the spans with a
        nonzero run id only, so reference-solve projections do not mix in.
        """
        import numpy as np

        a = self.arrays()
        name, parent, run = a["name"], a["parent"], a["run"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_t = dur - child
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(n, sa_only=False):
            m = name == ids.get(n, -1)
            return m & (run > 0) if sa_only else m

        def mean(values, scale):
            return float(values.mean() * scale) if values.size else 0.0

        def only(n):
            durs = dur[mask(n)]
            if durs.size != 1:
                raise RuntimeError(f"expected one {n} span, found {durs.size}")
            return float(durs[0])

        runs = dur[mask("sa_core.run")]
        setup = mask("harness.build_setup")
        setup_start, setup_end = a["start"][setup][0], a["end"][setup][0]
        in_setup = (a["start"] >= setup_start) & (a["end"] <= setup_end)
        oracle_calls = int(mask("problems.oracle", True).sum())
        project_calls = int(mask("problems.project", True).sum())
        ball = mask("smoothing.ball", True)
        rr = mask("harness.run_replications")
        metrics = {
            "sa_core.run_self_us": float(self_t[mask("sa_core.run")].sum()) / sa_iters * 1e6,
            "sa_core.step_self_us": mean(self_t[mask("sa_core.step", True)], 1e6),
            "sa_core.rep_s_p50": float(np.percentile(runs, 50)),
            "sa_core.rep_s_p80": float(np.percentile(runs, 80)),
            "steplength.gamma_us": mean(dur[mask("steplength.gamma", True)], 1e6),
            "steplength.policy_init_ms": mean(dur[mask("steplength.policy_init")], 1e3),
            "bounds.trajectory_ms": only("bounds.trajectory") * 1e3,
            "smoothing.ball_us": mean(dur[ball], 1e6),
            "smoothing.ball_calls": int(ball.sum()),
            "smoothing.truncation_frac": self.counts["oracle_capped"] / max(oracle_calls, 1),
            "problems.oracle_us": mean(self_t[mask("problems.oracle", True)], 1e6),
            "problems.oracle_calls": oracle_calls,
            "problems.project_us": mean(self_t[mask("problems.project", True)], 1e6),
            "problems.project_calls": project_calls,
            "problems.project_noop_frac": self.counts["project_noop"] / max(project_calls, 1),
            "problems.reference_iters": int(self.values["reference_iters"]),
            "problems.objective_evals": int(mask("problems.objective").sum()),
            "problems.objective_ms": mean(dur[mask("problems.objective")], 1e3),
            "problems.reference_residual": float(self.values["reference_residual"]),
            "harness.pilot_oracle_calls": int((mask("smoothing.ball") & in_setup).sum()),
            "harness.build_setup_s": only("harness.build_setup"),
            "cli.import_s": only("cli.import"),
            "harness.aggregate_ms": float(self_t[rr][0]) * 1e3,
            "harness.csv_ms": only("harness.emit_csv") * 1e3,
            "harness.meta_ms": only("harness.emit_metadata") * 1e3,
        }

        total = only(root)
        rr_start, rr_end = a["start"][rr][0], a["end"][rr][0]
        in_sa = (a["start"] >= rr_start) & (a["end"] <= rr_end)
        table = []
        for n, i in ids.items():
            m = name == i
            table.append(
                {
                    "layer": n,
                    "calls": int(m.sum()),
                    "self_s": float(self_t[m].sum()),
                    "share_of_run": float(self_t[m].sum()) / total,
                    "share_of_sa": float(self_t[m & in_sa].sum()) / float(dur[rr][0]),
                }
            )
        table.sort(key=lambda row: -row["self_s"])
        return metrics, table

"""Fixed-seed goldens for every problem x scheme.

Each case is the CLI run `adasa --problem P --scheme S --seed 0
--replications 3 --iters 300`. It pins the SHA-256 of the CSV, the SHA-256 of
`meta.json` with `config.out` blanked (it names the output path), and
repr(terminal_mean). A change that moves any of them changes the numbers a
user gets, so it must re-pin these values and say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adasa
from adasa.harness import (
    _TAG_REFERENCE,
    build_setup,
    emit_csv,
    emit_metadata,
    resolve_config,
    run_replications,
)
from adasa.problems import saa_reference

SIZE = {"replications": 3, "iters": 300, "seed": 0}

# (problem, scheme): (CSV SHA-256, meta.json SHA-256, repr(terminal_mean))
GOLDEN = {
    ("utility", "hsa"): (
        "2ce0448efedae28b1deed7b46e1b229cbe584cf0a405ae729a501a366f2769d5",
        "660142e0c10e83c995505c1be39bd7ef1133d2ed32fe4ca8f613199ee4b9efce",
        "0.010118532569394214",
    ),
    ("utility", "rsa"): (
        "5840f883904e99bf3847de71dbb929366fae4980aba95d23f528e2dce6c29ceb",
        "c48e1eb5f7ca8c3257cfaaf77b24b398a8b15bc924798a39f6c260f025cd67a7",
        "0.012178205341345574",
    ),
    ("utility", "csa"): (
        "7299c95e336b2692701d54ac6fe814e145097b242d95760e7e97d18971f870d5",
        "b97388d69ea206ff4175a41c755036d9bf25b895ba00a14553564799233cdc5a",
        "0.012434070984887238",
    ),
    ("bimatrix", "hsa"): (
        "408213ce992fb00c152539541f720755439879c76c57cd52b436576028b99237",
        "2a084de4014adf20bb76a14b8e9e753213afffeb36bfe7372af8138b4ac05aef",
        "0.7414987291663113",
    ),
    ("bimatrix", "rsa"): (
        "d522a566b912bf7ae60a52c91108eee49196b0b51710b2d114edc13843834678",
        "76df14ba7645d35f552bcf2ab361134307fe4c02052de9bce5aded1ae810daa0",
        "0.9465898200845727",
    ),
    ("bimatrix", "csa"): (
        "ad2b0e1ee9a934429ba25ac70f5bcf9eab408ec639a6b2b5890c6d790796de5e",
        "69970b67c6670831ca57e46363e52698b1687aaa00c8de9ae79b46e44e2335b5",
        "0.7426930642388286",
    ),
    ("network", "hsa"): (
        "dbe43f1f526775fd93e247be582507ddb0ef3a68271be32c5837d47f886b3b91",
        "621d575228549b2e513a6248f7fe31b5641cad30bec4a798d4487d22e847ea8f",
        "0.0001576246151788267",
    ),
    ("network", "rsa"): (
        "f3c95fbc97a1ee0cefacf6375841616494d13b28a6812aa6f7634fa6f2a92913",
        "cba425801a18f7739a4854445e3210b4bfb0c1ee5893bd32c35723dfd4359f87",
        "0.000211517240946464",
    ),
    ("network", "csa"): (
        "c26fde1726ba34cd3c715c268278d51120cfe980ef69c944e389fd9baa3cb48e",
        "ed369cd6c48c67187b13f22a4cbae3c53e9d57ef33c3b8a5628747a687cf2e64",
        "0.00011422771443353999",
    ),
}


@pytest.fixture(scope="module")
def shared_inputs():
    """Setup and reference of each problem, built once and shared by its schemes
    (neither depends on the scheme)."""
    cache = {}

    def get(problem):
        if problem not in cache:
            config = resolve_config(problem, "hsa", **SIZE)
            setup = build_setup(config)
            reference = saa_reference(
                setup.problem,
                sample_size=config.saa_samples,
                seed=np.random.default_rng([config.seed, _TAG_REFERENCE]),
            )
            cache[problem] = setup, reference
        return cache[problem]

    return get


def pinned_outputs(problem, scheme, shared_inputs, out_dir):
    setup, reference = shared_inputs(problem)
    config = resolve_config(problem, scheme, out=str(out_dir / "run.csv"), **SIZE)
    result = run_replications(config, reference=reference, setup=setup)
    emit_csv(result.trajectories, result.bound, config.out)
    with open(emit_metadata(result, config.out), encoding="utf-8") as handle:
        meta = json.load(handle)
    meta["config"]["out"] = ""
    meta_text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    with open(config.out, "rb") as handle:
        csv_bytes = handle.read()
    return (
        hashlib.sha256(csv_bytes).hexdigest(),
        hashlib.sha256(meta_text.encode("utf-8")).hexdigest(),
        repr(result.terminal_mean),
    )


@pytest.mark.parametrize(
    "problem,scheme", list(GOLDEN), ids=[f"{p}-{s}" for p, s in GOLDEN]
)
def test_fixed_seed_outputs(problem, scheme, shared_inputs, tmp_path):
    assert pinned_outputs(problem, scheme, shared_inputs, tmp_path) == GOLDEN[
        problem, scheme
    ]


def test_utility_outputs_do_not_depend_on_blas_threads(tmp_path):
    """The utility reference solve reduces over 100k samples; its bits, and so
    every utility output, must not change with the BLAS thread count."""
    src = str(Path(adasa.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads-{threads}"
        run_dir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        subprocess.run(
            [sys.executable, "-m", "adasa.cli", "--problem=utility", "--scheme=hsa"]
            + [f"--{key}={value}" for key, value in SIZE.items()]
            + ["--out=run.csv"],
            cwd=run_dir,
            env=env,
            check=True,
            capture_output=True,
        )
        outputs.append(
            ((run_dir / "run.csv").read_bytes(), (run_dir / "run.csv.meta.json").read_bytes())
        )
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0][0]).hexdigest() == GOLDEN["utility", "hsa"][0]

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
        "42ae109fde98e7f2004e768be1ed1dfb53b9de63ae01311d45c98e6f01eb75ee",
        "730fcf2cfc6ef70dce75bd18a3c627580f86798f569051da610b69626b6e89a4",
        "0.010118532569394217",
    ),
    ("utility", "rsa"): (
        "e7f04466531562d4a605c3e9fa3537c5a2f536a483592b594a4a0bb3c1e2e55f",
        "b874bf5dba7966742533575991c7562c27047eebf1a819d3d2e8690c4e08c9b5",
        "0.012178205341345576",
    ),
    ("utility", "csa"): (
        "fe788a1fe8588e72adf63329019c42f1b0bf09fd4639835466e01f1eff11d6d6",
        "c5e2cd83bab5ca9eda1d2cbe1a710f29f46dcb1f58719eae93fa418db7ae69b1",
        "0.012434070984887241",
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
        "40eddb018e651a4eb52af8b83575d873ed3d8bf4fffa4af83b252a043cc61b4c",
        "91cf8e6de5b5d3ed82a76d6313af6c709e7b67238e8f7361ebc3a17420b87999",
        "0.00016058560128775598",
    ),
    ("network", "rsa"): (
        "2b9c90227061277d70fa5d01d30c2fa1bba05f2b993ddba04b169c4e3ba38794",
        "a5bfa92531bb3ef1543f6e860df3a7db2dbbd0d5cbc150feeccaccc3ad8ed929",
        "0.0002147424385290324",
    ),
    ("network", "csa"): (
        "be2dea06100a40275c78bcf44f2f70124723f28801e48306c8297c75cc960d99",
        "236d6ca8a86ec286de497cd5363a4c01b49fecda7c59f31a9207ca00bf3a6ad4",
        "0.00011719175670869848",
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

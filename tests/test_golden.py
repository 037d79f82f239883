"""Fixed-seed goldens for every problem x scheme.

Each case is the CLI run `adasa --problem P --scheme S --seed 0
--replications 3 --iters 300`. It pins the SHA-256 of the CSV, the SHA-256 of
`meta.json` with `config.out` blanked (it names the output path), and
repr(terminal_mean). A change that moves any of them changes the numbers a
user gets, so it must re-pin these values and say why:
`PYTHONPATH=src python tests/test_golden.py` prints GOLDEN as the current code
computes it.
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
        "e9c718bf32334d1a49fa68a5c55b005a3d9a208cabb0af68157d10f62b3aff99",
        "24b1f49cdca701e22c0bf1d538948dcecf8b5cc5a718a4f2c3f5da67ab21fd11",
        "0.0072026232165478404",
    ),
    ("utility", "rsa"): (
        "ddadbc183d4ce5695ef538933f9d81ba5185b6a797a32585cfa2a38cba5c951f",
        "625c06431b9a10db53a92ab4c645d5fa69cd7006d4966a4b1764049cf9dd5617",
        "0.011641330552117642",
    ),
    ("utility", "csa"): (
        "095bbaf5afdfa8bea00ccdf12a51f00c29271a8d02510b4ff350a952f375a6c4",
        "377edfafca20e6087715c0af4be62382ddf845e9601698bc7f09dd468ac01599",
        "0.013331240755528178",
    ),
    ("bimatrix", "hsa"): (
        "c1d0a90f223e93cc4e57f60e5d55b82e8b0251f58d073b97658a919636243168",
        "2cca359841d4b9f1485bd2c200d7cf374fbd6a0ec1e350810814351718e3eabb",
        "0.7421550943379814",
    ),
    ("bimatrix", "rsa"): (
        "95ab3601a6c12f17eeabcb2f0ed5da545b5f2fd52ef0eb39743bc7cdceec82fb",
        "f70e3c2c9463df138f2caf653334261381be788c69909d86ba2675afd5a4476b",
        "0.9454363147652426",
    ),
    ("bimatrix", "csa"): (
        "189164b2e7eab595369cb01f83e8fd18c6e77b17892c3fab4b1d40a98692c097",
        "5b1cc275c37b444c5cf9625ba2b192f27af1aba7396774048b702ce6efe3d8ee",
        "0.7359210270239837",
    ),
    ("network", "hsa"): (
        "0dcf5c1ee5b1e477ee5e2ff00269607fb5fca4fc21445b001f18c7848f09764e",
        "4d1790f4d1329c8675fe8ee619de7843a91ea88b636355a58d3411b44808e561",
        "0.00015762467531061776",
    ),
    ("network", "rsa"): (
        "d1acd2babe5c4857e5702714819db2e1fe886992a960fd9a81dfb65aef3ccdec",
        "3b3c0f3bcd015b8e737424c49a18cfaa74d88b55ab60933daed46e81ca2fe754",
        "0.00021151730846807",
    ),
    ("network", "csa"): (
        "a06eb9754670ae606e6c211bf18dbd8dde83e4cca1c7a24d72153ca4882588f5",
        "2fdb59eb2b05e4c659b07932f22a6a0090bf75c91904bb36e03066079248549a",
        "0.00011422777103654272",
    ),
}


def cached_inputs():
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


@pytest.fixture(scope="module")
def shared_inputs():
    return cached_inputs()


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


if __name__ == "__main__":
    import tempfile

    get = cached_inputs()
    print("GOLDEN = {")
    with tempfile.TemporaryDirectory() as out_dir:
        for problem, scheme in GOLDEN:
            csv_hash, meta_hash, mean = pinned_outputs(problem, scheme, get, Path(out_dir))
            print(f'    ("{problem}", "{scheme}"): (')
            print(f'        "{csv_hash}",\n        "{meta_hash}",\n        "{mean}",\n    ),')
    print("}")

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
        "28e043edca4df9a80109afb186d6ecc34eefb0caffd96c6e46da5f59929dbf1d",
        "e1a2c6e1faf1b91d3a4e068f9af450d3e32447e563c631e6929a85c1e67026a9",
        "0.007202623571140674",
    ),
    ("utility", "rsa"): (
        "eb44f303d9a831dfe4841f1107463b49f25da160e283c5e83bca64242824a4c7",
        "7289420147a6a156ef38c6d947e4ed1809d6135b3696d6ec370928efd44a2059",
        "0.011641331165745457",
    ),
    ("utility", "csa"): (
        "1ea511912d6121a829213cffcb3ad27079abfa3423bf5ef7a140a0243d3562dd",
        "2f80a98f5714ea7d42ce92d03573f16bb63919ca7cc8e7e7b4800d42b033395a",
        "0.01333124142126108",
    ),
    ("bimatrix", "hsa"): (
        "6a942d244c267502417148a15bd569e5a59fd73df54142fe0167fea2e1832112",
        "399aa1c1d6fc7b47f64038f24a6db0f3c1ac6ccbb75c6f06090952f509522a85",
        "0.7421550943379812",
    ),
    ("bimatrix", "rsa"): (
        "e6e44decd1a326ca9bb3dd8bef4fd7a55372c652a7af2a72f6106f4dacd30110",
        "2e4c66b173e303f9e25b56558c11fa1badf627fa0ddbed73d5e1c4559c0cfd17",
        "0.9466914602881787",
    ),
    ("bimatrix", "csa"): (
        "46ac58ab87eaa03c4b4e954d211a8819614c0d803ad358dfc70b0fe31044d9fc",
        "784571309c8ea5479f3bfe59ebe027f83d0685967674ab1645033e45a527e3a4",
        "0.7427746304452465",
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

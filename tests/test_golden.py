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

import numpy as np
import pytest

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
        "19a26a5b76646a6834c54eb65d777968f5efdd2d37aab37690225fa48faccbad",
        "6e9880d0fd72480ce319d3209afe15b5669a40668d7cb87ef2cf8e562a38feb9",
        "0.010118532914617465",
    ),
    ("utility", "rsa"): (
        "7dd32ea6dd3b9b8ea5165119c4d640fa423055f52d4424e984475c48fb07fdcb",
        "49fb98b0be396ed47f0342c68fb0ef719498c35e2b58a23c0e90aabcf525a2bf",
        "0.012178205788180121",
    ),
    ("utility", "csa"): (
        "9c8a8870ff4de688f4fb7f986ba13ecc73f02a8d8029ce339a9282caa7365919",
        "3c6403da3a3537404aeed5e5585bdd8e94c18ca57c9604253392326a89c008b0",
        "0.012557151812413079",
    ),
    ("bimatrix", "hsa"): (
        "408213ce992fb00c152539541f720755439879c76c57cd52b436576028b99237",
        "05cdfb60b908f594b578cf579929974027e8e7ffabcde3e31b73493e75b20429",
        "0.7414987291663113",
    ),
    ("bimatrix", "rsa"): (
        "e4a20b08318e2d216166f705057f11c131f8d44ab4ffe2f668a9dd0a0c764b73",
        "dd7cb8bc1ab31dd096e1f7fa6d3fcec6ff595d33059c9fffa3592e5ad7a27f73",
        "0.9461175368215019",
    ),
    ("bimatrix", "csa"): (
        "23f07240fa2beecbf3d27314b83e12dfc6ef42fbfd367ae1834c9fa424555fb4",
        "7b850f208234056594d8f83e1a1c43a6a5dabaded90bfb096c480b2a2bb45133",
        "0.7399430159794996",
    ),
    ("network", "hsa"): (
        "36ddbdbdb0ae1291206273d6c107e0674ac3c686c90d325c259c5a4fae0b791f",
        "5f8a28719d992315069e45a753c4a0d12d4f977fafbb3d43852e4906545dd0e0",
        "0.0001605856012877691",
    ),
    ("network", "rsa"): (
        "216979eddffff6cf0fb2ae28ec483c63fb962dd85bda861f8e8742b8c4b67f09",
        "88e21504073e9b9a7da3a2bf996d9086b272db7fd7cf1c200e85711d9a844dd0",
        "0.0002147424385290324",
    ),
    ("network", "csa"): (
        "fb15b7addd5dbcbf0ce0eeddb169883611ad01d62efa500652dd7dab2cc13088",
        "0d6831275ab18f7ac3be38ef57c0163f07f3744baa284c405ce003b8c5fa1391",
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

import time

import numpy as np
import pytest

from adasa.harness import _TAG_REFERENCE, build_setup, resolve_config, run_replications
from adasa.problems import saa_reference


def _run_suite(problem, seed, scheme_kwargs, **common):
    """Replicated runs for all three schemes sharing one problem instance and
    one reference solution; returns {scheme: ExperimentResult} plus timings."""
    base = resolve_config(problem, "rsa", seed=seed, **common)
    setup = build_setup(base)
    t0 = time.time()
    reference = saa_reference(
        setup.problem,
        sample_size=base.saa_samples,
        seed=np.random.default_rng([seed, _TAG_REFERENCE]),
    )
    suite = {"setup": setup, "reference": reference, "elapsed": {}}
    suite["elapsed"]["reference"] = time.time() - t0
    for scheme, extra in scheme_kwargs.items():
        t0 = time.time()
        config = resolve_config(problem, scheme, seed=seed, **common, **extra)
        suite[scheme] = run_replications(config, reference=reference, setup=setup)
        suite["elapsed"][scheme] = time.time() - t0
    return suite


@pytest.fixture(scope="session")
def utility_suite():
    # baseline of the parametric study: n=20, N=4000, eps=0.5, eta=0.5;
    # rsa gamma0 from the sensitivity grid, hsa at an untuned benchmark scale
    return _run_suite(
        "utility",
        seed=11,
        scheme_kwargs={
            "rsa": {"gamma0": 0.25},
            "csa": {},
            "hsa": {"alpha": 0.1},
        },
        replications=50,
    )


@pytest.fixture(scope="session")
def bimatrix_suite():
    return _run_suite(
        "bimatrix",
        seed=7,
        scheme_kwargs={"rsa": {}, "csa": {}, "hsa": {"alpha": 1.0}},
        replications=50,
    )


@pytest.fixture(scope="session")
def network_suite():
    return _run_suite(
        "network",
        seed=5,
        scheme_kwargs={"rsa": {}, "csa": {}, "hsa": {"alpha": 0.05}},
        replications=50,
    )

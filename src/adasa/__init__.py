"""Adaptive-steplength stochastic approximation toolkit.

Projected SA engine (sa_core), harmonic/recursive/cascading steplength schedules
(steplength), closed-form error bounds (bounds), local randomized smoothing
(smoothing), three benchmark problems with reference solvers (problems), and a
replication harness with CSV output (harness).
"""

from .bounds import (
    csa_bound_trajectory,
    e_k_recursion,
    q_factor,
    rsa_bound_trajectory,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    emit_csv,
    emit_metadata,
    resolve_config,
    run_replications,
)
from .problems import (
    BimatrixProblem,
    NetworkProblem,
    Reference,
    UtilityProblem,
    capacity_vector,
    network_gradient,
    project_capacity,
    project_simplex,
    saa_reference,
)
from .sa_core import (
    Trajectory,
    run_sa,
    run_saddle_sa,
    sa_step,
    saddle_step,
)
from .smoothing import (
    ball_volume_coeff,
    sample_ball,
    sample_ball_batch,
    smoothed_oracle,
    smoothing_lipschitz,
)
from .steplength import (
    CsaParams,
    CsaRegime,
    StepSchedule,
    csa_schedule,
    csa_steps,
    hsa_steps,
    rsa_next,
    rsa_steps,
)

__version__ = "0.1.0"

"""Desk-scale ergodic theory laboratory.

Exact rank-1 cutting-and-stacking towers, GF(2) shift events with exact
cylinder measures, finite-dimensional orthogonal-operator averages, and
seeded Gaussian/Poisson suspension simulators, plus a small experiment
runner used by the command line.
"""
from __future__ import annotations

# Read by the reports module, so it is bound before any submodule is imported.
__version__ = "0.1.0"

from .tower import (
    ConstructionExhaustedError,
    ConstructionParams,
    FinitarySwap,
    GenerationError,
    InsufficientDepthError,
    LevelSet,
    RationalInterval,
    ScanEntry,
    TowerStage,
    build_stage,
    correlation_interval,
    depth_for,
    level_set_measure,
    refine_set,
    rigidity_scan,
    symdiff_interval,
    wh_defect,
)
from .constructions import (
    RigidMixingPair,
    builtin_params,
    chacon,
    odometer,
    params_from_spec,
    rigid_mixing_pair,
    staircase,
)
from .ledrapier import (
    SiteFunctional,
    base_event,
    event_measure,
    pair_measure,
    shift_functional,
    site_functional,
    symdiff_identity_check,
    triple_measure,
    xor_functionals,
)
from .mc import EstimateWithError, batch_estimate
from .operators import (
    CesaroDefect,
    FiniteRankPerturbation,
    conjugate_defect,
    make_rotation_operator,
)
from .gaussian import (
    GaussianModel,
    gaussian_hermite_correlation,
    gaussian_wh_experiment,
    orthant_probability,
    triple_correlation_weakmix_check,
)
from .poisson import (
    PoissonModel,
    poisson_count_covariance,
    poisson_gof,
    poisson_wh_experiment,
)
from .reports import ExperimentReport
from .experiments import (
    ConfigError,
    resolve_config,
    run_experiment,
)

"""Simulation and inference toolkit for explosive log-linear count series.

Counts are discretized scale-family innovations, ``X_t = floor(sigma_t Y_t)``,
with a log-linear feedback intensity and a logarithmic trend.  The package
simulates the process, certifies its geometric memory decay by an ordered
maximal coupling experiment, fits the trend exponent by least squares, and
quantifies uncertainty with a dependent wild bootstrap.
"""

from .bootstrap import (
    BootstrapConfig,
    ConfidenceInterval,
    CoverageCell,
    confidence_interval,
    coverage_experiment,
    t_star_variance,
)
from .coupling import CouplingExperimentResult, estimate_beta
from .errors import ConfigError, DataError, ExplosionError, NumericError
from .estimation import (
    TargetTheta,
    TrendFit,
    asymptotic_sigma2,
    ensemble_theta_hats,
    nn_means,
    t_statistic,
    theta_bar_mc,
    theta_hat,
    trend_weights,
)
from .innovations import (
    ChiSquare,
    DiscretizedLaw,
    DistributionConstants,
    Exponential,
    HalfCauchy,
    HalfNormal,
    InnovationSpec,
    compute_constants,
    innovation_from_json,
    tv_bound_check,
)
from .process import (
    ExogenousSpec,
    ModelParams,
    Trajectory,
    simulate,
    theorem1_bound,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "ChiSquare",
    "ConfidenceInterval",
    "ConfigError",
    "CouplingExperimentResult",
    "CoverageCell",
    "DataError",
    "DiscretizedLaw",
    "DistributionConstants",
    "ExogenousSpec",
    "ExplosionError",
    "Exponential",
    "HalfCauchy",
    "HalfNormal",
    "InnovationSpec",
    "ModelParams",
    "NumericError",
    "TargetTheta",
    "Trajectory",
    "TrendFit",
    "asymptotic_sigma2",
    "compute_constants",
    "confidence_interval",
    "coverage_experiment",
    "ensemble_theta_hats",
    "estimate_beta",
    "innovation_from_json",
    "nn_means",
    "simulate",
    "t_star_variance",
    "t_statistic",
    "theorem1_bound",
    "theta_bar_mc",
    "theta_hat",
    "trend_weights",
    "tv_bound_check",
    "validate",
]

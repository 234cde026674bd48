"""Residualize estimators on their diagnostic checks.

Given a baseline estimate and a vector of mean-zero diagnostic checks with a
consistent joint covariance, subtracting the implied regression of estimate
on checks yields an estimator that is first-order independent of any
reporting rule based on the checks, never less precise under the base model,
and minimax under bounded local misspecification among linear adjustments.
"""

from .core import (
    JointCovariance,
    OrthogonalityCheck,
    ResidualizationResult,
    adjusted_variance,
    orthogonality_stat,
    residualize,
    worst_case_bias,
)
from .covariance import InfluenceContributions, joint_covariance
from .rct import (
    RctDataset,
    balance_stats,
    long_regression,
    residualized_estimator,
    short_estimator,
)

__version__ = "0.1.0"

__all__ = [
    "InfluenceContributions",
    "JointCovariance",
    "OrthogonalityCheck",
    "RctDataset",
    "ResidualizationResult",
    "adjusted_variance",
    "balance_stats",
    "joint_covariance",
    "long_regression",
    "orthogonality_stat",
    "residualize",
    "residualized_estimator",
    "short_estimator",
    "worst_case_bias",
]

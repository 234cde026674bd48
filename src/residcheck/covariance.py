"""Joint covariance estimation from per-observation influence contributions.

The estimator and each check are assumed asymptotically linear, so their
joint per-observation covariance is estimated from the stacked contribution
matrix with column 0 holding the estimator's contributions and columns
1..p the checks'. Contributions are demeaned before forming outer products:
plug-in influence estimates have exact mean zero only asymptotically, and
demeaning removes the O_p(n^{-1/2}) mean without changing the limit.

Conventions: divide by n (not n - 1), matching the population definitions;
the cluster-robust variant sums contributions within clusters first. The
outer products are summed in the fixed order of :func:`_fixed_order.gram`,
so the estimate does not depend on the BLAS kernel. The estimate is split
at the seam between O(n) and (1 + p) x (1 + p) work: :func:`covariance_matrix`
sums over the rows, and :func:`joint_covariance` validates its result. A
stack of such matrices is validated in one :class:`JointCovariance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fixed_order import dense_codes, gram, group_sums
from .core import JointCovariance
from .errors import DegenerateResidualVariance, DimensionMismatch, TooFewClusters


@dataclass(frozen=True)
class InfluenceContributions:
    """(n, 1 + p) matrix of influence values, with optional cluster labels of length n."""

    values: np.ndarray
    cluster_ids: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] < 2:
            raise DimensionMismatch(
                "contributions must be a 2-d array with at least two columns "
                "(estimator plus one check)"
            )
        if not np.isfinite(values).all():
            raise DimensionMismatch("contributions contain non-finite values")
        n, k = values.shape
        p = k - 1
        if n < p + 2:
            # With n < p + 2 the assembled (1+p)-block covariance cannot be
            # strictly positive definite.
            raise DegenerateResidualVariance(
                f"need at least p + 2 = {p + 2} observations for a positive "
                f"definite joint covariance, got {n}"
            )
        if self.cluster_ids is not None:
            cluster_ids = np.asarray(self.cluster_ids)
            if cluster_ids.shape != (n,):
                raise DimensionMismatch(
                    f"cluster_ids must have length {n}, got shape {cluster_ids.shape}"
                )
            object.__setattr__(self, "cluster_ids", cluster_ids)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p_gamma(self) -> int:
        return self.values.shape[1] - 1


def covariance_matrix(contrib: InfluenceContributions) -> np.ndarray:
    """Per-observation joint covariance of (c_hat, gamma_hat), shape (1 + p, 1 + p).

    i.i.d.: Sigma_hat = (1/n) sum_i psi_i psi_i' of the demeaned rows.
    Clustered: Sigma_hat = (1/n) sum_g S_g S_g' with S_g the within-cluster
    sum of demeaned rows.

    This is the O(n) half of :func:`joint_covariance`, unvalidated; a stack
    of these matrices is validated in one :class:`JointCovariance`.
    """
    # One contiguous row per column, so that the means and the Gram matrix
    # are summed in the same order whatever the memory layout of the input.
    cols = np.ascontiguousarray(contrib.values.T)
    n = contrib.n
    means = np.add.reduce(cols, axis=-1) / n
    if contrib.cluster_ids is None:
        return gram(cols - means[:, None]) / n
    inverse = dense_codes(contrib.cluster_ids)
    n_clusters = int(inverse.max()) + 1
    if n_clusters < contrib.p_gamma + 2:
        raise TooFewClusters(
            f"need at least p + 2 = {contrib.p_gamma + 2} clusters, got {n_clusters}"
        )
    # Demeaned one row at a time: the cluster sums need no n x (1 + p) copy.
    psi = (col - mean for col, mean in zip(cols, means))
    return gram(group_sums(inverse, psi)) / n


def joint_covariance(contrib: InfluenceContributions) -> JointCovariance:
    """The :func:`covariance_matrix` of the contributions, validated.

    The usual validation errors of :class:`JointCovariance` propagate
    (singular check block, degenerate residual variance).
    """
    return JointCovariance.from_matrix(covariance_matrix(contrib), contrib.n)

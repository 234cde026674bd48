"""Difference-in-means, balance checks, and adjusted estimators for an RCT.

Instantiates the running randomized-trial case: the baseline estimator is
the difference in mean outcomes across arms, the diagnostic check is the
vector of covariate mean differences (the balance table), the conventional
alternative is the coefficient on treatment from the regression of the
outcome on treatment and covariates, and the residualized estimator adjusts
the difference in means by the variance-minimizing coefficient implied by
the joint covariance of estimate and checks.

All estimators are computed on within-stratum demeaned data when stratum
labels are supplied (mirroring block-randomized designs with fixed effects)
and on globally demeaned data otherwise. A dataset demeans [t, y, X] once
(``RctDataset.centered``) and computes the slopes and influence
contributions of y and X on t once (``RctDataset.influence``): the short,
balance, residualized and long estimators all read these.

The long regression and the joint covariance are each split at the seam
between O(n) and p x p work (:func:`long_normal_equations` and
:func:`long_coefficients`; :func:`covariance.covariance_matrix` and
:class:`core.JointCovariance`), and their compositions,
:func:`long_regression` and :func:`residualized_estimator`, run both halves
on one dataset. The RCT selection lab draws per-arm sufficient statistics
instead of rows: :func:`arm_statistics` gives it the O(n) halves, and the
p x p halves take a stack of them, of any leading shape, in one call whose
member b has the bits that member b alone gives.

Without strata the regression forms reduce exactly to the textbook formulas

    c_short = mean(Y | T=1) - mean(Y | T=0)
    gamma_k = mean(X_k | T=1) - mean(X_k | T=0)

with influence contributions T (Y - avg1) / pi - (1 - T)(Y - avg0) / (1 - pi)
at the realized treated share pi.

Every estimator sums in the fixed order of :mod:`residcheck._fixed_order`,
so its bits do not depend on the BLAS kernel. The long regression is the
linear adjustment of the difference in means at beta_long (Lovell 1963),
solved from normal equations on the same demeaned rows; it is not part of
the residualized pipeline, and ``analyze`` does not run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._fixed_order import cho_solve, cholesky, dense_codes, dot, gram, group_sums
from .core import JointCovariance, ResidualizationResult, residualize
from .covariance import InfluenceContributions, joint_covariance
from .errors import DimensionMismatch, EmptyArm, RankDeficientDesign, SingularCheckCovariance

# Share of a covariate's sum of squares that t and the earlier covariates
# may leave unexplained (a squared Cholesky pivot) before the design is
# treated as rank deficient rather than silently dropping columns.
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class RctDataset:
    """Outcome vector, binary treatment, (n, p) covariate matrix, optional strata of length n.

    A 1-d covariate array is one column.
    """

    outcome: np.ndarray
    treatment: np.ndarray
    covariates: np.ndarray
    strata: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.outcome, dtype=float)
        t = np.asarray(self.treatment)
        x = np.asarray(self.covariates, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim != 1 or t.shape != y.shape or x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"outcome ({y.shape}), treatment ({t.shape}) and covariates "
                f"({x.shape}) do not align as (n,), (n,) and (n, p)"
            )
        n = y.shape[0]
        if not np.isfinite(y).all() or not np.isfinite(x).all():
            raise DimensionMismatch("outcome or covariates contain non-finite values")
        t_float = np.asarray(t, dtype=float)
        if not ((t_float == 0.0) | (t_float == 1.0)).all():
            raise DimensionMismatch("treatment values must be 0 or 1")
        n1 = t_float.sum()
        if n1 < 2 or n - n1 < 2:
            raise EmptyArm(f"each arm needs at least 2 units, got {int(n1)} treated of {n}")
        if self.strata is not None:
            strata = np.asarray(self.strata)
            if strata.shape != (n,):
                raise DimensionMismatch(f"strata must have length {n}")
            object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "outcome", y)
        object.__setattr__(self, "treatment", t_float)
        object.__setattr__(self, "covariates", x)

    @property
    def n(self) -> int:
        return self.outcome.shape[0]

    @property
    def p_gamma(self) -> int:
        return self.covariates.shape[1]

    @cached_property
    def centered(self) -> np.ndarray:
        """Rows t, y, x_1..x_p demeaned (within strata when given), shape (2 + p, n).

        Computed on first use and shared by every estimator of the dataset;
        read-only.
        """
        rows = np.empty((2 + self.p_gamma, self.n))  # C order
        rows[0], rows[1] = self.treatment, self.outcome
        rows[2:] = self.covariates.T
        _demean(rows, self.strata)
        rows.flags.writeable = False
        return rows

    @cached_property
    def influence(self) -> tuple[np.ndarray, np.ndarray]:
        """Slopes of y, x_1..x_p on t and their (1 + p, n) influence contributions.

        Row 0 belongs to the difference in means, rows 1..p to the balance
        vector. Computed on first use; the contributions are read-only.
        """
        centered = self.centered
        slopes, contribs = _slopes_and_influence(centered[0], centered[1:])
        contribs.flags.writeable = False
        return slopes, contribs


def _demean(rows: np.ndarray, strata: np.ndarray | None) -> None:
    """Subtract in place from each row of a C-order (k, n) array its global or within-stratum mean.

    Global means are summed pairwise over each row and stratum sums in row
    order (:func:`_fixed_order.group_sums`), so the bits do not depend on the
    memory layout of the data the rows were copied from.
    """
    if strata is None:
        rows -= (np.add.reduce(rows, axis=-1) / rows.shape[1])[:, None]
        return
    inverse = dense_codes(strata)
    means = group_sums(inverse, rows) / np.bincount(inverse)
    for row, mean in zip(rows, means):
        row -= mean[inverse]


def _slopes_and_influence(t_c: np.ndarray, rows: np.ndarray):
    """Slopes of each demeaned row of a C-order (k, n) array on demeaned t.

    Returns the k slopes and their (k, n) influence contributions
    t_c (row - slope t_c) / (t_c't_c / n), built in one buffer. Each slope
    is summed pairwise over a contiguous row, like :func:`_fixed_order.dot`.
    """
    t_sq = dot(t_c, t_c)
    denom = t_sq / t_c.shape[0]
    if denom <= 0.0:
        raise EmptyArm("treatment indicator has no within-stratum variation")
    out = t_c * rows
    slopes = np.add.reduce(out, axis=-1) / t_sq
    np.multiply(slopes[:, None], t_c, out=out)
    np.subtract(rows, out, out=out)
    out *= t_c
    out /= denom
    return slopes, out


def short_estimator(data: RctDataset) -> tuple[float, np.ndarray]:
    """Difference in mean outcomes and its influence contributions."""
    slopes, contribs = data.influence
    return float(slopes[0]), contribs[0]


def balance_stats(data: RctDataset) -> tuple[np.ndarray, np.ndarray]:
    """Covariate mean differences across arms and their contributions.

    Returns ``(gamma_hat, contributions)`` with contributions of shape
    (n, p).
    """
    slopes, contribs = data.influence
    return slopes[1:], contribs[1:].T


def long_normal_equations(data: RctDataset) -> tuple[np.ndarray, np.ndarray]:
    """The O(n) half of :func:`long_regression`: its normal equations.

    Returns the (1 + p, 1 + p) matrix S = G - t't s s' of y, x_1..x_p
    with t partialled out, for the Gram matrix G of the demeaned y, x and
    their slopes s on t, and the p sums of squares x_k'x_k that the rank
    gate of :func:`long_coefficients` reads.
    """
    slopes, centered = data.influence[0], data.centered
    sums = gram(centered[1:])  # rows y, x_1..x_p, read in place
    t_sq = dot(centered[0], centered[0])
    partialled = sums - (t_sq * slopes)[:, None] * slopes[None, :]
    return partialled, np.diagonal(sums)[1:]


def arm_statistics(n: int, n1, means, scatters):
    """The O(n) half of the adapter from per-arm sufficient statistics, without strata.

    Takes the treated count n1 of n and the (treated, control) means of y, x_1..x_p
    and scatters S1, S0 about them. As t - t_bar is constant within an arm, the
    slopes on t are the differences in means and the contributions (row - mean) /
    pi_hat and -(row - mean) / (1 - pi_hat). So, up to rounding, returns the slopes,
    :func:`covariance.covariance_matrix` = (S1 / pi_hat^2 + S0 / (1 - pi_hat)^2) / n
    and :func:`long_normal_equations`: S1 + S0, its x diagonal + n pi_hat (1 - pi_hat) gamma^2.
    """
    share = np.asarray(n1) / n
    (mean1, mean0), (s1, s0) = means, scatters
    slopes, partialled = mean1 - mean0, s1 + s0
    cov = (s1 / (share**2)[..., None, None] + s0 / ((1.0 - share) ** 2)[..., None, None]) / n
    between = (n * share * (1.0 - share))[..., None] * slopes[..., 1:] ** 2
    x_sq = np.diagonal(partialled, axis1=-2, axis2=-1)[..., 1:] + between
    return slopes, cov, partialled, x_sq


def long_coefficients(partialled: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    """The p x p half of :func:`long_regression`: beta_long from its normal equations.

    Solves S_xx beta = S_xy for the output of :func:`long_normal_equations`,
    or a stack of them. A covariate whose squared Cholesky pivot, its sum of
    squares left unexplained by t and the covariates before it, is at most
    ``_RANK_RTOL`` of its sum of squares makes the design rank deficient: an
    error, never repaired by dropping columns. The gate reads squared
    pivots, not |R_ii| as a QR gate would: an exactly duplicated covariate
    leaves a relative pivot of about +-2e-16, too coarse to take a root of at
    1e-10.
    """
    try:
        low = cholesky(partialled[..., 1:, 1:])
    except SingularCheckCovariance:  # a pivot not above zero
        low = None
    if low is None or (np.diagonal(low, axis1=-2, axis2=-1) ** 2 <= _RANK_RTOL * x_sq).any():
        raise RankDeficientDesign("design matrix [treatment, covariates] is rank deficient")
    return cho_solve(low, partialled[..., 1:, 0])


def long_regression(data: RctDataset) -> tuple[float, np.ndarray]:
    """Coefficient on treatment from the regression on treatment and covariates.

    Returns ``(c_long, beta_long)``. By Frisch-Waugh-Lovell, c_long is the
    difference in means adjusted at beta_long, which solves the normal
    equations of the covariates with t partialled out
    (:func:`long_normal_equations`, then :func:`long_coefficients`).
    Squaring the condition number of the design this way is harmless for
    random covariates (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 20).
    """
    slopes = data.influence[0]
    beta = long_coefficients(*long_normal_equations(data))
    return residualize(slopes[0], slopes[1:], beta).c_r, beta


def residualized_estimator(
    data: RctDataset, cluster_ids: np.ndarray | None = None
) -> tuple[ResidualizationResult, JointCovariance]:
    """Difference in means residualized on the balance vector.

    The adjustment row Lambda solves the check-covariance system from the
    stacked influence contributions of the difference in means and the
    balance statistics; covariance-validation errors propagate. Returns the
    point side (``c_hat`` is the difference in means, ``c_r`` the
    residualized estimate) and the validated covariance, which carries the
    standard errors.
    """
    c_short, _ = short_estimator(data)
    gamma_hat, _ = balance_stats(data)
    # Both are read from the dataset's one (1 + p, n) contribution array;
    # transposed, it is the (n, 1 + p) matrix joint_covariance reads
    # without a copy.
    sigma = joint_covariance(InfluenceContributions(data.influence[1].T, cluster_ids=cluster_ids))
    return residualize(c_short, gamma_hat, sigma.lam), sigma

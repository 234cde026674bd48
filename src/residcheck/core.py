"""Covariance algebra for residualizing an estimator on its diagnostic checks.

Everything in this module is computable from the joint asymptotic covariance

    Sigma = [[sigma_c^2,     Sigma_cg],
             [Sigma_cg',     Sigma_gg]]

of a scalar baseline estimate c_hat and a p-vector of checks gamma_hat,
stored at per-observation scale together with the sample size n (so the
estimator-scale covariance is Sigma / n).

Core quantities:

    Lambda      = Sigma_cg Sigma_gg^{-1}          sensitivity coefficient row
    c_r         = c_hat - Lambda gamma_hat        residualized estimate
    sigma_r^2   = sigma_c^2 - Sigma_cg Sigma_gg^{-1} Sigma_gc
    I           = Sigma_cg Sigma_gg^{-1} Sigma_gc / sigma_c^2   in [0, 1)

plus the worst-case bias map mu * ||psi_lambda|| over a bounded score ball,
whose minimum over linear adjustments is mu * sigma_c * sqrt(1 - I), attained
at lambda = Lambda, with minimax mean squared error (1 + mu^2) sigma_r^2.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _fixed_order
from ._distributions import chi2_sf
from .errors import (
    DegenerateResidualVariance,
    DimensionMismatch,
    InvalidCovariance,
    NegativeMu,
    SingularCheckCovariance,
)

# Validation tolerances. rcond below RCOND_MIN is treated as singular rather
# than silently regularized: a ridge would change the estimand of the
# adjustment, not just its numerics. The same floor applies to the residual
# share 1 - I, so that an estimate that is an exact linear function of the
# checks is rejected whichever way its last bits round.
SYMMETRY_RTOL = 1e-10
RCOND_MIN = 1e-12
INFORMATIVENESS_CAP = 1.0 - 1e-15
# orthogonality_stat flags a baseline whose checks explain more than this share of its variance.
ORTHOGONALITY_THRESHOLD = 0.01


def _first(values, bad) -> float:
    """The value of the first failing member, for an error message."""
    return float(np.asarray(values)[bad].flat[0])


def _rcond_bound(sgg: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """1 / (tr(S) ||L^-1||_F^2) per member of a stack of S = L L', at most its rcond.

    0 or NaN where a step overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        inv = _fixed_order.solve_lower(chol[..., None, :, :], np.eye(sgg.shape[-1]))
        inv *= inv
        return 1.0 / (np.trace(sgg, axis1=-2, axis2=-1) * inv.sum(axis=(-2, -1)))


def _sqrt(x):
    """Square root of a float or of a stack, correctly rounded either way."""
    return _fixed_order.scalar_or_stack(np.sqrt(x))


@dataclass(frozen=True)
class JointCovariance:
    """Joint per-observation covariance of (c_hat, gamma_hat) plus sample size.

    Validation enforces a symmetric check block with a Cholesky factor and a
    reciprocal condition number of at least RCOND_MIN, and a residual
    variance (the Schur complement of the check block) above RCOND_MIN of
    sigma_c^2; together these make the assembled (1+p) x (1+p) matrix
    positive definite. The factor clears a block whose rcond lower bound
    1 / (tr(Sigma_gg) ||L^-1||_F^2) is at least 2 RCOND_MIN; only if some
    block's is not does ``np.linalg.eigvalsh`` decide, with the error it
    always gave. Validation computes the Cholesky factor of the check
    block, the coefficient row Lambda and the explained variance once, in
    the fixed summation order of :mod:`residcheck._fixed_order`, and keeps
    them; the properties below read the variance side of residualization
    off them.

    A stack of B covariances with a common n and p is one object: then
    ``sigma_c_sq`` has shape (B,), ``sigma_c_gamma`` (B, p) and
    ``sigma_gamma_gamma`` (B, p, p), every gate runs over the stack and
    raises its error if any member fails, and the properties are arrays
    whose member b has the bits of the covariance built from member b alone.
    """

    sigma_c_sq: float
    sigma_c_gamma: np.ndarray
    sigma_gamma_gamma: np.ndarray
    n: int
    _low_gg: np.ndarray = field(init=False, repr=False, compare=False)
    _lambda: np.ndarray = field(init=False, repr=False, compare=False)
    _explained: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scc = np.asarray(self.sigma_c_sq, dtype=float)
        batch = scc.shape
        scg = np.asarray(self.sigma_c_gamma, dtype=float)
        if not batch:
            scg = scg.reshape(-1)  # one row, given in any shape
        if not np.isfinite(scg).all():
            raise InvalidCovariance("sigma_c_gamma contains non-finite entries")
        sgg = np.asarray(self.sigma_gamma_gamma, dtype=float)
        if sgg.ndim != scc.ndim + 2 or sgg.shape[-2] != sgg.shape[-1]:
            raise InvalidCovariance("sigma_gamma_gamma must be a square matrix")
        if scg.shape != batch + sgg.shape[-1:] or sgg.shape[:-2] != batch:
            raise DimensionMismatch(
                f"sigma_c_gamma has shape {scg.shape} but "
                f"sigma_gamma_gamma has shape {sgg.shape}"
            )
        if not sgg.shape[-1]:
            raise DimensionMismatch("a joint covariance needs at least one check, got p = 0")
        if not np.isfinite(sgg).all():
            raise InvalidCovariance("sigma_gamma_gamma contains non-finite entries")
        bad = ~(np.isfinite(scc) & (scc > 0.0))
        if bad.any():
            raise InvalidCovariance(
                f"sigma_c_sq must be finite and positive, got {_first(scc, bad)}"
            )
        if int(self.n) < 1:
            raise InvalidCovariance(f"sample size must be positive, got {self.n}")

        sgg_t = np.swapaxes(sgg, -1, -2)
        scale = np.abs(sgg).max(axis=(-2, -1))
        asymmetry = np.abs(sgg - sgg_t).max(axis=(-2, -1))
        if (asymmetry > SYMMETRY_RTOL * np.maximum(scale, 1e-300)).any():
            raise InvalidCovariance("sigma_gamma_gamma is not symmetric")
        sgg = 0.5 * (sgg + sgg_t)

        # Strict positive definiteness of the check block: Cholesky must
        # succeed and the eigenvalue-based reciprocal condition number must
        # clear RCOND_MIN (collinear checks are a hard error). The factor
        # bounds rcond from below, as lambda_max <= tr(S) and 1 / lambda_min
        # <= tr(S^-1) = ||L^-1||_F^2 (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., ch. 4 and 10), so eigvalsh runs only
        # when some member's bound is below 2 RCOND_MIN. A factor 2 is far
        # more than the rounding of the bound or of eigvalsh (about p eps of
        # the largest eigenvalue): no member the bound clears would fail.
        chol = _fixed_order.cholesky(sgg)
        if not (_rcond_bound(sgg, chol) >= 2.0 * RCOND_MIN).all():  # NaN too
            eigs = np.linalg.eigvalsh(sgg)
            rcond = eigs[..., 0] / eigs[..., -1]
            bad = (eigs[..., 0] <= 0.0) | (rcond < RCOND_MIN)
            if bad.any():
                raise SingularCheckCovariance(
                    f"check covariance reciprocal condition {_first(rcond, bad):.3e} "
                    f"below {RCOND_MIN:g}; diagnostic checks are collinear"
                )

        lam = _fixed_order.cho_solve(chol, scg)
        explained = _fixed_order.dot(scg, lam)
        bad = ~(scc - explained > RCOND_MIN * scc)
        if bad.any():
            raise DegenerateResidualVariance(
                f"sigma_c_sq = {_first(scc, bad):.6g} does not exceed the part explained "
                f"by the checks ({_first(explained, bad):.6g}) by more than {RCOND_MIN:g} "
                "of itself; residual variance would not be positive"
            )

        object.__setattr__(self, "sigma_c_gamma", scg)
        object.__setattr__(self, "sigma_gamma_gamma", sgg)
        object.__setattr__(self, "sigma_c_sq", _fixed_order.scalar_or_stack(scc))
        object.__setattr__(self, "n", int(self.n))
        chol.flags.writeable = False
        object.__setattr__(self, "_low_gg", chol)
        lam.flags.writeable = False
        object.__setattr__(self, "_lambda", lam)
        object.__setattr__(self, "_explained", explained)

    @classmethod
    def from_matrix(cls, full: np.ndarray, n: int) -> "JointCovariance":
        """The covariance whose :meth:`full_matrix` is ``full``, or a stack of them, validated."""
        return cls(full[..., 0, 0], full[..., 0, 1:], full[..., 1:, 1:], n)

    @staticmethod
    def full_matrix_of(scc: float, scg: np.ndarray, sgg: np.ndarray) -> np.ndarray:
        p = scg.shape[-1]
        full = np.empty(scg.shape[:-1] + (1 + p, 1 + p))
        full[..., 0, 0] = scc
        full[..., 0, 1:] = scg
        full[..., 1:, 0] = scg
        full[..., 1:, 1:] = sgg
        return full

    @property
    def p_gamma(self) -> int:
        return self.sigma_c_gamma.shape[-1]

    def full_matrix(self) -> np.ndarray:
        return self.full_matrix_of(self.sigma_c_sq, self.sigma_c_gamma, self.sigma_gamma_gamma)

    def solve_gg(self, rhs: np.ndarray) -> np.ndarray:
        """Solve Sigma_gg x = rhs for p-vectors through the cached Cholesky factor."""
        return _fixed_order.cho_solve(self._low_gg, rhs)

    def standardize(self, gamma: np.ndarray) -> np.ndarray:
        """T_n = sqrt(n) L^{-1} gamma for p-vectors, L the cached Cholesky factor of Sigma_gg."""
        return math.sqrt(self.n) * _fixed_order.solve_lower(self._low_gg, gamma)

    @property
    def lam(self) -> np.ndarray:
        """Coefficient row Lambda solving Sigma_gg Lambda' = Sigma_gc (read-only)."""
        return self._lambda

    @property
    def informativeness(self) -> float:
        """Share I of sigma_c^2 explained by the checks, clipped to [0, 1 - 1e-15]."""
        raw = self._explained / self.sigma_c_sq
        return _fixed_order.scalar_or_stack(np.clip(raw, 0.0, INFORMATIVENESS_CAP))

    @property
    def sigma_r_sq(self) -> float:
        """Residual variance sigma_c^2 (1 - I), per observation."""
        return self.sigma_c_sq * (1.0 - self.informativeness)

    @property
    def se_c(self) -> float:
        """Standard error of c_hat, sqrt(sigma_c^2 / n)."""
        return _sqrt(self.sigma_c_sq / self.n)

    @property
    def se_r(self) -> float:
        """Standard error of c_r, sqrt(sigma_c^2 (1 - I) / n)."""
        return _sqrt(self.sigma_r_sq / self.n)

    @property
    def bias_reduction_factor(self) -> float:
        """sqrt(1 - I), the ratio se_r / se_c."""
        return _sqrt(1.0 - self.informativeness)

    @property
    def variance_reduction_pct(self) -> float:
        return 100.0 * self.informativeness

    @property
    def equiv_sample_increase(self) -> float:
        """Equivalent relative increase in sample size, 1 / (1 - I) - 1."""
        return 1.0 / (1.0 - self.informativeness) - 1.0


@dataclass(frozen=True)
class ResidualizationResult:
    """Point side of residualization.

    ``c_r = c_hat - correction`` holds exactly and ``decomposition`` sums to
    ``correction``. Standard errors and the other variance-side numbers are
    properties of the :class:`JointCovariance` that supplied ``lam``.
    """

    lam: np.ndarray
    c_hat: float
    gamma_hat: np.ndarray
    c_r: float
    correction: float
    decomposition: np.ndarray


@dataclass(frozen=True)
class OrthogonalityCheck:
    wald_stat: float
    dof: int
    p_value: float
    sigma_c_gamma_norm: float
    informativeness: float
    flagged: bool
    note: str


def residualize(c_hat: float, gamma_hat, lam) -> ResidualizationResult:
    """Subtract the linear adjustment lam . gamma_hat from c_hat.

    The standard errors belong to the covariance that ``lam`` came from:
    :attr:`JointCovariance.se_c` and :attr:`JointCovariance.se_r`. Leading
    axes of ``c_hat`` and of the (..., p) rows are a stack.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    gamma_hat = np.atleast_1d(np.asarray(gamma_hat, dtype=float))
    c_hat = _fixed_order.scalar_or_stack(np.asarray(c_hat, dtype=float))
    if lam.shape != gamma_hat.shape or np.shape(c_hat) != lam.shape[:-1]:
        raise DimensionMismatch(
            f"coefficient row has shape {lam.shape} but checks have shape "
            f"{gamma_hat.shape} and estimate {np.shape(c_hat)}"
        )
    decomposition = lam * gamma_hat
    correction = _fixed_order.scalar_or_stack(np.add.reduce(decomposition, axis=-1))
    return ResidualizationResult(
        lam=lam,
        c_hat=c_hat,
        gamma_hat=gamma_hat,
        c_r=c_hat - correction,
        correction=correction,
        decomposition=decomposition,
    )


def adjusted_variance(sigma: JointCovariance, lam) -> float:
    """Asymptotic variance of the adjustment c_hat - lam . gamma_hat.

    Equals sigma_c^2 - 2 lam Sigma_gc + lam Sigma_gg lam', the squared L2
    length of the adjusted influence function psi_lambda. A (..., p) stack
    of rows goes with a stack of covariances.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape[-1] != sigma.p_gamma:
        raise DimensionMismatch(
            f"coefficient row has length {lam.shape[-1]}, expected {sigma.p_gamma}"
        )
    cross = 2.0 * _fixed_order.dot(lam, sigma.sigma_c_gamma)
    quad = _fixed_order.dot(lam, _fixed_order.dot(sigma.sigma_gamma_gamma, lam[..., None, :]))
    return _fixed_order.scalar_or_stack(sigma.sigma_c_sq - cross + quad)


def worst_case_bias(sigma: JointCovariance, lam, mu: float) -> float:
    """Worst-case first-order bias mu * ||psi_lambda|| of the adjustment."""
    if mu < 0:
        raise NegativeMu(f"misspecification bound must be nonnegative, got {mu}")
    return float(mu) * float(np.sqrt(max(adjusted_variance(sigma, lam), 0.0)))


def orthogonality_stat(sigma_hat: JointCovariance, c_hat: float, gamma_hat) -> OrthogonalityCheck:
    """Hausman-style orthogonality diagnostic: is Sigma_cg close to zero?

    Reports the Wald statistic n * gamma_hat' Sigma_gg^{-1} gamma_hat for the
    check itself (chi-squared with p degrees of freedom under the base
    model), the norm of the estimated cross block, and a flag when the
    informativeness exceeds ORTHOGONALITY_THRESHOLD.
    """
    gamma_hat = np.atleast_1d(np.asarray(gamma_hat, dtype=float))
    if gamma_hat.shape[0] != sigma_hat.p_gamma:
        raise DimensionMismatch(
            f"gamma_hat has length {gamma_hat.shape[0]}, expected {sigma_hat.p_gamma}"
        )
    wald = sigma_hat.n * _fixed_order.dot(gamma_hat, sigma_hat.solve_gg(gamma_hat))
    dof = sigma_hat.p_gamma
    info = sigma_hat.informativeness
    flagged = info > ORTHOGONALITY_THRESHOLD
    if flagged:
        note = (
            f"baseline estimator leaves precision on the table: informativeness "
            f"{info:.4f} exceeds {ORTHOGONALITY_THRESHOLD:g} (baseline estimate {c_hat:.6g})"
        )
    else:
        note = "baseline estimator is first-order orthogonal to the checks at this threshold"
    return OrthogonalityCheck(
        wald_stat=wald,
        dof=dof,
        p_value=chi2_sf(wald, dof),
        sigma_c_gamma_norm=math.sqrt(
            _fixed_order.dot(sigma_hat.sigma_c_gamma, sigma_hat.sigma_c_gamma)
        ),
        informativeness=info,
        flagged=flagged,
        note=note,
    )


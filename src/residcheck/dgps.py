"""Data-generating processes driving the simulation labs.

Two families:

* :class:`GaussianPairDGP` makes the per-observation influence vector
  (d_c, d_g) joint normal, so c_hat = c_true + mean(d_c) and gamma_hat =
  mean(d_g) have their asymptotic joint law exactly at every n. Replications
  draw the sample mean and covariance from their exact laws, not n rows;
  ``draw`` still draws rows, for the misspecification lab.
* :class:`RctLinearDGP` simulates outcome, treatment, and covariates from a
  (possibly treatment-interacted) linear model. Replications draw the
  treated count and each arm's mean and scatter from their exact laws, not
  n rows (:func:`rct.arm_statistics`); ``draw_matrix`` still draws rows.

Both expose the population covariance blocks, influence evaluators on raw
data points, and a batched replication method returning one
:class:`BatchReplications` record, so the labs can aggregate without caring
which family produced it. The record carries the check block's Cholesky
factor from the batch's single covariance validation, not the block itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import _fixed_order
from .core import JointCovariance, adjusted_variance, residualize
from .errors import ConfigError, EmptyArm
from .rct import RctDataset, arm_statistics, long_coefficients


@dataclass(frozen=True)
class BatchReplications:
    """Aligned per-replication arrays of a DGP batch or, joined, of a lab run.

    ``chol_gg`` is the Sigma_gg factor from the batch's covariance validation;
    the long estimator is RCT only; the selection lab sets ``t_stats`` and ``passed``.
    """

    c_short: np.ndarray
    c_resid: np.ndarray
    se_short: np.ndarray
    se_resid: np.ndarray
    gamma_hat: np.ndarray
    chol_gg: np.ndarray
    c_long: np.ndarray | None = None
    se_long: np.ndarray | None = None
    t_stats: np.ndarray | None = None
    passed: np.ndarray | None = None

    @classmethod
    def concat(cls, parts) -> "BatchReplications":
        """The parts joined along the replication axis, field by field."""
        return cls(**{
            f.name: None if getattr(parts[0], f.name) is None
            else np.concatenate([getattr(part, f.name) for part in parts])
            for f in fields(cls)
        })

    def estimators(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """(estimate, standard error) per estimator, in report order."""
        out = {"short": (self.c_short, self.se_short)}
        if self.c_long is not None:
            out["long"] = (self.c_long, self.se_long)
        out["residualized"] = (self.c_resid, self.se_resid)
        return out


def _times_lower_t(z: np.ndarray, low: np.ndarray) -> np.ndarray:
    """z <- z L' over the last axis, in place and without BLAS, L lower triangular.

    Descends over j, so entry j reads only entries not yet overwritten.
    """
    for j in range(low.shape[0] - 1, -1, -1):
        col = z[..., j]
        col *= low[j, j]
        for i in range(j):
            col += low[j, i] * z[..., i]
    return z


def _normal_sums(rng: np.random.Generator, low: np.ndarray, counts: np.ndarray):
    """Sample means and scatter matrices of counts[b] rows from N(0, L L'), for each b.

    The mean is L z / sqrt(count), z ~ N(0, I). The scatter about it is independent
    and Wishart(count - 1, L L'), drawn as (L A)(L A)' with the Bartlett factor A:
    lower triangular, A_ii^2 ~ chi^2(count - 1 - i), A_ij ~ N(0, 1) below the diagonal
    (Bartlett 1933; Odell & Feiveson 1966). Below k degrees of freedom, A' is the
    count - 1 standard rows, padded with zeros. L is never factored: it may be singular.
    """
    size, k = counts.shape[0], low.shape[0]
    means = _times_lower_t(rng.standard_normal((size, k)), low)
    means /= np.sqrt(counts)[:, None]
    dof = counts - 1
    full = np.flatnonzero(dof >= k)[:, None]
    diag = np.arange(k)
    upper = np.triu_indices(k, 1)
    # A' L' = (L A)', so the scatter L A A' L' is the Gram matrix of its columns.
    a_t = np.zeros((size, k, k))
    a_t[full, diag, diag] = np.sqrt(rng.chisquare(dof[full] - diag))
    a_t[full, upper[0], upper[1]] = rng.standard_normal((full.shape[0], upper[0].size))
    for b in np.flatnonzero(dof < k):
        a_t[b, : dof[b]] = rng.standard_normal((dof[b], k))
    la_t = _times_lower_t(a_t, low)
    return means, _fixed_order.gram(np.swapaxes(la_t, -1, -2))


def _times_columns(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """x coef over the last axis of x, summed column by column, left to right, without BLAS."""
    out = x[..., 0] * coef[0]
    for k in range(1, coef.shape[0]):
        out += x[..., k] * coef[k]
    return out


@dataclass(frozen=True)
class GaussianPairDGP:
    """Joint normal influence vector (d_c, d_g) with covariance Sigma = L L'.

    :meth:`replicate_batch` draws a replication's sample mean and 1/n sample
    covariance from their exact laws (:func:`_normal_sums`), not n rows.
    """

    sigma_c_sq: float = 1.0
    sigma_c_gamma: np.ndarray = field(default_factory=lambda: np.array([0.5]))
    sigma_gamma_gamma: np.ndarray = field(default_factory=lambda: np.eye(1))
    c_true: float = 0.0

    def __post_init__(self):
        scg = np.atleast_1d(np.asarray(self.sigma_c_gamma, dtype=float))
        sgg = np.atleast_2d(np.asarray(self.sigma_gamma_gamma, dtype=float))
        object.__setattr__(self, "sigma_c_gamma", scg)
        object.__setattr__(self, "sigma_gamma_gamma", sgg)
        full = JointCovariance.full_matrix_of(float(self.sigma_c_sq), scg, sgg)
        object.__setattr__(self, "_chol_full", _fixed_order.cholesky(full))

    @classmethod
    def from_rho(cls, rho: float, c_true: float = 0.0) -> "GaussianPairDGP":
        """Scalar check with unit variances and correlation rho."""
        if not -1.0 < rho < 1.0:
            raise ConfigError(f"rho must lie strictly inside (-1, 1), got {rho}")
        return cls(
            sigma_c_sq=1.0,
            sigma_c_gamma=np.array([float(rho)]),
            sigma_gamma_gamma=np.eye(1),
            c_true=c_true,
        )

    @property
    def p_gamma(self) -> int:
        return self.sigma_c_gamma.shape[0]

    def population_covariance(self, n: int) -> JointCovariance:
        return JointCovariance(self.sigma_c_sq, self.sigma_c_gamma, self.sigma_gamma_gamma, n)

    @property
    def lambda_opt(self) -> np.ndarray:
        return self.population_covariance(2).lam

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws of the per-observation vector (d_c, d_g) under the base model."""
        return _times_lower_t(rng.standard_normal((n, 1 + self.p_gamma)), self._chol_full)

    # Influence evaluators on raw data points (population scale, mean zero).
    def influence_c(self, data: np.ndarray) -> np.ndarray:
        return data[:, 0]

    def influence_gamma(self, data: np.ndarray) -> np.ndarray:
        return data[:, 1:]

    def influence_adjusted(self, lam) -> Callable[[np.ndarray], np.ndarray]:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        return lambda data: data[:, 0] - _fixed_order.dot(data[:, 1:], lam)

    def estimate_short(self, data: np.ndarray) -> float:
        return self.c_true + float(data[:, 0].mean())

    def estimate_fixed(self, data: np.ndarray, lam) -> float:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        gamma = data[:, 1:].mean(axis=0)
        return self.c_true + float(data[:, 0].mean() - _fixed_order.dot(gamma, lam))

    def estimate_plugin_residualized(self, data: np.ndarray) -> float:
        rows = np.ascontiguousarray(data.T)
        means = np.add.reduce(rows, axis=-1) / len(data)
        rows -= means[:, None]
        cov = _fixed_order.gram(rows) / len(data)
        lam_hat = _fixed_order.cho_solve(_fixed_order.cholesky(cov[1:, 1:]), cov[0, 1:])
        return self.c_true + residualize(means[0], means[1:], lam_hat).c_r

    def replicate_batch(self, rng: np.random.Generator, n: int, size: int) -> BatchReplications:
        """size independent replications at sample size n, through :class:`JointCovariance`.

        A degenerate replication (reachable only near n = p + 2) raises
        :class:`DegenerateResidualVariance`.
        """
        means, scatter = _normal_sums(rng, self._chol_full, np.full(size, n))
        cov = scatter / n
        sigma = JointCovariance(cov[:, 0, 0], cov[:, 0, 1:], cov[:, 1:, 1:], n)
        c_short = self.c_true + means[:, 0]
        gamma = means[:, 1:]
        return BatchReplications(
            c_short=c_short,
            c_resid=residualize(c_short, gamma, sigma.lam).c_r,
            se_short=sigma.se_c,
            se_resid=sigma.se_r,
            gamma_hat=gamma,
            chol_gg=sigma.chol_gg,
        )


@dataclass(frozen=True)
class RctLinearDGP:
    """Randomized trial with outcome tau T + (beta + interaction T)' X + noise.

    Covariates are independent standard normal, treatment is Bernoulli(pi),
    and the average treatment effect equals tau. ``interaction`` of zeros
    gives the homoskedastic linear case in which the long and residualized
    coefficients share the same probability limit beta; nonzero interaction
    with pi != 1/2 separates them.
    """

    tau: float = 1.0
    beta: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    interaction: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    pi: float = 0.5
    noise_sd: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        inter = np.atleast_1d(np.asarray(self.interaction, dtype=float))
        if beta.shape != inter.shape:
            raise ConfigError("beta and interaction must have the same length")
        if not 0.0 < self.pi < 1.0:
            raise ConfigError(f"treated share pi must lie in (0, 1), got {self.pi}")
        if not np.isfinite([self.tau, self.alpha, *beta, *inter]).all():
            raise ConfigError("tau, alpha, beta and interaction must be finite")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ConfigError(f"noise_sd must be finite and at least 0, got {self.noise_sd}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "interaction", inter)

    @property
    def p_gamma(self) -> int:
        return self.beta.shape[0]

    @property
    def c_true(self) -> float:
        return self.tau

    # Population asymptotics of the difference in means and balance vector.
    def sigma_blocks(self) -> tuple[float, np.ndarray, np.ndarray]:
        pi = self.pi
        b1 = self.beta + self.interaction
        b0 = self.beta
        var1 = _fixed_order.dot(b1, b1) + self.noise_sd**2
        var0 = _fixed_order.dot(b0, b0) + self.noise_sd**2
        sigma_c_sq = var1 / pi + var0 / (1.0 - pi)
        sigma_cg = b1 / pi + b0 / (1.0 - pi)
        sigma_gg = (1.0 / pi + 1.0 / (1.0 - pi)) * np.eye(self.p_gamma)
        return sigma_c_sq, sigma_cg, sigma_gg

    def population_covariance(self, n: int) -> JointCovariance:
        scc, scg, sgg = self.sigma_blocks()
        return JointCovariance(scc, scg, sgg, n)

    @property
    def beta_resid_limit(self) -> np.ndarray:
        return self.beta + (1.0 - self.pi) * self.interaction

    @property
    def beta_long_limit(self) -> np.ndarray:
        return self.beta + self.pi * self.interaction

    def draw_matrix(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n rows of (y, t, x), drawn by random(n), standard_normal((n, p)), standard_normal(n)."""
        t = rng.random(n)
        np.less(t, self.pi, out=t)
        x = rng.standard_normal((n, self.p_gamma))
        noise = rng.standard_normal(n)
        # Summed left to right in place, x beta and x interaction over the columns.
        y = self.tau * t
        y += self.alpha
        y += _times_columns(x, self.beta)
        shift = _times_columns(x, self.interaction)
        shift *= t
        y += shift
        noise *= self.noise_sd
        y += noise
        return np.column_stack([y, t, x])

    def draw_dataset(self, rng: np.random.Generator, n: int) -> RctDataset:
        rows = self.draw_matrix(rng, n)
        return RctDataset(outcome=rows[:, 0], treatment=rows[:, 1], covariates=rows[:, 2:])

    # Influence evaluators at the population parameters, for the
    # misspecification lab's inner products on raw data rows.
    def influence_c(self, data: np.ndarray) -> np.ndarray:
        y, t = data[:, 0], data[:, 1]
        mu1 = self.alpha + self.tau
        mu0 = self.alpha
        return t * (y - mu1) / self.pi - (1.0 - t) * (y - mu0) / (1.0 - self.pi)

    def influence_gamma(self, data: np.ndarray) -> np.ndarray:
        t = data[:, 1]
        x = data[:, 2:]
        w = (t / self.pi - (1.0 - t) / (1.0 - self.pi))[:, None]
        return w * x

    def influence_adjusted(self, lam) -> Callable[[np.ndarray], np.ndarray]:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        return lambda data: (
            self.influence_c(data) - _fixed_order.dot(self.influence_gamma(data), lam)
        )

    def structural_mean_shift_score(self) -> Callable[[np.ndarray], np.ndarray]:
        """Score of an equal outcome-mean shift in both arms (within-model).

        The score is the outcome residual over noise_sd^2, so it needs noise.
        """
        if self.noise_sd == 0.0:
            raise ConfigError(
                "the mean-shift score divides by noise_sd^2; noise_sd must be positive"
            )

        def score(data: np.ndarray) -> np.ndarray:
            y, t = data[:, 0], data[:, 1]
            x = data[:, 2:]
            fitted = self.alpha + self.tau * t + _times_columns(x, self.beta)
            resid = y - fitted - _times_columns(x, self.interaction) * t
            return resid / self.noise_sd**2

        return score

    def replicate_batch(self, rng: np.random.Generator, n: int, size: int) -> BatchReplications:
        """size replications from per-arm sufficient statistics, not rows.

        n1 ~ Binomial(n, pi). In arm a, (x, y) = L_a (x, e) + (0, alpha +
        tau a) for standard normal (x, e), with L_a = [[I, 0], [b_a',
        noise_sd]], b_1 = beta + interaction and b_0 = beta, so each arm's
        mean and scatter come from :func:`_normal_sums`.
        :func:`rct.arm_statistics` maps them to what the adapter computes
        from rows, and the p x p half runs once over the batch.
        """
        p = self.p_gamma
        n1 = rng.binomial(n, self.pi, size)
        small = np.minimum(n1, n - n1) < 2
        if small.any():
            raise EmptyArm(f"each arm needs at least 2 units, got {n1[small][0]} treated of {n}")
        order = np.roll(np.arange(1 + p), 1)  # (x, y) -> the adapter's (y, x)
        means, scatters = [], []
        for count, coef, shift in ((n1, self.beta + self.interaction, self.alpha + self.tau),
                                   (n - n1, self.beta, self.alpha)):
            low = np.eye(1 + p)
            low[p, :p], low[p, p] = coef, self.noise_sd
            mean, scatter = _normal_sums(rng, low, count)
            mean[:, p] += shift
            means.append(mean[:, order])
            scatters.append(scatter[:, order][:, :, order])
        slopes, cov, partialled, x_sq = arm_statistics(n, n1, means, scatters)
        sigma = JointCovariance(cov[:, 0, 0], cov[:, 0, 1:], cov[:, 1:, 1:], n)
        c_short, gamma = slopes[:, 0], slopes[:, 1:]
        beta_long = long_coefficients(partialled, x_sq)
        return BatchReplications(
            c_short=c_short,
            c_resid=residualize(c_short, gamma, sigma.lam).c_r,
            se_short=sigma.se_c,
            se_resid=sigma.se_r,
            gamma_hat=gamma,
            chol_gg=sigma.chol_gg,
            c_long=residualize(c_short, gamma, beta_long).c_r,
            se_long=np.sqrt(adjusted_variance(sigma, beta_long) / n),
        )

"""Data-generating processes driving the simulation labs.

Two families:

* :class:`GaussianPairDGP` makes the per-observation influence vector
  (d_c, d_g) joint normal, so c_hat = c_true + mean(d_c) and gamma_hat =
  mean(d_g) have their asymptotic joint law exactly at every n. Replications
  draw the sample mean and covariance from their exact laws, not n rows;
  ``draw`` still draws rows, for the misspecification lab.
* :class:`RctLinearDGP` simulates outcome, treatment, and covariates from a
  (possibly treatment-interacted) linear model and pushes every replication
  through the full adapter in :mod:`residcheck.rct`: the end-to-end path.
  Replications are drawn a chunk at a time into reused buffers. Each chunk
  goes through the O(n) half of the adapter as one stack of datasets, and
  the p x p half runs once per batch on what the chunks left.

Both expose the population covariance blocks, influence evaluators on raw
data points, and a batched replication method returning aligned arrays so
the labs can aggregate without caring which family produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _fixed_order
from .core import JointCovariance, adjusted_variance, residualize
from .errors import ConfigError
from .covariance import InfluenceContributions, covariance_matrix
from .rct import RctDataset, long_coefficients, long_normal_equations

# Bytes of demeaned [t, y, X] rows per chunk of RCT replications (8 n (2 + p)
# per replication). The adapter's temporaries grow with the chunk, so this
# caps the lab's extra memory; at n = 2,000 and p = 3 a chunk holds 4
# replications. Each replication's draws come from the stream in the same
# order whatever the chunk size.
_RCT_CHUNK_BYTES = 320_000


@dataclass(frozen=True)
class BatchReplications:
    """Aligned per-replication arrays produced by a DGP batch."""

    c_short: np.ndarray
    c_resid: np.ndarray
    se_short: np.ndarray
    se_resid: np.ndarray
    gamma_hat: np.ndarray
    sigma_gg: np.ndarray
    c_long: np.ndarray | None = None
    se_long: np.ndarray | None = None


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


def _times_columns(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """x coef over the last axis of x, summed column by column, left to right, without BLAS."""
    out = x[..., 0] * coef[0]
    for k in range(1, coef.shape[0]):
        out += x[..., k] * coef[k]
    return out


@dataclass(frozen=True)
class GaussianPairDGP:
    """Joint normal influence vector (d_c, d_g) with covariance Sigma = L L'.

    A replication at sample size n needs only the sample mean, which is
    N(0, Sigma / n), and the 1/n sample covariance S, independent of it, with
    n S ~ Wishart_{n-1}(Sigma). :meth:`replicate_batch` draws both directly:
    the mean as L z / sqrt(n) for z ~ N(0, I), and n S as (L A)(L A)' with
    the Bartlett factor A, lower triangular with A_ii^2 ~ chi^2(n - 1 - i)
    and A_ij ~ N(0, 1) below the diagonal (Bartlett 1933; Odell & Feiveson
    1966). That is O(p^2) work per replication, whatever n.
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
        k = 1 + self.p_gamma
        means = _times_lower_t(rng.standard_normal((size, k)), self._chol_full)
        means /= math.sqrt(n)
        # A' L' = (L A)', so n S = L A A' L' is the Gram matrix of its columns.
        a_t = np.zeros((size, k, k))
        diag = np.arange(k)
        a_t[:, diag, diag] = np.sqrt(rng.chisquare(n - 1 - diag, size=(size, k)))
        upper = np.triu_indices(k, 1)
        a_t[:, upper[0], upper[1]] = rng.standard_normal((size, upper[0].size))
        la_t = _times_lower_t(a_t, self._chol_full)
        cov = _fixed_order.gram(np.swapaxes(la_t, -1, -2)) / n
        sigma = JointCovariance(cov[:, 0, 0], cov[:, 0, 1:], cov[:, 1:, 1:], n)
        c_short = self.c_true + means[:, 0]
        gamma = means[:, 1:]
        return BatchReplications(
            c_short=c_short,
            c_resid=residualize(c_short, gamma, sigma.lam).c_r,
            se_short=sigma.se_c,
            se_resid=sigma.se_r,
            gamma_hat=gamma,
            sigma_gg=sigma.sigma_gamma_gamma,
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

    def chunk_buffers(self, n: int, size: int) -> tuple[np.ndarray, ...]:
        """Empty (size, n) treatment, (size, n, p) covariate, (size, n) noise and outcome arrays."""
        return (
            np.empty((size, n)),
            np.empty((size, n, self.p_gamma)),
            np.empty((size, n)),
            np.empty((size, n)),
        )

    def draw_chunk(self, rng: np.random.Generator, t, x, noise, y) -> None:
        """Fill buffers from :meth:`chunk_buffers` (or leading slices of them) with datasets.

        Member after member, each draws ``random(n)`` for treatment,
        ``standard_normal((n, p))`` for the covariates and
        ``standard_normal(n)`` for the noise, so a chunk of B consumes the
        stream as B single draws do, and member b is the b-th of them.
        """
        for t_b, x_b, noise_b in zip(t, x, noise):
            rng.random(out=t_b)
            rng.standard_normal(out=x_b)
            rng.standard_normal(out=noise_b)
        np.less(t, self.pi, out=t)
        # y = alpha + tau t + x beta + (x interaction) t + noise_sd noise, summed
        # left to right in place, x beta and x interaction over the columns.
        np.multiply(self.tau, t, out=y)
        y += self.alpha
        y += _times_columns(x, self.beta)
        shift = _times_columns(x, self.interaction)
        shift *= t
        y += shift
        noise *= self.noise_sd
        y += noise

    def draw_matrix(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n rows of (y, t, x_1..x_p): a chunk of one."""
        t, x, noise, y = self.chunk_buffers(n, 1)
        self.draw_chunk(rng, t, x, noise, y)
        return np.column_stack([y[0], t[0], x[0]])

    def to_dataset(self, matrix: np.ndarray) -> RctDataset:
        return RctDataset(outcome=matrix[:, 0], treatment=matrix[:, 1], covariates=matrix[:, 2:])

    def draw_dataset(self, rng: np.random.Generator, n: int) -> RctDataset:
        return self.to_dataset(self.draw_matrix(rng, n))

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
        """Score of an equal outcome-mean shift in both arms (within-model)."""

        def score(data: np.ndarray) -> np.ndarray:
            y, t = data[:, 0], data[:, 1]
            x = data[:, 2:]
            fitted = self.alpha + self.tau * t + _times_columns(x, self.beta)
            resid = y - fitted - _times_columns(x, self.interaction) * t
            return resid / self.noise_sd**2

        return score

    def replicate_batch(self, rng: np.random.Generator, n: int, size: int) -> BatchReplications:
        """size end-to-end replications through the adapter, in two halves.

        Chunks hold at most ``_RCT_CHUNK_BYTES`` of demeaned rows and are
        drawn into one set of buffers. Each chunk goes through the O(n) half
        of the adapter as one stack, which leaves per replication the slopes
        on t, the joint covariance matrix and the long regression's normal
        equations. The p x p half (:class:`JointCovariance`, the long solve,
        the adjustments) then runs once over the whole batch. Replication i
        has the bits it would have if drawn and estimated alone.
        """
        p = self.p_gamma
        chunk = max(1, min(size, _RCT_CHUNK_BYTES // (8 * n * (2 + p))))
        buffers = self.chunk_buffers(n, chunk)
        slopes = np.empty((size, 1 + p))
        cov = np.empty((size, 1 + p, 1 + p))
        partialled = np.empty((size, 1 + p, 1 + p))
        x_sq = np.empty((size, p))
        for start in range(0, size, chunk):
            sl = slice(start, min(start + chunk, size))
            t, x, noise, y = (buf[: sl.stop - sl.start] for buf in buffers)
            self.draw_chunk(rng, t, x, noise, y)
            data = RctDataset(outcome=y, treatment=t, covariates=x)
            slopes[sl], contribs = data.influence
            cov[sl] = covariance_matrix(InfluenceContributions(np.swapaxes(contribs, -1, -2)))
            partialled[sl], x_sq[sl] = long_normal_equations(data)
        sigma = JointCovariance(cov[:, 0, 0], cov[:, 0, 1:], cov[:, 1:, 1:], n)
        c_short, gamma = slopes[:, 0], slopes[:, 1:]
        beta_long = long_coefficients(partialled, x_sq)
        return BatchReplications(
            c_short=c_short,
            c_resid=residualize(c_short, gamma, sigma.lam).c_r,
            se_short=sigma.se_c,
            se_resid=sigma.se_r,
            gamma_hat=gamma,
            sigma_gg=sigma.sigma_gamma_gamma,
            c_long=residualize(c_short, gamma, beta_long).c_r,
            se_long=np.sqrt(adjusted_variance(sigma, beta_long) / n),
        )

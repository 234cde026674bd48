"""Data-generating processes driving the simulation labs.

Two families:

* :class:`GaussianPairDGP` makes the per-observation influence vector
  (d_c, d_g) joint normal, so c_hat = c_true + mean(d_c) and gamma_hat =
  mean(d_g) have their asymptotic joint law exactly at every n. Replications
  draw the sample mean and covariance from their exact laws, not n rows,
  under the base model (``draw_replications``) and under the misspecification
  lab's perturbed law, whose weights read only z = u / sd_u at the exact
  norm sd_u = sqrt(a' Sigma a): :meth:`GaussianPairDGP.perturbed_draws`
  draws z once per mu and each lam's :class:`ScoreCoordinate` maps it.
* :class:`RctLinearDGP` simulates outcome, treatment, and covariates from a
  (possibly treatment-interacted) linear model. Replications draw the
  treated count and each arm's mean and scatter from their exact laws, not
  n rows (:func:`rct.arm_statistics`); ``draw_matrix`` still draws rows, for
  the analyze fixture and the benchmark's CSV.

Both expose the population covariance blocks and a replication pair split
at the random numbers:
``draw_replications`` makes a batch's draws from its stream, and
``estimate_replications`` maps any number of batches' joined draws to one
:class:`BatchReplications` record, every step elementwise over the
replications. A lab thus draws per batch and estimates once per bounded
stack of batches (:func:`_threads.run_seeded`), without caring which family
drew. Both build it in ``_record``, from one
:meth:`JointCovariance.from_matrix`, whose Cholesky factor of the check
block standardizes the checks there: the record carries T_n, not the
factor. The RCT adds its long estimator on top.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _fixed_order
from .core import JointCovariance, adjusted_variance, residualize
from .errors import ConfigError, EmptyArm, InvalidCovariance, WeightUnderflow
from .rct import arm_statistics, long_coefficients


@dataclass(frozen=True)
class BatchReplications:
    """Aligned per-replication arrays of a lab stack or, joined, of a lab run.

    ``t_stats`` is the standardized check vector T_n; the long estimator is
    RCT only; the selection lab sets ``passed``.
    """

    c_short: np.ndarray
    c_resid: np.ndarray
    se_short: np.ndarray
    se_resid: np.ndarray
    gamma_hat: np.ndarray
    t_stats: np.ndarray
    c_long: np.ndarray | None = None
    se_long: np.ndarray | None = None
    passed: np.ndarray | None = None

    def estimators(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """(estimate, standard error) per estimator, in report order."""
        out = {"short": (self.c_short, self.se_short)}
        if self.c_long is not None:
            out["long"] = (self.c_long, self.se_long)
        out["residualized"] = (self.c_resid, self.se_resid)
        return out


def _record(c_short: np.ndarray, gamma: np.ndarray, cov: np.ndarray, n: int):
    """The lab record, with T_n, from c_short, gamma and 1/n covariances, and cov validated."""
    sigma = JointCovariance.from_matrix(cov, n)
    record = BatchReplications(
        c_short=c_short,
        c_resid=residualize(c_short, gamma, sigma.lam).c_r,
        se_short=sigma.se_c,
        se_resid=sigma.se_r,
        gamma_hat=gamma,
        t_stats=sigma.standardize(gamma),
    )
    return record, sigma


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


@dataclass(frozen=True)
class NormalDraws:
    """Standard draws behind the sample means and scatters of counts[b] rows from N(0, L L').

    Per replication b: the count, z ~ N(0, I_k) and the Bartlett factor A' of
    a Wishart(counts[b] - 1, I_k) draw (:func:`_draw_normal`).
    """

    counts: np.ndarray
    z: np.ndarray
    bartlett: np.ndarray


def _draw_normal(rng: np.random.Generator, k: int, counts: np.ndarray) -> NormalDraws:
    """The draws of :func:`_normal_sums`: standard_normal((size, k)), then :func:`_bartlett`."""
    z = rng.standard_normal((counts.shape[0], k))
    return NormalDraws(counts, z, _bartlett(rng, k, counts - 1))


def _normal_sums(draws: NormalDraws, low: np.ndarray):
    """Sample means and scatter matrices of counts[b] rows from N(0, L L'), for each b.

    The mean is L z / sqrt(count), z ~ N(0, I). The scatter about it is independent
    and Wishart(count - 1, L L') (:func:`_bartlett`, :func:`_scatter`). The draws
    are left unchanged.
    """
    means = _times_lower_t(draws.z.copy(), low)
    means /= np.sqrt(draws.counts)[:, None]
    return means, _scatter(draws.bartlett, low)


def _bartlett(rng: np.random.Generator, k: int, dof: np.ndarray) -> np.ndarray:
    """A' for a Bartlett factor A of a Wishart(dof[b], I_k) matrix A A', for each b.

    A is lower triangular, A_ii^2 ~ chi^2(dof - i), A_ij ~ N(0, 1) below the
    diagonal (Bartlett 1933; Odell & Feiveson 1966). Below k degrees of
    freedom, A' is dof standard rows, padded with zeros.
    """
    size = dof.shape[0]
    offsets, diag, upper = _bartlett_layout(k)
    full = dof >= k
    every = full.all()
    if every:  # the labs' case above tiny n: no row selection and no loop
        rows, dof_full = slice(None), dof[:, None]
    else:
        rows = np.flatnonzero(full)[:, None]
        dof_full = dof[rows]
    a_t = np.zeros((size, k * k))
    a_t[rows, diag] = np.sqrt(rng.chisquare(dof_full - offsets))
    a_t[rows, upper] = rng.standard_normal((dof_full.shape[0], upper.size))
    a_t = a_t.reshape(size, k, k)
    if not every:
        for b in np.flatnonzero(dof < k):
            a_t[b, : dof[b]] = rng.standard_normal((dof[b], k))
    return a_t


@functools.lru_cache(maxsize=16)
def _bartlett_layout(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0..k-1 and the flat row-major indices of a k x k diagonal and strict upper triangle.

    The triangle is in triu_indices order, the order :func:`_bartlett` draws it in.
    """
    rows, cols = np.triu_indices(k, 1)
    offsets = np.arange(k)
    layout = offsets, offsets * (k + 1), rows * k + cols
    for a in layout:
        a.flags.writeable = False
    return layout


def _scatter(a_t: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The Wishart(dof, L L') matrices (L A)(L A)' of Bartlett factors A' (:func:`_bartlett`).

    a_t is left unchanged, and L is never factored: it may be singular. The
    replications go on the last axis of one (k, k, R) copy of A, so that
    every step is a pass over R values: L A in place, then each entry (i, j)
    as the sum over m of (L A)[i, m] (L A)[j, m], added up in the order of
    :func:`_fixed_order.gram` over the rows of L A (:func:`_fixed_order.sum_rows`).
    """
    k, size = a_t.shape[-1], a_t.shape[0]
    la = np.transpose(a_t, (2, 1, 0)).copy()  # la[i, m] = A[i, m] over the replications
    # With its first axis last, la holds A' row by row; A' L' = (L A)' in place.
    _times_lower_t(np.moveaxis(la, 0, -1), low)
    out = np.empty((size, k, k))
    for i in range(k):
        for j in range(i, k):
            out[:, i, j] = out[:, j, i] = _fixed_order.sum_rows(la[i] * la[j])
    return out


def _times_columns(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """x coef over the last axis of x, summed column by column, left to right, without BLAS."""
    out = x[..., 0] * coef[0]
    for k in range(1, coef.shape[0]):
        out += x[..., k] * coef[k]
    return out


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., :, None] * y[..., None, :]


# A perturbed batch draws its standard coordinates in blocks of at most
# this many (8 MB per array of doubles), so its memory stays bounded at large
# n up to n = 2^20: a block holds at least one replication, n values.
_SCORE_BLOCK = 1 << 20


def perturbed_scratch(n: int, size: int) -> np.ndarray:
    """Buffers for |z|, the weights and the uniforms of :meth:`GaussianPairDGP.perturbed_draws`.

    One (3, rows, n) array, rows the block of a batch of up to size
    replications at n: 24 bytes per value that one block draws. Its bytes
    size the misspec lab's draw pool (:func:`_threads.default_workers`).
    """
    return np.empty((3, min(size, max(1, _SCORE_BLOCK // n)), n))


@dataclass(frozen=True)
class PerturbedDraws:
    """The part of a perturbed batch that no lam reads (:meth:`GaussianPairDGP.perturbed_draws`).

    Per replication: the mean and the scatter about it of the n accepted
    standard coordinates z, and z1, z2 ~ N(0, I_p) and the Bartlett factor A'
    of a Wishart(n - 2, I_p) draw A A' for the rest of the sums.
    """

    n: int
    z_mean: np.ndarray
    s_zz: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    bartlett: np.ndarray


@dataclass(frozen=True)
class ScoreCoordinate:
    """u = a'd of the Gaussian pair, a = (1, -lam), with the constants of its sampler.

    Built once per lam by :meth:`GaussianPairDGP.score_coordinate`: sd_u =
    sqrt(a' Sigma a), which is also ||psi_lam||, b = Sigma a / (a' Sigma a)
    and the factor L_w of the part w = d - b u that is independent of u.
    """

    lam: np.ndarray
    sd_u: float
    b: np.ndarray
    low_w: np.ndarray

    def _lift(self, x: np.ndarray) -> np.ndarray:
        """(..., p) -> (..., 1 + p): prepend the coordinate c = lam'x."""
        return np.concatenate([_fixed_order.dot(x, self.lam)[..., None], x], axis=-1)

    def perturbed_means(self, draws: PerturbedDraws) -> np.ndarray:
        """The (size, 1 + p) sample means of :meth:`perturbed_moments`, without the covariances.

        u_bar = sd_u z_bar and the mean of w_g is L_w z1 / sqrt(n).
        """
        w_mean = _times_lower_t(draws.z1.copy(), self.low_w)
        w_mean /= math.sqrt(draws.n)
        return _outer(self.sd_u * draws.z_mean, self.b) + self._lift(w_mean)

    def perturbed_moments(self, draws: PerturbedDraws) -> tuple[np.ndarray, np.ndarray]:
        """Sample means and 1/n covariances of perturbed replications at this lam.

        One (size, 1 + p) and one (size, 1 + p, 1 + p) array, from the
        standard draws, which are left unchanged. u = sd_u z gives u_bar =
        sd_u z_bar and S_uu = sd_u^2 S_zz. Given the drawn u, the sums of w_g
        have exact laws (Cochran): sum w_g = sqrt(n) L_w z1, sum (u - u_bar)
        w_g = sqrt(S_uu) L_w z2, and the scatter of w_g is L_w (z2 z2' + A
        A') L_w'.
        """
        b, low_w, n = self.b, self.low_w, draws.n
        s_uu = (self.sd_u * self.sd_u) * draws.s_zz
        cross = _times_lower_t(draws.z2.copy(), low_w)
        w_scatter = _scatter(draws.bartlett, low_w) + _outer(cross, cross)
        cross *= np.sqrt(s_uu)[:, None]
        cross = self._lift(cross)
        scatter = s_uu[:, None, None] * _outer(b, b)
        scatter += _outer(b, cross) + _outer(cross, b)
        scatter += self._lift(np.swapaxes(self._lift(w_scatter), -1, -2))
        return self.perturbed_means(draws), scatter / n


@dataclass(frozen=True)
class GaussianPairDGP:
    """Joint normal influence vector (d_c, d_g) with covariance Sigma = L L'.

    A replication's sample mean and 1/n sample covariance come from their
    exact laws (:func:`_normal_sums`), not n rows.
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
    def from_rho(cls, rho: float) -> "GaussianPairDGP":
        """Scalar check with unit variances and correlation rho."""
        if not -1.0 < rho < 1.0:
            raise ConfigError(f"rho must lie strictly inside (-1, 1), got {rho}")
        return cls(
            sigma_c_sq=1.0,
            sigma_c_gamma=np.array([float(rho)]),
            sigma_gamma_gamma=np.eye(1),
        )

    @property
    def p_gamma(self) -> int:
        return self.sigma_c_gamma.shape[0]

    def population_covariance(self, n: int) -> JointCovariance:
        return JointCovariance(self.sigma_c_sq, self.sigma_c_gamma, self.sigma_gamma_gamma, n)

    @property
    def lambda_opt(self) -> np.ndarray:
        return self.population_covariance(2).lam

    def draw_replications(self, rng: np.random.Generator, n: int, size: int) -> NormalDraws:
        """The standard draws of size independent replications at sample size n."""
        return _draw_normal(rng, 1 + self.p_gamma, np.full(size, n))

    def estimate_replications(self, draws: NormalDraws, n: int) -> BatchReplications:
        """Replications from joined :meth:`draw_replications`, by one :class:`JointCovariance`.

        A degenerate replication (reachable only near n = p + 2) raises
        :class:`DegenerateResidualVariance`.
        """
        means, scatter = _normal_sums(draws, self._chol_full)
        return _record(self.c_true + means[:, 0], means[:, 1:], scatter / n, n)[0]

    def perturbed_draws(
        self, rng: np.random.Generator, n: int, size: int, mu: float,
        scratch: np.ndarray | None = None,
    ) -> PerturbedDraws:
        """size replications of n exact draws from (1 + s(d)/sqrt(n)) dP0, in standard units.

        Every lam's worst-case score of size mu is s = mu z for z = u / sd_u ~
        N(0, 1), so these draws serve every lam
        (:meth:`ScoreCoordinate.perturbed_moments`). z is symmetric and the
        weights at z and -z sum to 2, so rejection on the pair (|z|, -|z|)
        keeps +|z| with probability w(|z|) / 2: n values of |z| and n
        uniforms per replication, every weight through the [0, 2] gate of
        :mod:`residcheck.misspec`, which the largest |z| decides. |z|, the
        weights and the uniforms are written into ``scratch``, a
        :func:`perturbed_scratch` for n and at least size replications that a
        caller drawing many batches reuses; by default a fresh one.
        """
        slope = mu / math.sqrt(n)
        step = max(1, _SCORE_BLOCK // n)
        if scratch is None:
            scratch = perturbed_scratch(n, size)
        if scratch.shape[1] < min(step, size) or scratch.shape[2] != n:
            raise ValueError(f"scratch of shape {scratch.shape} does not fit {size} x {n} draws")
        z_mean, s_zz = np.empty(size), np.empty(size)
        for start in range(0, size, step):
            z, weights, v = scratch[:, : min(step, size - start)]
            rng.standard_normal(out=z)
            np.abs(z, out=z)
            if not 0.0 <= 1.0 + slope * z.max() <= 2.0:
                raise WeightUnderflow(
                    f"a weight 1 + s/sqrt(n) falls outside [0, 2] at n = {n}; "
                    "n is too small for this mu"
                )
            np.multiply(z, slope, out=weights)
            weights += 1.0
            # Keep +|z| with probability w(|z|) / 2, else -|z|: -|z| where 2v >= w,
            # read off the sign of -(2v - w), which is -0.0 at a tie (w - 2v is +0.0).
            rng.random(out=v)
            v *= 2.0
            v -= weights
            np.negative(v, out=v)
            np.copysign(z, v, out=z)
            block = slice(start, start + z.shape[0])
            z_mean[block] = np.add.reduce(z, axis=-1) / n
            z -= z_mean[block, None]
            z *= z
            s_zz[block] = np.add.reduce(z, axis=-1)
        p = self.p_gamma
        z1, z2 = rng.standard_normal((size, p)), rng.standard_normal((size, p))
        return PerturbedDraws(n, z_mean, s_zz, z1, z2, _bartlett(rng, p, np.full(size, n - 2)))

    def score_coordinate(self, lam) -> ScoreCoordinate:
        """The coordinate u = a'd, a = (1, -lam), that psi_lam and its worst-case score read.

        With alpha = L'a, a' Sigma a = alpha'alpha and Sigma a = L alpha. Then
        d = b u + w for w independent of u, w_c = lam'w_g and w_g ~ N(0, L_w
        L_w'). L_w comes from w_g's precision M' Sigma^-1 M for M = [lam'; I]:
        no cancellation when d_g is nearly a function of u, as at large lam.
        A lam whose a' Sigma a overflows raises InvalidCovariance before
        anything is factored.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        low = self._chol_full
        with np.errstate(over="ignore", invalid="ignore"):
            alpha = _fixed_order.dot(low.T, np.concatenate([[1.0], -lam]))  # L'a
            var_u = _fixed_order.dot(alpha, alpha)
        if not var_u < math.inf:  # NaN fails too
            raise InvalidCovariance(
                f"the variance a' Sigma a of psi_lambda is not finite at lambda = {lam}"
            )
        m_inv = _fixed_order.solve_lower(low, np.column_stack([lam, np.eye(self.p_gamma)]))
        prec_low = _fixed_order.cholesky(_fixed_order.gram(m_inv))
        return ScoreCoordinate(
            lam=lam,
            sd_u=math.sqrt(var_u),
            b=_fixed_order.dot(low, alpha) / var_u,
            low_w=_fixed_order.cholesky(_fixed_order.cho_solve(prec_low, np.eye(self.p_gamma))),
        )


@dataclass(frozen=True)
class RctLinearDGP:
    """Randomized trial with outcome tau T + (beta + interaction T)' X + noise.

    Covariates are independent standard normal, treatment is Bernoulli(pi),
    and the average treatment effect equals tau. ``interaction`` of zeros
    gives the homoskedastic linear case in which the long and residualized
    coefficients share the same probability limit beta; nonzero interaction
    with pi != 1/2 separates them. An empty ``beta`` (no checks) is refused,
    and so are parameters under which an arm's second moment of the outcome,
    (alpha + tau a)^2 + |beta + interaction a|^2 + noise_sd^2, overflows:
    the lab's sums and summary square the outcome.
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
        if not beta.size:
            raise ConfigError("beta needs at least one entry: each covariate is a check")
        if beta.shape != inter.shape:
            raise ConfigError("beta and interaction must have the same length")
        if not 0.0 < self.pi < 1.0:
            raise ConfigError(f"treated share pi must lie in (0, 1), got {self.pi}")
        if not np.isfinite([self.tau, self.alpha, *beta, *inter]).all():
            raise ConfigError("tau, alpha, beta and interaction must be finite")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ConfigError(f"noise_sd must be finite and at least 0, got {self.noise_sd}")
        with np.errstate(over="ignore"):
            means = np.array([self.alpha + self.tau, self.alpha])
            coefs = np.stack([beta + inter, beta])
            second = means * means + _fixed_order.dot(coefs, coefs) + np.square(self.noise_sd)
        if not np.isfinite(second).all():
            raise ConfigError(
                "the outcome's second moment in an arm overflows; tau, alpha, beta, "
                "interaction or noise_sd is too large"
            )
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

    def draw_replications(
        self, rng: np.random.Generator, n: int, size: int
    ) -> tuple[NormalDraws, NormalDraws]:
        """The draws of size replications: treated counts, then each arm's standard draws.

        n1 ~ Binomial(n, pi), and an arm below 2 units raises :class:`EmptyArm`
        before any other draw. Each arm draws the (x, e) behind its mean and
        scatter, treated first (:func:`_draw_normal`).
        """
        n1 = rng.binomial(n, self.pi, size)
        small = np.minimum(n1, n - n1) < 2
        if small.any():
            raise EmptyArm(f"each arm needs at least 2 units, got {n1[small][0]} treated of {n}")
        treated = _draw_normal(rng, 1 + self.p_gamma, n1)
        return treated, _draw_normal(rng, 1 + self.p_gamma, n - n1)

    def _arm_sums(self, draws: tuple[NormalDraws, NormalDraws]) -> tuple[list, list]:
        """The (treated, control) means and scatters of y, x_1..x_p, in the adapter's order."""
        p = self.p_gamma
        order = np.roll(np.arange(1 + p), 1)  # (x, y) -> the adapter's (y, x)
        means, scatters = [], []
        for arm, coef, shift in zip(draws, (self.beta + self.interaction, self.beta),
                                    (self.alpha + self.tau, self.alpha)):
            low = np.eye(1 + p)
            low[p, :p], low[p, p] = coef, self.noise_sd
            mean, scatter = _normal_sums(arm, low)
            mean[:, p] += shift
            means.append(mean[:, order])
            scatters.append(scatter[:, order][:, :, order])
        return means, scatters

    def estimate_replications(
        self, draws: tuple[NormalDraws, NormalDraws], n: int
    ) -> BatchReplications:
        """Replications from joined :meth:`draw_replications`, by per-arm sufficient statistics.

        In arm a, (x, y) = L_a (x, e) + (0, alpha + tau a) for standard
        normal (x, e), with L_a = [[I, 0], [b_a', noise_sd]], b_1 = beta +
        interaction and b_0 = beta, so each arm's mean and scatter come from
        :func:`_normal_sums`. :func:`rct.arm_statistics` maps them to what
        the adapter computes from rows, and the p x p half runs once over
        every replication.
        """
        slopes, cov, partialled, x_sq = arm_statistics(n, draws[0].counts, *self._arm_sums(draws))
        c_short, gamma = slopes[:, 0], slopes[:, 1:]
        record, sigma = _record(c_short, gamma, cov, n)
        beta_long = long_coefficients(partialled, x_sq)
        return replace(
            record,
            c_long=residualize(c_short, gamma, beta_long).c_r,
            se_long=np.sqrt(adjusted_variance(sigma, beta_long) / n),
        )

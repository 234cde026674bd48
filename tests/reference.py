"""Row-level references that the tests check the labs' exact-law draws against.

The rejection sampler from (1 + s(d)/sqrt(n)) dP0 with the envelope 2 dP0
(:func:`sample_perturbed`, :func:`measure_bias`), worst-case scores and the
bias split calibrated on rows, the DGPs' row draws, full-data estimators,
influence evaluators and RCT coefficient limits, each a function of its DGP
with the bits it had as a method, and the masked, fancy-index versions of the
labs' Bartlett factor and perturbed draws, which the labs match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from residcheck import _fixed_order
from residcheck._threads import batch_sizes
from residcheck.dgps import _SCORE_BLOCK, PerturbedDraws, _times_columns, _times_lower_t
from residcheck.errors import (
    ConfigError,
    InvalidCovariance,
    NegativeMu,
    WeightUnderflow,
    ZeroInfluence,
)
from residcheck.misspec import _N_BATCHES, MAX_TOTAL_DRAWS, BiasMeasurement, _measure
from residcheck.rct import RctDataset

Sampler = Callable[[np.random.Generator, int], np.ndarray]
ScoreFn = Callable[[np.ndarray], np.ndarray]

DEFAULT_CALIBRATION_DRAWS = 1_000_000


# Gaussian pair: rows and full-data estimators.
def draw(dgp, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the per-observation vector (d_c, d_g) under the base model."""
    return _times_lower_t(rng.standard_normal((n, 1 + dgp.p_gamma)), dgp._chol_full)


def influence_gamma(dgp, data: np.ndarray) -> np.ndarray:
    return data[:, 1:]


# The exact-law draws as first written, with boolean-mask and fancy-index
# passes: the labs' draws must match them bit for bit.
def bartlett(rng: np.random.Generator, k: int, dof: np.ndarray) -> np.ndarray:
    """A' for a Bartlett factor A of a Wishart(dof[b], I_k) matrix A A', for each b."""
    size = dof.shape[0]
    full = np.flatnonzero(dof >= k)[:, None]
    diag = np.arange(k)
    upper = np.triu_indices(k, 1)
    a_t = np.zeros((size, k, k))
    a_t[full, diag, diag] = np.sqrt(rng.chisquare(dof[full] - diag))
    a_t[full, upper[0], upper[1]] = rng.standard_normal((full.shape[0], upper[0].size))
    for b in np.flatnonzero(dof < k):
        a_t[b, : dof[b]] = rng.standard_normal((dof[b], k))
    return a_t


def perturbed_draws(
    dgp, rng: np.random.Generator, n: int, size: int, mu: float
) -> PerturbedDraws:
    """size replications of n exact draws from (1 + s(d)/sqrt(n)) dP0, in standard units."""
    slope = mu / math.sqrt(n)
    z_mean, s_zz = np.empty(size), np.empty(size)
    step = max(1, _SCORE_BLOCK // n)
    for start in range(0, size, step):
        z = rng.standard_normal((min(step, size - start), n))
        np.abs(z, out=z)
        if not 0.0 <= 1.0 + slope * z.max() <= 2.0:
            raise WeightUnderflow(
                f"a weight 1 + s/sqrt(n) falls outside [0, 2] at n = {n}; "
                "n is too small for this mu"
            )
        weights = z * slope
        weights += 1.0
        # Keep +|z| with probability w(|z|) / 2, else -|z|.
        np.negative(z, out=z, where=2.0 * rng.random(z.shape) >= weights)
        block = slice(start, start + z.shape[0])
        z_mean[block] = np.add.reduce(z, axis=-1) / n
        z -= z_mean[block, None]
        z *= z
        s_zz[block] = np.add.reduce(z, axis=-1)
    p = dgp.p_gamma
    z1, z2 = rng.standard_normal((size, p)), rng.standard_normal((size, p))
    return PerturbedDraws(n, z_mean, s_zz, z1, z2, bartlett(rng, p, np.full(size, n - 2)))


def _sample_means(data: np.ndarray) -> np.ndarray:
    """Sample mean of the rows of data, each column summed pairwise in one contiguous pass."""
    return np.add.reduce(np.ascontiguousarray(data.T), axis=-1) / len(data)


def sample_moments(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Sample mean, 1/n sample covariance and n of the rows of data, in a fixed order."""
    rows = np.ascontiguousarray(data.T)
    means = np.add.reduce(rows, axis=-1) / len(data)
    rows -= means[:, None]
    return means, _fixed_order.gram(rows) / len(data), len(data)


def estimate_short(dgp, data: np.ndarray) -> float:
    return float(dgp.short_from_moments(_sample_means(data), None, len(data)))


def estimate_fixed(dgp, data: np.ndarray, lam) -> float:
    return float(dgp.fixed_from_moments(_sample_means(data), None, len(data), lam))


def estimate_plugin_residualized(dgp, data: np.ndarray) -> float:
    return float(dgp.plugin_from_moments(*sample_moments(data)))


# Linear RCT: the coefficients' probability limits, row datasets, influence
# evaluators at the population parameters and the structural score, for
# inner products on raw rows.
def beta_resid_limit(dgp) -> np.ndarray:
    return dgp.beta + (1.0 - dgp.pi) * dgp.interaction


def beta_long_limit(dgp) -> np.ndarray:
    return dgp.beta + dgp.pi * dgp.interaction


def draw_dataset(dgp, rng: np.random.Generator, n: int) -> RctDataset:
    rows = dgp.draw_matrix(rng, n)
    return RctDataset(outcome=rows[:, 0], treatment=rows[:, 1], covariates=rows[:, 2:])


def rct_influence_c(dgp, data: np.ndarray) -> np.ndarray:
    y, t = data[:, 0], data[:, 1]
    mu1 = dgp.alpha + dgp.tau
    mu0 = dgp.alpha
    return t * (y - mu1) / dgp.pi - (1.0 - t) * (y - mu0) / (1.0 - dgp.pi)


def rct_influence_gamma(dgp, data: np.ndarray) -> np.ndarray:
    t = data[:, 1]
    x = data[:, 2:]
    w = (t / dgp.pi - (1.0 - t) / (1.0 - dgp.pi))[:, None]
    return w * x


def rct_influence_adjusted(dgp, lam) -> ScoreFn:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return lambda data: (
        rct_influence_c(dgp, data) - _fixed_order.dot(rct_influence_gamma(dgp, data), lam)
    )


def structural_mean_shift_score(dgp) -> ScoreFn:
    """Score of an equal outcome-mean shift in both arms (within-model).

    The score is the outcome residual over noise_sd^2, so it needs noise.
    """
    if dgp.noise_sd == 0.0:
        raise ConfigError("the mean-shift score divides by noise_sd^2; noise_sd must be positive")

    def score(data: np.ndarray) -> np.ndarray:
        y, t = data[:, 0], data[:, 1]
        x = data[:, 2:]
        fitted = dgp.alpha + dgp.tau * t + _times_columns(x, dgp.beta)
        resid = y - fitted - _times_columns(x, dgp.interaction) * t
        return resid / dgp.noise_sd**2

    return score


# The row sampler and its bias measurement.
@dataclass(frozen=True)
class MisspecScore:
    """Per-observation perturbation direction with L2 bound mu."""

    fn: ScoreFn
    mu: float
    description: str = ""

    def __call__(self, data: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(data), dtype=float)


def zero_score() -> MisspecScore:
    return MisspecScore(fn=lambda data: np.zeros(data.shape[0]), mu=0.0, description="zero")


def worst_case_score(
    psi_lambda: ScoreFn,
    mu: float,
    p0_sampler: Sampler,
    calibration_draws: int = 100_000,
    seed: int = 0,
) -> MisspecScore:
    """Bias-maximizing direction mu * psi_lambda / ||psi_lambda||.

    The norm is estimated on ``calibration_draws`` base-model draws (at
    least 1e5 recommended); a numerically zero norm raises ZeroInfluence.
    """
    if mu < 0:
        raise NegativeMu(f"misspecification bound must be nonnegative, got {mu}")
    if calibration_draws < 2:
        raise ConfigError("calibration_draws must be at least 2")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(901,)))
    # Values that overflow end in InvalidCovariance rather than numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(psi_lambda(p0_sampler(rng, calibration_draws)), dtype=float)
        norm = math.sqrt(float(np.mean(values**2)))
    if norm < 1e-12:
        raise ZeroInfluence("influence evaluator is numerically zero on the calibration sample")
    if not norm < math.inf:
        raise InvalidCovariance(
            "the variance of the influence function on the calibration sample is not finite"
        )
    scale = mu / norm
    return MisspecScore(
        fn=lambda data: scale * np.asarray(psi_lambda(data), dtype=float),
        mu=float(mu),
        description=f"worst_case(norm={norm:.6g})",
    )


def check_weight_bound(score_values: np.ndarray, n: int) -> float:
    """Require sup |s| / sqrt(n) < 1 over scores already evaluated on a sample.

    Returns the sample maximum of |s|.
    """
    sup = float(np.abs(score_values).max())
    if not sup / math.sqrt(n) < 1.0:  # NaN fails too
        raise WeightUnderflow(
            f"calibration sup |s| = {sup:.4g} reaches sqrt(n) = {math.sqrt(n):.4g}; "
            "n is too small for this mu and score shape"
        )
    return sup


def _draw_accepted(
    rng: np.random.Generator, p0_sampler: Sampler, score: ScoreFn, n: int
) -> np.ndarray:
    """n exact draws from (1 + s/sqrt(n)) dP0 by rejection.

    Proposals and acceptance uniforms are drawn in chunks of 2n + 4 sqrt(n)
    rows, so one chunk nearly always suffices (half of all proposals are
    accepted on average); the first n accepted rows are kept.
    """
    root_n = math.sqrt(n)
    chunk = 2 * n + 4 * math.isqrt(n)
    kept: list[np.ndarray] = []
    missing = n
    while missing > 0:
        pool = p0_sampler(rng, chunk)
        twice_u = 2.0 * rng.random(chunk)
        weights = 1.0 + score(pool) / root_n
        if not np.all((weights >= 0.0) & (weights <= 2.0)):
            raise WeightUnderflow(
                f"a weight 1 + s/sqrt(n) falls outside [0, 2] at n = {n}; "
                "n is too small for this mu and score shape"
            )
        kept.append(pool[twice_u < weights][:missing])
        missing -= kept[-1].shape[0]
    return np.concatenate(kept)


def sample_perturbed(
    p0_sampler: Sampler, score: MisspecScore, n: int, seed: int
) -> np.ndarray:
    """Draw n observations from the locally perturbed law (1 + s/sqrt(n)) dP0."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(904,)))
    return _draw_accepted(rng, p0_sampler, score, n)


def measure_bias(
    estimator,
    p0_sampler: Sampler,
    score: MisspecScore,
    n: int,
    reps: int,
    seed: int,
    calibration_draws: int = DEFAULT_CALIBRATION_DRAWS,
    threads: int | None = None,
    max_total_draws: int = MAX_TOTAL_DRAWS,
) -> BiasMeasurement:
    """Measured sqrt(n)-scale bias under the perturbed law vs its prediction.

    sqrt_n_bias averages sqrt(n) (estimate - c_true) over independent
    replications, each n exact draws from the perturbed law, estimated by
    ``estimator.from_moments`` on the moments of its rows; predicted is the
    calibration estimate of E0[psi s], on rows drawn from the child of
    SeedSequence(seed) after the batches' own. Both carry MC standard errors.
    """
    spare = np.random.SeedSequence(seed).spawn(len(batch_sizes(reps, _N_BATCHES)) + 1)[-1]
    calib = p0_sampler(np.random.default_rng(spare), calibration_draws)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = score(calib)
    check_weight_bound(scores, n)  # scores that overflowed fail too
    products = np.asarray(estimator.influence(calib), dtype=float) * scores

    def draw_estimates(rng: np.random.Generator, size: int) -> np.ndarray:
        # Each replication's rows are estimated as soon as they are drawn.
        return np.array([
            estimator.from_moments(*sample_moments(_draw_accepted(rng, p0_sampler, score, n)))
            for _ in range(size)
        ])

    return _measure(
        estimator, score.mu, n, reps, seed, threads, max_total_draws,
        float(products.mean()), float(products.std(ddof=1) / math.sqrt(len(products))),
        draw_estimates, lambda estimates: estimates,
    )


@dataclass(frozen=True)
class DecompositionCheck:
    """MC inner products for the structural/misspecification bias split."""

    total_bias: float
    total_bias_se: float
    target_shift: float
    target_shift_se: float
    net_bias: float
    net_bias_se: float
    misspec_term: float
    misspec_term_se: float
    gamma_structural_term: float
    gamma_structural_term_se: float


def bias_decomposition_check(
    structural_score: ScoreFn,
    misspec_score: MisspecScore,
    lam,
    influence_c: ScoreFn,
    influence_gamma: Callable[[np.ndarray], np.ndarray],
    p0_sampler: Sampler,
    calibration_draws: int = DEFAULT_CALIBRATION_DRAWS,
    seed: int = 3,
) -> DecompositionCheck:
    """Split total first-order bias into target shift and net estimator bias.

    With psi = phi_c - lam phi_gamma, the total asymptotic mean under the
    combined score s_h + s_z is E0[psi (s_h + s_z)], the target itself moves
    by E0[phi_c s_h], and the net bias of the adjusted estimator is

        E0[psi s_z] - lam E0[phi_gamma s_h]

    which collapses to E0[psi s_z] when the structural direction leaves the
    checks flat. All terms are MC inner products on one calibration sample.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(905,)))
    calib = p0_sampler(rng, calibration_draws)

    phi_c = np.asarray(influence_c(calib), dtype=float)
    phi_g = np.atleast_2d(np.asarray(influence_gamma(calib), dtype=float))
    if phi_g.shape[0] != phi_c.shape[0]:
        phi_g = phi_g.T
    psi = phi_c - phi_g @ lam
    s_h = np.asarray(structural_score(calib), dtype=float)
    s_z = misspec_score(calib)

    def stat(values: np.ndarray) -> tuple[float, float]:
        return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.shape[0]))

    total, total_se = stat(psi * (s_h + s_z))
    shift, shift_se = stat(phi_c * s_h)
    net, net_se = stat(psi * (s_h + s_z) - phi_c * s_h)
    mis, mis_se = stat(psi * s_z)
    gam, gam_se = stat((phi_g @ lam) * s_h)
    return DecompositionCheck(
        total_bias=total,
        total_bias_se=total_se,
        target_shift=shift,
        target_shift_se=shift_se,
        net_bias=net,
        net_bias_se=net_se,
        misspec_term=mis,
        misspec_term_se=mis_se,
        gamma_structural_term=gam,
        gamma_structural_term_se=gam_se,
    )

"""Row-level references that the tests check the labs' exact-law draws against.

The rejection sampler from (1 + s(d)/sqrt(n)) dP0 with the envelope 2 dP0
(:func:`sample_perturbed`, :func:`measure_bias`), worst-case scores and the
bias split calibrated on rows, the DGPs' row draws and their sample moments,
influence evaluators and RCT coefficient limits, each a function of its DGP
with the bits it had as a method, and the masked, fancy-index versions of the
labs' Bartlett factor and perturbed draws, which the labs match bit for bit,
and the Wishart scatter as a Gram matrix of short rows, which they match too.
The check block's rcond gate by eigvalsh alone (:func:`rcond_gate`) is the
outcome every :class:`residcheck.JointCovariance` validation must give.
The cross-score matrix (:func:`cross_score_bias`) measures the bias of
every fixed-lambda adjustment under every one's worst case. Both runners draw
through the labs' seeded batch frame (:func:`residcheck._threads.run_seeded`).
A clustered RCT row draw (:func:`draw_clustered`) feeds the small-m coverage test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from residcheck import _fixed_order
from residcheck._threads import _N_BATCHES, batch_sizes, run_seeded
from residcheck.core import RCOND_MIN
from residcheck.dgps import (
    _SCORE_BLOCK,
    PerturbedDraws,
    _times_columns,
    _times_lower_t,
    perturbed_scratch,
)
from residcheck.errors import (
    ConfigError,
    EstimationError,
    InvalidCovariance,
    NegativeMu,
    SingularCheckCovariance,
    WeightUnderflow,
)
from residcheck.misspec import MAX_TOTAL_DRAWS, BiasMeasurement, _adjustment, _check_start
from residcheck.rct import RctDataset

Sampler = Callable[[np.random.Generator, int], np.ndarray]
ScoreFn = Callable[[np.ndarray], np.ndarray]

DEFAULT_CALIBRATION_DRAWS = 1_000_000


class ZeroInfluence(EstimationError):
    """An influence evaluator is numerically zero on the calibration sample."""


# Gaussian pair: rows.
def draw(dgp, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the per-observation vector (d_c, d_g) under the base model."""
    return _times_lower_t(rng.standard_normal((n, 1 + dgp.p_gamma)), dgp._chol_full)


# Influence evaluators on raw data points (population scale, mean zero).
def influence_c(dgp, data: np.ndarray) -> np.ndarray:
    return data[:, 0]


def influence_gamma(dgp, data: np.ndarray) -> np.ndarray:
    return data[:, 1:]


def influence_adjusted(dgp, lam) -> ScoreFn:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return lambda data: data[:, 0] - _fixed_order.dot(data[:, 1:], lam)


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


def scatter(a_t: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The Wishart(dof, L L') matrices (L A)(L A)' of Bartlett factors A', for each b.

    A' L' = (L A)', so the scatter L A A' L' is the Gram matrix of its
    columns, each entry summed over a row of k products.
    """
    la_t = _times_lower_t(a_t.copy(), low)
    return _fixed_order.gram(np.swapaxes(la_t, -1, -2))


def rcond_gate(sgg: np.ndarray) -> np.ndarray:
    """The Cholesky factor of a (stack of) check block(s) that clears the rcond gate.

    Raises SingularCheckCovariance as the factor does, or for the first
    member whose eigenvalue-based reciprocal condition number is below
    RCOND_MIN.
    """
    chol = _fixed_order.cholesky(sgg)
    eigs = np.linalg.eigvalsh(sgg)
    rcond = eigs[..., 0] / eigs[..., -1]
    bad = (eigs[..., 0] <= 0.0) | (rcond < RCOND_MIN)
    if bad.any():
        raise SingularCheckCovariance(
            f"check covariance reciprocal condition {float(rcond[bad].flat[0]):.3e} "
            f"below {RCOND_MIN:g}; diagnostic checks are collinear"
        )
    return chol


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


def sample_moments(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Sample mean, 1/n sample covariance and n of the rows of data, in a fixed order."""
    rows = np.ascontiguousarray(data.T)
    means = np.add.reduce(rows, axis=-1) / len(data)
    rows -= means[:, None]
    return means, _fixed_order.gram(rows) / len(data), len(data)


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


def draw_clustered(
    rng: np.random.Generator, n: int, groups: int, beta=(0.5, -0.3, 0.2)
) -> tuple[RctDataset, np.ndarray]:
    """n rows in ``groups`` equal clusters, half the clusters treated, and the cluster ids.

    x = 0.7 u_g + e with u_g ~ N(0, I_p) per cluster, and y = t + x'beta + v_g + e
    with v_g ~ N(0, 1) per cluster; every e is N(0, 1). The effect is 1.
    """
    beta = np.asarray(beta, dtype=float)
    ids = np.repeat(np.arange(groups), n // groups)
    treated = np.zeros(groups)
    treated[rng.permutation(groups)[: groups // 2]] = 1.0
    shared = 0.7 * rng.standard_normal((groups, beta.size))[ids]
    x = shared + rng.standard_normal((ids.size, beta.size))
    t = treated[ids]
    y = t + x @ beta + rng.standard_normal(groups)[ids] + rng.standard_normal(ids.size)
    return RctDataset(outcome=y, treatment=t, covariates=x), ids


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
    dgp,
    lam,
    influence: ScoreFn,
    p0_sampler: Sampler,
    score: MisspecScore,
    n: int,
    reps: int,
    seed: int,
    calibration_draws: int = DEFAULT_CALIBRATION_DRAWS,
    max_total_draws: int = MAX_TOTAL_DRAWS,
) -> BiasMeasurement:
    """Measured sqrt(n)-scale bias of the lam adjustment under the perturbed law vs a prediction.

    ``lam`` is a ``--lambda`` value of the misspec lab, which picks the
    estimator. sqrt_n_bias averages sqrt(n) (estimate - c_true) over
    independent replications in the seeded batch frame, each n exact draws
    from the perturbed law, estimated on the moments of its rows; predicted
    is the calibration estimate of E0[influence s], on rows drawn from the
    child of SeedSequence(seed) after the batches' own. Both carry MC
    standard errors.
    """
    name, _, from_moments = _adjustment(dgp, lam)
    spare = np.random.SeedSequence(seed).spawn(len(batch_sizes(reps, _N_BATCHES)) + 1)[-1]
    calib = p0_sampler(np.random.default_rng(spare), calibration_draws)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = score(calib)
    check_weight_bound(scores, n)  # scores that overflowed fail too
    products = np.asarray(influence(calib), dtype=float) * scores
    if reps * n > max_total_draws:
        raise ConfigError(
            f"reps * n = {reps * n:.3g} exceeds the configured budget {max_total_draws:.3g}"
        )

    def draw_estimates(rng: np.random.Generator, size: int) -> np.ndarray:
        # Each replication's rows are estimated as soon as they are drawn.
        return np.array([
            from_moments(*sample_moments(_draw_accepted(rng, p0_sampler, score, n)))
            for _ in range(size)
        ])

    scaled = math.sqrt(n) * (
        run_seeded(seed, reps, draw_estimates, lambda estimates: estimates) - dgp.c_true
    )
    return BiasMeasurement(
        sqrt_n_bias=float(scaled.mean()),
        mc_se=float(scaled.std(ddof=1) / math.sqrt(reps)),
        predicted=float(products.mean()),
        predicted_se=float(products.std(ddof=1) / math.sqrt(len(products))),
        n=n,
        reps=reps,
        mu=score.mu,
        estimator=name,
    )


# The cross-score bias matrix of the Gaussian pair, on its exact-law perturbed draws.
@dataclass(frozen=True)
class CrossScoreBias:
    """sqrt(n)-scale bias and MSE of c_hat(lambda_i) under lambda_j's s*, indexed [mu, i, j]."""

    bias: np.ndarray
    bias_se: np.ndarray
    mse: np.ndarray
    mse_se: np.ndarray
    predicted: np.ndarray


def cross_score_bias(dgp, lambdas, mus, n: int, reps: int, seed: int) -> CrossScoreBias:
    """Measure bias of every fixed-lambda adjustment i under every lambda_j's worst case.

    Each mu is one run of the seeded batch frame, with the same seed, so
    each batch draws once per mu from a restarted stream, into the run's
    per-worker scratch. Each score lambda_j maps those draws once, to sample
    means only, as fixed-lambda estimates read no covariance, and every
    lambda_i's map reads them: all cells share their random numbers, and a
    cell's result does not depend on the rest of the grid. The diagonal is
    the lambda profile, each adjustment under its own worst case. predicted
    is mu a_i' Sigma a_j / sqrt(a_j' Sigma a_j), a = (1, -lambda), from the
    population covariance.
    """
    lambdas = np.asarray(lambdas, dtype=float).reshape(-1, dgp.p_gamma)
    mus = np.asarray(mus, dtype=float).reshape(-1)
    if np.any(mus < 0):
        raise NegativeMu("all mu values must be nonnegative")
    coordinates = [dgp.score_coordinate(lam) for lam in lambdas]
    maps = [_adjustment(dgp, coord.lam)[2] for coord in coordinates]
    # The largest mu gives the largest weights; fail before any replication.
    _check_start(n, reps, float(mus.max()))
    root_n = math.sqrt(n)

    def estimate(draws) -> tuple[np.ndarray, ...]:
        """The sqrt(n)-scale errors of the replications, one array per (i, j), row by row."""
        means = [coord.perturbed_means(draws) for coord in coordinates]
        return tuple(
            root_n * (to_estimate(score_means, None, n) - dgp.c_true)
            for to_estimate in maps for score_means in means
        )

    scaled = np.array([
        run_seeded(
            seed, reps,
            lambda rng, size, buffers: dgp.perturbed_draws(rng, n, size, mu, buffers),
            estimate, scratch=lambda size: perturbed_scratch(n, size),
        )
        for mu in mus
    ]).reshape(mus.size, len(lambdas), len(lambdas), reps)
    squared = scaled**2
    a = np.column_stack([np.ones(len(lambdas)), -lambdas])
    cross = a @ dgp.population_covariance(2).full_matrix() @ a.T
    return CrossScoreBias(
        bias=scaled.mean(axis=-1),
        bias_se=scaled.std(axis=-1, ddof=1) / math.sqrt(reps),
        mse=squared.mean(axis=-1),
        mse_se=squared.std(axis=-1, ddof=1) / math.sqrt(reps),
        predicted=mus[:, None, None] * cross / np.sqrt(np.diag(cross)),
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

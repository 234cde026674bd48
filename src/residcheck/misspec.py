"""Monte Carlo lab for local misspecification and minimax bias.

The base model is perturbed along a mean-zero score s with L2 norm at most
mu, giving the local alternative density (1 + s(d)/sqrt(n)) dP0(d). Under
that sequence the sqrt(n)-scale bias of a linear adjustment with influence
function psi_lambda is the inner product E0[psi_lambda s], maximized over
the score ball by s* = mu psi_lambda / ||psi_lambda||, so the worst-case
bias equals mu ||psi_lambda|| and is minimized at the residualizing
coefficient.

Sampling from the perturbed law is exact, and every weight 1 + s/sqrt(n)
must lie in [0, 2]. The linear weights are the object of interest here, so
instead of switching to an exponential tilt a proposal whose weight falls
outside raises WeightUnderflow, and weights are never clipped.

On the Gaussian pair ||psi_lambda|| = sqrt(a' Sigma a) exactly, so its
runners (:func:`measure_gaussian_bias`, behind ``simulate --lab misspec``,
and the lambda profile :func:`worst_case_bias_profile`) report predicted =
mu sqrt(a' Sigma a), with predicted_se 0, and draw no calibration sample. A
batch draws once per mu, in standard units
(:meth:`GaussianPairDGP.perturbed_draws`); the batches' draws are joined and
mapped once (:meth:`ScoreCoordinate.perturbed_moments`, then the estimator's
moment map), and in the profile every lambda maps the same draws. Before any
draw, they refuse a run in which n reps erfc(sqrt(n) / (mu sqrt(2))), the
expected number of its draws whose weight leaves [0, 2] at the largest mu,
reaches 1: at mu = 2, n = 16 from 2 reps on, and every n at a huge mu.

The row sampler over any base-model sampler and one score
(:func:`sample_perturbed`, :func:`measure_bias`) is rejection sampling with
the envelope 2 dP0: a base draw d with acceptance uniform u is kept when
2 u < 1 + s(d)/sqrt(n), half of all proposals on average, none repeated.
It is the reference that tests compare the Gaussian sampler with. It
estimates E0[psi s] on a calibration sample of rows, on which it also
checks sup |s|/sqrt(n) < 1 before any replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._threads import batch_sizes, run_stage
from .errors import (
    ConfigError,
    InvalidCovariance,
    NegativeMu,
    WeightUnderflow,
    ZeroInfluence,
)

Sampler = Callable[[np.random.Generator, int], np.ndarray]
ScoreFn = Callable[[np.ndarray], np.ndarray]

DEFAULT_CALIBRATION_DRAWS = 1_000_000
# Budget guard on reps * n for a bias measurement run.
MAX_TOTAL_DRAWS = 500_000_000

_N_BATCHES = 50


@dataclass(frozen=True)
class MisspecScore:
    """Per-observation perturbation direction with L2 bound mu."""

    fn: ScoreFn
    mu: float
    description: str = ""

    def __call__(self, data: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(data), dtype=float)


@dataclass(frozen=True)
class LinearAdjustedEstimator:
    """An estimator together with its population influence evaluator."""

    name: str
    c_true: float
    estimate: Callable[[np.ndarray], float]
    influence: Callable[[np.ndarray], np.ndarray]
    # Estimates from a stack of (sample means, 1/n covariances, n); estimate
    # applies the same map to the moments of its rows.
    from_moments: Callable[[np.ndarray, np.ndarray, int], np.ndarray] | None = None


@dataclass(frozen=True)
class BiasMeasurement:
    sqrt_n_bias: float
    mc_se: float
    predicted: float
    predicted_se: float
    n: int
    reps: int
    mu: float


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


def validate_score(
    score: MisspecScore, p0_sampler: Sampler, draws: int = 100_000, seed: int = 1
) -> None:
    """Check mean zero and E0[s^2] <= mu^2 (1 + 1e-6), both up to 3 MC SEs."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(902,)))
    values = score(p0_sampler(rng, draws))
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(draws))
    if abs(mean) > max(3.0 * se, 1e-12):
        raise ConfigError(f"score mean {mean:.4g} is not within 3 MC SEs ({se:.4g}) of zero")
    squares = values**2
    second = float(squares.mean())
    second_se = float(squares.std(ddof=1) / math.sqrt(draws))
    if second > score.mu**2 * (1.0 + 1e-6) + 3.0 * second_se + 1e-12:
        raise ConfigError(
            f"score second moment {second:.6g} exceeds mu^2 = {score.mu**2:.6g} "
            f"beyond MC error ({second_se:.2g})"
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


def _check_start(n: int, reps: int, mu: float) -> None:
    """Refuse a Gaussian run, before any draw, whose weights would likely leave [0, 2].

    n reps erfc(sqrt(n) / (mu sqrt(2))) is the expected number of the run's
    draws |z| > sqrt(n) / mu, whose weight exceeds 2; it must stay below 1.
    """
    edge = math.sqrt(n) / (mu * math.sqrt(2.0)) if mu != 0.0 else math.inf
    expected = n * reps * math.erfc(edge)
    if not expected < 1.0:  # NaN fails too
        raise WeightUnderflow(
            f"at n = {n} and mu = {mu:.4g}, {expected:.3g} of the run's {n * reps} draws are "
            "expected to give a weight 1 + s/sqrt(n) outside [0, 2]; n is too small for this mu"
        )


def _measure(
    estimator: LinearAdjustedEstimator,
    mu: float,
    n: int,
    reps: int,
    seed: int,
    threads: int | None,
    max_total_draws: int,
    prediction: Callable[[np.random.Generator], tuple[float, float]],
    draw: Callable[[np.random.Generator, int], object],
    estimate: Callable[[object], np.ndarray],
) -> BiasMeasurement:
    """The bias runners' shared frame: budget, prediction, then one stage of every batch.

    ``prediction(rng)`` returns the predicted bias and its MC SE, given the
    spare stream for any calibration sample. ``draw(rng, size)`` makes the
    draws of size replications from the stream of their batch, and
    ``estimate`` maps every batch's joined draws to their estimates at once
    (:func:`_threads.run_stage`).
    """
    if reps * n > max_total_draws:
        raise ConfigError(
            f"reps * n = {reps * n:.3g} exceeds the configured budget {max_total_draws:.3g}"
        )
    ss = np.random.SeedSequence(seed)
    sizes = batch_sizes(reps, _N_BATCHES)
    children = ss.spawn(len(sizes) + 1)
    predicted, predicted_se = prediction(np.random.default_rng(children[-1]))
    estimates = run_stage(
        lambda b: draw(np.random.default_rng(children[b]), sizes[b]), estimate,
        range(len(sizes)), sizes, threads,
    )
    scaled = math.sqrt(n) * (estimates - estimator.c_true)
    return BiasMeasurement(
        sqrt_n_bias=float(scaled.mean()),
        mc_se=float(scaled.std(ddof=1) / math.sqrt(reps)),
        predicted=predicted,
        predicted_se=predicted_se,
        n=n,
        reps=reps,
        mu=mu,
    )


def measure_bias(
    estimator: LinearAdjustedEstimator,
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
    replications, each n exact draws from the perturbed law; predicted is the
    calibration estimate of E0[psi s]. Both carry MC standard errors.
    """

    def prediction(rng: np.random.Generator) -> tuple[float, float]:
        calib = p0_sampler(rng, calibration_draws)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = score(calib)
        check_weight_bound(scores, n)  # scores that overflowed fail too
        products = np.asarray(estimator.influence(calib), dtype=float) * scores
        return float(products.mean()), float(products.std(ddof=1) / math.sqrt(len(products)))

    def draw_estimates(rng: np.random.Generator, size: int) -> np.ndarray:
        # Each replication's rows are estimated as soon as they are drawn.
        return np.array([
            estimator.estimate(_draw_accepted(rng, p0_sampler, score, n))
            for _ in range(size)
        ])

    return _measure(
        estimator, score.mu, n, reps, seed, threads, max_total_draws, prediction,
        draw_estimates, lambda estimates: estimates,
    )


def measure_gaussian_bias(
    estimator: LinearAdjustedEstimator,
    dgp,
    lam,
    mu: float,
    n: int,
    reps: int,
    seed: int,
    threads: int | None = None,
    max_total_draws: int = MAX_TOTAL_DRAWS,
) -> BiasMeasurement:
    """:func:`measure_bias` on a :class:`GaussianPairDGP` under psi_lam's worst-case score of size mu.

    The same seeds and batches; a batch draws its replications in standard
    units, and the joined draws of every batch are mapped to sample moments
    and through ``estimator.from_moments`` once.
    predicted is mu ||psi_lam|| = mu sd_u exactly, with predicted_se 0: the
    worst-case bias of an influence that is psi_lam itself. Both are linear
    in d, so they are compared once on the 1 + p unit rows, before any draw,
    and a mismatch raises ConfigError.
    """
    if estimator.from_moments is None:
        raise ConfigError("the Gaussian bias runner needs a moment map")
    units = np.eye(1 + dgp.p_gamma)
    if not np.array_equal(estimator.influence(units), dgp.influence_adjusted(lam)(units)):
        raise ConfigError(
            f"the {estimator.name} estimator's influence is not psi_lambda at lambda = {lam}"
        )
    if mu < 0:
        raise NegativeMu(f"misspecification bound must be nonnegative, got {mu}")
    coordinate = dgp.score_coordinate(lam)
    _check_start(n, reps, mu)

    return _measure(
        estimator, mu, n, reps, seed, threads, max_total_draws,
        lambda rng: (mu * coordinate.sd_u, 0.0),
        lambda rng, size: dgp.perturbed_draws(rng, n, size, mu),
        lambda draws: estimator.from_moments(*coordinate.perturbed_moments(draws), n),
    )


@dataclass(frozen=True)
class BiasProfile:
    """Worst-case bias and MSE of c_hat(lambda) under each lambda's own s*."""

    lambdas: np.ndarray
    mus: np.ndarray
    bias: np.ndarray
    bias_se: np.ndarray
    mse: np.ndarray
    mse_se: np.ndarray
    predicted_bias: np.ndarray

    def argmin_bias(self, mu_index: int) -> int:
        return int(np.argmin(self.bias[mu_index]))

    def argmin_mse(self, mu_index: int) -> int:
        return int(np.argmin(self.mse[mu_index]))


def worst_case_bias_profile(
    dgp,
    lambdas,
    mus,
    n: int,
    reps: int,
    seed: int,
    threads: int | None = None,
) -> BiasProfile:
    """Measure bias of the fixed-lambda adjustment under its own worst case.

    Each batch draws once per mu, restarting its stream, and every lambda
    maps those same draws, so all cells share their random numbers (which
    makes the argmin over the lambda grid detectable at moderate rep counts)
    and a cell's result does not depend on the rest of the grid. Each mu is
    one stage: its batches' draws are joined, and each lambda maps them once,
    to sample means only, as the fixed-lambda estimate reads no covariance.
    predicted_bias is mu ||psi_lambda|| = mu sd_u exactly. Scalar checks only.
    """
    if dgp.p_gamma != 1:
        raise ConfigError("the profile runner supports scalar checks only")
    lambdas = np.asarray(lambdas, dtype=float).reshape(-1)
    mus = np.asarray(mus, dtype=float).reshape(-1)
    if np.any(mus < 0):
        raise NegativeMu("all mu values must be nonnegative")
    coordinates = [dgp.score_coordinate(lam) for lam in lambdas]
    # The largest mu gives the largest weights; fail before any replication.
    _check_start(n, reps, float(mus.max()))

    sizes = batch_sizes(reps, _N_BATCHES)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    root_n = math.sqrt(n)

    def estimate(draws) -> tuple[np.ndarray, ...]:
        """The sqrt(n)-scale errors of the replications, one array per lambda."""
        return tuple(
            root_n * (dgp.fixed_from_moments(coord.perturbed_means(draws), None, n, coord.lam)
                      - dgp.c_true)
            for coord in coordinates
        )

    # Each mu restarts every batch's stream.
    scaled = np.array([
        run_stage(
            lambda b: dgp.perturbed_draws(np.random.default_rng(children[b]), n, sizes[b], mu),
            estimate, range(len(sizes)), sizes, threads,
        )
        for mu in mus
    ])
    squared = scaled**2
    return BiasProfile(
        lambdas=lambdas,
        mus=mus,
        bias=scaled.mean(axis=-1),
        bias_se=scaled.std(axis=-1, ddof=1) / math.sqrt(reps),
        mse=squared.mean(axis=-1),
        mse_se=squared.std(axis=-1, ddof=1) / math.sqrt(reps),
        predicted_bias=mus[:, None] * np.array([coord.sd_u for coord in coordinates]),
    )


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


def short_estimator_of(dgp) -> LinearAdjustedEstimator:
    """Unadjusted estimator of the Gaussian pair DGP with influence d_c."""
    return LinearAdjustedEstimator(
        name="short",
        c_true=dgp.c_true,
        estimate=dgp.estimate_short,
        influence=dgp.influence_c,
        from_moments=dgp.short_from_moments,
    )


def fixed_lambda_estimator_of(dgp, lam) -> LinearAdjustedEstimator:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return LinearAdjustedEstimator(
        name=f"fixed({np.array2string(lam, precision=4)})",
        c_true=dgp.c_true,
        estimate=lambda data: dgp.estimate_fixed(data, lam),
        influence=dgp.influence_adjusted(lam),
        from_moments=lambda means, cov, n: dgp.fixed_from_moments(means, cov, n, lam),
    )


def plugin_residualized_of(dgp) -> LinearAdjustedEstimator:
    """Plug-in residualized estimator; influence taken at the population row."""
    return LinearAdjustedEstimator(
        name="residualized",
        c_true=dgp.c_true,
        estimate=dgp.estimate_plugin_residualized,
        influence=dgp.influence_adjusted(dgp.lambda_opt),
        from_moments=dgp.plugin_from_moments,
    )

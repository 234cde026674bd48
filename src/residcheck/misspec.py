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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._threads import batch_sizes, run_stage
from .errors import ConfigError, NegativeMu, WeightUnderflow

# Budget guard on reps * n for a bias measurement run.
MAX_TOTAL_DRAWS = 500_000_000

_N_BATCHES = 50


@dataclass(frozen=True)
class LinearAdjustedEstimator:
    """An estimator together with its population influence evaluator."""

    name: str
    c_true: float
    influence: Callable[[np.ndarray], np.ndarray]
    # Estimates from a stack of (sample means, 1/n covariances, n).
    from_moments: Callable[[np.ndarray, np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class BiasMeasurement:
    sqrt_n_bias: float
    mc_se: float
    predicted: float
    predicted_se: float
    n: int
    reps: int
    mu: float


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
    predicted: float,
    predicted_se: float,
    draw: Callable[[np.random.Generator, int], object],
    estimate: Callable[[object], np.ndarray],
) -> BiasMeasurement:
    """The bias runners' shared frame: budget, then one stage of every batch.

    ``draw(rng, size)`` makes the draws of size replications from the stream
    of their batch, and ``estimate`` maps every batch's joined draws to their
    estimates at once (:func:`_threads.run_stage`). The measurement reports
    ``predicted`` and ``predicted_se`` beside the measured bias.
    """
    if reps * n > max_total_draws:
        raise ConfigError(
            f"reps * n = {reps * n:.3g} exceeds the configured budget {max_total_draws:.3g}"
        )
    sizes = batch_sizes(reps, _N_BATCHES)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
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
    """Measured sqrt(n)-scale bias on a :class:`GaussianPairDGP` under psi_lam's worst-case score.

    sqrt_n_bias averages sqrt(n) (estimate - c_true) over reps independent
    replications of n exact draws from the law perturbed by the score of
    size mu, with its MC standard error. Batch b of the replications draws
    from child b of SeedSequence(seed), in standard units, and the joined
    draws of every batch are mapped to sample moments and through
    ``estimator.from_moments`` once.
    predicted is mu ||psi_lam|| = mu sd_u exactly, with predicted_se 0: the
    worst-case bias of an influence that is psi_lam itself. Both are linear
    in d, so they are compared once on the 1 + p unit rows, before any draw,
    and a mismatch raises ConfigError.
    """
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
        estimator, mu, n, reps, seed, threads, max_total_draws, mu * coordinate.sd_u, 0.0,
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


def short_estimator_of(dgp) -> LinearAdjustedEstimator:
    """Unadjusted estimator of the Gaussian pair DGP with influence d_c."""
    return LinearAdjustedEstimator(
        name="short",
        c_true=dgp.c_true,
        influence=dgp.influence_c,
        from_moments=dgp.short_from_moments,
    )


def fixed_lambda_estimator_of(dgp, lam) -> LinearAdjustedEstimator:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return LinearAdjustedEstimator(
        name=f"fixed({np.array2string(lam, precision=4)})",
        c_true=dgp.c_true,
        influence=dgp.influence_adjusted(lam),
        from_moments=lambda means, cov, n: dgp.fixed_from_moments(means, cov, n, lam),
    )


def plugin_residualized_of(dgp) -> LinearAdjustedEstimator:
    """Plug-in residualized estimator; influence taken at the population row."""
    return LinearAdjustedEstimator(
        name="residualized",
        c_true=dgp.c_true,
        influence=dgp.influence_adjusted(dgp.lambda_opt),
        from_moments=dgp.plugin_from_moments,
    )

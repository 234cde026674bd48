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
runner :func:`measure_gaussian_bias`, behind ``simulate --lab misspec``,
reports predicted = mu sqrt(a' Sigma a), with predicted_se 0, and draws no
calibration sample. Its replications are the labs' seeded batch frame
(:func:`_threads.run_seeded`): each batch draws once, in standard units
(:meth:`GaussianPairDGP.perturbed_draws`), into one set of scratch buffers
per worker made once per run, whose bytes set the default worker count
(:func:`_threads.default_workers`), and each stack of batches' draws is joined
and mapped once (:meth:`ScoreCoordinate.perturbed_moments`, then the
``--lambda`` moment map, defined only in :func:`_adjustment`).
Before any draw, it refuses a run in which n reps erfc(sqrt(n) / (mu
sqrt(2))), the expected number of its draws whose weight leaves [0, 2],
reaches 1: at mu = 2, n = 16 from 2 reps on, and every n at a huge mu. It
also refuses fewer than 2 replications, which give no MC standard error,
and fewer than 2 draws per replication, or p + 2 for the plug-in lambda,
whose residual variance needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._threads import run_seeded
from .core import JointCovariance, residualize
from .dgps import perturbed_scratch
from .errors import ConfigError, NegativeMu, WeightUnderflow

# Budget guard on reps * n for a bias measurement run.
MAX_TOTAL_DRAWS = 500_000_000


@dataclass(frozen=True)
class BiasMeasurement:
    sqrt_n_bias: float
    mc_se: float
    predicted: float
    predicted_se: float
    n: int
    reps: int
    mu: float
    estimator: str


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


def _adjustment(dgp, lam) -> tuple[str, np.ndarray, Callable]:
    """Name, lambda and moment map of the ``--lambda`` adjustment of a :class:`GaussianPairDGP`.

    ``lam`` is "optimal" (the plug-in residualized estimator), "zero" (the
    short estimator) or numbers (the adjustment fixed at them). The moment
    map takes a stack of (sample means, 1/n covariances, n) to estimates;
    only the plug-in map reads cov, through :meth:`JointCovariance.from_matrix`.
    """

    def short(means, cov, n):
        return dgp.c_true + means[..., 0]

    if not isinstance(lam, str):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        name = f"fixed({np.array2string(lam, precision=4)})"
        return name, lam, lambda means, cov, n: residualize(
            short(means, cov, n), means[..., 1:], np.broadcast_to(lam, means[..., 1:].shape)
        ).c_r
    if lam == "optimal":
        return "residualized", dgp.lambda_opt, lambda means, cov, n: residualize(
            short(means, cov, n), means[..., 1:], JointCovariance.from_matrix(cov, n).lam
        ).c_r
    if lam == "zero":
        return "short", np.zeros(dgp.p_gamma), short
    raise ConfigError(f"lambda must be 'optimal', 'zero' or numbers, got {lam!r}")


def measure_gaussian_bias(
    dgp,
    lam,
    mu: float,
    n: int,
    reps: int,
    seed: int,
) -> BiasMeasurement:
    """Measured sqrt(n)-scale bias of the lam adjustment on a :class:`GaussianPairDGP`.

    ``lam`` is the ``--lambda`` value (:func:`_adjustment`); the score is
    psi_lam's worst case of size mu. sqrt_n_bias averages sqrt(n) (estimate
    - c_true) over reps independent replications of n exact draws from the
    perturbed law, with its MC standard error. The replications are the
    seeded batch frame: each batch draws in standard units, and the joined
    draws of each stack of batches are mapped to sample moments and through
    the estimator's moment map once. predicted is mu ||psi_lam|| = mu sd_u
    exactly, with predicted_se 0.
    """
    name, lam, from_moments = _adjustment(dgp, lam)
    if mu < 0:
        raise NegativeMu(f"misspecification bound must be nonnegative, got {mu}")
    # The plug-in lambda needs a residual variance (n >= p + 2); the draws' Wishart
    # factor has n - 2 degrees of freedom (n >= 2).
    least_n = dgp.p_gamma + 2 if name == "residualized" else 2
    if reps < 2 or n < least_n:
        raise ConfigError(
            f"the {name} misspec run needs reps >= 2 for its MC SE and n >= {least_n}, "
            f"got reps = {reps} and n = {n}"
        )
    coordinate = dgp.score_coordinate(lam)
    _check_start(n, reps, mu)
    if reps * n > MAX_TOTAL_DRAWS:
        raise ConfigError(
            f"reps * n = {reps * n:.3g} exceeds the budget {MAX_TOTAL_DRAWS:.3g}"
        )
    estimates = run_seeded(
        seed, reps, lambda rng, size, buffers: dgp.perturbed_draws(rng, n, size, mu, buffers),
        lambda draws: from_moments(*coordinate.perturbed_moments(draws), n),
        scratch=lambda size: perturbed_scratch(n, size),
    )
    scaled = math.sqrt(n) * (estimates - dgp.c_true)
    return BiasMeasurement(
        sqrt_n_bias=float(scaled.mean()),
        mc_se=float(scaled.std(ddof=1) / math.sqrt(reps)),
        predicted=mu * coordinate.sd_u,
        predicted_se=0.0,
        n=n,
        reps=reps,
        mu=mu,
        estimator=name,
    )

"""Monte Carlo lab for selective reporting and pre-test independence.

A reporting rule passes when a continuous function q of the standardized
check vector T_n = sqrt(n) * Sigma_gg_hat^{-1/2} gamma_hat falls at or below
a threshold. The lab simulates a DGP, applies the rule each replication, and
summarizes the distribution of the short, long, and residualized estimators
conditional on passing and on failing, against the closed-form
truncated-normal oracle available in the scalar Gaussian case:

    Var(Z_g | |Z_g| <= t) = 1 - 2 t phi(t) / (2 Phi(t) - 1)
    Var(Z_s | |Z_g| <= t) = (1 - rho^2) + rho^2 Var(Z_g | |Z_g| <= t)

Monte Carlo standard errors come from the labs' seeded batch frame
(:func:`_threads.run_seeded`), which always splits the replications into 50
contiguous batches; each batch draws from its own seeded stream, so results
are byte-identical at any thread count. The first batches that hold at least
1,000 replications also gate the run: output is emitted only when their pass
rate lies in [0.02, 0.98], and they are reported with the rest, so no
replication is drawn only to gate.

A run is two stages, the head batches and then the rest, with the gate
between them (the frame's head gate). A stage draws each of its batches
(on the worker pool, if any), then estimates once over all their draws (per
4,096 replications in a larger stage): one covariance validation, whose
Cholesky factor standardizes the checks, and one application of the rule,
recording T_n and the pass indicator in one :class:`dgps.BatchReplications`.
The summary computes every batch's count, mean, variance, coverage and
rejection rate in one pass over the batch axis (``np.add.reduceat`` over the
batch starts), and pools over all replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import _fixed_order
from ._distributions import SQRT1_2, Z975, chi2_cdf, normal_cdf, normal_pdf
from ._threads import _N_BATCHES, batch_sizes, run_seeded
from .dgps import BatchReplications, GaussianPairDGP, RctLinearDGP
from .errors import ConfigError, DegenerateRule, DomainError

# The DegenerateRule gate reads the pass rate of the first batches whose sizes
# sum to at least this many replications; it is also the smallest allowed reps.
PILOT_REPS = 1000
PASS_RATE_FLOOR = 0.02
PASS_RATE_CEILING = 0.98

# Budget guard on reps * (1 + p)^2, which a run's peak memory grows with, by
# 22-36 bytes per unit at p = 1, 3 and 10: at the budget, 10,000,000 RCT
# replications at p = 1 peaked at 1.5 GB.
MAX_REP_CELLS = 40_000_000


@dataclass(frozen=True)
class ReportingRule:
    """Pass/fail rule q(T_n) <= threshold on the standardized check.

    Built-in kinds: ``two_sided_t`` (|T_j| for coordinate ``coord``),
    ``wald`` (T'T), ``max_abs`` (max_j |T_j|), and ``custom`` with a
    user-supplied vectorized q. Built-ins are validated analytically: the
    pass probability under a standard normal limit must be strictly inside
    (0, 1), which holds exactly when the threshold is positive and finite.
    """

    kind: str
    threshold: float
    coord: int = 0
    q: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("two_sided_t", "wald", "max_abs", "custom"):
            raise ConfigError(f"unknown rule kind {self.kind!r}")
        if self.kind == "custom":
            if self.q is None:
                raise ConfigError("custom rules require a q callable")
            return
        a = float(self.threshold)
        if not math.isfinite(a) or a <= 0.0:
            raise DegenerateRule(
                f"{self.kind} rule with threshold {a} passes with probability 0 or 1"
            )

    def q_values(self, t_stats: np.ndarray) -> np.ndarray:
        t_stats = np.atleast_2d(t_stats)
        if self.kind == "two_sided_t":
            return np.abs(t_stats[:, self.coord])
        if self.kind == "wald":
            return np.einsum("bj,bj->b", t_stats, t_stats)
        if self.kind == "max_abs":
            return np.abs(t_stats).max(axis=1)
        return np.asarray(self.q(t_stats), dtype=float)

    def passes(self, t_stats: np.ndarray) -> np.ndarray:
        return self.q_values(t_stats) <= self.threshold

    def pass_probability(self, p_gamma: int) -> float | None:
        """Exact pass probability under a N(0, I) limit; None for custom.

        P(|Z| <= a) = erf(a / sqrt(2)), which keeps its relative precision at
        small a, where 2 Phi(a) - 1 cancels.
        """
        a = self.threshold
        if self.kind == "two_sided_t":
            return math.erf(a * SQRT1_2)
        if self.kind == "wald":
            return chi2_cdf(a, p_gamma)
        if self.kind == "max_abs":
            return math.erf(a * SQRT1_2) ** p_gamma
        return None


@dataclass(frozen=True)
class TruncatedOracle:
    cond_var_zgamma: float
    cond_var_zs: float
    cond_mean_zs: float


def truncated_oracle(rho: float, t: float) -> TruncatedOracle:
    """Closed-form conditional moments of (Z_s, Z_g) given |Z_g| <= t.

    (Z_s, Z_g) is standard bivariate normal with correlation rho; the
    conditional mean of Z_s is zero by symmetry of the truncation.
    """
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie strictly inside (-1, 1), got {rho}")
    if not t > 0.0 or not math.isfinite(t):
        raise DomainError(f"truncation point must be positive and finite, got {t}")
    if t < 0.01:
        # The closed form cancels at small t, and 2 Phi(t) - 1 is 0.0 below t = 1e-16;
        # the series t^2/3 (1 - 2t^2/15) is off by at most 6.4e-11 relative here.
        t_sq = t * t
        var_zg = t_sq / 3.0 * (1.0 - 2.0 * t_sq / 15.0)
    else:
        mass = 2.0 * normal_cdf(t) - 1.0
        # t phi(t) first: 2 t overflows at the largest t, where phi(t) is 0.
        var_zg = 1.0 - 2.0 * (t * normal_pdf(t)) / mass
    return TruncatedOracle(
        cond_var_zgamma=float(var_zg),
        cond_var_zs=float((1.0 - rho**2) + rho**2 * var_zg),
        cond_mean_zs=0.0,
    )


@dataclass(frozen=True)
class SelectionConfig:
    """One conditional-distribution experiment: DGP, rule, sizes, seed."""

    dgp: GaussianPairDGP | RctLinearDGP
    rule: ReportingRule
    n: int
    reps: int
    seed: int

    def __post_init__(self):
        if self.reps < PILOT_REPS:
            raise ConfigError(f"reps must be at least {PILOT_REPS}, got {self.reps}")
        # Sample sizes reach numpy's samplers as C longs.
        if self.n >= 2**63:
            raise ConfigError(f"n must be below 2**63, got {self.n}")
        if self.n < self.dgp.p_gamma + 2:
            raise ConfigError(f"n = {self.n} too small for p = {self.dgp.p_gamma}")
        cells = self.reps * (1 + self.dgp.p_gamma) ** 2
        if cells > MAX_REP_CELLS:
            raise ConfigError(
                f"reps * (1 + p)^2 = {cells:.3g} exceeds the budget {MAX_REP_CELLS:.3g}"
            )
        if self.rule.kind == "two_sided_t" and not 0 <= self.rule.coord < self.dgp.p_gamma:
            raise ConfigError(
                f"rule coordinate {self.rule.coord} is not one of the "
                f"{self.dgp.p_gamma} checks"
            )


@dataclass(frozen=True)
class MetricWithSE:
    value: float
    mc_se: float


@dataclass(frozen=True)
class ConditionSummary:
    count: int
    mean: MetricWithSE
    variance: MetricWithSE
    coverage: MetricWithSE
    rejection_rate: MetricWithSE


@dataclass(frozen=True)
class ConditionalStats:
    n_reps: int
    pass_rate: float
    pass_rate_se: float
    c_true: float
    estimators: dict[str, dict[str, ConditionSummary]] = field(default_factory=dict)


def _standardize_checks(record: BatchReplications, n: int):
    """T_n = sqrt(n) L^{-1} gamma_hat with L each replication's validated factor of Sigma_gg."""
    return math.sqrt(n) * _fixed_order.solve_lower(record.chol_gg, record.gamma_hat)


def simulate_replications(
    config: SelectionConfig, threads: int | None = None
) -> BatchReplications:
    """Run the experiment and return one record of every replication, with t_stats and passed.

    Batch b draws from its own stream spawned from the seed
    (:func:`_threads.run_seeded`), so results do not depend on the worker
    count. The head batches, the fewest from the start that hold at least
    PILOT_REPS replications, run first: when their pass rate is outside
    [0.02, 0.98] the run aborts with DegenerateRule before the remaining
    batches are drawn. Otherwise they are reported with the rest, so every
    replication drawn is reported.
    """
    dgp, n = config.dgp, config.n

    def estimate(draws) -> BatchReplications:
        # Values that overflow surface as the validation errors, not numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            stage = dgp.estimate_replications(draws, n)
            t_stats = _standardize_checks(stage, n)
            return replace(stage, t_stats=t_stats, passed=config.rule.passes(t_stats))

    def gate(head: BatchReplications) -> None:
        head_rate = float(head.passed.mean())
        if not PASS_RATE_FLOOR <= head_rate <= PASS_RATE_CEILING:
            raise DegenerateRule(
                f"head pass rate {head_rate:.4f} outside "
                f"[{PASS_RATE_FLOOR}, {PASS_RATE_CEILING}]; the rule is degenerate under this DGP"
            )

    return run_seeded(
        config.seed, config.reps, lambda rng, size: dgp.draw_replications(rng, n, size),
        estimate, threads, gate, PILOT_REPS,
    )


def _with_batch_se(pooled: float, per_batch: np.ndarray, counts: np.ndarray, least: int):
    """pooled, with an MC SE from the spread of per_batch over the batches.

    A batch holding fewer than ``least`` masked values does not count.
    """
    vals = per_batch[counts >= least]
    vals = vals[np.isfinite(vals)]
    se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size >= 2 else float("nan")
    return MetricWithSE(value=pooled, mc_se=se)


def _condition_summary(
    est: np.ndarray, se: np.ndarray, mask: np.ndarray, c_true: float, starts: np.ndarray
) -> ConditionSummary:
    """Pooled moments of the masked replications; each batch's at once, over the batch axis."""
    count = int(mask.sum())
    if count == 0:
        nan = MetricWithSE(float("nan"), float("nan"))
        return ConditionSummary(count=0, mean=nan, variance=nan, coverage=nan, rejection_rate=nan)
    err = np.abs(est - c_true)
    covered, rejected = err <= Z975 * se, err > Z975 * se
    counts = np.add.reduceat(mask, starts, dtype=float)

    def batch_sums(values):
        return np.add.reduceat(np.where(mask, values, 0.0), starts)

    # A batch with too few masked values gives NaN or inf here and is then left out.
    with np.errstate(divide="ignore", invalid="ignore"):
        means = batch_sums(est) / counts
        dev = est - np.repeat(means, np.diff(starts, append=mask.size))
        variances = batch_sums(dev * dev) / (counts - 1.0)
        coverage, rejection = batch_sums(covered) / counts, batch_sums(rejected) / counts
    kept = est[mask]
    return ConditionSummary(
        count=count,
        mean=_with_batch_se(float(kept.mean()), means, counts, 1),
        variance=_with_batch_se(
            float(kept.var(ddof=1)) if count >= 2 else float("nan"), variances, counts, 2
        ),
        coverage=_with_batch_se(float(covered[mask].mean()), coverage, counts, 1),
        rejection_rate=_with_batch_se(float(rejected[mask].mean()), rejection, counts, 1),
    )


def summarize(draws: BatchReplications, c_true: float) -> ConditionalStats:
    """Pool conditional moments, coverage, and test size with batch MC SEs."""
    passed = draws.passed
    reps = passed.size
    starts = np.cumsum([0] + batch_sizes(reps, _N_BATCHES)[:-1])
    pass_rate = float(passed.mean())
    estimators: dict[str, dict[str, ConditionSummary]] = {}
    for name, (est, se) in draws.estimators().items():
        estimators[name] = {
            "all": _condition_summary(est, se, np.ones_like(passed), c_true, starts),
            "pass": _condition_summary(est, se, passed, c_true, starts),
            "fail": _condition_summary(est, se, ~passed, c_true, starts),
        }
    return ConditionalStats(
        n_reps=reps,
        pass_rate=pass_rate,
        pass_rate_se=float(math.sqrt(pass_rate * (1.0 - pass_rate) / reps)),
        c_true=c_true,
        estimators=estimators,
    )


def run_conditional_experiment(
    config: SelectionConfig, threads: int | None = None
) -> ConditionalStats:
    """Simulate, apply the rule, and summarize; deterministic given the seed."""
    return summarize(simulate_replications(config, threads=threads), config.dgp.c_true)

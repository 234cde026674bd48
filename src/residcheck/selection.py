"""Monte Carlo lab for selective reporting and pre-test independence.

A reporting rule passes when a continuous function q of the standardized
check vector T_n = sqrt(n) * Sigma_gg_hat^{-1/2} gamma_hat falls at or below
a threshold. The lab simulates a DGP, applies the rule each replication, and
summarizes the distribution of the short, long, and residualized estimators
conditional on passing and on failing, against the closed-form
truncated-normal oracle available in the scalar Gaussian case:

    Var(Z_g | |Z_g| <= t) = 1 - 2 t phi(t) / (2 Phi(t) - 1)
    Var(Z_s | |Z_g| <= t) = (1 - rho^2) + rho^2 Var(Z_g | |Z_g| <= t)

Monte Carlo standard errors come from splitting the replications into
contiguous batches (50 by default); the batches double as the unit of
deterministic parallelism, so results are byte-identical at any thread
count. The first batches that hold at least 1,000 replications also gate the
run: output is emitted only when their pass rate lies in [0.02, 0.98], and
they are reported with the rest, so no replication is drawn only to gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _fixed_order
from ._distributions import Z975, chi2_cdf, normal_cdf, normal_pdf
from ._threads import batch_sizes, concat_field, map_batches
from .dgps import BatchReplications, GaussianPairDGP, RctLinearDGP
from .errors import ConfigError, DegenerateRule, DomainError

# The DegenerateRule gate reads the pass rate of the first batches whose sizes
# sum to at least this many replications; it is also the smallest allowed reps.
PILOT_REPS = 1000
PASS_RATE_FLOOR = 0.02
PASS_RATE_CEILING = 0.98

# Seeded batches of replications, which also give the Monte Carlo SEs.
_N_BATCHES = 50


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
        """Exact pass probability under a N(0, I) limit; None for custom."""
        a = self.threshold
        if self.kind == "two_sided_t":
            return 2.0 * normal_cdf(a) - 1.0
        if self.kind == "wald":
            return chi2_cdf(a, p_gamma)
        if self.kind == "max_abs":
            return (2.0 * normal_cdf(a) - 1.0) ** p_gamma
        return None


def two_sided_t_rule(threshold: float, coord: int = 0) -> ReportingRule:
    return ReportingRule(kind="two_sided_t", threshold=threshold, coord=coord)


def wald_rule(threshold: float) -> ReportingRule:
    return ReportingRule(kind="wald", threshold=threshold)


def max_abs_rule(threshold: float) -> ReportingRule:
    return ReportingRule(kind="max_abs", threshold=threshold)


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
    mass = 2.0 * normal_cdf(t) - 1.0
    var_zg = 1.0 - 2.0 * t * normal_pdf(t) / mass
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
    oracle_sigma: bool = False

    def __post_init__(self):
        if self.reps < PILOT_REPS:
            raise ConfigError(f"reps must be at least {PILOT_REPS}, got {self.reps}")
        if self.n < self.dgp.p_gamma + 2:
            raise ConfigError(f"n = {self.n} too small for p = {self.dgp.p_gamma}")
        if self.rule.kind == "two_sided_t" and not 0 <= self.rule.coord < self.dgp.p_gamma:
            raise ConfigError(
                f"rule coordinate {self.rule.coord} is not one of the "
                f"{self.dgp.p_gamma} checks"
            )


@dataclass(frozen=True)
class ReplicationDraws:
    """Aligned per-replication arrays plus the pass indicator."""

    config: SelectionConfig
    c_short: np.ndarray
    c_resid: np.ndarray
    se_short: np.ndarray
    se_resid: np.ndarray
    gamma_hat: np.ndarray
    t_stats: np.ndarray
    passed: np.ndarray
    c_long: np.ndarray | None = None
    se_long: np.ndarray | None = None

    @property
    def c_true(self) -> float:
        return self.config.dgp.c_true

    def estimators(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        out = {"short": (self.c_short, self.se_short)}
        if self.c_long is not None:
            out["long"] = (self.c_long, self.se_long)
        out["residualized"] = (self.c_resid, self.se_resid)
        return out


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


def _standardize_checks(batch: BatchReplications, n: int, oracle_gg: np.ndarray | None):
    """T_n = sqrt(n) L^{-1} gamma_hat with L the Cholesky factor of Sigma_gg.

    Sigma_gg is each replication's estimate, or ``oracle_gg`` for all of them.
    """
    sigma_gg = batch.sigma_gg
    if oracle_gg is not None:
        sigma_gg = np.broadcast_to(oracle_gg, sigma_gg.shape)
    chol = _fixed_order.cholesky(sigma_gg)
    return math.sqrt(n) * _fixed_order.solve_lower(chol, batch.gamma_hat)


def simulate_replications(config: SelectionConfig, threads: int | None = None) -> ReplicationDraws:
    """Run the experiment and return per-replication arrays.

    Batch b draws its generator from SeedSequence(seed).spawn, so results do
    not depend on the worker count. The head batches, the fewest from the
    start that hold at least PILOT_REPS replications, run first: when their
    pass rate is outside [0.02, 0.98] the run aborts with DegenerateRule
    before the remaining batches are drawn. Otherwise they are reported
    with the rest, so every replication drawn is reported.
    """
    sizes = batch_sizes(config.reps, _N_BATCHES)
    children = np.random.SeedSequence(config.seed).spawn(len(sizes))
    oracle_gg = None
    if config.oracle_sigma:
        oracle_gg = config.dgp.population_covariance(config.n).sigma_gamma_gamma

    def run_batch(b: int) -> tuple[BatchReplications, np.ndarray, np.ndarray]:
        rng = np.random.default_rng(children[b])
        batch = config.dgp.replicate_batch(rng, config.n, sizes[b])
        t_stats = _standardize_checks(batch, config.n, oracle_gg)
        return batch, t_stats, config.rule.passes(t_stats)

    head = int(np.searchsorted(np.cumsum(sizes), PILOT_REPS)) + 1
    parts = map_batches(run_batch, head, threads)
    head_rate = float(np.concatenate([passed for _, _, passed in parts]).mean())
    if not PASS_RATE_FLOOR <= head_rate <= PASS_RATE_CEILING:
        raise DegenerateRule(
            f"pilot pass rate {head_rate:.4f} outside "
            f"[{PASS_RATE_FLOOR}, {PASS_RATE_CEILING}]; the rule is degenerate under this DGP"
        )
    parts += map_batches(lambda i: run_batch(head + i), len(sizes) - head, threads)

    batches, t_parts, passed_parts = zip(*parts)
    return ReplicationDraws(
        config=config,
        c_short=concat_field(batches, "c_short"),
        c_resid=concat_field(batches, "c_resid"),
        se_short=concat_field(batches, "se_short"),
        se_resid=concat_field(batches, "se_resid"),
        gamma_hat=concat_field(batches, "gamma_hat"),
        t_stats=np.concatenate(t_parts),
        passed=np.concatenate(passed_parts),
        c_long=concat_field(batches, "c_long"),
        se_long=concat_field(batches, "se_long"),
    )


def _metric_with_batch_se(
    values: np.ndarray, mask: np.ndarray, stat: Callable, slices: list[slice], least: int = 1
) -> MetricWithSE:
    """stat of the masked values, with an MC SE from its spread over the batches.

    A batch holding fewer than ``least`` masked values does not count.
    """
    vals = np.array([stat(values[s][mask[s]]) for s in slices if mask[s].sum() >= least])
    vals = vals[np.isfinite(vals)]
    if vals.size >= 2:
        se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    else:
        se = float("nan")
    pooled = float(stat(values[mask])) if mask.sum() >= least else float("nan")
    return MetricWithSE(value=pooled, mc_se=se)


def _condition_summary(
    est: np.ndarray, se: np.ndarray, mask: np.ndarray, c_true: float, slices: list[slice]
) -> ConditionSummary:
    count = int(mask.sum())
    if count == 0:
        nan = MetricWithSE(float("nan"), float("nan"))
        return ConditionSummary(count=0, mean=nan, variance=nan, coverage=nan, rejection_rate=nan)
    err = np.abs(est - c_true)
    return ConditionSummary(
        count=count,
        mean=_metric_with_batch_se(est, mask, np.mean, slices),
        variance=_metric_with_batch_se(est, mask, lambda v: v.var(ddof=1), slices, least=2),
        coverage=_metric_with_batch_se(err <= Z975 * se, mask, np.mean, slices),
        rejection_rate=_metric_with_batch_se(err > Z975 * se, mask, np.mean, slices),
    )


def summarize(draws: ReplicationDraws) -> ConditionalStats:
    """Pool conditional moments, coverage, and test size with batch MC SEs."""
    config = draws.config
    sizes = batch_sizes(config.reps, _N_BATCHES)
    slices = []
    start = 0
    for s in sizes:
        slices.append(slice(start, start + s))
        start += s
    passed = draws.passed
    pass_rate = float(passed.mean())
    estimators: dict[str, dict[str, ConditionSummary]] = {}
    for name, (est, se) in draws.estimators().items():
        estimators[name] = {
            "all": _condition_summary(est, se, np.ones_like(passed), draws.c_true, slices),
            "pass": _condition_summary(est, se, passed, draws.c_true, slices),
            "fail": _condition_summary(est, se, ~passed, draws.c_true, slices),
        }
    return ConditionalStats(
        n_reps=config.reps,
        pass_rate=pass_rate,
        pass_rate_se=float(math.sqrt(pass_rate * (1.0 - pass_rate) / config.reps)),
        c_true=draws.c_true,
        estimators=estimators,
    )


def run_conditional_experiment(
    config: SelectionConfig, threads: int | None = None
) -> ConditionalStats:
    """Simulate, apply the rule, and summarize; deterministic given the seed."""
    return summarize(simulate_replications(config, threads=threads))

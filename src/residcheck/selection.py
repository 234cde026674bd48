"""Monte Carlo lab for selective reporting and pre-test independence.

A reporting rule passes when a continuous function q of the standardized
check vector T_n = sqrt(n) * Sigma_gg_hat^{-1/2} gamma_hat falls at or below
a threshold. The lab simulates a DGP, applies the rule each replication, and
summarizes the distribution of the short, long, and residualized estimators
conditional on passing and on failing, against the closed-form
truncated-normal oracle available in the scalar Gaussian case:

    Var(Z_g | |Z_g| <= t) = 1 - 2 t phi(t) / (2 Phi(t) - 1)
    Var(Z_s | |Z_g| <= t) = (1 - rho^2) + rho^2 Var(Z_g | |Z_g| <= t)

Replications are drawn in the labs' seeded batch frame
(:func:`_threads.run_seeded`), which always splits them into 50 contiguous
batches; each batch draws from its own seeded stream, so results are
byte-identical at any thread count. The batches only seed the streams and
split the work. The first batches that hold at least 1,000 replications
also gate the run: output is emitted only when their pass rate lies in
[0.02, 0.98], and they are reported with the rest, so no replication is
drawn only to gate.

A run draws its batches in stacks of at most 4,096 replications, and
estimates once per stack: one covariance validation, whose Cholesky factor
standardizes the checks where it is made, so the stack's
:class:`dgps.BatchReplications` carries T_n, and one application of the
rule to T_n, recording the pass indicator. The head batches end a stack,
and the gate reads them before any later batch is drawn (the frame's head
gate).

The summary pools each side of the rule over its m replications, with
Monte Carlo SEs i.i.d. over them (Morris, White & Crowther 2019, Stat. Med.
38): sqrt(var / m) for the mean, sqrt((m4 - var^2 (m - 3)/(m - 1)) / m) for
the variance, with m4 the mean fourth central power, and sqrt(r (1 - r) / m)
for a rate r; each is NaN below m = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._distributions import SQRT1_2, Z975, chi2_cdf, normal_cdf, normal_pdf
from ._threads import run_seeded
from .dgps import BatchReplications, GaussianPairDGP, RctLinearDGP
from .errors import ConfigError, DegenerateRule, DomainError

# The DegenerateRule gate reads the pass rate of the first batches whose sizes
# sum to at least this many replications; it is also the smallest allowed reps.
PILOT_REPS = 1000
PASS_RATE_FLOOR = 0.02
PASS_RATE_CEILING = 0.98

# Budget guard on reps * (1 + p)^2. At the budget, RCT runs at p = 1, 3 and 10
# (10,000,000, 2,500,000 and 330,578 replications) peaked at 1,375, 554 and
# 203 MiB, 36, 15 and 5 bytes per unit.
MAX_REP_CELLS = 40_000_000


@dataclass(frozen=True)
class ReportingRule:
    """Pass/fail rule q(T_n) <= threshold on the standardized check.

    Kinds: ``two_sided_t`` (|T_j| for coordinate ``coord``), ``wald``
    (T'T) and ``max_abs`` (max_j |T_j|). A rule is validated analytically:
    the pass probability under a standard normal limit must be strictly
    inside (0, 1), which holds exactly when the threshold is positive and
    finite.
    """

    kind: str
    threshold: float
    coord: int = 0

    def __post_init__(self):
        if self.kind not in ("two_sided_t", "wald", "max_abs"):
            raise ConfigError(f"unknown rule kind {self.kind!r}")
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
        return np.abs(t_stats).max(axis=1)

    def passes(self, t_stats: np.ndarray) -> np.ndarray:
        return self.q_values(t_stats) <= self.threshold

    def pass_probability(self, p_gamma: int) -> float:
        """Exact pass probability under a N(0, I) limit.

        P(|Z| <= a) = erf(a / sqrt(2)), which keeps its relative precision at
        small a, where 2 Phi(a) - 1 cancels.
        """
        a = self.threshold
        if self.kind == "two_sided_t":
            return math.erf(a * SQRT1_2)
        if self.kind == "wald":
            return chi2_cdf(a, p_gamma)
        return math.erf(a * SQRT1_2) ** p_gamma


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


def simulate_replications(config: SelectionConfig) -> BatchReplications:
    """Run the experiment and return one record of every replication, with passed.

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
            stack = dgp.estimate_replications(draws, n)
            return replace(stack, passed=config.rule.passes(stack.t_stats))

    def gate(head: BatchReplications) -> None:
        head_rate = float(head.passed.mean())
        if not PASS_RATE_FLOOR <= head_rate <= PASS_RATE_CEILING:
            raise DegenerateRule(
                f"head pass rate {head_rate:.4f} outside "
                f"[{PASS_RATE_FLOOR}, {PASS_RATE_CEILING}]; the rule is degenerate under this DGP"
            )

    return run_seeded(
        config.seed, config.reps, lambda rng, size, _: dgp.draw_replications(rng, n, size),
        estimate, gate, PILOT_REPS, scratch=lambda size: np.empty(0),
    )


def _condition_summary(
    est: np.ndarray, se: np.ndarray, mask: np.ndarray, c_true: float
) -> ConditionSummary:
    """Pooled moments of the m masked replications, with i.i.d. MC SEs (NaN below m = 2)."""
    m = int(mask.sum())
    nan = float("nan")
    if m == 0:
        none = MetricWithSE(nan, nan)
        return ConditionSummary(count=0, mean=none, variance=none, coverage=none, rejection_rate=none)
    kept = est[mask]
    err, bound = np.abs(kept - c_true), Z975 * se[mask]
    mean = float(kept.mean())
    var = var_se = nan
    if m >= 2:
        # kept.var(ddof=1) bit for bit; squared again, the fourth central powers.
        sq = kept - mean
        sq *= sq
        var = float(np.add.reduce(sq) / (m - 1))
        sq *= sq
        m4 = float(np.add.reduce(sq) / m)
        # The max absorbs rounding only.
        var_se = math.sqrt(max(m4 - var * var * (m - 3) / (m - 1), 0.0) / m)

    def rate(flags: np.ndarray) -> MetricWithSE:
        r = float(flags.mean())
        return MetricWithSE(r, math.sqrt(r * (1.0 - r) / m) if m >= 2 else nan)

    return ConditionSummary(
        count=m,
        mean=MetricWithSE(mean, math.sqrt(var) / math.sqrt(m)),
        variance=MetricWithSE(var, var_se),
        coverage=rate(err <= bound),
        rejection_rate=rate(err > bound),
    )


def summarize(draws: BatchReplications, c_true: float) -> ConditionalStats:
    """Pool conditional moments, coverage, and test size with i.i.d. MC SEs."""
    passed = draws.passed
    reps = passed.size
    pass_rate = float(passed.mean())
    estimators: dict[str, dict[str, ConditionSummary]] = {}
    for name, (est, se) in draws.estimators().items():
        estimators[name] = {
            "all": _condition_summary(est, se, np.ones_like(passed), c_true),
            "pass": _condition_summary(est, se, passed, c_true),
            "fail": _condition_summary(est, se, ~passed, c_true),
        }
    return ConditionalStats(
        n_reps=reps,
        pass_rate=pass_rate,
        pass_rate_se=float(math.sqrt(pass_rate * (1.0 - pass_rate) / reps)),
        c_true=c_true,
        estimators=estimators,
    )


def run_conditional_experiment(config: SelectionConfig) -> ConditionalStats:
    """Simulate, apply the rule, and summarize; deterministic given the seed."""
    return summarize(simulate_replications(config), config.dgp.c_true)

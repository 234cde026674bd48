"""Finite-sample spread of the residualized CI: the small-m factor f(m, p), and nominal coverage.

The reported SE of the residualized estimate treats Lambda as known and
divides the residual variance by m. With m independent units (rows, or
clusters) and p checks, the estimate's spread over its mean reported SE is
about

    f(m, p) = sqrt((1 + p / (m - p - 2)) * m / (m - p - 1)),

the variance cost of estimating Lambda times the degrees of freedom the
residual variance loses. Under clusters m is the cluster count, and the
baseline's own ratio, which the cluster-robust SE brings, multiplies f.
Each case's band is four standard errors of its log ratio, by the delta
method over its own replications. Sizes and seeds are fixed.
"""

import math

import numpy as np

from residcheck._distributions import Z975
from residcheck.dgps import RctLinearDGP
from residcheck.rct import residualized_estimator
from residcheck.selection import ReportingRule, SelectionConfig, simulate_replications

from reference import draw_clustered

BANDS = 4.0
IID_P, IID_REPS = 10, 5000
IID_N_SEEDS = {100: 1701, 200: 1702, 2000: 1703}
CLUSTER_N, CLUSTER_P, CLUSTER_REPS = 2000, 3, 1500
CLUSTER_G_SEEDS = {20: 1711, 50: 1713, 200: 1712}


def small_m_factor(m: int, p: int) -> float:
    return math.sqrt((1.0 + p / (m - p - 2)) * m / (m - p - 1))


def log_ratio(est: np.ndarray, se: np.ndarray) -> tuple[float, np.ndarray]:
    """log(sd(est) / mean(se)), and each replication's term of its delta-method expansion."""
    dev = est - est.mean()
    var, mean_se = float(dev @ dev) / (est.size - 1), float(se.mean())
    return 0.5 * math.log(var) - math.log(mean_se), 0.5 * dev * dev / var - se / mean_se


def band(terms: np.ndarray) -> float:
    return BANDS * float(terms.std(ddof=1)) / math.sqrt(terms.size)


def coverage_band(reps: int) -> float:
    return BANDS * math.sqrt(0.95 * 0.05 / reps)


def iid_case(n: int, seed: int) -> tuple[str, bool]:
    beta = np.random.default_rng(170).uniform(-0.6, 0.6, IID_P)
    dgp = RctLinearDGP(tau=1.0, beta=beta, interaction=np.zeros(IID_P))
    rule = ReportingRule(kind="two_sided_t", threshold=1.96)
    config = SelectionConfig(dgp=dgp, rule=rule, n=n, reps=IID_REPS, seed=seed)
    record = simulate_replications(config)
    est, se = record.c_resid, record.se_resid
    got, terms = log_ratio(est, se)
    want = small_m_factor(n, IID_P)
    ok = abs(got - math.log(want)) <= band(terms)
    detail = (
        f"iid n = {n}: ratio {math.exp(got):.4f}, f {want:.4f}, "
        f"band x/{math.exp(band(terms)):.4f}"
    )
    if n == max(IID_N_SEEDS):
        coverage = float(np.mean(np.abs(est - dgp.c_true) <= Z975 * se))
        ok &= abs(coverage - 0.95) <= coverage_band(IID_REPS)
        detail += f", coverage {coverage:.4f}"
    return detail, ok


def clustered_case(groups: int, seed: int) -> tuple[str, bool]:
    rng = np.random.default_rng(seed)
    rows = np.empty((CLUSTER_REPS, 4))
    for r in range(CLUSTER_REPS):
        data, ids = draw_clustered(rng, CLUSTER_N, groups)
        point, sigma = residualized_estimator(data, cluster_ids=ids)
        rows[r] = point.c_r, sigma.se_r, point.c_hat, sigma.se_c
    resid, resid_terms = log_ratio(rows[:, 0], rows[:, 1])
    base, base_terms = log_ratio(rows[:, 2], rows[:, 3])
    want = small_m_factor(groups, CLUSTER_P)
    terms = resid_terms - base_terms
    ok = abs(resid - base - math.log(want)) <= band(terms)
    detail = (
        f"clustered G = {groups}: ratio {math.exp(resid):.4f}, baseline {math.exp(base):.4f}, "
        f"f x baseline {want * math.exp(base):.4f}, band x/{math.exp(band(terms)):.4f}"
    )
    if groups == max(CLUSTER_G_SEEDS):
        coverage = float(np.mean(np.abs(rows[:, 0] - 1.0) <= Z975 * rows[:, 1]))
        ok &= abs(coverage - 0.95) <= coverage_band(CLUSTER_REPS)
        detail += f", coverage {coverage:.4f}"
    return detail, ok


def test_residualized_spread_follows_the_small_m_factor():
    cases = [iid_case(n, seed) for n, seed in IID_N_SEEDS.items()]
    cases += [clustered_case(g, seed) for g, seed in CLUSTER_G_SEEDS.items()]
    print("\n".join(detail for detail, _ in cases))
    assert all(ok for _, ok in cases), [detail for detail, ok in cases if not ok]

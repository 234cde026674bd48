"""Acceptance suite.

One test per exit criterion; each prints a single pass/fail line (run pytest
with -s to see them inline). Heavy Monte Carlo runs are shared through
module-scoped fixtures and use two worker threads, which does not affect any
output byte.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from residcheck import (
    InfluenceContributions,
    JointCovariance,
    joint_covariance,
    residualize,
)
from residcheck.dgps import GaussianPairDGP, RctLinearDGP
from residcheck.misspec import _adjustment, measure_gaussian_bias
from residcheck.selection import (
    ReportingRule,
    SelectionConfig,
    run_conditional_experiment,
    truncated_oracle,
)
from residcheck._threads import batch_sizes, map_batches

from conftest import saddle_point_misses
from reference import (
    beta_long_limit,
    beta_resid_limit,
    cross_score_bias,
    draw,
    sample_moments,
)

THREADS = 2
RHOS = (0.0, 0.5, 0.8)
SELECTION_N = 400
SELECTION_REPS = 100_000


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def selection_runs():
    runs = {}
    for i, rho in enumerate(RHOS):
        config = SelectionConfig(
            dgp=GaussianPairDGP.from_rho(rho),
            rule=ReportingRule(kind="two_sided_t", threshold=1.96),
            n=SELECTION_N,
            reps=SELECTION_REPS,
            seed=52980 + i,
        )
        runs[rho] = run_conditional_experiment(config, threads=THREADS)
    return runs


def test_criterion_1_table2_internal_consistency():
    info = 0.0819
    n = 408
    sigma_c_sq = 0.0465**2 * n
    sigma = JointCovariance(
        sigma_c_sq, np.array([math.sqrt(info * sigma_c_sq)]), np.eye(1), n
    )
    se_c = sigma.se_c
    se_r = sigma.se_r
    ok = (
        abs(sigma.bias_reduction_factor - 0.9582) <= 0.0001
        and abs(se_r - 0.0446) <= 0.0005
        and abs(sigma.variance_reduction_pct - 8.19) <= 1e-9
    )
    criterion(
        1,
        ok,
        f"sqrt(1-I) = {sigma.bias_reduction_factor:.4f} (0.9582 +- 0.0001), "
        f"se_r = {se_r:.4f} (0.0446 +- 0.0005; 0.0445 after rounding), "
        f"variance reduction = {sigma.variance_reduction_pct:.2f}%",
    )
    assert se_c == pytest.approx(0.0465, rel=1e-12)


# Decomposition fixture rows: (coefficient, check value, product), all values
# stored at 4-decimal precision. The product column is authoritative for the
# total because the loan-amount coefficient rounds to -0.0000 at a check scale
# of ~1e3.
DECOMPOSITION_ROWS = [
    ("age", -0.0014, -0.4461, 0.0006),
    ("education_years", 0.0173, -0.0596, -0.0010),
    ("reads_newspaper", -0.0227, 0.0205, -0.0005),
    ("married", 0.0399, -0.0119, -0.0005),
    ("has_children", 0.1320, -0.0378, -0.0050),
    ("daily_laborer", 0.1156, -0.0559, -0.0065),
    ("paid_work_7d", 0.0349, -0.1295, -0.0045),
    ("paid_work_30d", -0.0090, 0.0975, -0.0009),
    ("durable_house", -0.0164, 0.0029, -0.0000),
    ("owns_farmland", -0.0193, 0.0124, -0.0002),
    ("no_food_loans", -0.0561, -0.0062, 0.0003),
    ("emergency_cash", -0.0190, -0.0342, 0.0006),
    ("worried_finances", -0.0563, -0.0219, 0.0012),
    ("worried_loans", -0.0834, -0.0312, 0.0026),
    ("loan_amount_worried", -0.0000, -856.2956, 0.0029),
    ("has_loans", 0.0116, 0.0268, 0.0003),
    ("moneylender_loans", 0.1242, -0.0211, -0.0026),
]


def test_criterion_2_decomposition_identity():
    lam = np.array([r[1] for r in DECOMPOSITION_ROWS])
    gamma = np.array([r[2] for r in DECOMPOSITION_ROWS])
    products = np.array([r[3] for r in DECOMPOSITION_ROWS])
    result = residualize(0.1090, gamma, lam)
    # Per-row: the library's lambda_k gamma_k matches each stored product up
    # to the 4-decimal rounding of all three stored numbers.
    row_tol = 0.5e-4 * (1.0 + np.abs(gamma) + np.abs(lam))
    rows_ok = bool(np.all(np.abs(result.decomposition - products) <= row_tol))
    total = float(products.sum())
    ok = rows_ok and abs(total - (-0.0130)) <= 0.0005
    criterion(
        2,
        ok,
        f"sum of per-row corrections = {total:.4f} (-0.0130 +- 0.0005), "
        f"all 17 rows consistent with their coefficients under 4-decimal rounding",
    )
    assert result.c_r == pytest.approx(0.1090 - result.correction, rel=1e-12)


def test_criterion_3_selection_oracle_equivalence(selection_runs):
    scale = SELECTION_N  # sigma_c = 1, so Var(Z) = n * Var(c_hat)
    details = []
    ok = True
    for rho in RHOS:
        stats = selection_runs[rho]
        oracle = truncated_oracle(rho, 1.96) if rho != 0.0 else None
        target_s = (1 - rho**2) + rho**2 * 0.7590
        v_s = stats.estimators["short"]["pass"].variance
        ok &= abs(v_s.value * scale - target_s) <= 3 * v_s.mc_se * scale
        v_r_pass = stats.estimators["residualized"]["pass"].variance
        v_r_fail = stats.estimators["residualized"]["fail"].variance
        ok &= abs(v_r_pass.value * scale - (1 - rho**2)) <= 3 * v_r_pass.mc_se * scale
        ok &= abs(v_r_pass.value - v_r_fail.value) <= 3 * math.hypot(
            v_r_pass.mc_se, v_r_fail.mc_se
        )
        details.append(
            f"rho={rho}: short|pass {v_s.value * scale:.4f} (oracle {target_s:.4f}), "
            f"resid|pass {v_r_pass.value * scale:.4f} (target {1 - rho**2:.2f})"
        )
        if oracle is not None:
            assert oracle.cond_var_zs == pytest.approx(target_s, abs=2e-4)
    criterion(3, ok, "; ".join(details))


def test_criterion_4_conditional_coverage(selection_runs):
    details = []
    ok = True
    for rho in RHOS:
        stats = selection_runs[rho]
        cov_pass = stats.estimators["residualized"]["pass"].coverage.value
        cov_fail = stats.estimators["residualized"]["fail"].coverage.value
        ok &= 0.94 <= cov_pass <= 0.96 and 0.94 <= cov_fail <= 0.96
        details.append(f"rho={rho}: resid coverage pass {cov_pass:.4f} fail {cov_fail:.4f}")
    short_pass = selection_runs[0.8].estimators["short"]["pass"].coverage.value
    ok &= short_pass > 0.96
    details.append(f"short|pass at rho=0.8 over-covers: {short_pass:.4f} > 0.96")
    criterion(4, ok, "; ".join(details))


def test_criterion_5_variance_ordering():
    dgp = RctLinearDGP(tau=1.0, beta=np.array([1.0]), interaction=np.array([2.0]), pi=0.25)
    n, reps, n_batches = 2000, 2000, 50
    sizes = batch_sizes(reps, n_batches)
    children = np.random.SeedSequence(411200).spawn(n_batches)

    def run_batch(b):
        draws = dgp.draw_replications(np.random.default_rng(children[b]), n, sizes[b])
        reps = dgp.estimate_replications(draws, n)
        return np.column_stack([reps.c_short, reps.c_long, reps.c_resid])

    ests = np.concatenate(map_batches(run_batch, n_batches, THREADS))
    var_s, var_l, var_r = ests.var(axis=0, ddof=1)
    batch_vars = np.array(
        [ests[sl].var(axis=0, ddof=1) for sl in np.split(np.arange(reps), n_batches)]
    )
    se_gap_sl = (batch_vars[:, 0] - batch_vars[:, 1]).std(ddof=1) / math.sqrt(n_batches)
    se_gap_lr = (batch_vars[:, 1] - batch_vars[:, 2]).std(ddof=1) / math.sqrt(n_batches)
    delta = beta_long_limit(dgp) - beta_resid_limit(dgp)
    _, _, sigma_gg = dgp.sigma_blocks()
    penalty = float(delta @ sigma_gg @ delta) / n
    gap_lr = var_l - var_r
    ok = (
        var_r < var_l < var_s
        and (var_s - var_l) > 3 * se_gap_sl
        and gap_lr > 3 * se_gap_lr
        and abs(gap_lr - penalty) <= 0.2 * penalty
    )
    criterion(
        5,
        ok,
        f"var(short) = {var_s:.5f} > var(long) = {var_l:.5f} > var(resid) = {var_r:.5f}, "
        f"long-resid gap {gap_lr:.6f} vs penalty {penalty:.6f} "
        f"({abs(gap_lr - penalty) / penalty:.1%} off, tolerance 20%)",
    )


def test_criterion_6_minimax_bias():
    pair = GaussianPairDGP.from_rho(0.5)
    n, reps = 10_000, 10_000
    m_resid = measure_gaussian_bias(pair, "optimal", 1.0, n=n, reps=reps, seed=62, threads=THREADS)
    m_short = measure_gaussian_bias(pair, "zero", 1.0, n=n, reps=reps, seed=64, threads=THREADS)
    target = math.sqrt(0.75)
    ok = (
        abs(m_resid.sqrt_n_bias - 0.8660) <= 3 * m_resid.mc_se
        and abs(m_short.sqrt_n_bias - 1.0) <= 3 * m_short.mc_se
    )

    lam = float(pair.lambda_opt[0])
    grid = [0.0, lam / 2, lam, 1.5 * lam, 2 * lam]
    mus = [0.5, 1.0, 2.0]
    matrix = cross_score_bias(pair, grid, mus, n=2000, reps=2500, seed=65, threads=THREADS)
    misses = saddle_point_misses(matrix, mus, grid.index(lam), target)
    ok = ok and not misses
    criterion(
        6,
        ok,
        f"resid bias under its worst case {m_resid.sqrt_n_bias:.4f} "
        f"(0.8660 +- {3 * m_resid.mc_se:.4f}), short bias {m_short.sqrt_n_bias:.4f} "
        f"(1.0 +- {3 * m_short.mc_se:.4f}), cross-score saddle point at the optimum "
        f"for mu in {mus}: {misses or 'every check holds'}",
    )
    assert m_resid.predicted == pytest.approx(target, abs=0.01)


def test_criterion_7_covariance_consistency():
    rng = np.random.default_rng(777)
    truth = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.0]])
    chol = np.linalg.cholesky(truth)
    ns = [500, 2000, 8000]
    errors = []
    for n in ns:
        errs = [
            np.linalg.norm(
                joint_covariance(
                    InfluenceContributions(rng.standard_normal((n, 3)) @ chol.T)
                ).full_matrix()
                - truth
            )
            for _ in range(200)
        ]
        errors.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(ns), np.log(errors), 1)[0])
    ok = -0.7 < slope < -0.3
    criterion(7, ok, f"log-log slope of ||Sigma_hat - Sigma|| vs n = {slope:.3f} in (-0.7, -0.3)")


def test_criterion_8_plugin_negligibility():
    pair = GaussianPairDGP.from_rho(0.5)
    # The lab's moment maps: the plug-in estimator and the one fixed at the true Lambda.
    plugin, oracle = _adjustment(pair, "optimal")[2], _adjustment(pair, pair.lambda_opt)[2]
    reps = 2000
    sds = {}
    for n, seed in ((2000, 81), (8000, 82)):
        rng = np.random.default_rng(seed)
        diffs = np.empty(reps)
        for r in range(reps):
            means, cov, _ = sample_moments(draw(pair, rng, n))
            diffs[r] = math.sqrt(n) * (plugin(means, cov, n) - oracle(means, None, n))
        sds[n] = float(diffs.std(ddof=1))
    ratio = sds[2000] / sds[8000]
    ok = ratio >= 1.7
    criterion(
        8,
        ok,
        f"sd of sqrt(n)(plug-in - oracle) shrinks {sds[2000]:.5f} -> {sds[8000]:.5f}, "
        f"factor {ratio:.2f} >= 1.7 as n quadruples",
    )


def _run_simulate(threads: int, *args) -> bytes:
    env = dict(os.environ)
    env["RESID_THREADS"] = str(threads)
    result = subprocess.run(
        [sys.executable, "-m", "residcheck.cli", "simulate", *args],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_criterion_9_determinism_across_thread_counts():
    commands = {
        "selection": (
            "--lab", "selection", "--rho", "0.5", "--rule", "wald",
            "--threshold", "3.841", "--n", "200", "--reps", "1000", "--seed", "7",
        ),
        "misspec": (
            "--lab", "misspec", "--rho", "0.5", "--mu", "0.5",
            "--lambda", "optimal", "--n", "400", "--reps", "1000", "--seed", "3",
        ),
    }
    ok = True
    details = []
    for name, args in commands.items():
        outputs = [_run_simulate(t, *args) for t in (1, 4, 8)]
        same = outputs[0] == outputs[1] == outputs[2]
        ok &= same
        payload = json.loads(outputs[0].decode())
        assert payload["config"]["seed"] in (7, 3)
        details.append(f"{name}: identical bytes at 1/4/8 threads = {same}")
    criterion(9, ok, "; ".join(details))

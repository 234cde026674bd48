import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, kstest, moment, norm, truncnorm

from residcheck import JointCovariance, _fixed_order, _threads
from residcheck._distributions import Z975
from residcheck._threads import _N_BATCHES, batch_sizes, join
from residcheck.dgps import (
    GaussianPairDGP,
    NormalDraws,
    RctLinearDGP,
    _bartlett,
    _normal_sums,
    _scatter,
)
from residcheck.errors import (
    ConfigError,
    DegenerateResidualVariance,
    DegenerateRule,
    DomainError,
    EmptyArm,
    InvalidCovariance,
    SingularCheckCovariance,
)
from residcheck.selection import (
    MAX_REP_CELLS,
    ReportingRule,
    SelectionConfig,
    run_conditional_experiment,
    simulate_replications,
    summarize,
    truncated_oracle,
)

from conftest import replications
from reference import bartlett, scatter

T_RULE = ReportingRule(kind="two_sided_t", threshold=1.96)
WALD_2 = ReportingRule(kind="wald", threshold=5.99)
WALD_3 = ReportingRule(kind="wald", threshold=7.815)


class TestTruncatedOracle:
    def test_independence_case(self):
        assert truncated_oracle(0.0, 1.5).cond_var_zs == pytest.approx(1.0, rel=1e-12)

    def test_wide_truncation_vanishes(self):
        oracle = truncated_oracle(0.5, 8.0)
        assert oracle.cond_var_zs == pytest.approx(1.0, abs=1e-10)
        assert oracle.cond_var_zgamma == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("t", [40.5, 1e200, 1e308])
    def test_huge_threshold_is_the_untruncated_law(self, t):
        oracle = truncated_oracle(0.5, t)
        assert (oracle.cond_var_zgamma, oracle.cond_var_zs) == (1.0, 1.0)

    @pytest.mark.parametrize("t", [1e-9, 1e-17, 1e-300, 5e-324])
    def test_tiny_threshold_is_the_series(self, t):
        # Var(Z_g | |Z_g| <= t) = t^2/3 (1 - 2t^2/15 + O(t^4)), where 2 Phi(t) - 1 cancels.
        oracle = truncated_oracle(0.5, t)
        assert oracle.cond_var_zgamma == pytest.approx(t * t / 3.0, rel=1e-15)
        assert oracle.cond_var_zs == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("t", [0.0099, 0.01])
    def test_both_sides_of_the_series_cutoff(self, t):
        assert truncated_oracle(0.5, t).cond_var_zgamma == pytest.approx(
            truncnorm.var(-t, t), rel=1e-9
        )

    def test_closed_form_at_conventional_threshold(self):
        oracle = truncated_oracle(0.5, 1.96)
        assert oracle.cond_var_zgamma == pytest.approx(0.7590, abs=2e-4)
        assert oracle.cond_var_zs == pytest.approx(0.9398, abs=2e-4)
        assert oracle.cond_mean_zs == 0.0

    def test_monte_carlo_cross_check(self):
        # Independent 1e7-draw oracle for the truncated second moment.
        rng = np.random.default_rng(99)
        z = rng.standard_normal(10_000_000)
        kept = z[np.abs(z) <= 1.96]
        assert truncated_oracle(0.3, 1.96).cond_var_zgamma == pytest.approx(
            kept.var(), abs=3 * kept.var() * np.sqrt(2.0 / kept.size) + 5e-4
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            truncated_oracle(1.0, 1.96)
        with pytest.raises(DomainError):
            truncated_oracle(0.2, 0.0)


class TestReportingRules:
    def test_builtin_thresholds_validated_analytically(self):
        with pytest.raises(DegenerateRule):
            ReportingRule(kind="two_sided_t", threshold=0.0)
        with pytest.raises(DegenerateRule):
            ReportingRule(kind="wald", threshold=-1.0)
        with pytest.raises(DegenerateRule):
            ReportingRule(kind="max_abs", threshold=float("inf"))

    def test_pass_probability_formulas(self):
        assert T_RULE.pass_probability(1) == pytest.approx(0.95, abs=1e-4)
        wald = ReportingRule(kind="wald", threshold=5.991464547107979)
        assert wald.pass_probability(2) == pytest.approx(0.95, rel=1e-9)
        a = float(norm.ppf((1.0 + np.sqrt(0.95)) / 2.0))
        max_abs = ReportingRule(kind="max_abs", threshold=a)
        assert max_abs.pass_probability(2) == pytest.approx(0.95, rel=1e-9)

    @pytest.mark.parametrize("kind", ["two_sided_t", "max_abs"])
    def test_pass_probability_at_tiny_thresholds(self, kind):
        # 2 Phi(a) - 1 is 0.0 at a = 1e-17; P(|Z| <= a) = erf(a / sqrt(2)) ~ a sqrt(2 / pi).
        tiny = ReportingRule(kind=kind, threshold=1e-17).pass_probability(1)
        assert tiny > 0.0
        assert tiny == pytest.approx(1e-17 * math.sqrt(2.0 / math.pi), rel=1e-15)
        small = ReportingRule(kind=kind, threshold=1e-9)
        want = math.erf(1e-9 / math.sqrt(2.0))
        assert small.pass_probability(1) == pytest.approx(want, rel=1e-15)
        # max_abs passes when every one of the p checks does; two_sided_t reads one.
        power = 3 if kind == "max_abs" else 1
        assert small.pass_probability(3) == pytest.approx(want**power, rel=1e-15)

    def test_q_values_shapes(self):
        t_stats = np.array([[0.5, -2.5], [1.0, 0.0]])
        second = ReportingRule(kind="two_sided_t", threshold=2.0, coord=1)
        assert np.allclose(second.q_values(t_stats), [2.5, 0.0])
        assert np.allclose(ReportingRule(kind="wald", threshold=2.0).q_values(t_stats), [6.5, 1.0])
        max_abs = ReportingRule(kind="max_abs", threshold=2.0)
        assert np.allclose(max_abs.q_values(t_stats), [2.5, 1.0])


def scalar_config(rho, reps=20_000, n=400, seed=7, rule=None, **kwargs):
    return SelectionConfig(
        dgp=GaussianPairDGP.from_rho(rho),
        rule=rule or T_RULE,
        n=n,
        reps=reps,
        seed=seed,
        **kwargs,
    )


class TestConditionalExperiment:
    def test_degenerate_rule_aborts(self):
        with pytest.raises(DegenerateRule):
            rule = ReportingRule(kind="two_sided_t", threshold=20.0)
            run_conditional_experiment(scalar_config(0.0, rule=rule))

    @pytest.mark.parametrize(
        "dgp",
        [GaussianPairDGP.from_rho(0.5), RctLinearDGP(beta=np.ones(3), interaction=np.zeros(3))],
        ids=["gaussian-p1", "rct-p3"],
    )
    def test_reps_budget_counts_the_checks(self, dgp):
        # reps (1 + p)^2 may reach the budget, not pass it; no replication is drawn here.
        most = MAX_REP_CELLS // (1 + dgp.p_gamma) ** 2
        SelectionConfig(dgp=dgp, rule=T_RULE, n=200, reps=most, seed=1)
        with pytest.raises(ConfigError, match="budget"):
            SelectionConfig(dgp=dgp, rule=T_RULE, n=200, reps=most + 1, seed=1)

    def test_n_fits_a_c_long(self):
        # numpy's samplers take n as a C long; no replication is drawn here.
        dgp = RctLinearDGP(beta=np.ones(3), interaction=np.zeros(3))
        SelectionConfig(dgp=dgp, rule=T_RULE, n=2**63 - 1, reps=1000, seed=1)
        with pytest.raises(ConfigError, match=r"below 2\*\*63"):
            SelectionConfig(dgp=dgp, rule=T_RULE, n=2**63, reps=1000, seed=1)

    def test_independent_case_has_no_distortion(self):
        stats = run_conditional_experiment(scalar_config(0.0, reps=20_000))
        for cond in ("pass", "fail"):
            for name in ("short", "residualized"):
                s = stats.estimators[name][cond]
                u = stats.estimators[name]["all"]
                assert abs(s.mean.value - u.mean.value) <= 3 * max(s.mean.mc_se, 1e-12)
                assert abs(s.variance.value - u.variance.value) <= 3 * np.hypot(
                    s.variance.mc_se, u.variance.mc_se
                )

    def test_conditional_variance_matches_oracle_at_high_correlation(self):
        rho, n = 0.8, 400
        stats = run_conditional_experiment(scalar_config(rho, reps=40_000))
        oracle = truncated_oracle(rho, 1.96)
        s = stats.estimators["short"]["pass"].variance
        assert s.value * n == pytest.approx(oracle.cond_var_zs, abs=3 * s.mc_se * n)
        r = stats.estimators["residualized"]["pass"].variance
        assert r.value * n == pytest.approx(1 - rho**2, abs=3 * r.mc_se * n)

    def test_wald_rule_pass_rate_matches_chi2_quantile(self):
        dgp = GaussianPairDGP(
            sigma_c_sq=1.0,
            sigma_c_gamma=np.array([0.4, 0.2]),
            sigma_gamma_gamma=np.eye(2),
        )
        rule = ReportingRule(kind="wald", threshold=5.991464547107979)
        config = SelectionConfig(dgp=dgp, rule=rule, n=400, reps=20_000, seed=11)
        stats = run_conditional_experiment(config)
        assert stats.pass_rate == pytest.approx(0.95, abs=3 * stats.pass_rate_se)

    def test_pretest_independence_correlations(self):
        rho = 0.5
        draws = simulate_replications(scalar_config(rho, reps=20_000))
        reps = draws.c_short.shape[0]
        mc_se = 1.0 / np.sqrt(reps)
        corr_resid = np.corrcoef(draws.c_resid, draws.gamma_hat[:, 0])[0, 1]
        corr_short = np.corrcoef(draws.c_short, draws.gamma_hat[:, 0])[0, 1]
        assert abs(corr_resid) <= 3 * mc_se
        assert abs(corr_short) > 5 * mc_se

    def test_rule_invariance_of_residualized_stats(self):
        dgp = GaussianPairDGP(
            sigma_c_sq=1.0,
            sigma_c_gamma=np.array([0.5, 0.3]),
            sigma_gamma_gamma=np.array([[1.0, 0.2], [0.2, 1.0]]),
        )
        rules = [
            T_RULE,
            ReportingRule(kind="wald", threshold=5.991464547107979),
            ReportingRule(kind="max_abs", threshold=float(norm.ppf((1.0 + np.sqrt(0.95)) / 2.0))),
        ]
        summaries = []
        for rule in rules:
            config = SelectionConfig(dgp=dgp, rule=rule, n=400, reps=20_000, seed=13)
            summaries.append(run_conditional_experiment(config).estimators["residualized"]["pass"])
        for a, b in zip(summaries, summaries[1:]):
            assert a.mean.value == pytest.approx(
                b.mean.value, abs=3 * np.hypot(a.mean.mc_se, b.mean.mc_se)
            )
            assert a.variance.value == pytest.approx(
                b.variance.value, abs=3 * np.hypot(a.variance.mc_se, b.variance.mc_se)
            )

    def test_deterministic_across_thread_counts(self, workers):
        config = scalar_config(0.5, reps=5000)
        workers(1)
        a = run_conditional_experiment(config)
        workers(4)
        b = run_conditional_experiment(config)
        assert a == b

    def test_rct_dgp_end_to_end(self):
        dgp = RctLinearDGP(tau=0.5, beta=np.array([1.0]), interaction=np.array([0.0]))
        config = SelectionConfig(dgp=dgp, rule=T_RULE, n=200, reps=1000, seed=17)
        stats = run_conditional_experiment(config)
        assert set(stats.estimators) == {"short", "long", "residualized"}
        s = stats.estimators["residualized"]["all"]
        assert s.mean.value == pytest.approx(0.5, abs=4 * s.mean.mc_se)
        cov = stats.estimators["residualized"]["all"].coverage
        assert cov.value == pytest.approx(0.95, abs=0.025)


CORRELATED_PAIR = GaussianPairDGP(
    sigma_c_sq=2.0,
    sigma_c_gamma=np.array([0.6, -0.4]),
    sigma_gamma_gamma=np.array([[1.0, 0.3], [0.3, 0.5]]),
    c_true=0.25,
)


def full_data_replications(dgp, rng, n, reps, chunk=2000):
    """(c_resid, se_resid, t_stats) from n drawn rows per replication.

    The reference for the lab's sufficient-statistic draws: rows from
    N(0, Sigma), then their mean, 1/n covariance and plug-in residualization.
    """
    chol = np.linalg.cholesky(dgp.population_covariance(n).full_matrix())
    parts = []
    for start in range(0, reps, chunk):
        d = rng.standard_normal((min(chunk, reps - start), n, chol.shape[0])) @ chol.T
        means = d.mean(axis=1)
        centered = d - means[:, None, :]
        cov = np.einsum("bij,bik->bjk", centered, centered) / n
        gamma, sigma_cg, sigma_gg = means[:, 1:], cov[:, 0, 1:], cov[:, 1:, 1:]
        lam = np.linalg.solve(sigma_gg, sigma_cg[..., None])[..., 0]
        c_resid = dgp.c_true + means[:, 0] - (lam * gamma).sum(axis=1)
        se_resid = np.sqrt((cov[:, 0, 0] - (lam * sigma_cg).sum(axis=1)) / n)
        t = np.linalg.solve(np.linalg.cholesky(sigma_gg), gamma[..., None])[..., 0]
        parts.append(np.column_stack([c_resid, se_resid, np.sqrt(n) * t]))
    return np.concatenate(parts)


class TestBartlettBits:
    """The Bartlett factor makes the reference's draws, in its order, with its bits."""

    @staticmethod
    def assert_same_draws(k, dof):
        rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
        a_t = _bartlett(rng, k, dof)
        expected = bartlett(ref_rng, k, dof)
        assert a_t.shape == expected.shape
        assert a_t.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_dof_at_least_k(self, k):
        for dof in (np.array([k, k + 1, 7 + k, 1998]), np.full(50, 1998), np.full(0, 5)):
            self.assert_same_draws(k, dof)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_mixed_dof(self, k):
        self.assert_same_draws(k, np.array([0, 1, k - 1, k, 1998, k - 1, 1998]))


class TestSumRows:
    """sum_rows adds over the first axis in np.add.reduce's order for a contiguous row."""

    @staticmethod
    def rows(rng, size, m):
        x = rng.standard_normal((size, m)) * 10.0 ** rng.uniform(-6.0, 6.0, (size, m))
        x[:4], x[4:8] = 0.0, -0.0
        x[8:12] = np.where(rng.random((4, m)) < 0.5, 0.0, -0.0)
        x[12, 0] = -0.0  # one signed zero among nonzero terms
        return x

    def test_every_row_length_to_300(self):
        rng = np.random.default_rng(29)
        for m in range(1, 301):
            x = self.rows(rng, 40, m)
            got = _fixed_order.sum_rows(np.ascontiguousarray(x.T))
            assert got.tobytes() == np.add.reduce(x, axis=-1).tobytes(), m

    def test_trailing_axes_and_the_input_left_alone(self):
        x = self.rows(np.random.default_rng(30), 60, 21).reshape(3, 20, 21)
        rows = np.moveaxis(x, -1, 0).copy()
        before = rows.copy()
        got = _fixed_order.sum_rows(rows)
        assert got.tobytes() == np.add.reduce(x, axis=-1).tobytes()
        assert rows.tobytes() == before.tobytes()


class TestScatterBits:
    """The replications-last scatter has the bits of the Gram matrix of L A's rows."""

    @staticmethod
    def assert_same_scatter(k, dof, seed):
        rng = np.random.default_rng(seed)
        a_t = _bartlett(rng, k, dof)
        low = np.tril(rng.standard_normal((k, k)))
        low[np.diag_indices(k)] = np.abs(low.diagonal()) + 0.1
        before = a_t.tobytes()
        for factor in (low, np.eye(k), np.tril(np.ones((k, k)))):
            got = _scatter(a_t, factor)
            assert a_t.tobytes() == before
            assert got.shape == (dof.size, k, k)
            assert got.tobytes() == scatter(a_t, factor).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 9, 16])
    def test_every_dof_at_least_k(self, k):
        self.assert_same_scatter(k, np.array([k, k + 1, 7 + k, 1998]), k)
        self.assert_same_scatter(k, np.full(300, 1998), 100 + k)

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 9, 16])
    def test_members_below_k_degrees_of_freedom(self, k):
        self.assert_same_scatter(k, np.array([0, 1, k - 1, k, 1998, k - 1, 1998]), 200 + k)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_more_than_a_stack(self, k):
        self.assert_same_scatter(k, np.full(_threads._STACK_REPS + 7, 2000 - k), 300 + k)

    def test_singular_factor(self):
        rng = np.random.default_rng(31)
        a_t = _bartlett(rng, 4, np.full(50, 100))
        low = np.tril(rng.standard_normal((4, 4)))
        low[2, 2] = 0.0
        assert _scatter(a_t, low).tobytes() == scatter(a_t, low).tobytes()


class TestSufficientStatisticDraws:
    """The Gaussian lab draws the mean and covariance, not rows; check their laws."""

    @pytest.mark.parametrize("n, reps, seed", [(50, 40_000, 21), (400, 20_000, 22)])
    def test_matches_full_data_path(self, n, reps, seed):
        config = SelectionConfig(dgp=CORRELATED_PAIR, rule=WALD_2, n=n, reps=reps, seed=seed)
        draws = simulate_replications(config)
        lab = np.column_stack([draws.c_resid, draws.se_resid, draws.t_stats])
        reference = full_data_replications(
            CORRELATED_PAIR, np.random.default_rng(seed + 100), n, reps
        )
        for name, a, b in zip(("c_resid", "se_resid", "t_0", "t_1"), lab.T, reference.T):
            assert ks_2samp(a, b).pvalue > 1e-3, name

    @pytest.mark.parametrize("n, seed", [(50, 31), (400, 32)])
    def test_exact_laws(self, n, seed):
        p = CORRELATED_PAIR.p_gamma
        batch = replications(CORRELATED_PAIR, np.random.default_rng(seed), n, 100_000)
        sigma = CORRELATED_PAIR.population_covariance(n)
        laws = {
            "c_short": (batch.c_short - CORRELATED_PAIR.c_true, norm(scale=sigma.se_c).cdf),
            "se_short": (n * n * batch.se_short**2 / sigma.sigma_c_sq, chi2(n - 1).cdf),
            "se_resid": (n * n * batch.se_resid**2 / sigma.sigma_r_sq, chi2(n - 1 - p).cdf),
        }
        for name, (values, cdf) in laws.items():
            assert kstest(values, cdf).pvalue > 1e-3, name
        # KS misses a 1% error in the scale of c_short at this size (sqrt(n - 1)
        # for sqrt(n) at n = 50); its second moment about the known mean does not.
        c_short = laws["c_short"][0]
        second = np.mean(c_short**2) / sigma.se_c**2
        assert abs(second - 1.0) <= 4.0 * np.sqrt(2.0 / c_short.size)


def test_standardized_checks_match_lapack_member_by_member():
    n = 60
    draws = CORRELATED_PAIR.draw_replications(np.random.default_rng(5), n, 200)
    batch = CORRELATED_PAIR.estimate_replications(draws, n)
    t = batch.t_stats
    # Each Sigma_gg estimate is the check block of the same draws' scatter over n.
    sigma_gg = _normal_sums(draws, CORRELATED_PAIR._chol_full)[1][:, 1:, 1:] / n
    chol = np.linalg.cholesky(sigma_gg)
    reference = np.sqrt(n) * np.linalg.solve(chol, batch.gamma_hat[..., None])[..., 0]
    np.testing.assert_allclose(t, reference, rtol=1e-12, atol=1e-12)
    one = NormalDraws(draws.counts[7:8], draws.z[7:8], draws.bartlett[7:8])
    assert np.array_equal(CORRELATED_PAIR.estimate_replications(one, n).t_stats, t[7:8])


RCT_THREE_CHECKS = RctLinearDGP(
    beta=np.array([0.5, -0.25, 0.1]), interaction=np.array([0.4, 0.0, -0.2]), pi=0.4
)


@pytest.mark.parametrize(
    "rule, seed",
    [(WALD_3, 51), (ReportingRule(kind="max_abs", threshold=2.0), 52), (T_RULE, 53)],
    ids=["wald", "max_abs", "two_sided_t"],
)
def test_residualized_ignores_every_rule_at_three_checks(rule, seed):
    """Property (i) at p = 3: the residualized influence is uncorrelated with the checks.

    So on either side of the rule, n Var(c_resid) is sigma_r^2 and the mean is tau,
    with no truncation formula.
    """
    n = 2000
    config = SelectionConfig(dgp=RCT_THREE_CHECKS, rule=rule, n=n, reps=20_000, seed=seed)
    resid = run_conditional_experiment(config).estimators["residualized"]
    sigma_r_sq = RCT_THREE_CHECKS.population_covariance(n).sigma_r_sq
    for side in ("pass", "fail"):
        variance, mean = resid[side].variance, resid[side].mean
        assert abs(n * variance.value - sigma_r_sq) <= 4 * n * variance.mc_se, side
        assert abs(mean.value - RCT_THREE_CHECKS.tau) <= 4 * mean.mc_se, side


@pytest.mark.parametrize("dgp", [CORRELATED_PAIR, RCT_THREE_CHECKS], ids=["gaussian", "rct"])
def test_check_block_factored_once_per_batch(dgp, monkeypatch):
    """The lab standardizes with the factor validation made: one factorization per stage.

    At 1,003 replications the head batches are all 50 batches, so the run is
    one stage. t_stats have the bits of factoring each validated block a
    second time.
    """
    cholesky, validate = _fixed_order.cholesky, JointCovariance.__post_init__
    factored, blocks = [], []

    def counting_cholesky(a):
        factored.append(a)
        return cholesky(a)

    def recording_validate(self):
        validate(self)
        if np.ndim(self.sigma_c_sq) == 1:
            blocks.append(self.sigma_gamma_gamma)

    monkeypatch.setattr(_fixed_order, "cholesky", counting_cholesky)
    monkeypatch.setattr(JointCovariance, "__post_init__", recording_validate)
    config = SelectionConfig(dgp=dgp, rule=WALD_2 if dgp is CORRELATED_PAIR else WALD_3,
                             n=60, reps=1003, seed=23)
    draws = simulate_replications(config)
    assert [block.shape[0] for block in blocks] == [1003]
    assert [sum(a is block for a in factored) for block in blocks] == [1]
    monkeypatch.undo()

    start, reference = 0, []
    for block in blocks:
        stop = start + block.shape[0]
        chol = _fixed_order.cholesky(block)
        gamma = draws.gamma_hat[start:stop]
        reference.append(np.sqrt(config.n) * _fixed_order.solve_lower(chol, gamma))
        start = stop
    assert np.array_equal(draws.t_stats, np.concatenate(reference))


@pytest.mark.parametrize("dgp", [CORRELATED_PAIR, RCT_THREE_CHECKS], ids=["gaussian", "rct"])
def test_record_holds_no_matrix_per_replication(dgp, monkeypatch):
    """The joined record keeps at most a p-vector per replication, nothing p x p.

    At most 100 replications per estimate, so the record is joined over stacks.
    """
    monkeypatch.setattr(_threads, "_STACK_REPS", 100)
    config = SelectionConfig(dgp=dgp, rule=WALD_2 if dgp is CORRELATED_PAIR else WALD_3,
                             n=60, reps=1003, seed=29)
    record = simulate_replications(config)
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if value is not None:
            assert value.shape[0] == config.reps and value.ndim <= 2, (f.name, value.shape)


class CountingDGP:
    """Delegates to a DGP and records the size of every draw_replications call."""

    def __init__(self, dgp):
        self.dgp = dgp
        self.sizes = []

    def draw_replications(self, rng, n, size):
        self.sizes.append(size)
        return self.dgp.draw_replications(rng, n, size)

    def __getattr__(self, name):
        return getattr(self.dgp, name)


ALWAYS_PASSES = ReportingRule("wald", 1e300)


class TestPassRateGate:
    """The gate reads the first reported replications; nothing is drawn only to gate."""

    @pytest.mark.parametrize("threads", [1, 4])
    def test_draws_exactly_reps(self, threads, workers):
        dgp = CountingDGP(GaussianPairDGP.from_rho(0.5))
        config = SelectionConfig(dgp=dgp, rule=T_RULE, n=100, reps=2050, seed=3)
        workers(threads)
        draws = simulate_replications(config)
        assert sum(dgp.sizes) == 2050 == draws.c_short.shape[0]

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize(
        "reps, head_reps",
        # 50 batches: 1003 -> 21 * 3 + 20 * 47, and 1000 lands inside the
        # last batch; 2000 -> 40 each, 25 batches; 2050 -> 41 each, 25 batches
        # hold 1025.
        [(1003, 1003), (2000, 1000), (2050, 1025)],
    )
    def test_degenerate_rule_stops_after_the_head_batches(
        self, reps, head_reps, threads, workers
    ):
        dgp = CountingDGP(GaussianPairDGP.from_rho(0.5))
        config = SelectionConfig(dgp=dgp, rule=ALWAYS_PASSES, n=100, reps=reps, seed=3)
        workers(threads)
        with pytest.raises(DegenerateRule, match="pass rate 1.0000"):
            simulate_replications(config)
        assert sum(dgp.sizes) == head_reps

    def test_same_at_any_thread_count_when_the_gate_ends_inside_a_batch(self, workers):
        config = scalar_config(0.5, reps=1003, n=200, seed=19)
        workers(1)
        one = simulate_replications(config)
        workers(4)
        four = simulate_replications(config)
        for name in ("c_short", "c_resid", "se_short", "se_resid", "gamma_hat", "t_stats", "passed"):
            assert np.array_equal(getattr(one, name), getattr(four, name)), name
        assert summarize(one, config.dgp.c_true) == summarize(four, config.dgp.c_true)


def reference_summary(draws, c_true):
    """The summary from numpy's own mean and var per side, and the i.i.d. MC SE formulas.

    The reference for ``summarize``: the same pooled values and counts bit for
    bit, and SEs computed here by another route: scipy's fourth central moment
    and numpy's std.
    """

    def rate(flags):
        r = flags.mean()
        return r, np.sqrt(r * (1.0 - r) / flags.size) if flags.size >= 2 else np.nan

    def condition(est, se, mask):
        m = int(mask.sum())
        if m == 0:
            return 0, [(np.nan, np.nan)] * 4
        kept = est[mask]
        err = np.abs(kept - c_true)
        if m >= 2:
            var = kept.var(ddof=1)
            m4 = moment(kept, 4)
            variance = var, np.sqrt((m4 - var**2 * (m - 3) / (m - 1)) / m)
            mean_se = kept.std(ddof=1) / np.sqrt(m)
        else:
            variance, mean_se = (np.nan, np.nan), np.nan
        return m, [
            (kept.mean(), mean_se),
            variance,
            rate(err <= Z975 * se[mask]),
            rate(err > Z975 * se[mask]),
        ]

    passed = draws.passed
    out = {}
    for name, (est, se) in draws.estimators().items():
        for cond, mask in (("all", np.ones_like(passed)), ("pass", passed), ("fail", ~passed)):
            out[name, cond] = condition(est, se, mask)
    return float(passed.mean()), out


def assert_matches_reference(draws, c_true):
    stats = summarize(draws, c_true)
    pass_rate, reference = reference_summary(draws, c_true)
    assert stats.n_reps == draws.passed.size
    assert np.array_equal(stats.pass_rate, pass_rate)
    assert set(stats.estimators) == {name for name, _ in reference}
    for (name, cond), (count, metrics) in reference.items():
        summary = stats.estimators[name][cond]
        assert summary.count == count, (name, cond)
        got = [summary.mean, summary.variance, summary.coverage, summary.rejection_rate]
        for metric, (value, mc_se) in zip(got, metrics):
            assert np.array_equal(metric.value, value, equal_nan=True), (name, cond)
            np.testing.assert_allclose(metric.mc_se, mc_se, rtol=1e-12, err_msg=f"{name} {cond}")


def with_failures(draws, failures):
    """draws with only the replications at the indices ``failures`` failing the rule."""
    passed = np.ones(draws.passed.size, dtype=bool)
    passed[failures] = False
    return dataclasses.replace(draws, passed=passed)


class TestSummaryOverTheBatchAxis:
    """summarize pools over every batch's replications: numpy's values and counts, i.i.d. SEs."""

    def test_gaussian_run(self):
        config = SelectionConfig(dgp=CORRELATED_PAIR, rule=WALD_2, n=200, reps=2050, seed=41)
        assert_matches_reference(simulate_replications(config), CORRELATED_PAIR.c_true)

    def test_rct_run(self):
        rule = ReportingRule(kind="max_abs", threshold=2.24)
        config = SelectionConfig(dgp=RCT_THREE_CHECKS, rule=rule, n=2000, reps=2000, seed=42)
        draws = simulate_replications(config)
        assert draws.c_long is not None
        assert_matches_reference(draws, RCT_THREE_CHECKS.c_true)

    @pytest.mark.parametrize("failures", [1, 2, 3])
    def test_fail_side_counts(self, failures):
        # At m = 3 the variance SE's var^2 term vanishes.
        draws = simulate_replications(scalar_config(0.5, reps=1000, n=100, seed=43))
        draws = with_failures(draws, [5, 11, 760][:failures])
        assert_matches_reference(draws, 0.0)
        fail = summarize(draws, 0.0).estimators["residualized"]["fail"]
        assert fail.count == failures
        se = [fail.mean.mc_se, fail.variance.mc_se, fail.coverage.mc_se, fail.rejection_rate.mc_se]
        assert np.isnan(se).all() if failures == 1 else np.isfinite(se).all()

    @pytest.mark.parametrize("failures", [0, 1, 2])
    def test_too_few_values(self, failures):
        # No failure gives the all-NaN summary; one gives a NaN pooled variance.
        draws = simulate_replications(scalar_config(0.5, reps=1000, n=100, seed=44))
        draws = with_failures(draws, [3, 517][:failures])
        assert_matches_reference(draws, 0.0)
        fail = summarize(draws, 0.0).estimators["short"]["fail"]
        assert fail.count == failures
        assert np.isnan(fail.variance.value) == (failures < 2)
        assert np.isnan(fail.mean.value) == (failures == 0)
        assert np.isnan(fail.mean.mc_se) == (failures < 2)


# A standard deviation over k seeds has relative SE about 1/sqrt(2 (k - 1)); the band is 4 of them.
CALIBRATION_SEEDS = range(1000, 1300)
CALIBRATION_BAND = 4.0 / math.sqrt(2 * (len(CALIBRATION_SEEDS) - 1))


def test_mc_se_matches_the_spread_across_seeds():
    """On every side of the rule, each metric's spread across seeds is its mean reported MC SE.

    Sizes and seeds are fixed; the fail side holds about 5% of the replications.
    """
    metrics = ("mean", "variance", "coverage", "rejection_rate")
    values, ses = {}, {}
    for seed in CALIBRATION_SEEDS:
        stats = run_conditional_experiment(scalar_config(0.5, reps=2000, n=200, seed=seed))
        for name, sides in stats.estimators.items():
            for side, summary in sides.items():
                for metric in metrics:
                    got = getattr(summary, metric)
                    values.setdefault((name, side, metric), []).append(got.value)
                    ses.setdefault((name, side, metric), []).append(got.mc_se)
    assert len(values) == 24
    ratios = {cell: np.std(values[cell], ddof=1) / np.mean(ses[cell]) for cell in values}
    off = {cell: round(r, 3) for cell, r in ratios.items() if abs(r - 1.0) > CALIBRATION_BAND}
    assert not off, off


def batch_by_batch(config):
    """The run's record as the batches give it one by one: each drawn, estimated, ruled.

    Raises what the first failing batch raises, in batch order.
    """
    dgp, n = config.dgp, config.n
    sizes = batch_sizes(config.reps, _N_BATCHES)
    children = np.random.SeedSequence(config.seed).spawn(len(sizes))
    parts = []
    for child, size in zip(children, sizes):
        record = dgp.estimate_replications(
            dgp.draw_replications(np.random.default_rng(child), n, size), n
        )
        parts.append(dataclasses.replace(record, passed=config.rule.passes(record.t_stats)))
    return parts


# p = 10 checks at n = 30: k = 11 coordinates, more than most arms' degrees of freedom.
RCT_SMALL_ARMS = RctLinearDGP(
    beta=np.linspace(1.0, -1.0, 10), interaction=np.linspace(0.5, 0.0, 10), pi=0.5
)
# |T_1| at most its median under N(0, 1): passes about half of all replications.
FIRST_CHECK_HALF = ReportingRule("two_sided_t", 0.6745)


class TestStagesAreInvisible:
    """A run's record equals, array for array, its batches' records computed one by one."""

    # At most 100 replications per estimate: several stacks per stage.
    @pytest.mark.parametrize("stack_reps", [_threads._STACK_REPS, 100])
    @pytest.mark.parametrize("threads", [1, 4])
    # 1003: one stage of 50 uneven batches, the gate ending inside the last;
    # 2050: two stages of 25 batches.
    @pytest.mark.parametrize(
        "dgp, n, rule, reps",
        [(CORRELATED_PAIR, 60, WALD_2, 1003), (CORRELATED_PAIR, 60, WALD_2, 2050),
         (RCT_THREE_CHECKS, 200, WALD_3, 1003),
         (RCT_THREE_CHECKS, 200, WALD_3, 2050),
         (RCT_SMALL_ARMS, 30, FIRST_CHECK_HALF, 1003)],
        ids=["gaussian-1003", "gaussian-2050", "rct-1003", "rct-2050", "rct-small-arms-1003"],
    )
    def test_record_equals_batch_by_batch(
        self, dgp, n, rule, reps, threads, stack_reps, monkeypatch, workers
    ):
        monkeypatch.setattr(_threads, "_STACK_REPS", stack_reps)
        config = SelectionConfig(dgp=dgp, rule=rule, n=n, reps=reps, seed=61)
        workers(threads)
        record = simulate_replications(config)
        parts = batch_by_batch(config)
        for f in dataclasses.fields(record):
            got = getattr(record, f.name)
            if got is None:
                assert all(getattr(part, f.name) is None for part in parts), f.name
            else:
                want = np.concatenate([getattr(part, f.name) for part in parts])
                assert np.array_equal(got, want), f.name
        if dgp is RCT_SMALL_ARMS:
            # The Bartlett factor's row branch: an arm with fewer than k - 1 degrees of freedom.
            children = np.random.SeedSequence(61).spawn(_N_BATCHES)
            arms = dgp.draw_replications(np.random.default_rng(children[0]), n, 20)
            assert (np.minimum(arms[0].counts, arms[1].counts) - 1 < 11).any()


class TestOneValidationPerStage:
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("dgp", [CORRELATED_PAIR, RCT_THREE_CHECKS], ids=["gaussian", "rct"])
    # 50 batches: 2050 -> 41 each, 25 batches hold 1025; 3000 -> 60 each, 17 hold 1020.
    @pytest.mark.parametrize("reps, head_reps", [(2050, 1025), (3000, 1020)])
    def test_head_stack_then_the_rest(self, dgp, reps, head_reps, threads, monkeypatch, workers):
        calls = self.validations(dgp, reps, threads, monkeypatch, workers)
        assert calls == [(head_reps,), (reps - head_reps,)]

    @pytest.mark.parametrize("threads", [1, 4])
    def test_large_stage_in_bounded_stacks(self, threads, monkeypatch, workers):
        # 50 batches of 200: the head holds 5; the other 45 are estimated
        # 20, 20 and 5 batches at a time, at most _STACK_REPS = 4096 replications.
        calls = self.validations(CORRELATED_PAIR, 10_000, threads, monkeypatch, workers)
        assert calls == [(1000,), (4000,), (4000,), (1000,)]

    @staticmethod
    def validations(dgp, reps, threads, monkeypatch, workers):
        """The stack shapes that a run validates, in order."""
        validate, calls = JointCovariance.__post_init__, []

        def counting(self):
            calls.append(np.shape(self.sigma_c_sq))
            validate(self)

        monkeypatch.setattr(JointCovariance, "__post_init__", counting)
        config = SelectionConfig(dgp=dgp, rule=WALD_2 if dgp is CORRELATED_PAIR else WALD_3,
                                 n=200, reps=reps, seed=62)
        workers(threads)
        simulate_replications(config)
        return calls


def first_error(run):
    """(class, message) of the error that run raises."""
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


class FaultyDGP:
    """Delegates to a DGP; the draws of the batches in ``faults`` are corrupted, or raise.

    A batch's index is the spawn key of its stream.
    """

    def __init__(self, dgp, faults):
        self.dgp, self.faults = dgp, faults

    def draw_replications(self, rng, n, size):
        draws = self.dgp.draw_replications(rng, n, size)
        fault = self.faults.get(rng.bit_generator.seed_seq.spawn_key[-1])
        return draws if fault is None else fault(draws)

    def __getattr__(self, name):
        return getattr(self.dgp, name)


def _member_zero(draws, bartlett):
    """Normal draws whose first replication has the given Bartlett factor."""
    a_t = draws.bartlett.copy()
    a_t[0] = bartlett
    return dataclasses.replace(draws, bartlett=a_t)


def _rank_one(draws):
    # A' = e1 e1': the scatter is L e1 (L e1)', so c_hat is a function of gamma_hat.
    return _member_zero(draws, np.diag([1.0, 0.0]))


def _zero_scatter(draws):
    return _member_zero(draws, np.zeros((2, 2)))


def _constant_first_covariate(arms):
    # Column 0 of A' is row 0 of A: x_1's deviations from its mean in both arms.
    def flat(draws):
        a_t = draws.bartlett.copy()
        a_t[0, :, 0] = 0.0
        return dataclasses.replace(draws, bartlett=a_t)

    return tuple(flat(arm) for arm in arms)


def _empty_arm(draws):
    raise EmptyArm("each arm needs at least 2 units, got 1 treated of 200")


class TestErrorsInBatchOrder:
    """A run raises what its batches, run one by one in order, raise first."""

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize(
        "dgp, faults, joined_error, want",
        [
            # Batch 0 fails the last gate of validation, batch 3 the first.
            (GaussianPairDGP.from_rho(0.5), {0: _rank_one, 3: _zero_scatter}, InvalidCovariance,
             DegenerateResidualVariance),
            # Batch 0 fails validation, batch 2 cannot be drawn.
            (RCT_THREE_CHECKS, {0: _constant_first_covariate, 2: _empty_arm}, EmptyArm,
             SingularCheckCovariance),
        ],
        ids=["gaussian", "rct"],
    )
    def test_first_failing_batch_decides(
        self, dgp, faults, joined_error, want, threads, workers
    ):
        config = SelectionConfig(dgp=FaultyDGP(dgp, faults), rule=WALD_3, n=200, reps=2050, seed=63)
        expected = first_error(lambda: batch_by_batch(config))
        assert expected[0] is want
        workers(threads)
        assert first_error(lambda: simulate_replications(config)) == expected
        # Estimated at once, the stage's draws would fail otherwise.
        children = np.random.SeedSequence(63).spawn(_N_BATCHES)
        with pytest.raises(joined_error):
            draws = [config.dgp.draw_replications(np.random.default_rng(c), 200, 41)
                     for c in children[:4]]
            config.dgp.estimate_replications(join(draws), 200)

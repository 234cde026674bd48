import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from residcheck import (
    InfluenceContributions,
    RctDataset,
    balance_stats,
    long_regression,
    residualize,
    residualized_estimator,
    short_estimator,
)
from residcheck import JointCovariance, _fixed_order, dgps
from residcheck.covariance import covariance_matrix
from residcheck.dgps import RctLinearDGP
from residcheck.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyArm,
    EstimationError,
    RankDeficientDesign,
    SingularCheckCovariance,
)
from residcheck.rct import arm_statistics, long_coefficients, long_normal_equations

from conftest import moment_z_scores, replications
from reference import beta_long_limit, beta_resid_limit, draw_dataset


def make_dataset(y, t, x, strata=None):
    return RctDataset(
        outcome=np.asarray(y, dtype=float),
        treatment=np.asarray(t, dtype=float),
        covariates=np.asarray(x, dtype=float),
        strata=strata,
    )


class TestDatasetValidation:
    def test_non_binary_treatment_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_dataset([1, 2, 3, 4], [0, 1, 2, 1], [[1], [2], [3], [4]])

    def test_small_arm_rejected(self):
        with pytest.raises(EmptyArm):
            make_dataset([1, 2, 3, 4], [1, 0, 0, 0], [[1], [2], [3], [4]])

    def test_non_finite_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_dataset([1, np.nan, 3, 4], [0, 1, 0, 1], [[1], [2], [3], [4]])

    @pytest.mark.parametrize("stacked", ["outcome", "treatment", "both"])
    def test_stack_of_datasets_rejected(self, stacked):
        # One dataset per call: a (B, n) outcome or treatment is not one.
        y, t, x = random_members(5, 3, 40, 2)
        outcome = y if stacked != "treatment" else y[0]
        treatment = t if stacked != "outcome" else t[0]
        covariates = x if stacked == "both" else x[0]
        with pytest.raises(DimensionMismatch):
            RctDataset(outcome=outcome, treatment=treatment, covariates=covariates)


class TestShortEstimator:
    def test_hand_difference(self):
        data = make_dataset([2, 2, 1, 1], [1, 1, 0, 0], [[0], [1], [0], [1]])
        c_hat, contrib = short_estimator(data)
        assert c_hat == pytest.approx(1.0, rel=1e-14)
        assert contrib.shape == (4,)
        assert contrib.mean() == pytest.approx(0.0, abs=1e-14)

    def test_identical_arms_give_zero(self):
        data = make_dataset([3, 5, 3, 5], [1, 1, 0, 0], [[0], [1], [0], [1]])
        c_hat, _ = short_estimator(data)
        assert c_hat == pytest.approx(0.0, abs=1e-14)

    def test_location_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(50)
        t = np.repeat([0.0, 1.0], 25)
        x = rng.standard_normal((50, 2))
        base, _ = short_estimator(make_dataset(y, t, x))
        shifted, _ = short_estimator(make_dataset(y + 11.5, t, x))
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_contributions_match_arm_formula(self):
        rng = np.random.default_rng(1)
        n = 40
        t = (rng.random(n) < 0.4).astype(float)
        t[:2] = 1.0
        t[2:4] = 0.0
        y = rng.standard_normal(n)
        data = make_dataset(y, t, rng.standard_normal((n, 1)))
        _, contrib = short_estimator(data)
        pi = t.mean()
        expected = t * (y - y[t == 1].mean()) / pi - (1 - t) * (y - y[t == 0].mean()) / (1 - pi)
        assert np.allclose(contrib, expected, rtol=1e-10, atol=1e-12)


class TestBalanceStats:
    def test_identical_arms(self):
        x = np.array([[1.0], [2.0], [1.0], [2.0]])
        data = make_dataset([0, 1, 2, 3], [1, 1, 0, 0], x)
        gamma, _ = balance_stats(data)
        assert gamma[0] == pytest.approx(0.0, abs=1e-14)

    def test_engineered_age_difference(self):
        # Arm means engineered to differ by exactly -0.447 on the age column.
        rng = np.random.default_rng(2)
        n1, n0 = 30, 34
        age_t = rng.normal(39.0, 8.0, n1)
        age_c = rng.normal(39.0, 9.0, n0)
        age_t = age_t - age_t.mean() + (39.188 - 0.447)
        age_c = age_c - age_c.mean() + 39.188
        data = make_dataset(
            np.concatenate([rng.standard_normal(n1) + 1, rng.standard_normal(n0)]),
            np.concatenate([np.ones(n1), np.zeros(n0)]),
            np.concatenate([age_t, age_c])[:, None],
        )
        gamma, _ = balance_stats(data)
        assert gamma[0] == pytest.approx(-0.447, abs=1e-10)

    def test_hand_difference(self):
        data = make_dataset([0, 0, 0, 0], [1, 1, 0, 0], [[1.0], [3.0], [0.0], [2.0]])
        gamma, _ = balance_stats(data)
        assert gamma[0] == pytest.approx(1.0, rel=1e-14)


class TestLongRegression:
    def test_exact_interpolation(self):
        rng = np.random.default_rng(3)
        n = 30
        t = (rng.random(n) < 0.5).astype(float)
        t[:2], t[2:4] = 1.0, 0.0
        x = rng.standard_normal(n)
        y = 1.0 + 2.0 * t + 3.0 * x
        c_long, beta_long = long_regression(make_dataset(y, t, x[:, None]))
        assert c_long == pytest.approx(2.0, rel=1e-10)
        assert beta_long[0] == pytest.approx(3.0, rel=1e-10)

    def test_orthogonalized_covariate_leaves_short_unchanged(self):
        rng = np.random.default_rng(4)
        n = 60
        t = np.repeat([1.0, 0.0], 30)
        y = rng.standard_normal(n) + t
        raw = rng.standard_normal(n)
        design = np.column_stack([np.ones(n), t, y])
        x = raw - design @ np.linalg.lstsq(design, raw, rcond=None)[0]
        data = make_dataset(y, t, x[:, None])
        c_short, _ = short_estimator(data)
        c_long, _ = long_regression(data)
        assert c_long == pytest.approx(c_short, abs=1e-10)

    def test_four_point_normal_equations(self):
        data = make_dataset([0, 1, 1, 2], [0, 0, 1, 1], [[0.0], [1.0], [0.0], [1.0]])
        c_long, beta_long = long_regression(data)
        assert c_long == pytest.approx(1.0, rel=1e-12)
        assert beta_long[0] == pytest.approx(1.0, rel=1e-12)

    def test_rank_deficient_design_rejected(self):
        # Constant covariate collides with the absorbed intercept.
        data = make_dataset([0, 1, 1, 2], [0, 0, 1, 1], [[1.0], [1.0], [1.0], [1.0]])
        with pytest.raises(RankDeficientDesign):
            long_regression(data)

    def test_near_collinear_covariate_rejected(self):
        y, t, x = random_members(13, 1, 200, 2)
        x[0, :, 1] = x[0, :, 0] + 1e-7 * np.random.default_rng(14).standard_normal(200)
        with pytest.raises(RankDeficientDesign):
            long_regression(make_dataset(y[0], t[0], x[0]))

    @pytest.mark.parametrize("stratified", [False, True])
    def test_matches_least_squares(self, stratified):
        y, t, x = random_members(15, 1, 400, 3)
        strata = np.arange(400) % 5 if stratified else None
        c_long, beta_long = long_regression(make_dataset(y[0], t[0], x[0], strata=strata))
        want = lstsq_long(y[0], t[0], x[0], strata)
        assert c_long == pytest.approx(want[0], rel=1e-9)
        np.testing.assert_allclose(beta_long, want[1:], rtol=1e-9)

    def test_stack_matches_least_squares(self):
        # The p x p half over a stack of normal equations, as the RCT lab solves it.
        y, t, x = random_members(16, 6, 120, 2)
        members = [make_dataset(y[b], t[b], x[b]) for b in range(6)]
        beta_long = long_coefficients(*stacked_normal_equations(members))
        slopes = np.stack([member.influence[0] for member in members])
        c_long = residualize(slopes[:, 0], slopes[:, 1:], beta_long).c_r
        for b in range(6):
            want = lstsq_long(y[b], t[b], x[b])
            assert c_long[b] == pytest.approx(want[0], rel=1e-9)
            np.testing.assert_allclose(beta_long[b], want[1:], rtol=1e-9)


class TestResidualizedEstimator:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_fwl_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        t = (rng.random(n) < 0.5).astype(float)
        t[:2], t[2:4] = 1.0, 0.0
        x = rng.standard_normal((n, 2))
        y = t + x @ np.array([0.5, -1.0]) + rng.standard_normal(n)
        data = make_dataset(y, t, x)
        point, _ = residualized_estimator(data)
        c_long, beta_long = long_regression(data)
        assert c_long == pytest.approx(point.c_hat - float(beta_long @ point.gamma_hat), abs=1e-10)
        # c_r = c_hat - sum_k Lambda_k gamma_k, with the sum in numpy's order
        # rather than a BLAS dot, whose last bit depends on the CPU kernel.
        assert point.c_r == point.c_hat - float(np.sum(point.lam * point.gamma_hat))

    def test_memory_layout_leaves_bits_unchanged(self):
        rng = np.random.default_rng(12)
        n = 3000
        t = (rng.random(n) < 0.4).astype(float)
        x = rng.standard_normal((n, 3)) + 2.0
        y = t + x @ np.array([0.5, -0.2, 0.1]) + rng.standard_normal(n)
        a, a_sigma = residualized_estimator(make_dataset(y, t, x))
        b, b_sigma = residualized_estimator(make_dataset(y, t, np.asfortranarray(x)))
        assert np.array_equal(a.gamma_hat, b.gamma_hat)
        assert np.array_equal(a_sigma.full_matrix(), b_sigma.full_matrix())
        assert a.c_r == b.c_r

    def test_independent_covariate_leaves_estimate_alone(self):
        rng = np.random.default_rng(11)
        dgp = RctLinearDGP(tau=1.0, beta=np.array([0.0]), interaction=np.array([0.0]))
        point, sigma = residualized_estimator(draw_dataset(dgp, rng, 4000))
        correction = point.c_hat - point.c_r
        corr_se = np.sqrt(float(point.lam @ sigma.sigma_gamma_gamma @ point.lam) / sigma.n)
        assert abs(correction) <= 3.0 * max(corr_se, 1e-12)

    def test_linear_homoskedastic_coefficients_converge(self):
        # No interactions: beta_long and beta_resid share the same limit.
        dgp = RctLinearDGP(tau=1.0, beta=np.array([1.5, -0.5]), interaction=np.zeros(2))
        gaps = []
        for n, seed in ((1000, 21), (10_000, 22)):
            rng = np.random.default_rng(seed)
            diffs = []
            for _ in range(30):
                data = draw_dataset(dgp, rng, n)
                beta_long = long_regression(data)[1]
                diffs.append(np.linalg.norm(beta_long - residualized_estimator(data)[0].lam))
            gaps.append(np.mean(diffs))
        assert gaps[1] < gaps[0] / 2.0

    def test_interacted_variance_ordering_and_penalty(self):
        # Unbalanced design separates the long and residualized coefficients.
        dgp = RctLinearDGP(
            tau=1.0, beta=np.array([1.0]), interaction=np.array([2.0]), pi=0.25
        )
        rng = np.random.default_rng(23)
        reps, n = 2000, 500
        ests = np.empty((reps, 3))
        for r in range(reps):
            data = draw_dataset(dgp, rng, n)
            point, _ = residualized_estimator(data)
            ests[r] = (point.c_hat, long_regression(data)[0], point.c_r)
        var_s, var_l, var_r = ests.var(axis=0, ddof=1)
        assert var_r < var_l < var_s
        delta = beta_long_limit(dgp) - beta_resid_limit(dgp)
        _, _, sigma_gg = dgp.sigma_blocks()
        penalty = float(delta @ sigma_gg @ delta) / n
        assert var_l - var_r == pytest.approx(penalty, rel=0.2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_affine_equivariance_of_residualized_estimate(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        t = np.repeat([1.0, 0.0], 30)
        x = rng.standard_normal((n, 2))
        y = t + x @ np.array([1.0, 0.5]) + rng.standard_normal(n)
        a = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        b = rng.standard_normal(2)
        base_data = make_dataset(y, t, x)
        moved_data = make_dataset(y, t, x @ a.T + b)
        base, _ = residualized_estimator(base_data)
        moved, _ = residualized_estimator(moved_data)
        assert moved.c_r == pytest.approx(base.c_r, rel=1e-8, abs=1e-8)
        assert long_regression(moved_data)[0] == pytest.approx(
            long_regression(base_data)[0], rel=1e-8, abs=1e-8
        )


class TestStrata:
    def test_single_stratum_matches_unstratified(self):
        rng = np.random.default_rng(31)
        n = 100
        t = np.repeat([1.0, 0.0], 50)
        x = rng.standard_normal((n, 2))
        y = t + x @ np.array([1.0, -1.0]) + rng.standard_normal(n)
        plain, _ = residualized_estimator(make_dataset(y, t, x))
        strat, _ = residualized_estimator(make_dataset(y, t, x, strata=np.zeros(n, dtype=int)))
        assert strat.c_hat == pytest.approx(plain.c_hat, rel=1e-12)
        assert strat.c_r == pytest.approx(plain.c_r, rel=1e-12)

    def test_strata_absorb_block_shifts(self):
        # Outcome shifts common to a stratum should not contaminate the
        # stratified estimate even when assignment rates differ by stratum.
        rng = np.random.default_rng(32)
        n_per, shift = 200, 10.0
        t1 = (rng.random(n_per) < 0.7).astype(float)
        t2 = (rng.random(n_per) < 0.3).astype(float)
        x = rng.standard_normal((2 * n_per, 1))
        y1 = 1.0 * t1 + shift + rng.standard_normal(n_per)
        y2 = 1.0 * t2 + rng.standard_normal(n_per)
        y = np.concatenate([y1, y2])
        t = np.concatenate([t1, t2])
        strata = np.repeat(["a", "b"], n_per)
        stratified, _ = short_estimator(make_dataset(y, t, x, strata=strata))
        naive, _ = short_estimator(make_dataset(y, t, x))
        assert abs(stratified - 1.0) < 0.5
        assert abs(naive - 1.0) > 1.0


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def random_members(seed, size, n, p):
    """size datasets of n rows and p covariates, as (y, t, x) arrays stacked on axis 0."""
    rng = np.random.default_rng(seed)
    t = (rng.random((size, n)) < 0.4).astype(float)
    t[:, :2], t[:, 2:4] = 1.0, 0.0
    x = rng.standard_normal((size, n, p)) + 1.5
    y = t + x @ rng.standard_normal(p) + 0.5 * t * x[..., 0] + rng.standard_normal((size, n))
    return y, t, x


def stacked_normal_equations(members):
    """Each dataset's :func:`long_normal_equations`, stacked on axis 0."""
    return tuple(np.stack(parts) for parts in zip(*map(long_normal_equations, members)))


def lstsq_long(y, t, x, strata=None):
    """Coefficients on t and x from numpy's least squares with one intercept per stratum."""
    labels = np.zeros(len(y)) if strata is None else np.asarray(strata)
    intercepts = (labels[:, None] == np.unique(labels)[None, :]).astype(float)
    coef = np.linalg.lstsq(np.column_stack([t, x, intercepts]), y, rcond=None)[0]
    return coef[: 1 + x.shape[1]]


def reference_draw_matrix(dgp, rng, n):
    """One dataset drawn as a single replication: random(n), standard_normal((n, p)), standard_normal(n).

    x beta and x interaction are summed column by column, left to right.
    """
    t = (rng.random(n) < dgp.pi).astype(float)
    x = rng.standard_normal((n, dgp.p_gamma))

    def times_columns(coef):
        return functools.reduce(operator.add, [x[:, k] * c for k, c in enumerate(coef)])

    y = (
        dgp.alpha
        + dgp.tau * t
        + times_columns(dgp.beta)
        + times_columns(dgp.interaction) * t
        + dgp.noise_sd * rng.standard_normal(n)
    )
    return np.column_stack([y, t, x])


FIELDS = ("c_short", "c_resid", "se_short", "se_resid", "gamma_hat", "sigma_gg", "c_long", "se_long")


def full_data_replications(dgp, rng, n, size):
    """The lab's fields from size datasets of n drawn rows, recomputed with plain numpy as one stack.

    Per dataset: the slopes of y and x on demeaned t and their influence
    rows, the 1/n covariance of the demeaned rows and the residualized
    estimate, as in ``analyze``; the long regression by least squares on
    [1, t, x], and the variance of the adjustment at its coefficients.
    """
    rows = np.stack([reference_draw_matrix(dgp, rng, n) for _ in range(size)])
    y, t, x = rows[..., 0], rows[..., 1], rows[..., 2:]
    t_c = t - t.mean(axis=1, keepdims=True)
    others = rows[..., [0, *range(2, rows.shape[-1])]]
    others = others - others.mean(axis=1, keepdims=True)
    tt = np.einsum("bi,bi->b", t_c, t_c)
    slopes = np.einsum("bi,bij->bj", t_c, others) / tt[:, None]
    psi = t_c[..., None] * (others - t_c[..., None] * slopes[:, None, :]) / (tt / n)[:, None, None]
    psi = psi - psi.mean(axis=1, keepdims=True)
    sigma = np.einsum("bij,bik->bjk", psi, psi) / n
    scc, scg, sgg = sigma[:, 0, 0], sigma[:, 0, 1:], sigma[:, 1:, 1:]
    lam = np.linalg.solve(sgg, scg[..., None])[..., 0]
    design = np.concatenate([np.ones((size, n, 1)), t[..., None], x], axis=-1)
    coef = np.linalg.solve(
        np.einsum("bij,bik->bjk", design, design), np.einsum("bij,bi->bj", design, y)[..., None]
    )[..., 0]
    beta_long = coef[:, 2:]
    long_var = scc - 2.0 * (beta_long * scg).sum(axis=1) + np.einsum(
        "bj,bjk,bk->b", beta_long, sgg, beta_long
    )
    c_short, gamma = slopes[:, 0], slopes[:, 1:]
    values = (c_short, c_short - (lam * gamma).sum(axis=1), np.sqrt(scc / n),
              np.sqrt((scc - (lam * scg).sum(axis=1)) / n), gamma, sgg, coef[:, 1],
              np.sqrt(long_var / n))
    return dict(zip(FIELDS, values))


def adapter_replications(dgp, rng, n, size):
    """size datasets of n drawn rows, one at a time through the adapter's estimators."""
    for _ in range(size):
        rows = reference_draw_matrix(dgp, rng, n)
        data = RctDataset(outcome=rows[:, 0], treatment=rows[:, 1], covariates=rows[:, 2:])
        residualized_estimator(data)
        long_regression(data)


def arm_moments(y, t, x):
    """Treated count, (treated, control) means and scatter matrices of (y, x), member by member."""
    rows = np.concatenate([y[..., None], x], axis=-1)
    means, scatters = [], []
    for arm in (t == 1.0, t == 0.0):
        mean = np.stack([r[a].mean(axis=0) for r, a in zip(rows, arm)])
        dev = [r[a] - m for r, a, m in zip(rows, arm, mean)]
        means.append(mean)
        scatters.append(np.stack([d.T @ d for d in dev]))
    return t.sum(axis=-1).astype(int), means, scatters


def c_short_second_moment(dgp, n):
    """E (c_short - tau)^2 = E[var1 / n1 + var0 / n0] over n1 ~ Binomial(n, pi), 2 <= n1 <= n - 2."""
    var1 = float(np.sum((dgp.beta + dgp.interaction) ** 2)) + dgp.noise_sd**2
    var0 = float(np.sum(dgp.beta**2)) + dgp.noise_sd**2
    pmf = [math.comb(n, k) * dgp.pi**k * (1 - dgp.pi) ** (n - k) for k in range(n + 1)]
    inner = range(2, n - 1)
    mass = sum(pmf[k] for k in inner)
    return sum(pmf[k] * (var1 / k + var0 / (n - k)) for k in inner) / mass


class TestStackedDatasets:
    """The RCT lab estimates a stack of replications in one call."""

    @pytest.mark.parametrize("size", [1, 97, 150])
    def test_one_covariance_validation_per_batch(self, size, monkeypatch):
        # Every replication of one estimate shares one JointCovariance.
        validate = JointCovariance.__post_init__
        calls = []

        def counting(self):
            calls.append(np.shape(self.sigma_c_sq))
            validate(self)

        monkeypatch.setattr(JointCovariance, "__post_init__", counting)
        dgp = RctLinearDGP(beta=np.array([1.0, -0.5, 0.2]), interaction=np.array([0.5, 0.0, 0.1]))
        draws = dgp.draw_replications(np.random.default_rng(3), 2000, size)
        assert calls == []
        dgp.estimate_replications(draws, 2000)
        assert calls == [(size,)]

    @pytest.mark.parametrize("size", [1, 4])
    @pytest.mark.parametrize("k", [2, 4])
    def test_gram_of_strided_stack_views(self, size, k):
        cols = np.random.default_rng(k).standard_normal((size, k + 1, 301)) + 2.0
        for view in (cols[..., 1:, :], cols[..., ::2]):  # rows in place; strided columns
            assert_same_bits(_fixed_order.gram(view), _fixed_order.gram(np.ascontiguousarray(view)))

    @pytest.mark.parametrize("m", [8, 10, 16])
    def test_dot_bits_do_not_depend_on_memory_layout(self, m):
        # numpy sums a contiguous row of 8 or more pairwise, a strided one in sequence.
        rows = np.random.default_rng(m).standard_normal((5000, m)) + 2.0
        f_rows = np.asfortranarray(rows)
        assert_same_bits(_fixed_order.dot(f_rows, f_rows), _fixed_order.dot(rows, rows))
        assert_same_bits(_fixed_order.dot(f_rows, rows[0]), _fixed_order.dot(rows, rows[0]))
        cols = np.asfortranarray(rows[:6].copy())  # each row strided
        gram = _fixed_order.gram(cols)
        for i in range(6):
            for j in range(6):
                assert gram[i, j] == _fixed_order.dot(cols[i], cols[j]), (i, j)

    def test_draw_matrix_keeps_the_single_draw_stream(self):
        dgp = RctLinearDGP(tau=1.0, beta=np.array([1.0, -0.5, 0.2]),
                           interaction=np.array([0.5, 0.0, 0.1]), pi=0.3, alpha=0.2)
        n, size = 50, 3
        drawn, reference = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(size):
            assert_same_bits(dgp.draw_matrix(drawn, n), reference_draw_matrix(dgp, reference, n))
        assert drawn.bit_generator.state == reference.bit_generator.state


class TestArmStatisticDraws:
    """The RCT lab draws each arm's count, mean and scatter, not rows; check their laws."""

    @pytest.mark.parametrize("size, p", [(1, 1), (5, 3)])
    def test_arm_statistics_match_data_path(self, size, p):
        y, t, x = random_members(60 + p, size, 120, p)
        n1, means, scatters = arm_moments(y, t, x)
        slopes, cov, partialled, x_sq = arm_statistics(120, n1, means, scatters)
        for b in range(size):
            data = RctDataset(outcome=y[b], treatment=t[b], covariates=x[b])
            contribs = InfluenceContributions(data.influence[1].T)
            want_partialled, want_x_sq = long_normal_equations(data)
            for got, want in ((slopes[b], data.influence[0]), (cov[b], covariance_matrix(contribs)),
                              (partialled[b], want_partialled), (x_sq[b], want_x_sq)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("pi", [0.25, 0.4])
    @pytest.mark.parametrize("p", [1, 3])
    def test_replicate_batch_matches_full_data_path(self, p, pi):
        n, size = 60, 6000
        dgp = RctLinearDGP(
            tau=0.7,
            beta=np.linspace(1.0, -0.5, p),
            interaction=np.linspace(0.8, 0.2, p),
            pi=pi,
            noise_sd=1.2,
            alpha=0.1,
        )
        seed = 100 + 10 * p + int(100 * pi)
        batch = replications(dgp, np.random.default_rng(seed), n, size)
        reference = full_data_replications(dgp, np.random.default_rng(seed + 1), n, size)
        # The lab carries each Sigma_gg estimate as its factor L: compare L L'.
        lab_fields = {name: getattr(batch, name) for name in FIELDS if name != "sigma_gg"}
        lab_fields["sigma_gg"] = batch.chol_gg @ np.swapaxes(batch.chol_gg, -1, -2)
        for name in FIELDS:
            lab, full = (np.reshape(v, (size, -1)) for v in (lab_fields[name], reference[name]))
            z_mean, z_var = moment_z_scores(lab, full)
            assert np.abs(z_mean).max() < 4.5, (name, z_mean)
            assert np.abs(z_var).max() < 4.5, (name, z_var)
        for name in ("c_resid", "se_resid", "c_long"):
            assert ks_2samp(getattr(batch, name), reference[name]).pvalue > 1e-3, name
        # KS misses a small error in the scale of c_short; its second moment
        # about tau against the exact value over n1 does not.
        sq = (batch.c_short - dgp.tau) ** 2
        z = (sq.mean() - c_short_second_moment(dgp, n)) / (sq.std() / math.sqrt(size))
        assert abs(z) < 4.5, z

    def test_small_arm_scatter(self):
        # k = 4 coordinates; counts 2 and 3 leave fewer than k degrees of
        # freedom, drawn as rows, and 5 and 9 go through the Bartlett factor.
        low = np.array([[1.0, 0, 0, 0], [0.5, 1.2, 0, 0], [-0.3, 0.4, 0.8, 0], [0.2, 0, -0.6, 0.0]])
        sigma = low @ low.T
        counts = np.tile([2, 3, 5, 9], 4000)
        draws = dgps._draw_normal(np.random.default_rng(12), 4, counts)
        means, scatter = dgps._normal_sums(draws, low)
        ranks = np.linalg.matrix_rank(scatter[:4], tol=1e-9)
        assert ranks.tolist() == [1, 2, 3, 3]  # min(count - 1, rank of L)
        for count in (2, 3, 5, 9):
            members = counts == count
            for values, want in ((scatter[members] / (count - 1), sigma),
                                 (count * means[members, :, None] * means[members, None, :], sigma)):
                se = values.std(axis=0) / math.sqrt(members.sum())
                z = (values.mean(axis=0) - want) / np.where(se > 0, se, 1.0)
                assert np.abs(z).max() < 4.5, (count, z)

    def test_arm_below_two_units(self):
        dgp = RctLinearDGP(beta=np.array([1.0]), interaction=np.array([0.0]), pi=0.01)
        with pytest.raises(EmptyArm):
            dgp.draw_replications(np.random.default_rng(0), 5, 20)

    @pytest.mark.parametrize("interaction", [0.0, 0.7])
    def test_zero_noise_fails_as_the_data_path_does(self, interaction):
        dgp = RctLinearDGP(beta=np.array([1.0, -0.5]), interaction=np.array([interaction, 0.0]),
                           pi=0.3, noise_sd=0.0)

        def outcome(run):
            try:
                run()
            except EstimationError as err:
                return type(err)
            return None

        lab = outcome(lambda: replications(dgp, np.random.default_rng(4), 100, 40))
        full = outcome(lambda: adapter_replications(dgp, np.random.default_rng(4), 100, 40))
        assert lab is full

    @pytest.mark.parametrize(
        "field, value",
        [("tau", math.nan), ("alpha", math.inf), ("beta", np.array([math.nan])),
         ("interaction", np.array([-math.inf])), ("noise_sd", -1.0), ("noise_sd", math.inf),
         ("noise_sd", math.nan)],
    )
    def test_parameters_validated(self, field, value):
        with pytest.raises(ConfigError):
            RctLinearDGP(**{field: value})


def _duplicated_covariate(y, t, x):
    x[:, 1] = x[:, 0]


class TestStackWithOneBadMember:
    """A stack fails with the error its one bad member raises alone."""

    @pytest.mark.parametrize(
        "corrupt, estimate, error",
        [
            (
                _duplicated_covariate,
                lambda equations: long_coefficients(*equations),
                RankDeficientDesign,
            ),
        ],
    )
    def test_dataset_stack(self, corrupt, estimate, error):
        # The members' normal equations, solved as one stack, as the RCT lab solves them.
        y, t, x = random_members(7, 4, 60, 3)
        bad = 2
        corrupt(y[bad], t[bad], x[bad])
        members = [RctDataset(outcome=y[b], treatment=t[b], covariates=x[b]) for b in range(4)]
        for b, member in enumerate(members):
            if b == bad:
                with pytest.raises(error):
                    estimate(long_normal_equations(member))
            else:
                estimate(long_normal_equations(member))
        with pytest.raises(error):
            estimate(stacked_normal_equations(members))

    def test_cholesky_stack_with_one_non_positive_pivot(self):
        good = np.array([[2.0, 0.5], [0.5, 1.0]])
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # second pivot 1 - 4 < 0
        _fixed_order.cholesky(good)
        with pytest.raises(SingularCheckCovariance):
            _fixed_order.cholesky(bad)
        with pytest.raises(SingularCheckCovariance):
            _fixed_order.cholesky(np.stack([good, good, bad, good]))

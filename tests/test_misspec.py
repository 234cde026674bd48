import dataclasses
import math
import re
import subprocess
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.stats import kstest

from residcheck import _threads, dgps, misspec
from residcheck.dgps import _SCORE_BLOCK, GaussianPairDGP, RctLinearDGP
from residcheck._threads import _N_BATCHES, batch_sizes
from residcheck.errors import (
    ConfigError,
    DegenerateResidualVariance,
    InvalidCovariance,
    NegativeMu,
    WeightUnderflow,
)
from residcheck.io import GaussianDgpSpec, ScoreSpec, SimulateConfig
from residcheck.misspec import _adjustment, _check_start, measure_gaussian_bias
from residcheck.core import JointCovariance
from residcheck.report import run_simulate

from conftest import moment_z_scores, saddle_point_misses
from reference import (
    MisspecScore,
    ZeroInfluence,
    _draw_accepted,
    beta_resid_limit,
    bias_decomposition_check,
    check_weight_bound,
    cross_score_bias,
    draw,
    influence_adjusted,
    influence_c,
    influence_gamma,
    measure_bias,
    perturbed_draws,
    rct_influence_adjusted,
    rct_influence_c,
    rct_influence_gamma,
    sample_moments,
    sample_perturbed,
    structural_mean_shift_score,
    worst_case_score,
    zero_score,
)

PAIR = GaussianPairDGP.from_rho(0.5)
PAIR_P2 = GaussianPairDGP(
    sigma_c_sq=1.5,
    sigma_c_gamma=np.array([0.6, -0.4]),
    sigma_gamma_gamma=np.array([[1.0, 0.3], [0.3, 2.0]]),
)
# Three correlated checks: w_g, the part of the checks independent of a score's
# coordinate u, has off-diagonal covariance under every lambda of the p = 3 grid.
PAIR_P3 = GaussianPairDGP(
    sigma_c_sq=2.0,
    sigma_c_gamma=np.array([0.7, -0.5, 0.4]),
    sigma_gamma_gamma=np.array([[1.0, 0.5, 0.3], [0.5, 1.5, -0.4], [0.3, -0.4, 1.2]]),
)
PAIR_ROWS = partial(draw, PAIR)
PAIR_C = partial(influence_c, PAIR)


def scalar_normal_sampler(rng, size):
    return rng.standard_normal((size, 1))


def exact_score(dgp, lam, mu):
    """psi_lam's worst-case score of size mu at the exact scale mu / sd_u, on rows."""
    psi, scale = influence_adjusted(dgp, lam), mu / dgp.score_coordinate(lam).sd_u
    return MisspecScore(fn=lambda d: scale * psi(d), mu=mu)


class TestWorstCaseScore:
    def test_mu_zero_is_identically_zero(self):
        score = worst_case_score(lambda d: d[:, 0], 0.0, scalar_normal_sampler)
        rng = np.random.default_rng(0)
        assert np.all(score(scalar_normal_sampler(rng, 100)) == 0.0)

    def test_standard_normal_identity_direction(self):
        # psi(d) = d has unit norm, so s*(d) = d up to calibration error.
        score = worst_case_score(
            lambda d: d[:, 0], 1.0, scalar_normal_sampler, calibration_draws=400_000
        )
        rng = np.random.default_rng(1)
        data = scalar_normal_sampler(rng, 1000)
        assert np.allclose(score(data), data[:, 0], rtol=0.02)

    def test_fresh_sample_second_moment_matches_mu(self):
        for lam in (0.0, 0.5, 1.2):
            score = worst_case_score(
                influence_adjusted(PAIR, lam), 1.5, PAIR_ROWS, calibration_draws=1_000_000
            )
            rng = np.random.default_rng(2)
            values = score(PAIR_ROWS(rng, 1_000_000))
            assert float(np.mean(values**2)) == pytest.approx(1.5**2, rel=0.01)

    def test_zero_influence_rejected(self):
        with pytest.raises(ZeroInfluence):
            worst_case_score(lambda d: np.zeros(d.shape[0]), 1.0, scalar_normal_sampler)

    def test_negative_mu_rejected(self):
        with pytest.raises(NegativeMu):
            worst_case_score(lambda d: d[:, 0], -1.0, scalar_normal_sampler)


class TestSamplePerturbed:
    def test_zero_score_reproduces_base_model(self):
        data = sample_perturbed(scalar_normal_sampler, zero_score(), 10_000, seed=3)
        assert kstest(data[:, 0], "norm").pvalue > 0.01

    def test_linear_score_shifts_the_mean(self):
        # E_{P_n}[D] = E0[D s] / sqrt(n) = 1 / sqrt(n) for s(d) = d.
        n, reps = 10_000, 300
        score = MisspecScore(fn=lambda d: d[:, 0], mu=1.0)
        check_weight_bound(score(scalar_normal_sampler(np.random.default_rng(2), 1_000_000)), n)
        means = []
        for rep in range(reps):
            data = sample_perturbed(scalar_normal_sampler, score, n, seed=4_000 + rep)
            means.append(data[:, 0].mean())
        grand = np.mean(means)
        mc_se = np.std(means, ddof=1) / math.sqrt(reps)
        assert grand == pytest.approx(1.0 / math.sqrt(n), abs=3 * mc_se)

    def test_quadratic_score_shifts_second_moment_not_mean(self):
        # s(d) = d^2 - 1 is orthogonal to d: mean stays put, E[D^2] moves by
        # E0[D^2 (D^2-1)] / sqrt(n) = 2 / sqrt(n).
        n, reps = 10_000, 300
        score = MisspecScore(fn=lambda d: d[:, 0] ** 2 - 1.0, mu=2.0)
        means, seconds = [], []
        for rep in range(reps):
            draw = sample_perturbed(scalar_normal_sampler, score, n, seed=5_000 + rep)[:, 0]
            means.append(draw.mean())
            seconds.append(np.mean(draw**2))
        mean_se = np.std(means, ddof=1) / math.sqrt(reps)
        second_se = np.std(seconds, ddof=1) / math.sqrt(reps)
        assert np.mean(means) == pytest.approx(0.0, abs=3 * mean_se)
        assert np.mean(seconds) == pytest.approx(1.0 + 2.0 / math.sqrt(n), abs=3 * second_se)

    def test_weight_bound_enforced(self):
        score = MisspecScore(fn=lambda d: 4.0 * d[:, 0], mu=4.0)
        with pytest.raises(WeightUnderflow):
            sample_perturbed(scalar_normal_sampler, score, 16, seed=6)

    def test_no_repeated_rows(self):
        # Rejection keeps distinct proposals; resampling a finite pool repeats them.
        score = worst_case_score(influence_adjusted(PAIR, PAIR.lambda_opt), 1.0, PAIR_ROWS)
        data = sample_perturbed(PAIR_ROWS, score, 2000, seed=15)
        assert data.shape == (2000, 2)
        assert np.unique(data, axis=0).shape[0] == 2000

    def test_reweighted_expectations_match_first_order(self):
        # E_{P_n}[g] = E0[g] + E0[g s] / sqrt(n) for bounded g.
        n = 2500
        score = worst_case_score(influence_adjusted(PAIR, 0.5), 1.0, PAIR_ROWS, seed=9)
        rng = np.random.default_rng(7)
        calib = PAIR_ROWS(rng, 400_000)
        for g in (lambda d: np.cos(d[:, 0]), lambda d: np.tanh(d[:, 1])):
            predicted = g(calib).mean() + (g(calib) * score(calib)).mean() / math.sqrt(n)
            samples = []
            for rep in range(200):
                data = sample_perturbed(PAIR_ROWS, score, n, seed=100 + rep)
                samples.append(g(data).mean())
            mc_se = np.std(samples, ddof=1) / math.sqrt(len(samples))
            assert np.mean(samples) == pytest.approx(predicted, abs=3 * mc_se)


class TestMeasureBias:
    def test_zero_score_is_unbiased(self):
        m = measure_bias(
            PAIR, "zero", PAIR_C, PAIR_ROWS, zero_score(), n=2000, reps=400,
            seed=8, calibration_draws=100_000,
        )
        assert m.sqrt_n_bias == pytest.approx(0.0, abs=3 * m.mc_se)
        assert m.predicted == 0.0

    def test_orthogonal_score_is_unbiased(self):
        # Project a quadratic direction against psi on a calibration sample.
        rng = np.random.default_rng(9)
        calib = PAIR_ROWS(rng, 1_000_000)
        psi = influence_adjusted(PAIR, PAIR.lambda_opt)
        h = lambda d: d[:, 0] ** 2 - 1.0
        coef = float((h(calib) * psi(calib)).mean() / (psi(calib) ** 2).mean())
        score = MisspecScore(fn=lambda d: h(d) - coef * psi(d), mu=2.0)
        m = measure_bias(
            PAIR, "optimal", psi, PAIR_ROWS, score, n=2000, reps=600,
            seed=10, calibration_draws=200_000,
        )
        assert abs(m.predicted) <= 3 * m.predicted_se + 1e-3
        assert m.sqrt_n_bias == pytest.approx(0.0, abs=3 * m.mc_se)

    def test_closed_form_biases(self):
        # Under its own worst case the residualized estimator's bias is
        # mu sigma_c sqrt(1 - I) and the short estimator's is mu sigma_c.
        psi_opt = influence_adjusted(PAIR, PAIR.lambda_opt)
        score_opt = worst_case_score(psi_opt, 1.0, PAIR_ROWS, seed=1)
        m_resid = measure_bias(
            PAIR, "optimal", psi_opt, PAIR_ROWS, score_opt, n=2500, reps=1500,
            seed=11, calibration_draws=400_000,
        )
        assert m_resid.sqrt_n_bias == pytest.approx(math.sqrt(0.75), abs=3 * m_resid.mc_se)
        score_zero = worst_case_score(PAIR_C, 1.0, PAIR_ROWS, seed=2)
        m_short = measure_bias(
            PAIR, "zero", PAIR_C, PAIR_ROWS, score_zero, n=2500, reps=1500,
            seed=12, calibration_draws=400_000,
        )
        assert m_short.sqrt_n_bias == pytest.approx(1.0, abs=3 * m_short.mc_se)

    @pytest.mark.parametrize(
        "dgp, factor, seed",
        [(PAIR, 0.0, 51), (PAIR, 1.0, 52), (PAIR, 2.0, 53), (PAIR_P2, 1.0, 54)],
        ids=["zero", "optimal", "twice-optimal", "p2-optimal"],
    )
    def test_coordinate_calibration_matches_rows(self, dgp, factor, seed):
        # The exact predicted mu sd_u is the E0[psi s] that rows estimate.
        lam = factor * dgp.lambda_opt
        m = measure_gaussian_bias(
            dgp, "optimal" if factor == 1.0 else lam, 1.5, n=2000, reps=50, seed=seed
        )
        calib = draw(dgp, np.random.default_rng(seed), 400_000)
        products = influence_adjusted(dgp, lam)(calib) * exact_score(dgp, lam, 1.5)(calib)
        rows_se = products.std(ddof=1) / math.sqrt(len(products))
        assert m.predicted_se == 0.0
        assert m.predicted == pytest.approx(products.mean(), abs=4 * rows_se)

    @pytest.mark.parametrize(
        "dgp, lam, closed_form",
        [
            (PAIR, np.zeros(1), 1.0),
            (PAIR, PAIR.lambda_opt, math.sqrt(0.75)),
            # sigma_c^2 - Sigma_cg' Sigma_gg^-1 Sigma_cg = 1.5 - 1.024 / 1.91
            (PAIR_P2, PAIR_P2.lambda_opt, math.sqrt(1.841 / 1.91)),
        ],
        ids=["zero", "optimal", "p2-optimal"],
    )
    def test_predicted_is_the_exact_norm(self, dgp, lam, closed_form):
        m = measure_gaussian_bias(dgp, lam, 1.5, n=200, reps=50, seed=1)
        assert m.predicted == 1.5 * dgp.score_coordinate(lam).sd_u
        assert m.predicted_se == 0.0
        assert m.predicted == pytest.approx(1.5 * closed_form, rel=1e-15, abs=0.0)

    def test_budget_guard(self):
        with pytest.raises(ConfigError):
            measure_bias(
                PAIR, "zero", PAIR_C, PAIR_ROWS, zero_score(), n=10**6, reps=10**6, seed=1,
            )

    def test_deterministic_across_thread_counts(self, workers):
        score = worst_case_score(PAIR_C, 1.0, PAIR_ROWS, seed=3)
        kwargs = dict(n=500, reps=200, seed=13, calibration_draws=50_000)
        workers(1)
        a = measure_bias(PAIR, "zero", PAIR_C, PAIR_ROWS, score, **kwargs)
        workers(4)
        b = measure_bias(PAIR, "zero", PAIR_C, PAIR_ROWS, score, **kwargs)
        assert a == b


def moment_rows(means, cov):
    """One row per replication: the sample means, then the covariance's upper triangle."""
    upper = np.triu_indices(means.shape[-1])
    return np.column_stack([means, cov[:, upper[0], upper[1]]])


class TestPerturbedBatch:
    """The lab draws the score coordinate and exact sums of the rest, not rows.

    Its per-replication moments must have the laws of the moments of rows
    drawn by the generic rejection sampler.
    """

    @pytest.mark.parametrize(
        "dgp, factor, seed",
        [(PAIR, 0.0, 41), (PAIR, 1.0, 42), (PAIR, 2.0, 43), (PAIR_P2, 2.0, 44)],
        ids=["zero", "optimal", "twice-optimal", "p2-twice-optimal"],
    )
    def test_matches_rejection_rows(self, dgp, factor, seed):
        # Away from the optimum the part of d_g along the score is perturbed too.
        n, row_reps, batch_reps = 60, 3_000, 40_000
        lam = factor * dgp.lambda_opt
        score = exact_score(dgp, lam, 1.2)
        rng = np.random.default_rng(seed)
        rows = [
            sample_moments(_draw_accepted(rng, partial(draw, dgp), score, n))
            for _ in range(row_reps)
        ]
        reference = moment_rows(np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows]))
        draws = dgp.perturbed_draws(np.random.default_rng(seed + 100), n, batch_reps, 1.2)
        batch = moment_rows(*dgp.score_coordinate(lam).perturbed_moments(draws))
        z_mean, z_var = moment_z_scores(batch, reference)
        assert np.abs(z_mean).max() < 4.5, z_mean
        assert np.abs(z_var).max() < 4.5, z_var

    def test_proposal_outside_the_weight_gate(self):
        with pytest.raises(WeightUnderflow):
            PAIR.perturbed_draws(np.random.default_rng(0), 16, 5, 4.0)

    @pytest.mark.parametrize("mu", [-4.0, math.inf, -math.inf, math.nan])
    def test_gate_reads_the_largest_coordinate(self, mu):
        # The weights are monotone in |z|: one maximum decides both bounds,
        # and a non-finite slope fails as its weights would.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WeightUnderflow):
                PAIR.perturbed_draws(np.random.default_rng(0), 16, 5, mu)

    def test_every_lambda_maps_the_draws_unchanged(self):
        draws = PAIR_P2.perturbed_draws(np.random.default_rng(3), 60, 20, 1.2)
        kept = {f.name: np.copy(getattr(draws, f.name)) for f in dataclasses.fields(draws)[1:]}
        first = PAIR_P2.score_coordinate(PAIR_P2.lambda_opt).perturbed_moments(draws)
        PAIR_P2.score_coordinate(2.0 * PAIR_P2.lambda_opt).perturbed_moments(draws)
        again = PAIR_P2.score_coordinate(PAIR_P2.lambda_opt).perturbed_moments(draws)
        for name, value in kept.items():
            assert np.array_equal(getattr(draws, name), value), name
        assert all(np.array_equal(x, y) for x, y in zip(first, again))


def assert_same_perturbed_draws(dgp, make_rng, n, size, mu):
    rng, ref_rng = make_rng(), make_rng()
    draws = dgp.perturbed_draws(rng, n, size, mu)
    expected = perturbed_draws(dgp, ref_rng, n, size, mu)
    assert draws.n == expected.n
    for f in dataclasses.fields(draws)[1:]:
        got, want = getattr(draws, f.name), getattr(expected, f.name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TieAtEveryDraw:
    """A generator whose uniforms are exactly w(|z|) / 2 for its last standard block."""

    def __init__(self, seed, slope):
        self.rng = np.random.default_rng(seed)
        self.slope = slope

    def standard_normal(self, size=None, out=None):
        self.z = self.rng.standard_normal(size if out is None else out.shape)
        if out is None:
            return self.z.copy()
        out[...] = self.z
        return out

    def random(self, size=None, out=None):
        weights = np.abs(self.z) * self.slope
        weights += 1.0
        weights /= 2.0
        if out is None:
            return weights
        out[...] = weights
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestPerturbedDrawBits:
    """The perturbed draws match the masked-sign reference bit for bit, in its draw order."""

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.2, -0.7])
    @pytest.mark.parametrize("dgp, n, size", [
        (PAIR, 60, 40), (PAIR_P2, 60, 40), (PAIR, 2_000, 30),
        (PAIR_P2, 2_000, _SCORE_BLOCK // 2_000 + 7),  # one batch over two blocks
    ], ids=["n60", "p2-n60", "n2000", "p2-two-blocks"])
    def test_matches_reference(self, dgp, n, size, mu):
        seed = 71 + n + size
        assert_same_perturbed_draws(dgp, lambda: np.random.default_rng(seed), n, size, mu)

    def test_failing_gate_raises_the_same_error(self):
        messages = []
        for sampler in (PAIR.perturbed_draws, partial(perturbed_draws, PAIR)):
            rng = np.random.default_rng(0)
            with pytest.raises(WeightUnderflow) as caught:
                sampler(rng, 16, 5, 4.0)
            messages.append((str(caught.value), rng.bit_generator.state))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("mu", [0.0, 1.2])
    def test_tie_negates(self, mu):
        # 2v = w at every draw: each z comes back as -|z|, as the reference keeps it.
        n, size = 60, 8
        draws = PAIR.perturbed_draws(TieAtEveryDraw(5, mu / math.sqrt(n)), n, size, mu)
        z = np.random.default_rng(5).standard_normal((size, n))
        assert draws.z_mean.tobytes() == (np.add.reduce(-np.abs(z), axis=-1) / n).tobytes()
        assert_same_perturbed_draws(
            PAIR, lambda: TieAtEveryDraw(5, mu / math.sqrt(n)), n, size, mu
        )


class TestDrawScratch:
    """Each worker draws a run's perturbed batches into one scratch set."""

    @pytest.mark.parametrize("threads", [1, 4])
    def test_one_scratch_set_per_worker(self, threads, monkeypatch, workers):
        made = []

        def counting(n, size):
            made.append((n, size))
            return dgps.perturbed_scratch(n, size)

        monkeypatch.setattr(misspec, "perturbed_scratch", counting)
        workers(threads)
        measure_gaussian_bias(PAIR, "optimal", 1.0, n=200, reps=1003, seed=5)
        # The largest batch holds 21 replications.
        assert 1 <= len(made) <= threads and set(made) == {(200, 21)}

    @pytest.mark.parametrize("n, size", [(60, 39), (61, 40)])
    def test_scratch_that_does_not_fit_is_refused(self, n, size):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="does not fit"):
            PAIR.perturbed_draws(rng, 60, 40, 1.0, dgps.perturbed_scratch(n, size))
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("one_cpu", [False, True], ids=["default", "one-worker"])
    def test_bench_sized_op_takes_few_page_faults(self, one_cpu):
        # n = 2,000 and 1,000 reps, in a fresh process. Three fresh 320 KB blocks per
        # batch for |z|, the weights and the uniforms went back to the system when freed
        # and were faulted in again: about 10,000 minor faults per op on one worker.
        # The one-worker child pins itself to one CPU of its mask before any run.
        pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})" if one_cpu else ""
        code = f"""
import os
import resource
from residcheck.io import GaussianDgpSpec, ScoreSpec, SimulateConfig
from residcheck.report import run_simulate

{pin}
config = SimulateConfig(lab="misspec", n=2000, reps=1000, seed=5, dgp=GaussianDgpSpec(rho=0.5),
                        score=ScoreSpec(lam="optimal", mu=1.0))
run_simulate(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    run_simulate(config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) <= 1000


class CountingSampler:
    """Delegates to a DGP and records the size of every row draw and perturbed batch."""

    def __init__(self, dgp):
        self.dgp = dgp
        self.sizes = []

    def draw(self, rng, size):
        self.sizes.append(size)
        return draw(self.dgp, rng, size)

    def perturbed_draws(self, rng, n, size, mu, scratch=None):
        self.sizes.append(size)
        return self.dgp.perturbed_draws(rng, n, size, mu, scratch)

    def __getattr__(self, name):
        return getattr(self.dgp, name)


class TestWeightGate:
    """Runners refuse a bad n before any replication.

    The row runner gates on the calibration sample it scores anyway, the
    Gaussian runners on a closed-form expected count, with no draw.
    """

    def test_measure_bias_fails_before_any_replication(self):
        counting = CountingSampler(PAIR)
        score = worst_case_score(PAIR_C, 2.0, PAIR_ROWS)
        with pytest.raises(WeightUnderflow):
            measure_bias(
                PAIR, "zero", PAIR_C, counting.draw, score, n=16, reps=100,
                seed=1, calibration_draws=50_000,
            )
        assert counting.sizes == [50_000]

    def test_gaussian_runner_fails_before_any_replication(self):
        counting = CountingSampler(PAIR)
        with pytest.raises(WeightUnderflow, match="72.8"):
            measure_gaussian_bias(counting, "zero", 2.0, n=16, reps=100, seed=1)
        with pytest.raises(ConfigError, match="'optimum'"):
            measure_gaussian_bias(counting, "optimum", 1.0, n=2000, reps=100, seed=1)
        assert counting.sizes == []

    @pytest.mark.parametrize("lam, n, reps", [
        ("optimal", 2000, 0), ("optimal", 0, 100), ("optimal", 1, 100), ("optimal", 2, 100),
        ("optimal", 2000, 1), ("zero", 1, 100),
    ])
    def test_gaussian_runner_refuses_too_few_draws(self, lam, n, reps):
        # At p = 1 an MC SE needs 2 replications, the plug-in lambda's residual variance
        # 3 draws in each, and any draw 2.
        counting = CountingSampler(PAIR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"got reps = {reps} and n = {n}$"):
                measure_gaussian_bias(counting, lam, 1.0, n=n, reps=reps, seed=1)
        assert counting.sizes == []

    def test_profile_fails_before_any_replication(self):
        counting = CountingSampler(PAIR)
        with pytest.raises(WeightUnderflow):
            cross_score_bias(
                counting, [0.0, float(PAIR.lambda_opt[0])], [0.5, 2.0], n=16, reps=100, seed=1,
            )
        assert counting.sizes == []

    @pytest.mark.parametrize(
        "n, mu, reps, expected",
        [(16, 2.0, 100, 72.8), (16, 2.0, 2, 1.456), (16, 2.0, 1, 0.728), (200, 2.0, 1000, 3.07e-7),
         (200, 0.0, 1000, 0.0), (100, 1e308, 1000, 1e5), (100, math.inf, 1000, 1e5),
         (100, math.nan, 1000, math.nan)],
    )
    def test_start_gate_is_the_expected_count(self, n, mu, reps, expected):
        # n reps erfc(sqrt(n) / (mu sqrt(2))) draws of |z| expected above sqrt(n) / mu.
        if expected < 1.0:
            _check_start(n, reps, mu)
        else:
            message = re.escape(f"{expected:.3g} of the run's {n * reps}")
            with pytest.raises(WeightUnderflow, match=message):
                _check_start(n, reps, mu)

    def test_bound_reads_the_values_it_is_given(self):
        assert check_weight_bound(np.array([-1.5, 0.5]), 4) == 1.5
        with pytest.raises(WeightUnderflow):
            check_weight_bound(np.array([0.0, -2.0]), 4)
        with pytest.raises(WeightUnderflow):
            check_weight_bound(np.array([0.0, np.nan]), 4)


def cross_mse_misses(matrix, dgp, lambdas, mus) -> list[str]:
    """The cells of a cross-score matrix whose MSE is beyond 4 MC SE of its closed form.

    Adjustment i under lambda_j's worst case has sqrt(n)-scale MSE a_i' Sigma
    a_i + (mu a_i' Sigma a_j)^2 / (a_j' Sigma a_j), a = (1, -lambda). Off the
    diagonal its variance term reads the law of w = d - b u_j, the part of d
    independent of u_j, which no bias reads.
    """
    a = np.column_stack([np.ones(len(lambdas)), -np.reshape(lambdas, (len(lambdas), -1))])
    cross = a @ dgp.population_covariance(2).full_matrix() @ a.T
    norm_sq = np.diagonal(cross)
    misses = []
    for k, mu in enumerate(mus):
        want = norm_sq[:, None] + (mu * cross) ** 2 / norm_sq[None, :]
        bad = np.abs(matrix.mse[k] - want) > 4 * matrix.mse_se[k]
        if np.any(bad):
            misses.append(f"mu={mu}: MSE beyond 4 MC SE at {np.argwhere(bad).tolist()}")
    return misses


class TestCrossScoreBias:
    """B[i, j]: the bias of the lambda_i adjustment under lambda_j's worst-case score."""

    def test_saddle_point_at_optimal_lambda(self):
        # Each diagonal entry is sd_u(lambda_i) times one lambda-free average,
        # so the diagonal's argmin sits at lambda* whatever direction the
        # sampler gives the score; the off-diagonal entries read it.
        lam = float(PAIR.lambda_opt[0])
        lambdas = [0.0, lam / 2, lam, 1.5 * lam, 2 * lam]
        mus = [0.5, 1.0, 2.0]
        matrix = cross_score_bias(PAIR, lambdas, mus, n=2000, reps=2500, seed=14)
        sigma_r = math.sqrt(PAIR.population_covariance(2).sigma_r_sq)
        assert saddle_point_misses(matrix, mus, lambdas.index(lam), sigma_r) == []
        for a, mu in enumerate(mus):
            bias, predicted = np.diagonal(matrix.bias[a]), np.diagonal(matrix.predicted[a])
            # Measured biases track mu ||psi_lambda||.
            assert np.allclose(bias, predicted, atol=3.5 * np.diagonal(matrix.bias_se[a]).max())
            # sqrt(n)-scale MSE factorizes as (1 + mu^2) ||psi_lambda||^2.
            predicted_mse = (1 + mu**2) * (predicted / mu) ** 2
            assert np.allclose(np.diagonal(matrix.mse[a]), predicted_mse, rtol=0.05)

    def test_saddle_point_at_optimal_lambda_p2(self):
        # lambda* and lambda* +- delta e_k span R^2. For adjustments i and j,
        # B[i, i] - B[i, j] = mu ||psi_i|| (1 - rho_ij) in the mean, with noise of sd
        # ||psi_i|| sqrt(1 - rho_ij^2) / sqrt(reps): at delta = 0.4 the closest pair has
        # tan(theta / 2) = 0.194, 7.5 sd at mu = 0.5 and 6,000 reps. Each step off
        # lambda* raises ||psi||^2 above sigma_r^2 = 0.964 by delta^2 Sigma_gg[k, k].
        lam, delta = PAIR_P2.lambda_opt, 0.4
        steps = [delta * np.eye(2)[k] * sign for k in (0, 1) for sign in (1, -1)]
        lambdas = [lam] + [lam + step for step in steps] + [np.zeros(2)]
        mus = [0.5, 2.0]
        matrix = cross_score_bias(PAIR_P2, lambdas, mus, n=2000, reps=6000, seed=26)
        sigma_r = math.sqrt(PAIR_P2.population_covariance(2).sigma_r_sq)
        assert saddle_point_misses(matrix, mus, 0, sigma_r) == []
        # A w_g covariance without its off-diagonal moves the MSE of lambda* - delta e_2
        # under lambda = 0's score by 17.7 MC SE at mu = 0.5 (closed form).
        assert cross_mse_misses(matrix, PAIR_P2, lambdas, mus) == []

    def test_saddle_point_at_optimal_lambda_p3(self):
        # As at p = 2, over lambda*, lambda* +- delta e_k (k = 1, 2, 3) and 0. Each row's
        # diagonal leads its closest entry by mu sqrt((1 - rho_ij) / 2) sqrt(reps) sd in
        # the mean: at least 7.6 at mu = 0.5, delta = 0.5 and 4,000 reps. Off the diagonal
        # the MSE reads w_g's law: with its covariance's off-diagonal dropped, 14 cells at
        # mu = 0.5 (12 at mu = 2) move by more than 8 MC SE, the largest, lambda* - delta
        # e_2 under lambda = 0's score, by 75 (closed form).
        lam, delta = PAIR_P3.lambda_opt, 0.5
        steps = [delta * np.eye(3)[k] * sign for k in range(3) for sign in (1, -1)]
        lambdas = [lam] + [lam + step for step in steps] + [np.zeros(3)]
        mus = [0.5, 2.0]
        matrix = cross_score_bias(PAIR_P3, lambdas, mus, n=2000, reps=4000, seed=33)
        sigma_r = math.sqrt(PAIR_P3.population_covariance(2).sigma_r_sq)
        assert saddle_point_misses(matrix, mus, 0, sigma_r) == []
        assert cross_mse_misses(matrix, PAIR_P3, lambdas, mus) == []

    def test_single_cell_matches_full_grid(self):
        # Common random numbers per batch: every mu restarts its batch's
        # stream and every score maps the same draws, so a cell's draws do
        # not depend on which other cells are in the grid.
        lam = float(PAIR.lambda_opt[0])
        lambdas = [0.0, lam / 2, lam, 1.5 * lam, 2 * lam]
        mus = [0.5, 1.0, 2.0]
        kwargs = dict(n=200, reps=1000, seed=16)
        full = cross_score_bias(PAIR, lambdas, mus, **kwargs)
        part = cross_score_bias(PAIR, [lambdas[3], lambdas[1]], [mus[1]], **kwargs)
        for field in dataclasses.fields(full):
            got, want = getattr(part, field.name)[0], getattr(full, field.name)[1]
            assert np.array_equal(got, want[np.ix_([3, 1], [3, 1])]), field.name

    def test_deterministic_across_thread_counts(self, workers):
        lam = float(PAIR.lambda_opt[0])
        kwargs = dict(n=200, reps=1000, seed=17)
        workers(1)
        one = cross_score_bias(PAIR, [0.0, lam], [0.5, 2.0], **kwargs)
        workers(4)
        four = cross_score_bias(PAIR, [0.0, lam], [0.5, 2.0], **kwargs)
        for field in dataclasses.fields(one):
            assert np.array_equal(getattr(one, field.name), getattr(four, field.name)), field.name

    def test_norm_that_overflows_fails_before_any_replication(self):
        # a' Sigma a ~ 1e400 overflows: a zero score would be silently used.
        counting = CountingSampler(PAIR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidCovariance):
                cross_score_bias(counting, [1e200], [1.0], n=200, reps=1000, seed=1)
        assert counting.sizes == []

    def test_one_draw_per_mu_on_the_criterion_6_grid(self):
        # 5 lambdas x 3 mus: each batch draws once per mu, not per cell.
        counting = CountingSampler(PAIR)
        lam = float(PAIR.lambda_opt[0])
        cross_score_bias(
            counting, [0.0, lam / 2, lam, 1.5 * lam, 2 * lam], [0.5, 1.0, 2.0],
            n=200, reps=100, seed=1,
        )
        assert counting.sizes == batch_sizes(100, _N_BATCHES) * 3


def batch_streams(seed, reps):
    """(generator, size) of each batch of a run."""
    children = np.random.SeedSequence(seed).spawn(_N_BATCHES)
    return [
        (np.random.default_rng(c), size)
        for c, size in zip(children, batch_sizes(reps, _N_BATCHES))
    ]


class TestStagedFrame:
    """The bias runners draw per batch and estimate once; each estimate is its batch's own."""

    # At most 100 replications per estimate: several stacks.
    @pytest.mark.parametrize("stack_reps", [_threads._STACK_REPS, 100])
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize(
        "lam, n, mu",
        # At n = 3 the Wishart(n - 2, I_2) factor has fewer degrees of freedom than p.
        [("optimal", 60, 1.2), ("zero", 60, 1.2), ([0.3, -0.2], 3, 0.1)],
        ids=["plugin", "short", "fixed-small-n"],
    )
    def test_estimates_equal_batch_by_batch(
        self, lam, n, mu, threads, stack_reps, monkeypatch, workers
    ):
        monkeypatch.setattr(_threads, "_STACK_REPS", stack_reps)
        reps, seed = 1003, 71
        _, lam_row, from_moments = _adjustment(PAIR_P2, lam)
        coordinate = PAIR_P2.score_coordinate(lam_row)

        def estimate(draws):
            return from_moments(*coordinate.perturbed_moments(draws), n)

        estimate_stack, stages = _threads._estimate_stack, []

        def recording(draw, estimate, *args):
            return estimate_stack(draw, lambda d: stages.append(estimate(d)) or stages[-1], *args)

        monkeypatch.setattr(_threads, "_estimate_stack", recording)
        workers(threads)
        result = measure_gaussian_bias(PAIR_P2, lam, mu, n=n, reps=reps, seed=seed)
        want = np.concatenate([
            estimate(PAIR_P2.perturbed_draws(rng, n, size, mu))
            for rng, size in batch_streams(seed, reps)
        ])
        assert (len(stages) == 1) == (stack_reps >= reps)
        assert np.array_equal(np.concatenate(stages), want)
        assert result.sqrt_n_bias == float(np.mean(math.sqrt(n) * (want - PAIR_P2.c_true)))

    @pytest.mark.parametrize("stack_reps", [_threads._STACK_REPS, 100])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_profile_equals_batch_by_batch_moments(
        self, threads, stack_reps, monkeypatch, workers
    ):
        monkeypatch.setattr(_threads, "_STACK_REPS", stack_reps)
        # The matrix maps sample means only; the full moment map gives the same estimates.
        lam = float(PAIR.lambda_opt[0])
        lambdas, mus, n, reps, seed = [0.0, lam, 2 * lam], [0.5, 2.0], 200, 1003, 18
        workers(threads)
        matrix = cross_score_bias(PAIR, lambdas, mus, n=n, reps=reps, seed=seed)
        coordinates = [PAIR.score_coordinate(value) for value in lambdas]
        maps = [_adjustment(PAIR, coord.lam)[2] for coord in coordinates]

        def errors(draws):  # [i, j, replication]
            moments = [coord.perturbed_moments(draws) for coord in coordinates]
            return [[math.sqrt(n) * (to_estimate(*m, n) - PAIR.c_true) for m in moments]
                    for to_estimate in maps]

        scaled = np.array([
            np.concatenate([
                errors(PAIR.perturbed_draws(rng, n, size, mu))
                for rng, size in batch_streams(seed, reps)
            ], axis=-1)
            for mu in mus
        ])
        assert np.array_equal(matrix.bias, scaled.mean(axis=-1))
        assert np.array_equal(matrix.mse, (scaled**2).mean(axis=-1))
        assert np.array_equal(matrix.bias_se, scaled.std(axis=-1, ddof=1) / math.sqrt(reps))

    def test_optimal_lambda_validates_one_stack(self, monkeypatch):
        validate, calls = JointCovariance.__post_init__, []

        def counting(self):
            calls.append(np.shape(self.sigma_c_sq))
            validate(self)

        monkeypatch.setattr(JointCovariance, "__post_init__", counting)
        run_simulate(SimulateConfig(
            lab="misspec", n=400, reps=1003, seed=3,
            dgp=GaussianDgpSpec(rho=0.5), score=ScoreSpec(lam="optimal", mu=0.5),
        ))
        # The rest are single population covariances, for lambda_opt.
        assert [shape for shape in calls if shape] == [(1003,)]


class FaultyPair:
    """Delegates to a DGP; the perturbed draws of the batches in ``faults`` are corrupted, or raise.

    A batch's index is the spawn key of its stream.
    """

    def __init__(self, dgp, faults):
        self.dgp, self.faults = dgp, faults

    def perturbed_draws(self, rng, n, size, mu, scratch=None):
        draws = self.dgp.perturbed_draws(rng, n, size, mu, scratch)
        fault = self.faults.get(rng.bit_generator.seed_seq.spawn_key[-1])
        return draws if fault is None else fault(draws)

    def __getattr__(self, name):
        return getattr(self.dgp, name)


def _scatter_along_b(draws):
    # No scatter of w: the first replication's covariance is S_uu b b', of rank one.
    z2, bartlett = draws.z2.copy(), draws.bartlett.copy()
    z2[0], bartlett[0] = 0.0, 0.0
    return dataclasses.replace(draws, z2=z2, bartlett=bartlett)


def _no_scatter(draws):
    s_zz = draws.s_zz.copy()
    s_zz[0] = 0.0
    return _scatter_along_b(dataclasses.replace(draws, s_zz=s_zz))


def _weight_outside(draws):
    raise WeightUnderflow("a weight 1 + s/sqrt(n) falls outside [0, 2] at n = 200")


class TestErrorsInBatchOrder:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_first_failing_batch_decides(self, threads, workers):
        # Batch 0 fails a late gate of validation, batch 1 the first, and batch 2 cannot be drawn.
        dgp = FaultyPair(PAIR, {0: _scatter_along_b, 1: _no_scatter, 2: _weight_outside})
        n, mu, reps, seed = 200, 0.5, 1000, 72
        _, lam, from_moments = _adjustment(PAIR, "optimal")
        coordinate = PAIR.score_coordinate(lam)

        def run_alone(rng, size):
            draws = dgp.perturbed_draws(rng, n, size, mu)
            from_moments(*coordinate.perturbed_moments(draws), n)

        with pytest.raises(DegenerateResidualVariance) as alone:
            for rng, size in batch_streams(seed, reps):
                run_alone(rng, size)
        workers(threads)
        with pytest.raises(DegenerateResidualVariance) as run:
            measure_gaussian_bias(dgp, "optimal", mu, n=n, reps=reps, seed=seed)
        assert str(run.value) == str(alone.value)
        with pytest.raises(InvalidCovariance):  # batch 1 alone
            run_alone(*batch_streams(seed, reps)[1])


class TestPinnedBits:
    """Bits of the exact-norm sampler; a change that moves them says so."""

    def test_criterion_9_misspec_command(self):
        # simulate --lab misspec --rho 0.5 --mu 0.5 --lambda optimal --n 400
        # --reps 1000 --seed 3.
        results = run_simulate(SimulateConfig(
            lab="misspec", n=400, reps=1000, seed=3,
            dgp=GaussianDgpSpec(rho=0.5), score=ScoreSpec(lam="optimal", mu=0.5),
        ))["results"]
        assert results["sqrt_n_bias"] == 0.478810111654406
        assert results["mc_se"] == 0.028360879457285312
        assert results["predicted"] == 0.5 * math.sqrt(0.75)

    def test_profile_bias(self):
        # The diagonal of the cross-score matrix: each lambda under its own worst case.
        lam = float(PAIR.lambda_opt[0])
        matrix = cross_score_bias(PAIR, [0.0, lam, 2 * lam], [0.5, 2.0], n=200, reps=1000, seed=16)
        assert np.diagonal(matrix.bias, axis1=1, axis2=2).tolist() == [
            [0.5555030446493437, 0.48107974854593294, 0.5555030446493436],
            [2.0241146258084872, 1.7529346861217827, 2.024114625808487],
        ]


class TestBiasDecomposition:
    def test_all_zero_scores(self):
        check = bias_decomposition_check(
            lambda d: np.zeros(d.shape[0]),
            zero_score(),
            PAIR.lambda_opt,
            PAIR_C,
            partial(influence_gamma, PAIR),
            PAIR_ROWS,
            calibration_draws=100_000,
        )
        assert check.total_bias == 0.0
        assert check.target_shift == 0.0
        assert check.net_bias == 0.0

    def test_structural_score_needs_noise(self):
        dgp = RctLinearDGP(beta=np.array([1.0]), interaction=np.array([0.0]), noise_sd=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="noise_sd"):
                structural_mean_shift_score(dgp)

    def test_within_model_structural_direction_drops_out(self):
        dgp = RctLinearDGP(tau=1.0, beta=np.array([1.0]), interaction=np.array([0.0]))
        lam = beta_resid_limit(dgp)
        s_z = worst_case_score(rct_influence_adjusted(dgp, lam), 1.0, dgp.draw_matrix, seed=4)
        check = bias_decomposition_check(
            structural_mean_shift_score(dgp),
            s_z,
            lam,
            partial(rct_influence_c, dgp),
            partial(rct_influence_gamma, dgp),
            dgp.draw_matrix,
            calibration_draws=400_000,
        )
        assert check.gamma_structural_term == pytest.approx(
            0.0, abs=3 * check.gamma_structural_term_se
        )
        assert check.net_bias == pytest.approx(
            check.misspec_term, abs=3 * np.hypot(check.net_bias_se, check.misspec_term_se)
        )
        # An equal mean shift in both arms leaves the target flat too.
        assert check.target_shift == pytest.approx(0.0, abs=3 * check.target_shift_se)

    def test_net_bias_ratio_across_lambdas(self):
        # Worst-case net bias at lambda = 0 vs the optimum scales by sqrt(1 - I).
        results = {}
        for lam_val in (0.0, float(PAIR.lambda_opt[0])):
            lam = np.array([lam_val])
            s_z = worst_case_score(influence_adjusted(PAIR, lam), 1.0, PAIR_ROWS, seed=5)
            check = bias_decomposition_check(
                lambda d: np.zeros(d.shape[0]),
                s_z,
                lam,
                PAIR_C,
                partial(influence_gamma, PAIR),
                PAIR_ROWS,
                calibration_draws=400_000,
            )
            results[lam_val] = check.net_bias
        ratio = results[float(PAIR.lambda_opt[0])] / results[0.0]
        assert ratio == pytest.approx(math.sqrt(1.0 - PAIR.population_covariance(2).informativeness), rel=0.02)

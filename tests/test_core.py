import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residcheck import (
    JointCovariance,
    adjusted_variance,
    misspec_bounds,
    orthogonality_stat,
    residualize,
    worst_case_bias,
)
from residcheck.errors import (
    DegenerateResidualVariance,
    DimensionMismatch,
    InvalidCovariance,
    NegativeMu,
    SingularCheckCovariance,
)
from conftest import random_joint_covariance


class TestJointCovarianceValidation:
    def test_asymmetric_check_block_rejected(self):
        sgg = np.array([[1.0, 0.3], [0.2, 1.0]])
        with pytest.raises(InvalidCovariance):
            JointCovariance(1.0, np.zeros(2), sgg, 50)

    def test_singular_check_block_rejected(self):
        sgg = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularCheckCovariance):
            JointCovariance(1.0, np.zeros(2), sgg, 50)

    def test_near_singular_check_block_rejected(self):
        sgg = np.diag([1.0, 1e-14])
        with pytest.raises(SingularCheckCovariance):
            JointCovariance(1.0, np.zeros(2), sgg, 50)

    def test_degenerate_residual_variance_rejected(self):
        # sigma_c_sq equals the explained part exactly.
        with pytest.raises(DegenerateResidualVariance):
            JointCovariance(1.0, np.array([2.0]), np.array([[4.0]]), 50)

    def test_negative_sigma_c_rejected(self):
        with pytest.raises(InvalidCovariance):
            JointCovariance(-1.0, np.array([0.0]), np.eye(1), 50)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            JointCovariance(1.0, np.array([0.1, 0.2]), np.eye(3), 50)

    def test_no_checks_rejected(self):
        with pytest.raises(DimensionMismatch):
            JointCovariance(1.0, np.zeros(0), np.zeros((0, 0)), 10)

    def test_from_matrix_inverts_full_matrix(self):
        members = [random_joint_covariance(seed, 3) for seed in range(4)]
        full = np.stack([member.full_matrix() for member in members])
        stack = JointCovariance.from_matrix(full, 500)
        assert np.array_equal(stack.full_matrix(), full)
        for b, member in enumerate(members):
            assert np.array_equal(stack.lam[b], member.lam)
            assert stack.se_r[b] == member.se_r

    @pytest.mark.parametrize(
        "scc, scg, sgg, error",
        [
            (1.0, [0.0, 0.0], [[1.0, 0.3], [0.2, 1.0]], InvalidCovariance),
            (1.0, [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], SingularCheckCovariance),
            (1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, 1e-14]], SingularCheckCovariance),
            (1.0, [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], DegenerateResidualVariance),
            (-1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], InvalidCovariance),
        ],
        ids=["asymmetric", "cholesky-pivot", "rcond", "schur-margin", "negative-sigma-c"],
    )
    def test_stack_with_one_bad_member(self, scc, scg, sgg, error):
        bad = (scc, np.array(scg), np.array(sgg))
        good = (2.0, np.array([0.3, -0.2]), np.array([[1.5, 0.4], [0.4, 1.0]]))
        JointCovariance(*good, 50)
        with pytest.raises(error):
            JointCovariance(*bad, 50)
        with pytest.raises(error):
            JointCovariance(*(np.stack(field) for field in zip(good, good, bad, good)), 50)

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_random_covariances_validate_and_are_psd(self, seed, p):
        sigma = random_joint_covariance(seed, p)
        eigs = np.linalg.eigvalsh(sigma.full_matrix())
        assert eigs[0] > 0


class TestComputeLambda:
    def test_zero_covariance_gives_zero(self):
        sigma = JointCovariance(1.0, np.zeros(2), np.array([[2.0, 0.3], [0.3, 1.0]]), 50)
        assert np.allclose(sigma.lam, 0.0)

    def test_scalar_hand_value(self, scalar_sigma):
        assert scalar_sigma.lam == pytest.approx([0.5], rel=1e-14)

    def test_identity_check_covariance(self):
        sigma = JointCovariance(1.0, np.array([0.2, 0.4]), np.eye(2), 50)
        assert np.allclose(sigma.lam, [0.2, 0.4])

    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_normal_equation_residual(self, seed, p):
        sigma = random_joint_covariance(seed, p)
        lam = sigma.lam
        lhs = sigma.sigma_gamma_gamma @ lam
        rhs = sigma.sigma_c_gamma
        if np.linalg.norm(rhs) > 0:
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10


class TestResidualize:
    def test_zero_checks_change_nothing(self):
        result = residualize(1.3, np.zeros(3), np.array([0.4, -0.2, 1.0]))
        assert result.c_r == 1.3
        assert result.correction == 0.0

    def test_benchmark_point_estimates(self):
        # Correction of -0.0130 moves 0.1090 to 0.1220.
        result = residualize(0.1090, np.array([1.0]), np.array([-0.0130]))
        assert result.c_r == pytest.approx(0.1220, abs=1e-12)

    def test_hand_arithmetic(self):
        result = residualize(1.0, np.array([0.2]), np.array([0.5]))
        assert result.c_r == pytest.approx(0.9, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            residualize(1.0, np.array([0.2, 0.1]), np.array([0.5]))

    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_decomposition_sums_to_correction(self, seed, p):
        rng = np.random.default_rng(seed)
        lam = rng.standard_normal(p)
        gamma = rng.standard_normal(p)
        c_hat = float(rng.standard_normal())
        result = residualize(c_hat, gamma, lam)
        assert result.c_r == c_hat - result.correction
        scale = max(abs(result.correction), 1e-8)
        assert abs(result.decomposition.sum() - result.correction) <= 1e-12 * scale


class TestDiagnostics:
    def test_zero_covariance(self):
        sigma = JointCovariance(2.0, np.zeros(1), np.eye(1), 50)
        assert sigma.informativeness == 0.0
        assert sigma.sigma_r_sq == 2.0
        assert sigma.bias_reduction_factor == 1.0

    def test_benchmark_informativeness_row(self):
        # I = 0.0819 implies factor 0.9582, 8.19% variance reduction, and an
        # 8.92% equivalent sample increase.
        n = 408
        sigma_c_sq = 0.0465**2 * n
        sigma_cg = math.sqrt(0.0819 * sigma_c_sq)
        sigma = JointCovariance(sigma_c_sq, np.array([sigma_cg]), np.eye(1), n)
        assert sigma.informativeness == pytest.approx(0.0819, abs=1e-12)
        assert sigma.bias_reduction_factor == pytest.approx(0.9582, abs=1e-4)
        assert sigma.variance_reduction_pct == pytest.approx(8.19, abs=1e-9)
        assert sigma.equiv_sample_increase == pytest.approx(0.0892, abs=1e-4)

    def test_scalar_correlation_squared(self):
        rho = 0.5
        sigma = JointCovariance(1.0, np.array([rho]), np.eye(1), 50)
        assert sigma.informativeness == pytest.approx(rho**2, rel=1e-14)
        assert sigma.sigma_r_sq == pytest.approx(0.75, rel=1e-14)

    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_se_ratio_identity(self, seed, p):
        sigma = random_joint_covariance(seed, p)
        assert sigma.bias_reduction_factor == math.sqrt(1.0 - sigma.informativeness)
        assert math.sqrt(sigma.sigma_r_sq / sigma.sigma_c_sq) == pytest.approx(
            sigma.bias_reduction_factor, rel=1e-14
        )
        assert 0.0 <= sigma.informativeness < 1.0


class TestAdjustedVariancePenaltyIdentity:
    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_quadratic_penalty(self, seed, p):
        # var(lambda) - var(Lambda) = (lambda - Lambda)' Sigma_gg (lambda - Lambda)
        sigma = random_joint_covariance(seed, p)
        rng = np.random.default_rng(seed + 1)
        lam = rng.standard_normal(p)
        lam_opt = sigma.lam
        sigma_r_sq = sigma.sigma_r_sq
        gap = adjusted_variance(sigma, lam) - sigma_r_sq
        delta = lam - lam_opt
        penalty = float(delta @ sigma.sigma_gamma_gamma @ delta)
        assert gap == pytest.approx(penalty, rel=1e-8, abs=1e-10)
        assert gap >= -1e-12

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_equality_only_at_optimum(self, seed, p):
        sigma = random_joint_covariance(seed, p)
        lam_opt = sigma.lam
        sigma_r_sq = sigma.sigma_r_sq
        assert adjusted_variance(sigma, lam_opt) == pytest.approx(sigma_r_sq, rel=1e-12)
        bumped = lam_opt + 0.1
        assert adjusted_variance(sigma, bumped) > sigma_r_sq


class TestMisspecBounds:
    def test_mu_zero(self, scalar_sigma):
        b = misspec_bounds(scalar_sigma, 0.0)
        assert np.all(b.worst_case_bias == 0.0)
        assert b.minimax_bias == 0.0
        assert b.minimax_mse == pytest.approx(scalar_sigma.sigma_r_sq, rel=1e-14)

    def test_unadjusted_gets_full_influence_length(self, scalar_sigma):
        mu = 1.5
        assert worst_case_bias(scalar_sigma, [0.0], mu) == pytest.approx(
            mu * math.sqrt(scalar_sigma.sigma_c_sq), rel=1e-14
        )

    def test_scalar_closed_forms(self, scalar_sigma):
        # rho = 0.5, sigma_c = 1, mu = 2.
        b = misspec_bounds(scalar_sigma, 2.0)
        assert b.minimax_bias == pytest.approx(2.0 * math.sqrt(0.75), abs=1e-12)
        assert b.minimax_mse == pytest.approx(5.0 * 0.75, abs=1e-12)

    def test_negative_mu_rejected(self, scalar_sigma):
        with pytest.raises(NegativeMu):
            misspec_bounds(scalar_sigma, -0.5)

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_minimax_dominates_grid_and_argmin_is_lambda(self, seed, p):
        sigma = random_joint_covariance(seed, p)
        rng = np.random.default_rng(seed + 2)
        grid = [rng.standard_normal(p) for _ in range(4)]
        b = misspec_bounds(sigma, 1.0, lambdas=grid)
        assert np.all(b.worst_case_bias >= b.minimax_bias - 1e-12)
        assert np.allclose(b.argmin_lambda, sigma.lam)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.0, 10.0])
    def test_mse_factorization_on_mu_grid(self, mu):
        sigma = random_joint_covariance(17, 3)
        sigma_r_sq = sigma.sigma_r_sq
        b = misspec_bounds(sigma, mu)
        assert b.minimax_mse / sigma_r_sq == pytest.approx(1.0 + mu**2, rel=1e-12)


class TestScaleEquivariance:
    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_invertible_recombination_of_checks(self, seed, p):
        sigma = random_joint_covariance(seed, p)
        rng = np.random.default_rng(seed + 3)
        gamma = rng.standard_normal(p)
        c_hat = 1.234
        a = rng.standard_normal((p, p)) + 2.0 * np.eye(p)
        transformed = JointCovariance(
            sigma.sigma_c_sq,
            sigma.sigma_c_gamma @ a.T,
            a @ sigma.sigma_gamma_gamma @ a.T,
            sigma.n,
        )
        base = residualize(c_hat, gamma, sigma.lam)
        alt = residualize(c_hat, a @ gamma, transformed.lam)
        assert alt.c_r == pytest.approx(base.c_r, rel=1e-10, abs=1e-10)
        assert transformed.informativeness == pytest.approx(sigma.informativeness, rel=1e-10)
        assert transformed.se_r == pytest.approx(sigma.se_r, rel=1e-10)


class TestOrthogonalityStat:
    def test_orthogonal_case_not_flagged(self):
        sigma = JointCovariance(1.0, np.zeros(1), np.eye(1), 100)
        check = orthogonality_stat(sigma, 1.0, np.array([0.05]))
        assert not check.flagged
        assert check.informativeness == 0.0

    def test_benchmark_informativeness_is_flagged(self):
        n = 408
        sigma_c_sq = 0.0465**2 * n
        sigma_cg = math.sqrt(0.0819 * sigma_c_sq)
        sigma = JointCovariance(sigma_c_sq, np.array([sigma_cg]), np.eye(1), n)
        check = orthogonality_stat(sigma, 0.1090, np.array([0.1]))
        assert check.flagged

    def test_zero_checks_give_zero_wald(self, scalar_sigma):
        check = orthogonality_stat(scalar_sigma, 1.0, np.zeros(1))
        assert check.wald_stat == 0.0
        assert check.dof == 1


class TestFullResidualization:
    def test_se_relation(self, scalar_sigma):
        assert scalar_sigma.se_r <= scalar_sigma.se_c
        expected = scalar_sigma.se_c * math.sqrt(1.0 - scalar_sigma.informativeness)
        assert abs(scalar_sigma.se_r - expected) <= 1e-12 * expected

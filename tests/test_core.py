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
from residcheck.cli import main
from residcheck.core import RCOND_MIN
from residcheck.dgps import RctLinearDGP
from residcheck.errors import (
    DegenerateResidualVariance,
    DimensionMismatch,
    InvalidCovariance,
    NegativeMu,
    SingularCheckCovariance,
)
from residcheck.selection import ReportingRule, SelectionConfig, run_conditional_experiment

from conftest import random_joint_covariance
from reference import rcond_gate


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


def conditioned_block(p: int, rcond: float, seed: int) -> np.ndarray:
    """A symmetric p x p block with eigenvalues geometric from 1 down to rcond.

    At p = 1 the block is [rcond], whose rcond is 1.
    """
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    eigs = np.geomspace(1.0, rcond, p) if p > 1 else np.array([rcond])
    block = (q * eigs) @ q.T
    return 0.5 * (block + block.T)


def well_conditioned_stack(p: int, size: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((size, p, p + 5))
    stack = np.einsum("bij,bkj->bik", a, a) / (p + 5) + 0.1 * np.eye(p)
    return 0.5 * (stack + np.swapaxes(stack, -1, -2))


def gate_outcome(validate):
    """None when validate passes, else its error's class and message."""
    try:
        validate()
    except Exception as exc:
        return type(exc), str(exc)
    return None


RCOND_CASES = [f * RCOND_MIN for f in (0.5, 0.999, 1.001, 1.5, 2.0, 2.5, 10.0)] + [1e-3]


class TestRcondGate:
    """The Cholesky bound and the eigvalsh fallback decide as eigvalsh alone did.

    The check blocks come with sigma_c_gamma = 0, so nothing but the check
    block's gates can fail.
    """

    @staticmethod
    def assert_same_outcome(sgg):
        batch = sgg.shape[:-2]
        ours = gate_outcome(lambda: JointCovariance(
            np.ones(batch) if batch else 1.0, np.zeros(sgg.shape[:-1]), sgg, 50
        ))
        assert ours == gate_outcome(lambda: rcond_gate(sgg))
        return ours

    @pytest.mark.parametrize("rcond", RCOND_CASES)
    @pytest.mark.parametrize("p", [1, 3, 10])
    def test_block_alone_and_in_a_stack(self, p, rcond):
        block = conditioned_block(p, rcond, seed=p)
        alone = self.assert_same_outcome(block)
        if p > 1 and rcond < RCOND_MIN:
            assert alone is not None and alone[0] is SingularCheckCovariance
        if p == 1 or rcond >= 1.5 * RCOND_MIN:
            assert alone is None
        for position in (0, 999):
            stack = well_conditioned_stack(p, 1000, seed=p + 1)
            stack[position] = block
            assert self.assert_same_outcome(stack) == alone

    def test_two_failing_members_report_the_first(self):
        stack = well_conditioned_stack(3, 1000, seed=4)
        stack[10] = conditioned_block(3, 0.5 * RCOND_MIN, seed=5)
        stack[20] = conditioned_block(3, 1e-14, seed=6)
        outcome = self.assert_same_outcome(stack)
        assert outcome[0] is SingularCheckCovariance
        assert outcome == self.assert_same_outcome(stack[10])

    @pytest.mark.parametrize(
        "p, rcond, runs",
        [(3, 1e-3, False), (3, 2.5 * RCOND_MIN, False), (3, 2.0 * RCOND_MIN, True),
         (10, 2.5 * RCOND_MIN, False), (10, 2.0 * RCOND_MIN, True),
         (10, 0.5 * RCOND_MIN, True)],
    )
    def test_eigvalsh_runs_only_where_the_bound_is_below_twice_the_floor(
        self, p, rcond, runs, monkeypatch
    ):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        stack = well_conditioned_stack(p, 1000, seed=7)
        stack[500] = conditioned_block(p, rcond, seed=8)
        gate_outcome(lambda: JointCovariance(np.ones(1000), np.zeros((1000, p)), stack, 50))
        assert calls == ([stack.shape] if runs else [])

    def test_labs_run_without_eigvalsh(self, monkeypatch, capsys):
        """The bench's RCT selection run and criterion 9's commands never reach eigvalsh."""
        rct = SelectionConfig(
            dgp=RctLinearDGP(beta=np.array([0.5, -0.25, 0.1]),
                             interaction=np.array([0.4, 0.0, -0.2]), pi=0.4),
            rule=ReportingRule(kind="wald", threshold=7.815), n=2000, reps=2000, seed=29,
        )
        commands = [
            ["simulate", "--lab", "selection", "--rho", "0.5", "--rule", "wald",
             "--threshold", "3.841", "--n", "200", "--reps", "1000", "--seed", "7"],
            ["simulate", "--lab", "misspec", "--rho", "0.5", "--mu", "0.5",
             "--lambda", "optimal", "--n", "400", "--reps", "1000", "--seed", "3"],
        ]

        def run():
            outputs = [run_conditional_experiment(rct)]
            for argv in commands:
                assert main(argv) == 0
                outputs.append(capsys.readouterr().out)
            return outputs

        def refuse(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        without = run()
        monkeypatch.undo()
        assert without == run()

    @pytest.mark.parametrize(
        "sgg",
        [1e-300 * conditioned_block(3, 1e-3, seed=9), 1e300 * conditioned_block(3, 1e-3, seed=9),
         np.diag([8e307] * 3), np.diag([1e-320] * 2)],
        ids=["tiny", "huge", "trace-overflows", "inverse-overflows"],
    )
    def test_extreme_scales(self, sgg):
        # The last two bounds overflow to 0; eigvalsh then passes their rcond of 1.
        assert self.assert_same_outcome(sgg) is None


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

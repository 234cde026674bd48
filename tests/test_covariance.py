import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residcheck import InfluenceContributions, joint_covariance
from residcheck import JointCovariance
from residcheck.covariance import covariance_matrix
from residcheck.errors import (
    DegenerateResidualVariance,
    EstimationError,
    TooFewClusters,
)


class TestJointCovarianceEstimation:
    def test_three_observation_hand_example(self):
        contrib = InfluenceContributions(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
        sigma = joint_covariance(contrib)
        assert sigma.sigma_c_sq == pytest.approx(2 / 3, rel=1e-14)
        assert sigma.sigma_c_gamma[0] == pytest.approx(1 / 3, rel=1e-14)
        assert sigma.sigma_gamma_gamma[0, 0] == pytest.approx(2 / 3, rel=1e-14)
        assert sigma.lam[0] == pytest.approx(0.5, rel=1e-14)
        assert sigma.sigma_r_sq == pytest.approx(0.5, rel=1e-14)

    def test_singleton_clusters_match_iid(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((40, 3))
        iid = joint_covariance(InfluenceContributions(values))
        clustered = joint_covariance(
            InfluenceContributions(values, cluster_ids=np.arange(40))
        )
        assert np.array_equal(iid.full_matrix(), clustered.full_matrix())

    def test_perfect_correlation_is_degenerate(self):
        with pytest.raises(DegenerateResidualVariance):
            InfluenceContributions(np.array([[1.0, 2.0], [-1.0, -2.0]]))
        # Same direction with enough rows reaches covariance validation.
        rows = np.array([[1.0, 2.0], [-1.0, -2.0], [2.0, 4.0], [-2.0, -4.0]])
        with pytest.raises(EstimationError):
            joint_covariance(InfluenceContributions(rows))

    def test_centering_is_applied(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((200, 2))
        shifted = values + np.array([3.0, -7.0])
        a = joint_covariance(InfluenceContributions(values))
        b = joint_covariance(InfluenceContributions(shifted))
        assert np.allclose(a.full_matrix(), b.full_matrix())

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((30, 3))
        perm = rng.permutation(30)
        a = joint_covariance(InfluenceContributions(values))
        b = joint_covariance(InfluenceContributions(values[perm]))
        assert np.allclose(a.full_matrix(), b.full_matrix(), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("clustered", [False, True])
    def test_memory_layout_leaves_bits_unchanged(self, clustered):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((5000, 4)) + 3.0
        clusters = rng.integers(0, 50, size=5000) if clustered else None
        a = joint_covariance(InfluenceContributions(values, cluster_ids=clusters))
        b = joint_covariance(
            InfluenceContributions(np.asfortranarray(values), cluster_ids=clusters)
        )
        assert np.array_equal(a.full_matrix(), b.full_matrix())

    @pytest.mark.parametrize("clustered", [False, True])
    def test_matrices_validated_together_match_joint_covariance(self, clustered):
        # Two stacks' matrices, validated as one stack, as the RCT lab does.
        rng = np.random.default_rng(10)
        values = rng.standard_normal((5, 120, 4)) + 1.0
        clusters = rng.integers(0, 30, size=120) if clustered else None
        matrices = np.concatenate([
            covariance_matrix(InfluenceContributions(part, cluster_ids=clusters))
            for part in (values[:2], values[2:])
        ])
        together = JointCovariance(
            matrices[:, 0, 0], matrices[:, 0, 1:], matrices[:, 1:, 1:], 120
        )
        for b in range(5):
            alone = joint_covariance(InfluenceContributions(values[b], cluster_ids=clusters))
            for name in ("sigma_c_sq", "sigma_c_gamma", "sigma_gamma_gamma", "lam", "se_r"):
                got = np.asarray(getattr(together, name)[b])
                assert got.tobytes() == np.asarray(getattr(alone, name)).tobytes()

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_cluster_relabel_invariance(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((60, 2))
        clusters = rng.integers(0, 10, size=60)
        relabeled = np.array([f"g{c}" for c in clusters])
        a = joint_covariance(InfluenceContributions(values, cluster_ids=clusters))
        b = joint_covariance(InfluenceContributions(values, cluster_ids=relabeled))
        assert np.allclose(a.full_matrix(), b.full_matrix(), rtol=1e-12, atol=1e-14)

    def test_single_cluster_rejected(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((30, 2))
        with pytest.raises(TooFewClusters):
            joint_covariance(InfluenceContributions(values, cluster_ids=np.zeros(30)))

    def test_cluster_sums_change_the_estimate(self):
        rng = np.random.default_rng(7)
        # Within-cluster correlated contributions inflate the clustered variance.
        cluster_effect = np.repeat(rng.standard_normal(25), 4)
        values = rng.standard_normal((100, 2)) + cluster_effect[:, None]
        clusters = np.repeat(np.arange(25), 4)
        iid = joint_covariance(InfluenceContributions(values))
        cl = joint_covariance(InfluenceContributions(values, cluster_ids=clusters))
        assert cl.sigma_c_sq > iid.sigma_c_sq

    def test_monte_carlo_consistency_rate(self):
        # ||Sigma_hat - Sigma|| should shrink like n^(-1/2).
        rng = np.random.default_rng(8)
        truth = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.0]])
        chol = np.linalg.cholesky(truth)
        ns = [500, 2000, 8000]
        errors = []
        for n in ns:
            errs = []
            for _ in range(200):
                values = rng.standard_normal((n, 3)) @ chol.T
                sigma = joint_covariance(InfluenceContributions(values))
                errs.append(np.linalg.norm(sigma.full_matrix() - truth))
            errors.append(np.mean(errs))
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert -0.7 < slope < -0.3


class TestStandardErrors:
    def test_baseline_hand_value(self):
        sigma = JointCovariance(1.0, np.array([0.0]), np.eye(1), 100)
        assert sigma.se_c == pytest.approx(0.1, rel=1e-14)

    def test_benchmark_se_consistency(self):
        n = 408
        sigma_c_sq = 0.0465**2 * n
        sigma_cg = np.sqrt(0.0819 * sigma_c_sq)
        sigma = JointCovariance(sigma_c_sq, np.array([sigma_cg]), np.eye(1), n)
        assert sigma.se_c == pytest.approx(0.0465, rel=1e-12)
        # 0.0445 after 4-decimal rounding.
        assert sigma.se_r == pytest.approx(0.0445, abs=0.0005)

    def test_hand_example_residual_se(self):
        contrib = InfluenceContributions(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
        sigma = joint_covariance(contrib)
        assert sigma.se_r == pytest.approx(np.sqrt(1 / 6), rel=1e-12)


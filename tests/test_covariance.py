import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residcheck import InfluenceContributions, RctDataset, joint_covariance, residualized_estimator
from residcheck import JointCovariance, _fixed_order
from residcheck.covariance import covariance_matrix
from residcheck.errors import (
    DegenerateResidualVariance,
    DimensionMismatch,
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

    def test_stack_of_matrices_rejected(self):
        # One (n, 1 + p) matrix per call; stacks are validated as JointCovariance.
        values = np.random.default_rng(9).standard_normal((3, 40, 2))
        with pytest.raises(DimensionMismatch):
            InfluenceContributions(values)

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
        # Each member's matrix, validated with the others as one stack.
        rng = np.random.default_rng(10)
        values = rng.standard_normal((5, 120, 4)) + 1.0
        clusters = rng.integers(0, 30, size=120) if clustered else None
        matrices = np.stack([
            covariance_matrix(InfluenceContributions(member, cluster_ids=clusters))
            for member in values
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



def _labels(kind, codes):
    """Labels of one kind for the groups 0..G-1 of codes; all but strings sort as the codes do."""
    if kind == "strings":
        return np.array([f"g{99 - int(c)}" for c in codes])  # sorted backwards
    if kind == "gaps":
        return 7 * codes.astype(np.int64) - 3  # negative, not dense
    if kind == "floats":
        return codes / 4.0 + 0.5
    if kind == "uint64":
        return codes.astype(np.uint64)
    if kind == "huge":
        return np.where(codes == 0, 0, codes.astype(np.int64) + 10**15)
    return codes.astype(kind)  # integer codes already dense


class TestDenseCodes:
    """Group codes skip the sort when the labels already are codes; the bits never change."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_dense_codes_come_back_without_a_sort(self, dtype, monkeypatch):
        codes = np.random.default_rng(1).permutation(np.arange(40) % 7).astype(dtype)

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called on dense codes")

        monkeypatch.setattr(np, "unique", no_sort)
        assert _fixed_order.dense_codes(codes) is codes

    @pytest.mark.parametrize("kind", ["strings", "gaps", "floats", "uint64", "huge"])
    def test_other_labels_are_numbered_by_np_unique(self, kind):
        codes = np.random.default_rng(2).permutation(np.arange(40) % 7)
        labels = _labels(kind, codes)
        got = _fixed_order.dense_codes(labels)
        assert np.array_equal(got, np.unique(labels, return_inverse=True)[1])
        assert np.array_equal(got, codes.max() - codes if kind == "strings" else codes)

    def test_labels_with_an_unused_code(self):
        labels = np.array([0, 2, 2, 0, 3])
        assert _fixed_order.dense_codes(labels).tolist() == [0, 1, 1, 0, 2]

    @pytest.mark.parametrize(
        "kind", ["strings", "gaps", "floats", "uint64", "huge", np.int64, np.int32]
    )
    def test_public_api_bits_do_not_depend_on_the_labels(self, kind):
        # Strata and clusters named by any labels give the bits of their np.unique
        # codes, which the estimators computed before reading labels as codes.
        rng = np.random.default_rng(3)
        n, p = 240, 2
        t = np.tile([0.0, 1.0, 1.0, 0.0], n // 4)
        x = rng.standard_normal((n, p))
        y = 0.5 * t + x @ np.array([1.0, -0.5]) + rng.standard_normal(n)
        strata = rng.permutation(np.arange(n) % 4)
        clusters = rng.permutation(np.arange(n) % 30)

        def estimate(strata_labels, cluster_labels):
            data = RctDataset(outcome=y, treatment=t, covariates=x, strata=strata_labels)
            point, sigma = residualized_estimator(data, cluster_ids=cluster_labels)
            values = np.swapaxes(data.influence[1], -1, -2)
            iid = joint_covariance(InfluenceContributions(values, cluster_ids=cluster_labels))
            return [point.c_r, sigma.full_matrix(), sigma.se_r, data.centered, iid.full_matrix()]

        strata, clusters = _labels(kind, strata), _labels(kind, clusters)
        got = estimate(strata, clusters)
        codes = [np.unique(labels, return_inverse=True)[1] for labels in (strata, clusters)]
        want = estimate(*codes)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

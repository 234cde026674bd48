import numpy as np
import pytest
from hypothesis import settings

from residcheck import JointCovariance

# Property tests draw their numpy seeds through hypothesis; derandomizing
# keeps every run of the suite byte-for-byte repeatable.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def random_joint_covariance(seed: int, p: int, n: int = 500) -> JointCovariance:
    """Well-conditioned random covariance with a strictly positive Schur complement."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((1 + p, 1 + p))
    full = a @ a.T / (1 + p) + 0.1 * np.eye(1 + p)
    return JointCovariance.from_matrix(full, n)


@pytest.fixture
def scalar_sigma() -> JointCovariance:
    return JointCovariance(1.0, np.array([0.5]), np.eye(1), 100)


def replications(dgp, rng, n, size):
    """size replications of a lab DGP from one stream: its draws, then one estimate."""
    return dgp.estimate_replications(dgp.draw_replications(rng, n, size), n)


def moment_z_scores(a, b):
    """z-scores of the differences in mean and in variance of two samples, per column."""
    stats = []
    for s in (a, b):
        centered = s - s.mean(axis=0)
        var = centered.var(axis=0)
        fourth = (centered**4).mean(axis=0)
        stats.append((s.mean(axis=0), var / len(s), var, (fourth - var**2) / len(s)))
    (m_a, mv_a, v_a, vv_a), (m_b, mv_b, v_b, vv_b) = stats
    return (m_a - m_b) / np.sqrt(mv_a + mv_b), (v_a - v_b) / np.sqrt(vv_a + vv_b)


def saddle_point_misses(matrix, mus, opt: int, sigma_r: float) -> list[str]:
    """The minimax saddle-point checks that a cross-score matrix fails, with the indices that fail.

    B[i, j] <= mu ||psi_i||, with equality at j = i (Cauchy-Schwarz), so each
    row peaks on its diagonal and the row maxima are smallest at lambda*
    (index opt); Sigma a* = (sigma_r^2, 0), so the lambda* column is flat at
    mu sigma_r. The diagonal MSE is (1 + mu^2) ||psi_i||^2.
    """
    misses = []
    for a, mu in enumerate(mus):
        bias, se, mse = matrix.bias[a], matrix.bias_se[a], np.diagonal(matrix.mse[a])
        norm_sq = (np.diagonal(matrix.predicted[a]) / mu) ** 2
        peaks, off = bias.max(axis=1), ~np.eye(len(bias), dtype=bool)
        checks = {
            "entries beyond 4 MC SE": np.abs(bias - matrix.predicted[a]) > 4 * se,
            "row maxima off the diagonal": (bias == peaks[:, None]) & off,
            "smallest row maximum off lambda*": (peaks == peaks.min()) & off[opt],
            "lambda* column off mu sigma_r": np.abs(bias[:, opt] - mu * sigma_r) > 4 * se[:, opt],
            "diagonal MSE beyond 4 MC SE": (
                np.abs(mse - (1 + mu**2) * norm_sq) > 4 * np.diagonal(matrix.mse_se[a])
            ),
        }
        misses += [
            f"mu={mu}: {name} at {np.argwhere(bad).tolist()}"
            for name, bad in checks.items() if np.any(bad)
        ]
    return misses

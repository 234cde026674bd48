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

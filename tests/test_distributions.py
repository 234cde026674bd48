"""The closed-form distribution functions against scipy.stats as the reference."""

import numpy as np
import pytest
from scipy.stats import chi2, norm

from residcheck._distributions import (
    Z975,
    chi2_cdf,
    chi2_sf,
    normal_cdf,
    normal_pdf,
    two_sided_p,
)

RTOL = 1e-12
# Values at or below this are outside the comparison (near the double range).
FLOOR = 1e-300
CHI2_GRID = np.concatenate(
    [np.geomspace(1e-8, 1.0, 81), np.linspace(1.0, 100.0, 397), np.geomspace(100.0, 3000.0, 120)]
)
NORMAL_GRID = np.linspace(-38.0, 38.0, 7601)


def assert_matches(ours, reference: np.ndarray, grid: np.ndarray) -> None:
    got = np.array([ours(float(x)) for x in grid])
    keep = reference > FLOOR
    rel = np.abs(got[keep] - reference[keep]) / reference[keep]
    worst = int(np.argmax(rel))
    assert rel[worst] <= RTOL, (grid[keep][worst], got[keep][worst], reference[keep][worst])


@pytest.mark.parametrize("dof", range(1, 61))
def test_chi2_matches_scipy(dof):
    assert_matches(lambda x: chi2_sf(x, dof), chi2.sf(CHI2_GRID, dof), CHI2_GRID)
    assert_matches(lambda x: chi2_cdf(x, dof), chi2.cdf(CHI2_GRID, dof), CHI2_GRID)


def test_chi2_at_zero():
    assert chi2_sf(0.0, 3) == 1.0 and chi2_cdf(0.0, 3) == 0.0


def test_normal_matches_scipy():
    assert_matches(normal_cdf, norm.cdf(NORMAL_GRID), NORMAL_GRID)
    assert_matches(normal_pdf, norm.pdf(NORMAL_GRID), NORMAL_GRID)
    assert_matches(two_sided_p, 2.0 * norm.sf(np.abs(NORMAL_GRID)), NORMAL_GRID)


def test_z975_is_scipy_quantile():
    assert Z975 == float(norm.ppf(0.975))

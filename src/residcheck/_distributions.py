"""Normal and chi-squared (integer degrees of freedom) distribution functions.

With h = x / 2, the chi-squared tail at k = 2m or 2m + 1 degrees of freedom
is the finite sum of positive terms

    Q = [erfc(sqrt(h)) if k is odd] + sum_{j<m} exp(-h) h^a / Gamma(a + 1),
    a = j + (k mod 2) / 2,

accurate far into the tail. Where Q >= 1/2 the cdf comes from the series
P = exp(-h) h^(k/2) / Gamma(k/2 + 1) sum_n h^n / ((k/2 + 1) ... (k/2 + n)),
which stays accurate where P is tiny.
"""

from __future__ import annotations

import math

# 1/sqrt(2), correctly rounded.
SQRT1_2 = math.sqrt(0.5)
# The 0.975 quantile of the standard normal, as a double.
Z975 = 1.959963984540054

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x * SQRT1_2)


def normal_pdf(x: float) -> float:
    # exp(-x^2 / 2) is 0.0 from |x| = 38.6 on; x**2 would overflow from 1.35e154.
    if abs(x) > 40.0:
        return 0.0
    return math.exp(-(x**2) / 2.0) / _SQRT_2PI


def two_sided_p(t: float) -> float:
    """P(|Z| >= |t|) for standard normal Z."""
    return math.erfc(abs(t) * SQRT1_2)


def chi2_sf(x: float, k: int) -> float:
    """P(X >= x) for X chi-squared with integer k >= 1 degrees of freedom."""
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    m, odd = divmod(k, 2)
    head = math.erfc(math.sqrt(h)) if odd else 0.0
    log_h = math.log(h)
    # Each term exp(-h) h^a / Gamma(a + 1) is at most 1, so none overflows.
    return head + math.fsum(
        math.exp(a * log_h - h - math.lgamma(a + 1.0))
        for a in (j + 0.5 * odd for j in range(m))
    )


def chi2_cdf(x: float, k: int) -> float:
    """P(X <= x) for X chi-squared with integer k >= 1 degrees of freedom."""
    if x <= 0.0:
        return 0.0
    sf = chi2_sf(x, k)
    if sf < 0.5:
        return 1.0 - sf
    h, a = 0.5 * x, 0.5 * k
    series, term, n = 1.0, 1.0, 0
    while term > 1e-17 * series:
        n += 1
        term *= h / (a + n)
        series += term
    return math.exp(a * math.log(h) - h - math.lgamma(a + 1.0)) * series

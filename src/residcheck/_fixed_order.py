"""Dot products, Gram matrices and a small Cholesky solve in a fixed order.

BLAS and LAPACK choose their summation order per CPU kernel, so a plain
``a @ b`` or ``np.linalg.cholesky`` can differ in the last bit between
machines, or between ``OPENBLAS_CORETYPE`` settings on one machine. Every
number that ``analyze`` reports goes through the routines below instead,
which makes the report bytes independent of the BLAS kernel:

* ``dot`` and ``gram`` multiply element-wise into a contiguous array and sum
  each row with ``np.add.reduce``, numpy's pairwise summation, whose order
  depends on the row length alone. ``gram(cols)[i, j]`` and
  ``dot(cols[i], cols[j])`` give the same bits.
* ``group_sums`` adds each row up within groups in row order
  (``np.bincount``), as ``np.add.at`` would, at a fraction of its cost.
* ``cholesky`` and ``cho_solve`` factor and solve the p x p check block (p is
  the number of checks, so small) over Python floats, each inner product
  summed left to right.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularCheckCovariance


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a[i] b[i] of two 1-d arrays, summed pairwise."""
    return float(np.add.reduce(np.multiply(a, b)))


def gram(cols: np.ndarray) -> np.ndarray:
    """k x k matrix of row inner products of a (k, m) array."""
    cols = np.ascontiguousarray(cols, dtype=float)
    k = cols.shape[0]
    out = np.empty((k, k))
    product = np.empty(cols.shape[1])  # reused by every pair: no (k, m) temporary
    for i in range(k):
        for j in range(i, k):
            out[i, j] = out[j, i] = np.add.reduce(np.multiply(cols[i], cols[j], out=product))
    return out


def group_sums(codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(k, G) sums over the groups 0..G-1 in ``codes`` of k rows of length n.

    ``rows`` is a (k, n) array or any iterable of its rows.
    """
    return np.stack([np.bincount(codes, weights=row) for row in rows])


def _sum_products(xs, ys) -> float:
    """sum_i xs[i] ys[i] over Python floats, left to right."""
    acc = 0.0
    for x, y in zip(xs, ys):
        acc += x * y
    return acc


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower factor L with L L' = a of a small symmetric matrix.

    Raises :class:`SingularCheckCovariance` at the first pivot that is not
    strictly positive.
    """
    rows = np.asarray(a, dtype=float).tolist()
    p = len(rows)
    low = [[0.0] * p for _ in range(p)]
    for j in range(p):
        lj = low[j]
        pivot = rows[j][j] - _sum_products(lj[:j], lj[:j])
        if not pivot > 0.0:
            raise SingularCheckCovariance(
                "check covariance is not positive definite (Cholesky failed)"
            )
        lj[j] = math.sqrt(pivot)
        for i in range(j + 1, p):
            low[i][j] = (rows[i][j] - _sum_products(low[i][:j], lj[:j])) / lj[j]
    return np.array(low)


def cho_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L') x = rhs for a vector rhs: forward, then back substitution."""
    lows = np.asarray(low, dtype=float).tolist()
    ups = [list(col) for col in zip(*lows)]
    b = np.asarray(rhs, dtype=float).tolist()
    p = len(lows)
    z = [0.0] * p
    for i in range(p):
        z[i] = (b[i] - _sum_products(lows[i][:i], z[:i])) / lows[i][i]
    x = [0.0] * p
    for i in range(p - 1, -1, -1):
        x[i] = (z[i] - _sum_products(ups[i][i + 1 :], x[i + 1 :])) / ups[i][i]
    return np.array(x)

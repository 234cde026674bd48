"""Dot products, Gram matrices and a small Cholesky solve in a fixed order.

BLAS and LAPACK choose their summation order per CPU kernel, so a plain
``a @ b`` or a LAPACK Cholesky factor can differ in the last bit between
machines, or between ``OPENBLAS_CORETYPE`` settings on one machine. Every
number that ``analyze`` or ``simulate`` reports goes through the routines
below instead, which makes the output bytes independent of the BLAS kernel:

* ``dot`` and ``gram`` multiply element-wise into a C-ordered array and sum
  each row with ``np.add.reduce``, numpy's pairwise summation, whose order
  on a contiguous row depends on the row length alone (a strided row would
  be summed in sequence), so the inputs' memory layout does not move a
  bit. ``gram(cols)[i, j]`` and ``dot(cols[i], cols[j])`` give the same bits.
* ``sum_rows`` adds a stack of rows in that same order, each step one
  elementwise pass over whole rows: for a (m, R) array it gives the bits of
  ``np.add.reduce`` over each length-m column, without a reduction over
  short rows, whose per-row cost dominates when m is small and R large.
* ``group_sums`` adds each row up within groups in row order
  (``np.bincount``), as ``np.add.at`` would, at a fraction of its cost;
  ``dense_codes`` gives it the group codes of any labels.
* ``cholesky``, ``solve_lower`` and ``cho_solve`` factor and solve small
  p x p systems (the check block, the long regression's normal equations),
  each inner product summed left to right.

Every routine but ``sum_rows``, ``group_sums`` and ``dense_codes`` works
over the last axis (or last two) and takes any leading batch axes, so a
stack of B problems is one call whose member b has the bits of a call on
member b alone: the loops above run over the p or k entries of one member,
each step elementwise over the stack. ``sum_rows`` works over the first
axis and takes any trailing axes the same way.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularCheckCovariance


def scalar_or_stack(x):
    """A Python float for a 0-d result, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def dot(a: np.ndarray, b: np.ndarray):
    """sum_k a[..., k] b[..., k], summed pairwise; a float for 1-d input."""
    return scalar_or_stack(np.add.reduce(np.multiply(a, b, order="C"), axis=-1))


def gram(cols: np.ndarray) -> np.ndarray:
    """(..., k, k) matrix of row inner products of a (..., k, m) array.

    Rows are read in place when their entries are adjacent in memory, as in
    a stack of row slices; only a strided last axis is copied first.
    """
    cols = np.asarray(cols, dtype=float)
    if cols.strides[-1] != cols.itemsize:
        cols = np.ascontiguousarray(cols)
    k = cols.shape[-2]
    out = np.empty(cols.shape[:-1] + (k,))
    # Reused by every pair: no (..., k, m) temporary.
    product = np.empty(cols.shape[:-2] + cols.shape[-1:])
    rows = [cols[..., i, :] for i in range(k)]
    for i in range(k):
        for j in range(i, k):
            np.multiply(rows[i], rows[j], out=product)
            out[..., i, j] = out[..., j, i] = np.add.reduce(product, axis=-1)
    return out


# What np.add.reduce adds its pairwise sum to: +0.0, or -0.0 where numpy
# starts a reduction at the sign-keeping identity. Either way only the sign
# of an all-zero sum depends on it.
_REDUCE_START = float(np.add.reduce(np.array([-0.0])))


def sum_rows(rows: np.ndarray) -> np.ndarray:
    """sum over the first axis of rows, in np.add.reduce's order for a contiguous row.

    numpy adds a row of m < 8 terms left to right; from 8 terms on, into 8
    accumulators, which it combines pairwise and then adds the last m % 8
    terms to, and above 128 terms it splits the row at m // 2 rounded down to
    a multiple of 8 and adds the two halves' sums. So
    ``sum_rows(x.T)`` has the bits of ``np.add.reduce(x, axis=-1)`` for any
    C-ordered (R, m) array x, each step here a pass over R values.
    """
    return _pairwise_rows(rows, _REDUCE_START)


def _pairwise_rows(rows: np.ndarray, start: float) -> np.ndarray:
    """numpy's pairwise sum over the first axis, start added to its first terms.

    A sum is -0.0 only where every term is, so adding +0.0 to some terms
    changes it only there, to +0.0, as adding +0.0 to the sum would; adding
    -0.0 changes nothing.
    """
    m = rows.shape[0]
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _pairwise_rows(rows[:half], start) + _pairwise_rows(rows[half:], -0.0)
    if m < 8:
        acc = start + rows[0]
        for row in rows[1:]:
            acc += row
        return acc
    acc8 = start + rows[:8]
    tail = m - m % 8
    for i in range(8, tail, 8):
        acc8 += rows[i : i + 8]
    acc = acc8[0] + acc8[1]
    acc += acc8[2] + acc8[3]
    acc += (acc8[4] + acc8[5]) + (acc8[6] + acc8[7])
    for row in rows[tail:]:
        acc += row
    return acc


def dense_codes(labels) -> np.ndarray:
    """Codes 0..G-1 of the labels in sorted order, as ``np.unique``'s inverse gives them.

    Integer labels that already are such codes (least 0, and every code up to
    the largest used, as :func:`io.load_dataset` returns them) come back
    unchanged, without a sort; any other labels go through ``np.unique``.
    """
    labels = np.asarray(labels)
    if (
        labels.dtype.kind in "iu" and labels.size and np.can_cast(labels.dtype, np.intp)
        and labels.min() == 0 and labels.max() < labels.size and np.bincount(labels).all()
    ):
        return labels
    return np.unique(labels, return_inverse=True)[1]


def group_sums(codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(k, G) sums over the groups 0..G-1 in ``codes`` of k rows of length n.

    ``rows`` is a (k, n) array or any iterable of its rows.
    """
    return np.stack([np.bincount(codes, weights=row) for row in rows])


def _sum_products(xs, ys):
    """sum_k xs[k] ys[k] over floats or stacks, left to right."""
    acc = 0.0
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _lower_entries(a: np.ndarray) -> list[list]:
    """Entries a[..., i, j], j <= i, of a (..., p, p) array as nested lists of stacks."""
    return [[a[..., i, j] for j in range(i + 1)] for i in range(a.shape[-1])]


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower factors L with L L' = a of a (stack of) small symmetric matrices.

    Raises :class:`SingularCheckCovariance` at the first pivot that is not
    strictly positive in any member of the stack.
    """
    a = np.asarray(a, dtype=float)
    rows = _lower_entries(a)
    low = [[] for _ in rows]
    for j, lj in enumerate(low):
        pivot = rows[j][j] - _sum_products(lj, lj)
        if not (pivot > 0.0).all():
            raise SingularCheckCovariance(
                "check covariance is not positive definite (Cholesky failed)"
            )
        diag = np.sqrt(pivot)
        for i in range(j + 1, len(rows)):
            low[i].append((rows[i][j] - _sum_products(low[i], lj)) / diag)
        lj.append(diag)
    out = np.zeros(a.shape)
    for i, li in enumerate(low):
        for j, entry in enumerate(li):
            out[..., i, j] = entry
    return out


def _forward(lows: list[list], b: np.ndarray) -> list:
    """Entries of z solving L z = b, L given by its :func:`_lower_entries`."""
    z = []
    for i, li in enumerate(lows):
        z.append((b[..., i] - _sum_products(li[:i], z)) / li[i])
    return z


def solve_lower(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L z = rhs for vectors rhs by forward substitution."""
    lows = _lower_entries(np.asarray(low, dtype=float))
    return np.stack(_forward(lows, np.asarray(rhs, dtype=float)), axis=-1)


def cho_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L') x = rhs for vectors rhs: forward, then back substitution."""
    lows = _lower_entries(np.asarray(low, dtype=float))
    z = _forward(lows, np.asarray(rhs, dtype=float))
    p = len(lows)
    x = [None] * p
    for i in range(p - 1, -1, -1):
        column = [lows[k][i] for k in range(i + 1, p)]
        x[i] = (z[i] - _sum_products(column, x[i + 1 :])) / lows[i][i]
    return np.stack(x, axis=-1)

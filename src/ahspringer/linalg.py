"""Exact Gaussian elimination over F_{p^e}.

Works on coefficient-plane arrays of shape (e, rows, cols), or on stacks
(..., e, rows, cols) of them: ``_eliminate`` reduces every lane of a
stack at once, with each lane's own pivots, so ``det_planes`` and ``inv``
take many matrices in one call.  These three are the module; a caller
that needs a rank or a null space (``groups.centralizer_space``,
``suites._centralizers_equal``) reads it off ``_eliminate``'s pivots.
Pivot inverses come from the per-p table in ``gf``, and everything stays
in integer arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from .gf import _field_inv, _field_mul, field_modulus
from .matrices import FpMatrix


def _eliminate(planes, p, e):
    """Gauss-Jordan elimination, the one routine behind every function here.

    Works on a stack (..., e, rows, cols), every lane at once.  For each
    column, each lane's pivot is its first row that is not yet a pivot
    row and is nonzero there (a column where no lane has one is skipped).
    One rank-one update r -= m (x) (row / s) then clears the column and
    scales the pivot row in every lane, where row is the pivot row, s the
    pivot and m the column with s - 1 at the pivot; a lane without a pivot
    takes s = 0, so 1/s = 0, and is left unchanged.  Rows are not swapped
    while eliminating: each lane's pivot rows are moved to the top, in
    pivot order, at the end.

    Returns the reduced row echelon forms, a boolean (..., cols) marking
    each lane's pivot columns, and (..., e) coordinates of the product of
    the pivots times the sign of the final row order, defined only for a
    square lane of full rank, where it is the determinant.
    """
    planes = np.asarray(planes, dtype=np.int64)
    if planes.ndim == 2:
        planes = planes[np.newaxis]
    batch, (rows, cols) = planes.shape[:-3], planes.shape[-2:]
    assert planes.shape[-3] == e
    mod = field_modulus(p, e)
    # coordinate-major: r_mat[k] holds coordinate k of every lane
    r_mat = planes.reshape((math.prod(batch), e, rows, cols)).swapaxes(0, 1) % p
    lanes = np.arange(r_mat.shape[1])[:, None]
    first = np.arange(rows)
    unit = np.eye(e, 1, dtype=np.int64)[:, :, None]  # coordinates of 1
    # a pivot row's key is its pivot column; the other rows sort after them
    key = np.tile(first + cols, (len(lanes), 1))
    factor = tuple(unit[:, :, 0])
    for c in range(cols):
        free = key >= cols
        if c >= rows and not free.any():
            break
        col = r_mat[..., c]
        nonzero = col.any(axis=0) & free
        if not nonzero.any():
            continue
        at = nonzero.argmax(axis=1)
        onehot = (first == at[:, None]) & nonzero
        # a pivot row is zero left of its pivot, so columns < c do not change
        row = r_mat[:, lanes[:, 0], at, c:]
        s = row[..., :1] * onehot.any(axis=1)[:, None]  # 0 in a lane without a pivot here
        row = _field_mul(_field_inv(s, p, mod), row, p, mod, np.multiply)
        outer = _field_mul((col - unit * onehot)[..., None], tuple(x[:, None, :] for x in row),
                           p, mod, np.multiply)
        for k in range(e):
            r_mat[k, ..., c:] -= outer[k]
        r_mat[..., c:] += p * (r_mat[..., c:] < 0)  # reduced minus reduced: in (-p, p)
        factor = _field_mul(factor, s, p, mod, np.multiply)
        key[onehot] = c
    perm = np.argsort(key, axis=1)
    r_mat = r_mat[:, lanes, perm].swapaxes(0, 1)
    pivot = np.zeros((len(lanes), cols + rows), dtype=bool)
    pivot[lanes, key] = True
    inversions = (key[:, :, None] > key[:, None, :]) & (first[:, None] < first)
    factor = np.concatenate(np.broadcast_arrays(*factor, lanes), axis=-1)[:, :e]
    factor[inversions.sum(axis=(1, 2)) % 2 == 1] *= -1
    return (r_mat.reshape(*batch, e, rows, cols), pivot[:, :cols].reshape(*batch, cols),
            (factor % p).reshape(*batch, e))


def det_planes(planes, p, e) -> np.ndarray:
    """Determinant coordinates (..., e) of a stack (..., e, n, n); zero for
    a singular lane."""
    _, pivot, factor = _eliminate(planes, p, e)
    return np.where(pivot.all(axis=-1, keepdims=True), factor, 0)


def inv(m: FpMatrix) -> FpMatrix:
    """Matrix inverse, lane by lane for a stack, from one elimination of
    [A | 1] per lane; raises ZeroDivisionError when a matrix is singular."""
    n = m.n
    aug = np.zeros(m.planes.shape[:-1] + (2 * n,), dtype=np.int64)
    aug[..., :n] = m.planes
    aug[..., 0, :, n:] = np.eye(n, dtype=np.int64)
    r_mat, pivot, _ = _eliminate(aug, m.p, m.e)
    if not pivot[..., :n].all():
        raise ZeroDivisionError("matrix is not invertible")
    return FpMatrix._wrap(m.p, m.e, n, np.ascontiguousarray(r_mat[..., n:]))

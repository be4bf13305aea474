"""Exact Gaussian elimination over F_{p^e}.

Works on coefficient-plane arrays of shape (e, rows, cols); the FpMatrix
wrappers at the bottom are what the rest of the package uses.  Row
operations are vectorized per plane, pivot inverses come from the per-p
table in ``gf``, and everything stays in integer arithmetic.
"""

from __future__ import annotations

import operator

import numpy as np

from .gf import FieldScalar, _field_mul, field_modulus, inverse_coords
from .matrices import FpMatrix


def _as_planes(a, e):
    a = np.array(a, dtype=np.int64)
    if a.ndim == 2:
        a = a[np.newaxis, :, :]
    assert a.ndim == 3 and a.shape[0] == e
    return a


def _eliminate(planes, p, e):
    """Gauss-Jordan elimination, the one routine behind every function here.

    Returns the reduced row echelon form, its pivot columns, and the
    product of the pivots as found, negated once per row swap: the
    determinant's coordinates when the input is square of full rank.
    """
    mod = field_modulus(p, e)
    r_mat = _as_planes(planes, e) % p
    nrows, ncols = r_mat.shape[1], r_mat.shape[2]
    pivots = []
    factor = (1,) + (0,) * (e - 1)
    for c in range(ncols):
        r = len(pivots)
        if r >= nrows:
            break
        nonzero = r_mat[:, r:, c].any(axis=0)
        piv = r + int(nonzero.argmax())
        if not nonzero[piv - r]:
            continue
        if piv != r:
            r_mat[:, [r, piv], :] = r_mat[:, [piv, r], :]
            factor = tuple(-x % p for x in factor)
        s = tuple(r_mat[:, r, c].tolist())
        factor = _field_mul(factor, s, p, mod, operator.mul)
        r_mat[:, r, :] = _field_mul(inverse_coords(p, e, s), r_mat[:, r, :], p, mod, np.multiply)
        col = r_mat[:, :, c].copy()
        col[:, r] = 0
        if col.any():
            outer = _field_mul(col[:, :, None], r_mat[:, None, r, :], p, mod, np.multiply)
            r_mat = (r_mat - outer) % p
        pivots.append(c)
    return r_mat, pivots, factor


def rref_planes(planes, p, e):
    """Reduced row echelon form; returns (array, pivot column list)."""
    r_mat, pivots, _ = _eliminate(planes, p, e)
    return r_mat, pivots


def rank_planes(planes, p, e) -> int:
    return len(rref_planes(planes, p, e)[1])


def null_space_planes(planes, p, e):
    """Basis of the right null space, as a list of (e, cols) vectors."""
    r_mat, pivots = rref_planes(planes, p, e)
    ncols = r_mat.shape[2]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros((e, ncols), dtype=np.int64)
        v[0, f] = 1
        for row, c in enumerate(pivots):
            v[:, c] = (-r_mat[:, row, f]) % p
        basis.append(v)
    return basis


def det(m: FpMatrix) -> FieldScalar:
    """Determinant from the pivots of the elimination, exact over the field."""
    _, pivots, factor = _eliminate(m.planes, m.p, m.e)
    if len(pivots) < m.n:
        return FieldScalar.zero(m.p, m.e)
    return FieldScalar(m.p, m.e, factor)


def inv(m: FpMatrix) -> FpMatrix:
    """Matrix inverse; raises ZeroDivisionError when singular."""
    p, e, n = m.p, m.e, m.n
    aug = np.zeros((e, n, 2 * n), dtype=np.int64)
    aug[:, :, :n] = m.planes
    aug[0, :, n:] = np.eye(n, dtype=np.int64)
    r_mat, pivots = rref_planes(aug, p, e)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise ZeroDivisionError("matrix is not invertible")
    return FpMatrix(p, e, r_mat[:, :, n:])


def rank(m: FpMatrix) -> int:
    return rank_planes(m.planes, p=m.p, e=m.e)


def span_basis(mats):
    """Reduce a list of matrices to a basis of their span (rref rows)."""
    mats = list(mats)
    if not mats:
        return []
    first = mats[0]
    p, e, n = first.p, first.e, first.n
    stacked = np.stack([m.planes.reshape(e, n * n) for m in mats], axis=1)
    r_mat, pivots = rref_planes(stacked, p, e)
    return [FpMatrix(p, e, r_mat[:, i, :].reshape(e, n, n)) for i in range(len(pivots))]

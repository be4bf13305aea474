"""Plain-integer elimination over F_{p^e}, the test oracle for ranks, null
spaces, Jordan types and Lie-algebra kernels.

Textbook Gauss-Jordan with row swaps, one matrix at a time: each row
operation is numpy integer arithmetic on coordinates, multiplying in
F_{p^2} by w^2 = -B w - C for the quadratic x^2 + B x + C that
``field_reference`` finds, and each pivot is inverted as an ``Elem``.  It
shares no code with the package's elimination, so agreement between the
two is evidence.
"""

import numpy as np

from field_reference import Elem, first_irreducible_quadratic


def _times(s, rows, p):
    """The products s * rows in F_{p^e}, for coordinates s (..., e) and
    rows (..., e, cols)."""
    if s.shape[-1] == 1:
        return s[..., :, None] * rows % p
    b, c = first_irreducible_quadratic(p)
    (s0, s1), (x0, x1) = np.moveaxis(s, -1, 0)[..., None], np.moveaxis(rows, -2, 0)
    hi = s1 * x1
    return np.stack([s0 * x0 - c * hi, s0 * x1 + s1 * x0 - b * hi], axis=-2) % p


def rref_reference(planes, p, e):
    """Reduced row echelon form of one lane's (e, rows, cols) planes and its
    pivot columns: for each column, swap the first nonzero row at or below
    the next pivot row up, scale it to a leading 1 and clear the column in
    every other row."""
    a = np.asarray(planes, dtype=np.int64).transpose(1, 0, 2) % p  # (rows, e, cols)
    rows, cols = a.shape[0], a.shape[2]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        k = next((i for i in range(r, rows) if a[i, :, c].any()), None)
        if k is None:
            continue
        a[[r, k]] = a[[k, r]]
        a[r] = _times(np.array(Elem(p, e, a[r, :, c].tolist()).inverse().coords), a[r], p)
        others = a[:, :, c] * (np.arange(rows) != r)[:, None]
        a = (a - _times(others, a[r], p)) % p
        pivots.append(c)
    return a.transpose(1, 0, 2), pivots


def rank_reference(planes, p, e) -> int:
    return len(rref_reference(planes, p, e)[1])


def null_space_reference(planes, p, e):
    """One vector per non-pivot column f of the reference rref: 1 at f,
    minus column f of the rref at the pivot columns."""
    r_mat, pivots = rref_reference(planes, p, e)
    cols = planes.shape[2]
    out = []
    for f in (c for c in range(cols) if c not in pivots):
        v = np.zeros((e, cols), dtype=np.int64)
        v[0, f] = 1
        for i, c in enumerate(pivots):
            v[:, c] = (-r_mat[:, i, f]) % p
        out.append(v)
    return np.array(out, dtype=np.int64).reshape(len(out), e, cols)


def jordan_type_of(x) -> tuple[int, ...]:
    """The partition of a nilpotent matrix from the ranks of its powers:
    the parts >= k number rank x^(k-1) - rank x^k."""
    ranks = [x.n] + [rank_reference((x ** k).planes, x.p, x.e) for k in range(1, x.n + 1)] + [0]
    assert ranks[x.n] == 0, "matrix is not nilpotent"
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, x.n + 2)]
    return tuple(k for k in range(x.n, 0, -1) for _ in range(at_least[k - 1] - at_least[k]))


def lie_kernel_reference(kind, n, p, support):
    """Planes (d, n, n) over F_p of a basis of Lie(G) on the span of the
    matrix units at support, a tuple of (i, j): the reference null space of
    its conditions on the units, in support order.  GL has none, SL the
    trace, SO and Sp X^T J + J X = 0 for J the antidiagonal form, ones for
    SO and -1 on the lower half for Sp."""
    units = np.zeros((len(support), n, n), dtype=np.int64)
    for k, (i, j) in enumerate(support):
        units[k, i, j] = 1
    if kind == "GL":
        images = np.zeros((len(support), 0), dtype=np.int64)
    elif kind == "SL":
        images = np.trace(units, axis1=1, axis2=2)[:, None]
    else:
        form = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            form[i, n - 1 - i] = -1 if kind == "Sp" and i >= n // 2 else 1
        images = (units.transpose(0, 2, 1) @ form + form @ units).reshape(len(support), n * n)
    vectors = null_space_reference(images.T[None] % p, p, 1)[:, 0]
    return (vectors @ units.reshape(len(support), n * n)).reshape(-1, n, n) % p

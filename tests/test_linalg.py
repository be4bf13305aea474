"""Exact elimination tests: determinants against the permutation-expansion
oracle, inverses, ranks, and null spaces."""

from itertools import permutations

import numpy as np
import pytest

from ahspringer import linalg
from ahspringer.matrices import FpMatrix
from ahspringer.rng import stream
from field_reference import Elem


def det_by_permutation_expansion(m: FpMatrix) -> tuple[int, ...]:
    """Leibniz formula in the plain-integer reference field."""
    n = m.n
    total = Elem.lift(m.p, m.e, 0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Elem.lift(m.p, m.e, 1)
        for i in range(n):
            term = term * Elem(m.p, m.e, tuple(m.planes[:, i, perm[i]].tolist()))
        total = total + term if sign > 0 else total - term
    return total.coords


def det(m: FpMatrix) -> tuple[int, ...]:
    """Determinant coordinates of one matrix, from the stacked ``det_planes``."""
    return tuple(linalg.det_planes(m.planes, m.p, m.e).tolist())


def random_mat(p, e, n, st):
    rows = [
        [tuple(st.below(p) for _ in range(e)) for _ in range(n)]
        for _ in range(n)
    ]
    return FpMatrix.from_rows(p, e, rows)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_det_matches_permutation_oracle(p, e):
    st = stream(21, f"det/{p}/{e}")
    for n in (1, 2, 3, 4):
        for _ in range(6):
            m = random_mat(p, e, n, st)
            assert det(m) == det_by_permutation_expansion(m)


def test_det_multiplicative():
    st = stream(22, "detmul")
    for p, e in ((3, 1), (2, 2)):
        a = random_mat(p, e, 4, st)
        b = random_mat(p, e, 4, st)
        det_a, det_b = (Elem(p, e, det(m)) for m in (a, b))
        assert det(a @ b) == (det_a * det_b).coords


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (3, 2)])
def test_inverse_round_trip(p, e):
    st = stream(23, f"inv/{p}/{e}")
    ident = FpMatrix.identity(p, e, 4)
    found = 0
    while found < 5:
        m = random_mat(p, e, 4, st)
        if not any(det(m)):
            continue
        found += 1
        assert m @ linalg.inv(m) == ident
        assert linalg.inv(m) @ m == ident


def test_inverse_of_singular_raises():
    singular = FpMatrix.from_rows(3, 1, [[1, 2], [2, 4]])
    with pytest.raises(ZeroDivisionError):
        linalg.inv(singular)


def test_rank_and_null_space_dimensions():
    m = FpMatrix.from_rows(5, 1, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert linalg.rank_planes(m.planes, 5, 1) == 2
    ns = linalg.null_space_planes(m.planes, 5, 1)
    assert len(ns) == 1
    v = ns[0][0]
    prod = (m.planes[0] @ v) % 5
    assert not prod.any()


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2)])
def test_null_space_vectors_annihilate(p, e):
    from ahspringer.gf import quadratic_modulus
    from ahspringer.matrices import _mat_mul_planes

    mod = quadratic_modulus(p) if e == 2 else None
    st = stream(24, f"ns/{p}/{e}")
    for _ in range(6):
        m = random_mat(p, e, 4, st)
        ns = linalg.null_space_planes(m.planes, p, e)
        assert linalg.rank_planes(m.planes, p, e) + len(ns) == 4
        for v in ns:
            out = _mat_mul_planes(m.planes, v.reshape(e, 4, 1), p, mod)
            assert not np.asarray(out).any()


def test_rref_idempotent_and_pivots():
    m = FpMatrix.from_rows(2, 1, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    r1, piv1 = linalg.rref_planes(m.planes, 2, 1)
    r2, piv2 = linalg.rref_planes(r1, 2, 1)
    assert np.array_equal(r1, r2) and piv1 == piv2
    assert len(piv1) == linalg.rank_planes(m.planes, 2, 1)

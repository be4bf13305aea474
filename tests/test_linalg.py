"""Exact elimination tests: determinants against the permutation-expansion
oracle, inverses, and the reduced forms, ranks and null spaces of
``_eliminate`` against the plain-integer references."""

from itertools import permutations

import numpy as np
import pytest

from ahspringer import linalg
from ahspringer.matrices import FpMatrix
from ahspringer.rng import stream
from field_reference import Elem
from linalg_reference import null_space_reference, rank_reference, rref_reference


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
    assert linalg._eliminate(m.planes, 5, 1)[1].sum() == rank_reference(m.planes, 5, 1) == 2
    ns = null_space_reference(m.planes, 5, 1)
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
        ns = null_space_reference(m.planes, p, e)
        assert linalg._eliminate(m.planes, p, e)[1].sum() + len(ns) == 4
        for v in ns:
            out = _mat_mul_planes(m.planes, v.reshape(e, 4, 1), p, mod)
            assert not np.asarray(out).any()


def test_rref_idempotent_and_pivots():
    m = FpMatrix.from_rows(2, 1, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    r1, piv1, _ = linalg._eliminate(m.planes, 2, 1)
    r2, piv2, _ = linalg._eliminate(r1, 2, 1)
    assert np.array_equal(r1, r2) and np.array_equal(piv1, piv2)
    assert piv1.sum() == rank_reference(m.planes, 2, 1) == 2


# -- columns where no lane has a pivot ----------------------------------


def pivotless_stacks(p, e, st):
    """(name, stack (B, e, rows, cols)) where some lane or some column has
    no pivot: a zero column shared by every lane, an all-zero lane beside
    full-rank ones, rank-deficient lanes mixed with full-rank ones, a
    column that repeats another in every lane, and wide and tall stacks
    whose shared zero or repeated columns are skipped."""
    def draw(rows, cols):
        return np.array([[[st.below(p) for _ in range(cols)] for _ in range(rows)] for _ in range(e)])

    def full_rank(n):
        while True:
            m = draw(n, n)
            if rank_reference(m, p, e) == n:
                return m

    n = 4
    shared_zero = np.stack([draw(n, n) for _ in range(4)])
    shared_zero[:, :, :, 1] = 0
    zero = np.zeros((e, n, n), dtype=np.int64)
    zero_lane = np.stack([full_rank(n), zero, full_rank(n)])
    deficient = np.stack([full_rank(n), draw(n, n), full_rank(n), draw(n, n), zero])
    deficient[1, :, :, 2] = (deficient[1, :, :, 0] + 2 * deficient[1, :, :, 1]) % p  # col 2 from cols 0, 1
    deficient[3, :, 3] = deficient[3, :, 0]  # two equal rows
    repeated = np.stack([draw(n, n) for _ in range(3)] + [zero])
    repeated[:, :, :, 3] = repeated[:, :, :, 0]  # col 3 repeats col 0 in every lane
    wide = np.stack([draw(3, 7) for _ in range(4)])
    wide[:, :, :, [2, 5]] = 0
    wide[1] = 0
    tall = np.stack([draw(6, 3) for _ in range(3)])
    tall[:, :, :, 1] = tall[:, :, :, 0]
    return [("shared zero column", shared_zero), ("zero lane", zero_lane), ("rank-deficient", deficient),
            ("repeated column", repeated), ("wide", wide), ("tall", tall)]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
def test_pivotless_columns_match_the_reference(p, e):
    st = stream(25, f"pivotless/{p}/{e}")
    for name, stack in pivotless_stacks(p, e, st):
        r_mat, pivot, _ = linalg._eliminate(stack, p, e)
        for lane, planes in enumerate(stack):
            ref, pivots = rref_reference(planes, p, e)
            assert np.array_equal(r_mat[lane], ref) and np.flatnonzero(pivot[lane]).tolist() == pivots, name
            alone = linalg._eliminate(planes, p, e)
            assert np.array_equal(alone[0], ref) and np.flatnonzero(alone[1]).tolist() == pivots, name
        if stack.shape[-1] != stack.shape[-2]:
            continue
        n = stack.shape[-1]
        ok = pivot.all(axis=-1)
        if not ok.all():
            with pytest.raises(ZeroDivisionError):
                linalg.inv(FpMatrix._wrap(p, e, n, stack))
        inverse = np.zeros_like(stack)
        if ok.any():
            inverse[ok] = linalg.inv(FpMatrix._wrap(p, e, n, stack[ok])).planes
        det = linalg.det_planes(stack, p, e)
        for lane, planes in enumerate(stack):
            m = FpMatrix(p, e, planes)
            assert tuple(det[lane].tolist()) == det_by_permutation_expansion(m), name
            # a full-rank lane's determinant does not depend on its stack-mates
            assert np.array_equal(det[lane], linalg.det_planes(planes, p, e)), name
            identity = FpMatrix.identity(p, e, n).planes
            aug = np.concatenate([planes, identity], axis=-1)
            ref, pivots = rref_reference(aug, p, e)
            assert ok[lane] == (pivots[:n] == list(range(n))), name
            assert np.array_equal(inverse[lane], ref[..., n:] if ok[lane] else np.zeros_like(planes)), name
        assert ok.any() or name in ("shared zero column", "repeated column")

"""The fused plane kernels against plain-Python list-of-lists references.

The references below share no code with the package: matrices are lists
of rows of coordinate tuples, F_{p^2} uses the moduli listed in the
README, and series are evaluated power by power; ranks come from
``linalg_reference``.
"""

from itertools import permutations

import numpy as np
import pytest

from ahspringer import linalg
from ahspringer.errors import DomainError
from ahspringer.expmaps import ah_exp, bch, bch_dynkin, truncated_exp, truncated_log
from ahspringer.groups import GroupSpec, JordanType, _combination_lanes, _nilradical_planes, random_nilpotent
from ahspringer.matrices import FpMatrix, _mat_mul_planes
from ahspringer.rng import stream, stream_lanes
from ahspringer.series import ah_coeffs_mod_p
from linalg_reference import rank_reference

# x^2 + b*x + c defining F_{p^2}, as (b, c)
README_MODULI = {2: (1, 1), 3: (0, 1), 5: (0, 2), 7: (0, 1)}


def f_mul(a, b, p):
    if len(a) == 1:
        return ((a[0] * b[0]) % p,)
    mb, mc = README_MODULI[p]
    hi = a[1] * b[1]
    return ((a[0] * b[0] - mc * hi) % p, (a[0] * b[1] + a[1] * b[0] - mb * hi) % p)


def f_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def rows_of(m):
    planes = m.planes.tolist()
    return [[tuple(planes[k][i][j] for k in range(m.e)) for j in range(m.n)] for i in range(m.n)]


def ref_matmul(a, b, p):
    n, zero = len(a), (0,) * len(a[0][0])
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = f_add(acc, f_mul(a[i][k], b[k][j], p), p)
            row.append(acc)
        out.append(row)
    return out


def ref_series(coeffs, x, p):
    """sum_i coeffs[i] * x^i, every power multiplied out."""
    n, e = len(x), len(x[0][0])
    power = [[(int(i == j),) + (0,) * (e - 1) for j in range(n)] for i in range(n)]
    acc = [[(0,) * e for _ in range(n)] for _ in range(n)]
    for c in coeffs:
        acc = [
            [f_add(acc[i][j], tuple(c * v % p for v in power[i][j]), p) for j in range(n)]
            for i in range(n)
        ]
        power = ref_matmul(power, x, p)
    return acc


def inv_mod(a, p):
    return pow(a, p - 2, p)


def inv_factorials(p):
    out, fact = [], 1
    for i in range(p):
        fact = fact * max(i, 1) % p
        out.append(inv_mod(fact, p))
    return out


def log_coeffs(p):
    return [0] + [(-1) ** (i + 1) * inv_mod(i, p) % p for i in range(1, p)]


def p_nilpotent(p, n, e, seed):
    parts = [p] * (n // p) + ([n % p] if n % p else [])
    return random_nilpotent(GroupSpec("GL", n), JordanType(tuple(parts)), seed, p, e=e)


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 6)])
def test_series_maps_match_plain_python(p, n, e):
    for k in range(6):
        x = random_nilpotent(GroupSpec("GL", n), "any", 700 + k, p, e=e)
        # coefficients past degree n - 1 multiply zero powers
        coeffs = ah_coeffs_mod_p(p, n + 2)
        assert rows_of(ah_exp(x)) == ref_series(coeffs, rows_of(x), p)

        y = p_nilpotent(p, n, e, 800 + k)
        assert rows_of(truncated_exp(y)) == ref_series(inv_factorials(p), rows_of(y), p)
        u = FpMatrix.identity(p, e, n) + y
        assert rows_of(truncated_log(u)) == ref_series(log_coeffs(p), rows_of(y), p)


@pytest.mark.parametrize(
    "kind,n,p,e,lower",
    [("GL", 4, 3, 1, False), ("GL", 3, 2, 2, True), ("Sp", 4, 3, 2, False),
     ("SO", 5, 5, 1, True), ("Sp", 6, 5, 2, True)],
)
def test_combine_is_the_explicit_sum(kind, n, p, e, lower):
    # five lanes of one group, padded by one row and column, against one
    # Stream per lane drawing a scalar per basis element
    basis = _nilradical_planes(kind, n, p, e, lower)
    lanes, counts = _combination_lanes([(basis, 5)], p, e, stream_lanes(np.arange(5), "combine"), n + 1)
    assert counts.tolist() == [len(basis) * e] * 5
    for k in range(5):
        assert not lanes[k, :, n].any() and not lanes[k, :, :, n].any()
        got = FpMatrix(p, e, lanes[k, :, :n, :n])
        st = stream(k, "combine")
        acc = [[(0,) * e for _ in range(n)] for _ in range(n)]
        for b in basis:
            s = tuple(st.below(p) for _ in range(e))
            b_rows = rows_of(FpMatrix(p, e, b))
            acc = [[f_add(acc[i][j], f_mul(s, b_rows[i][j], p), p) for j in range(n)]
                   for i in range(n)]
        assert rows_of(got) == acc


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 2)])
def test_batched_matmul_is_the_pairwise_product(p, e):
    st = stream(9, f"batch/{p}/{e}")
    stack = np.array([[[[st.below(p) for _ in range(3)] for _ in range(3)] for _ in range(e)]
                      for _ in range(4)], dtype=np.int64)
    mod = README_MODULI[p] if e == 2 else None
    prod = _mat_mul_planes(stack[:, None], stack[None, :], p, mod)
    assert prod.shape == (4, 4, e, 3, 3)
    for i in range(4):
        for j in range(4):
            ref = ref_matmul(rows_of(FpMatrix(p, e, stack[i])), rows_of(FpMatrix(p, e, stack[j])), p)
            assert rows_of(FpMatrix(p, e, prod[i, j])) == ref


def ref_det(a, p):
    """Permutation expansion."""
    n, e = len(a), len(a[0][0])
    total = (0,) * e
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = (1,) + (0,) * (e - 1)
        for i in range(n):
            term = f_mul(term, a[i][perm[i]], p)
        total = f_add(total, tuple(sign * t % p for t in term), p)
    return total


def stack_of(mats):
    return FpMatrix._wrap(mats[0].p, mats[0].e, mats[0].n, np.stack([m.planes for m in mats]))


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 6)])
def test_stacked_series_maps_match_plain_python(p, n, e):
    xs = [random_nilpotent(GroupSpec("GL", n), "any", 900 + k, p, e=e) for k in range(5)]
    ys = [p_nilpotent(p, n, e, 950 + k) for k in range(5)]
    exps, texps = ah_exp(stack_of(xs)), truncated_exp(stack_of(ys))
    ident = FpMatrix.identity(p, e, n)
    tlogs = truncated_log(stack_of([ident + y for y in ys]))
    coeffs = ah_coeffs_mod_p(p, n + 2)
    for k in range(5):
        assert rows_of(exps.lane(k)) == ref_series(coeffs, rows_of(xs[k]), p)
        assert rows_of(texps.lane(k)) == ref_series(inv_factorials(p), rows_of(ys[k]), p)
        assert rows_of(tlogs.lane(k)) == ref_series(log_coeffs(p), rows_of(ys[k]), p)


def test_stacked_dynkin_brackets_match_one_pair_at_a_time():
    # strictly upper triangular 4 x 4 over F_5: class 3 < 5, so bch is defined
    runs = [(_nilradical_planes("GL", 4, 5, 1), 4)]
    xs, ys = ([FpMatrix(5, 1, planes) for planes in
               _combination_lanes(runs, 5, 1, stream_lanes(np.arange(4), label), 4)[0]]
              for label in ("dynkin-x", "dynkin-y"))
    got = bch_dynkin(stack_of(xs), stack_of(ys), 4)
    assert all(got.lane(k) == bch_dynkin(x, y, 4) for k, (x, y) in enumerate(zip(xs, ys)))
    assert bch(stack_of(xs), stack_of(ys)).lanes_equal(got).tolist() == [
        bch(x, y) == bch_dynkin(x, y, 4) for x, y in zip(xs, ys)]


def test_one_bad_lane_raises_the_single_matrix_message():
    good = p_nilpotent(3, 4, 1, 5)
    bad = FpMatrix.from_rows(3, 1, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    stack = stack_of([good, bad, good])
    for fn, msg in ((truncated_exp, "truncated exponential needs x^p = 0"),
                    (lambda s: truncated_log(FpMatrix.identity(3, 1, 4) + s),
                     "truncated logarithm needs (u - 1)^p = 0")):
        with pytest.raises(DomainError, match=msg.replace("^", "\\^").replace("(", "\\(").replace(")", "\\)")):
            fn(stack)
    unit = FpMatrix.identity(3, 1, 4)
    with pytest.raises(DomainError, match="matrix is not nilpotent"):
        ah_exp(stack_of([good, unit]))


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 4), (5, 1, 2), (2, 2, 3), (3, 2, 3), (5, 2, 2)])
def test_stacked_det_and_inv_match_plain_python(p, e, n):
    st = stream(11, f"det/{p}/{e}/{n}")
    planes = np.array([[[[st.below(p) for _ in range(n)] for _ in range(n)] for _ in range(e)]
                       for _ in range(24)], dtype=np.int64)
    planes[3] = 0
    planes[5, :, 1] = planes[5, :, 0]  # equal rows
    planes[8, :, :, 2 % n] = 0  # a zero column
    dets = linalg.det_planes(planes, p, e)
    ok = dets.any(axis=-1)
    invs = np.zeros_like(planes)
    invs[ok] = linalg.inv(FpMatrix._wrap(p, e, n, planes[ok])).planes
    ident = [[(int(i == j),) + (0,) * (e - 1) for j in range(n)] for i in range(n)]
    for k in range(24):
        a = rows_of(FpMatrix(p, e, planes[k]))
        det = ref_det(a, p)
        assert tuple(int(v) for v in dets[k]) == det
        assert bool(ok[k]) == (rank_reference(planes[k], p, e) == n)
        if any(det):
            assert ref_matmul(a, rows_of(FpMatrix(p, e, invs[k])), p) == ident
    assert (~ok).sum() >= 3
    with pytest.raises(ZeroDivisionError):
        linalg.inv(FpMatrix._wrap(p, e, n, planes))

"""The fused plane kernels against plain-Python list-of-lists references.

The references below share no code with the package: matrices are lists
of rows of coordinate tuples, F_{p^2} uses the moduli listed in the
README, and series are evaluated power by power.
"""

import numpy as np
import pytest

from ahspringer.expmaps import ah_exp, truncated_exp, truncated_log
from ahspringer.groups import GroupSpec, JordanType, _combine, _nilradical_planes, random_nilpotent
from ahspringer.matrices import FpMatrix, _mat_mul_planes
from ahspringer.rng import stream
from ahspringer.series import ah_coeffs_mod_p

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
        coeffs = ah_coeffs_mod_p(p, n + 2).coeffs
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
    basis = _nilradical_planes(kind, n, p, e, lower)
    for k in range(5):
        got = _combine(basis, p, e, stream(k, "combine"))
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

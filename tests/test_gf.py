"""Field arithmetic tests: the gf kernels on coordinate tuples, checked
exhaustively against the field axioms for the small fields in scope, and
F_{p^2} arithmetic against its companion-matrix representation and the
plain-integer reference field."""

import operator
import random
import re
from itertools import product
from pathlib import Path

import pytest

import ahspringer
from ahspringer.gf import (
    _field_inv,
    _field_mul,
    _field_pow,
    _frobenius,
    check_prime,
    field_modulus,
    inverse_mod,
    is_prime,
    quadratic_modulus,
    scalar_from_json,
    scalar_to_json,
)
from ahspringer.matrices import FpMatrix
from ahspringer.witt import WittVector
from field_reference import first_irreducible_quadratic


def mul(a, b, p):
    return _field_mul(a, b, p, field_modulus(p, len(a)), operator.mul)


def power(a, k, p):
    return _field_pow(a, k, p, field_modulus(p, len(a)))


def inv(a, p):
    return tuple(int(x) for x in _field_inv(a, p, field_modulus(p, len(a))))


def add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def test_quadratic_modulus_frozen():
    # first (b, c) with x^2 + b x + c irreducible, lexicographic on (b, c)
    assert quadratic_modulus(2) == (1, 1)
    assert quadratic_modulus(3) == (0, 1)
    assert quadratic_modulus(5) == (0, 2)
    assert quadratic_modulus(7) == (0, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quadratic_modulus_is_irreducible(p):
    b, c = quadratic_modulus(p)
    assert all((x * x + b * x + c) % p != 0 for x in range(p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_reference_field_finds_the_same_quadratic(p):
    assert first_irreducible_quadratic(p) == quadratic_modulus(p)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    elements = list(product(range(p), repeat=e))
    zero, one = (0,) * e, (1,) + (0,) * (e - 1)
    for a in elements:
        assert mul(a, one, p) == a
        assert mul(a, zero, p) == zero
        if any(a):
            assert mul(a, inv(a, p), p) == one
    for a in elements:
        for b in elements:
            assert mul(a, b, p) == mul(b, a, p)
    # associativity and distributivity on a subgrid (full triple loop for tiny fields)
    sample = elements if len(elements) <= 9 else elements[::3]
    for a in sample:
        for b in sample:
            for c in sample:
                assert mul(mul(a, b, p), c, p) == mul(a, mul(b, c, p), p)
                assert mul(a, add(b, c, p), p) == add(mul(a, b, p), mul(a, c, p), p)


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (5, 2)])
def test_frobenius_is_field_automorphism_fixing_prime_field(p, e):
    mod = field_modulus(p, e)
    for a in product(range(p), repeat=e):
        assert _frobenius(a, p, mod) == power(a, p, p)
        assert _frobenius(_frobenius(a, p, mod), p, mod) == a  # order 2 on F_{p^2}
    for v in range(p):
        assert _frobenius((v, 0), p, mod) == (v, 0)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inverse_mod(0, 5)


def test_json_round_trip():
    assert scalar_to_json((1, 2)) == [1, 2]
    assert scalar_from_json(3, 2, [1, 2]) == (1, 2)
    assert scalar_to_json((4,)) == 4
    assert scalar_from_json(5, 1, 4) == (4,)
    assert scalar_from_json(5, 1, 9) == (4,)  # reduced
    with pytest.raises(ValueError, match="expected integer entry"):
        scalar_from_json(5, 1, [1, 2])
    with pytest.raises(ValueError, match=r"expected \[int, int\] entry for e=2"):
        scalar_from_json(5, 2, 3)
    with pytest.raises(ValueError, match="expected integer entry"):
        scalar_from_json(5, 1, True)


def test_field_mismatch_raises():
    # a coordinate tuple of the wrong length is refused wherever it meets a field
    with pytest.raises(ValueError):
        FpMatrix.identity(3, 1, 2).scale((1, 0))
    with pytest.raises(ValueError):
        FpMatrix.identity(3, 2, 2).scale((1,))
    with pytest.raises(ValueError):
        WittVector(3, 1, 1, ((1, 0),))


def test_invalid_parameters():
    with pytest.raises(ValueError, match="must be prime"):
        scalar_from_json(4, 1, 1)
    with pytest.raises(ValueError, match="extension degree"):
        scalar_from_json(3, 3, [1, 0])
    with pytest.raises(ValueError, match="coordinate count"):
        FpMatrix.from_rows(3, 2, [[(1,)]])


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_check_prime_tests_the_bound_first():
    for p in (65536, 65537, 2**61 - 1):  # composite, prime, prime
        with pytest.raises(ValueError, match="below 65536"):
            check_prime(p)
    with pytest.raises(ValueError, match="must be prime"):
        check_prime(65535)
    check_prime(65521)


# -- companion-matrix oracle ---------------------------------------------
#
# a0 + a1*w maps to a0*I + a1*C, with C = [[0, -c], [1, -b]] the companion
# matrix of x^2 + b*x + c.  This is an injective ring map into 2x2 integer
# matrices mod p, so it checks the reduction rule of the scalar product,
# power, Frobenius and inverse without sharing their code.


def _rep(a, p):
    b, c = quadratic_modulus(p)
    a0, a1 = a
    return ((a0 % p, -c * a1 % p), (a1 % p, (a0 - b * a1) % p))


def _mat_mul(x, y, p):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) % p for j in range(2)) for i in range(2)
    )


def _mat_pow(x, k, p):
    result = ((1, 0), (0, 1))
    for bit in bin(k)[2:]:
        result = _mat_mul(result, result, p)
        if bit == "1":
            result = _mat_mul(result, x, p)
    return result


def _check_against_companion(a, b, p, exponents):
    assert _rep(mul(a, b, p), p) == _mat_mul(_rep(a, p), _rep(b, p), p)
    assert _rep(_frobenius(a, p, field_modulus(p, 2)), p) == _mat_pow(_rep(a, p), p, p)
    for k in exponents:
        assert _rep(power(a, k, p), p) == _mat_pow(_rep(a, p), k, p)
    if any(a):
        identity = ((1, 0), (0, 1))
        a_inv = inv(a, p)
        assert _mat_mul(_rep(a_inv, p), _rep(a, p), p) == identity
        assert _mat_mul(_rep(power(a_inv, 3, p), p), _mat_pow(_rep(a, p), 3, p), p) == identity


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_scalar_arithmetic_matches_companion_matrices_exhaustive(p):
    elements = list(product(range(p), repeat=2))
    exponents = [0, 1, 2, p, p + 1, p * p - 1, p * p]
    for a in elements:
        for b in elements:
            _check_against_companion(a, b, p, exponents if b == a else ())


def test_scalar_arithmetic_matches_companion_matrices_seeded():
    p = 65521
    rng = random.Random(p)
    exponents = [0, 1, p, p * p - 1, rng.randrange(p ** 3)]
    for _ in range(200):
        a, b = ((rng.randrange(p), rng.randrange(p)) for _ in range(2))
        _check_against_companion(a, b, p, exponents)


def test_only_gf_names_quadratic_modulus():
    # the presentation of F_{p^2} stays behind gf: every other module asks
    # gf.field_modulus and calls the gf product, power and Frobenius
    src = Path(ahspringer.__file__).parent
    offenders = [f.name for f in sorted(src.glob("*.py"))
                 if f.name != "gf.py" and re.search(r"\bquadratic_modulus\b", f.read_text())]
    assert offenders == []

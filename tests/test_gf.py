"""Field scalar tests: exhaustive axioms for the small fields in scope, and
F_{p^2} arithmetic against its companion-matrix representation."""

import random
import re
from pathlib import Path

import pytest

import ahspringer
from ahspringer.gf import (
    FieldScalar,
    all_scalars,
    check_prime,
    inverse_mod,
    is_prime,
    quadratic_modulus,
)


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


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    elements = list(all_scalars(p, e))
    assert len(elements) == p ** e
    zero = FieldScalar.zero(p, e)
    one = FieldScalar.one(p, e)
    for a in elements:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * a.inverse() == one
    for a in elements:
        for b in elements:
            assert a + b == b + a
            assert a * b == b * a
    # associativity and distributivity on a subgrid (full triple loop for tiny fields)
    sample = elements if len(elements) <= 9 else elements[::3]
    for a in sample:
        for b in sample:
            for c in sample:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (5, 2)])
def test_frobenius_is_field_automorphism_fixing_prime_field(p, e):
    for a in all_scalars(p, e):
        assert a.frobenius() == a ** p
        assert a.frobenius().frobenius() == a  # order 2 on F_{p^2}
    for v in range(p):
        a = FieldScalar.from_int(p, e, v)
        assert a.frobenius() == a


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FieldScalar.zero(3, 1).inverse()
    with pytest.raises(ZeroDivisionError):
        inverse_mod(0, 5)


def test_field_mismatch_raises():
    with pytest.raises(ValueError):
        FieldScalar.one(2, 1) + FieldScalar.one(3, 1)
    with pytest.raises(ValueError):
        FieldScalar.one(3, 1) * FieldScalar.one(3, 2)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        FieldScalar(4, 1, (1,))
    with pytest.raises(ValueError):
        FieldScalar(3, 3, (1, 0, 0))
    with pytest.raises(ValueError):
        FieldScalar(3, 2, (1,))


def test_json_round_trip():
    a = FieldScalar(3, 2, (1, 2))
    assert a.to_json() == [1, 2]
    assert FieldScalar.from_json(3, 2, [1, 2]) == a
    b = FieldScalar(5, 1, (4,))
    assert b.to_json() == 4
    assert FieldScalar.from_json(5, 1, 4) == b
    with pytest.raises(ValueError):
        FieldScalar.from_json(5, 1, [1, 2])
    with pytest.raises(ValueError):
        FieldScalar.from_json(5, 2, 3)


def test_lift_only_for_prime_field():
    assert FieldScalar.from_int(7, 1, 10).lift() == 3
    with pytest.raises(ValueError):
        FieldScalar.from_int(7, 2, 1).lift()


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_immutability_and_hash():
    a = FieldScalar(3, 1, (2,))
    with pytest.raises(AttributeError):
        a.coords = (1,)
    assert len({FieldScalar(3, 1, (1,)), FieldScalar(3, 1, (1,))}) == 1


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


def _rep(a):
    b, c = quadratic_modulus(a.p)
    a0, a1 = a.coords
    return ((a0 % a.p, -c * a1 % a.p), (a1 % a.p, (a0 - b * a1) % a.p))


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


def _check_against_companion(a, b, exponents):
    p = a.p
    assert _rep(a * b) == _mat_mul(_rep(a), _rep(b), p)
    assert _rep(a.frobenius()) == _mat_pow(_rep(a), p, p)
    for k in exponents:
        assert _rep(a ** k) == _mat_pow(_rep(a), k, p)
    if not a.is_zero():
        identity = ((1, 0), (0, 1))
        assert _mat_mul(_rep(a.inverse()), _rep(a), p) == identity
        assert _mat_mul(_rep(a ** -3), _mat_pow(_rep(a), 3, p), p) == identity


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_scalar_arithmetic_matches_companion_matrices_exhaustive(p):
    elements = list(all_scalars(p, 2))
    exponents = [0, 1, 2, p, p + 1, p * p - 1, p * p]
    for a in elements:
        for b in elements:
            _check_against_companion(a, b, exponents if b == a else ())


def test_scalar_arithmetic_matches_companion_matrices_seeded():
    p = 65521
    rng = random.Random(p)
    exponents = [0, 1, p, p * p - 1, rng.randrange(p ** 3)]
    for _ in range(200):
        a, b = (FieldScalar(p, 2, (rng.randrange(p), rng.randrange(p))) for _ in range(2))
        _check_against_companion(a, b, exponents)


def test_only_gf_names_quadratic_modulus():
    # the presentation of F_{p^2} stays behind gf: every other module asks
    # gf.field_modulus and calls the gf product, power and Frobenius
    src = Path(ahspringer.__file__).parent
    offenders = [f.name for f in sorted(src.glob("*.py"))
                 if f.name != "gf.py" and re.search(r"\bquadratic_modulus\b", f.read_text())]
    assert offenders == []

"""Series module tests.

The Artin-Hasse coefficients are checked against three independent
derivations: the derivative recurrence (n+1) C_{n+1} = sum_j C_{n-(p^j-1)}
(from E' = E * d/dt of the exponent), the classical product form
prod_{gcd(n,p)=1} (1 - t^n)^(-mu(n)/n) expanded with exact binomial
series, and for small n a count of permutations; and against the former
Fraction implementation, the product of exp(t^q/q) over q = p^j.
"""

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd

import pytest

from ahspringer import series
from ahspringer.series import (
    ah_coeffs_mod_p,
    ah_inverse_coeffs,
    ah_rational_coeffs,
    series_mul,
    series_reversion,
)


def exp_of_term(k, c, degree):
    """exp(c t^k) truncated: c^i / i! at t^(k i)."""
    out = [Fraction(0)] * (degree + 1)
    term = Fraction(1)
    i = 0
    while k * i <= degree:
        out[k * i] = term
        i += 1
        term = term * c / i
    return out


def sparse_product(a, b):
    """Product of Fraction coefficient lists over their nonzero terms,
    truncated to the shorter."""
    n = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (n + 1)
    terms = [(j, c) for j, c in enumerate(b[:n + 1]) if c]
    for i, x in enumerate(a[:n + 1]):
        if x:
            for j, c in terms:
                if i + j > n:
                    break
                out[i + j] += x * c
    return out


def ah_via_exp_product(p, degree):
    """The former Fraction implementation: prod over q = p^j <= degree of
    exp(t^q / q), multiplied out on Fractions."""
    coeffs = [Fraction(1)] + [Fraction(0)] * degree
    q = 1
    while q <= degree:
        coeffs = sparse_product(coeffs, exp_of_term(q, Fraction(1, q), degree))
        q *= p
    return coeffs


def cycle_types(n):
    """How many permutations of n letters have each multiset of cycle lengths."""
    tally = Counter()
    for perm in permutations(range(n)):
        seen, lengths = [False] * n, []
        for start in range(n):
            length, i = 0, start
            while not seen[i]:
                seen[i], i, length = True, perm[i], length + 1
            if length:
                lengths.append(length)
        tally[tuple(sorted(lengths))] += 1
    return tally


def ah_via_recurrence(p, degree):
    coeffs = [Fraction(1)]
    for n in range(degree):
        total = Fraction(0)
        q = 1
        while q - 1 <= n:
            total += coeffs[n - (q - 1)]
            q *= p
        coeffs.append(total / (n + 1))
    return coeffs


def mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def binomial_series(alpha, n, degree):
    # (1 - t^n)^alpha with exact rational alpha
    out = [Fraction(0)] * (degree + 1)
    term = Fraction(1)
    k = 0
    while n * k <= degree:
        out[n * k] = term * (-1) ** k
        k += 1
        term = term * (alpha - (k - 1)) / k
    return out


def ah_via_product_formula(p, degree):
    coeffs = [Fraction(1)] + [Fraction(0)] * degree
    for n in range(1, degree + 1):
        if gcd(n, p) != 1:
            continue
        factor = binomial_series(Fraction(-mobius(n), n), n, degree)
        new = [Fraction(0)] * (degree + 1)
        for i in range(degree + 1):
            if coeffs[i] == 0:
                continue
            for j in range(degree + 1 - i):
                new[i + j] += coeffs[i] * factor[j]
        coeffs = new
    return coeffs


class TestRationalCoefficients:
    def test_agrees_with_exp_below_p(self):
        assert list(ah_rational_coeffs(3, 2)) == [1, 1, Fraction(1, 2)]
        for p in (2, 3, 5, 7):
            coeffs = ah_rational_coeffs(p, p - 1)
            fact = 1
            for i in range(p):
                if i:
                    fact *= i
                assert coeffs[i] == Fraction(1, fact)

    def test_degree_zero(self):
        for p in (2, 3, 5, 7):
            assert list(ah_rational_coeffs(p, 0)) == [1]

    def test_frozen_p2_degree5(self):
        expected = [1, 1, 1, Fraction(2, 3), Fraction(2, 3), Fraction(7, 15)]
        assert list(ah_rational_coeffs(2, 5)) == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_recurrence_oracle(self, p):
        assert list(ah_rational_coeffs(p, 60)) == ah_via_recurrence(p, 60)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_product_formula_oracle(self, p):
        assert list(ah_rational_coeffs(p, 12)) == ah_via_product_formula(p, 12)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_equals_the_former_fraction_product(self, p):
        # a truncated product is the prefix of a longer one, so the reference
        # at degree 60 covers every degree from 0 to 60
        reference = ah_via_exp_product(p, 60)
        for degree in range(61):
            assert list(ah_rational_coeffs(p, degree)) == reference[:degree + 1], degree
        for degree in (127, 256):
            assert list(ah_rational_coeffs(p, degree)) == ah_via_exp_product(p, degree)

    def test_permutation_count_oracle(self):
        # exponential formula (Stanley, Enumerative Combinatorics 2, 5.1): n! C_n
        # counts the permutations of n letters whose cycle lengths are all powers of p
        types = [cycle_types(n) for n in range(9)]
        for p in (2, 3, 5, 7, 11, 13):
            powers = {p ** j for j in range(4)}
            coeffs = ah_rational_coeffs(p, 8)
            for n, tally in enumerate(types):
                count = sum(k for lengths, k in tally.items() if set(lengths) <= powers)
                assert coeffs[n] * factorial(n) == count, (p, n)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_integrality_through_degree_60(self, p):
        for c in ah_rational_coeffs(p, 60):
            assert c.denominator % p != 0

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            ah_rational_coeffs(4, 3)
        with pytest.raises(ValueError):
            ah_rational_coeffs(1, 3)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            ah_rational_coeffs(2, -1)


class TestModPCoefficients:
    def test_frozen_values(self):
        assert list(ah_coeffs_mod_p(3, 3)) == [1, 1, 2, 2]
        assert list(ah_coeffs_mod_p(2, 5)) == [1, 1, 1, 0, 0, 1]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_inverse_factorials_below_p(self, p):
        coeffs = ah_coeffs_mod_p(p, p - 1)
        fact = 1
        for i in range(p):
            if i:
                fact = fact * i % p
            assert coeffs[i] * fact % p == 1

    def test_deterministic(self):
        assert ah_coeffs_mod_p(5, 30) == ah_coeffs_mod_p(5, 30)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_reduction_of_the_rational_series(self, p):
        # ah_coeffs_mod_p reduces the integer core itself, not the Fractions
        for degree in range(128):
            rational = ah_rational_coeffs(p, degree)
            expected = tuple(c.numerator * pow(c.denominator, -1, p) % p for c in rational)
            assert ah_coeffs_mod_p(p, degree) == expected, degree

    def test_a_p_divisible_denominator_raises(self, monkeypatch):
        # a core whose C_2 = 6/4 = 3/2 (named in lowest terms) is not 2-integral
        monkeypatch.setattr(series, "_ah_integer_coeffs", lambda p, degree: ((1, 1, 6), (1, 1, 4)))
        with pytest.raises(ArithmeticError, match="^integrality violated: coefficient 2 of E_2 is 3/2$"):
            ah_coeffs_mod_p.__wrapped__(2, 2)


class TestInverseSeries:
    def test_constant(self):
        for p in (2, 3, 5):
            assert list(ah_inverse_coeffs(p, 0)) == [1]

    def test_frozen_p2(self):
        assert list(ah_inverse_coeffs(2, 2)) == [1, 1, 0]

    @pytest.mark.parametrize("p,degree", [(2, 60), (3, 60), (5, 40), (7, 40)])
    def test_product_is_one(self, p, degree):
        prod = series_mul(ah_inverse_coeffs(p, degree), ah_coeffs_mod_p(p, degree), p)
        assert prod == (1,) + (0,) * degree

    def test_odd_p_inverse_is_negated_argument(self):
        # for odd p the exponent has only odd powers, so F_p(t) = E_p(-t)
        for p in (3, 5, 7):
            e = ah_coeffs_mod_p(p, 25)
            f = ah_inverse_coeffs(p, 25)
            assert f == tuple(c * (-1) ** i % p for i, c in enumerate(e))
        # and for p = 2 that fails (the t^2/2 term breaks the symmetry)
        e2 = ah_coeffs_mod_p(2, 5)
        f2 = ah_inverse_coeffs(2, 5)
        assert f2 != e2


class TestSeriesMul:
    def test_trivial(self):
        assert series_mul((1,), (1,), 2) == (1,)
        assert series_mul((0, 1, 0), (0, 1, 0), 3) == (0, 0, 1)

    def test_truncates_to_shorter(self):
        assert series_mul((1, 1, 1, 1, 1), (1, 2), 3) == (1, 0)


def series_compose(f, g, p):
    """f(g(t)) over F_p truncated to the shorter input; needs g(0) = 0.
    The reference that checks series_reversion."""
    if g[0] != 0:
        raise ValueError("composition requires zero constant term in the inner series")
    n = min(len(f), len(g)) - 1
    g = g[: n + 1]
    out = [f[0]] + [0] * n
    power = (1,) + (0,) * n  # g^0
    for k in range(1, n + 1):
        power = series_mul(power, g, p)
        ck = f[k]
        if ck == 0:
            continue
        for i in range(k, n + 1):
            out[i] = (out[i] + ck * power[i]) % p
    return tuple(out)



class TestReversion:
    def test_identity(self):
        assert series_reversion((0, 1), 5) == (0, 1)

    def test_frozen_f2(self):
        assert series_reversion((0, 1, 1, 0), 2) == (0, 1, 1, 0)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_two_sided_inverse_of_ah_minus_one(self, p):
        degree = 20
        s = (0,) + ah_coeffs_mod_p(p, degree)[1:]
        ell = series_reversion(s, p)
        ident = tuple(1 if i == 1 else 0 for i in range(degree + 1))
        assert series_compose(ell, s, p) == ident
        assert series_compose(s, ell, p) == ident

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            series_reversion((1, 1), 3)

    def test_rejects_zero_linear(self):
        with pytest.raises(ValueError):
            series_reversion((0, 0, 1), 3)


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        series_compose((1, 1), (1, 1), 3)


def dense_product(a, b):
    """Schoolbook product of coefficient lists, truncated to the shorter."""
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]


@pytest.mark.parametrize("a,b", [
    ([Fraction(1, 3), 0, 2, 0, 0], [0, Fraction(-5, 7), 1]),  # unequal degrees, zero constant
    ([0, 0, Fraction(3, 2), 0, 0, 0], [0, 1, 0, 0, Fraction(1, 9), 0, 0, 0]),  # trailing zeros
    ([0, 0, 0], [1, 2, 3, 4]),
    ([Fraction(2, 5)], [0, 1]),
    ([1, -1, Fraction(1, 2), -Fraction(1, 6), Fraction(1, 24)], [1, 0, Fraction(1, 2), 0, Fraction(1, 8)]),
])
def test_sparse_product_is_the_dense_product(a, b):
    # the multiplication of the Fraction reference, ah_via_exp_product
    for x, y in ((a, b), (b, a)):
        assert sparse_product(x, y) == dense_product(x, y)


# sha-256 of ",".join(map(str, C_0..C_60)), from the dense product
RATIONAL_60 = {
    2: "07e89b6fcba6f4824afe811a527fd26ebadd96844c82d1415b3d487452c8dd6f",
    3: "86bb6a7226ca80cb862a19aa07ffa68aff8e3b124e703c17e817f8b01985768e",
    5: "71cf86646abff15b5b5c823cc9ffdb7ebbd01d4098bf364b3928c5cd72035905",
    7: "b4787bc0650530c3ae8831d563ddc67dff98e8340436856361ff9a2be7fa361c",
}


@pytest.mark.parametrize("p", sorted(RATIONAL_60))
def test_rational_coefficients_to_degree_60_are_unchanged(p):
    text = ",".join(map(str, ah_rational_coeffs(p, 60)))
    assert hashlib.sha256(text.encode()).hexdigest() == RATIONAL_60[p]

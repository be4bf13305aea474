"""Truncated power series with exact coefficients.

A series of truncation degree N is the tuple of its N+1 coefficients of
t^0 .. t^N: big rationals (``fractions.Fraction``) for the
characteristic-zero Artin-Hasse expansion, canonical ints in [0, p) for
its mod-p reduction.  Every operation states its truncation explicitly,
and operations on mismatched truncations truncate to the shorter input.

The Artin-Hasse exponential is
    E_p(t) = exp(t + t^p/p + t^(p^2)/p^2 + ...),
a rational series whose coefficients have denominators coprime to p, so
it reduces to a series e_p(t) over F_p.  For i < p its coefficients are
those of exp(t), i.e. C_i = 1/i!.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd

from .gf import check_prime, inverse_mod

# The rational expansion grows faster than degree^3: about 0.02 s at
# degree 256 for p = 2, 3.5 s at degree 1000 (2-core box, CPython 3.11).
# No runtime path needs more than gf.MAX_DIM - 1 = 127 (ah_exp) or
# suites.INTEGRALITY_DEGREE = 60.
MAX_DEGREE = 256


@lru_cache(maxsize=None)
def _ah_integer_coeffs(p: int, degree: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The integers A_n = n! C_n and the factorials n!, n <= degree, of
    the coefficients C_n of E_p(t) = exp(sum_j t^(p^j)/p^j).

    The product of the exponentials exp(t^q/q), q = p^j: exp(t^q/q) has
    A_(qi) = (qi)!/(q^i i!), and a product is the binomial convolution
    sum_k binom(n, k) a_k b_(n-k).  The derivative recurrence (n+1) C_{n+1}
    = sum_{p^j - 1 <= n} C_{n - (p^j - 1)}, which on the A_n reads
    A_{n+1} = sum_{q <= n+1} n!/(n+1-q)! A_{n+1-q}, is rechecked on every
    fresh expansion.
    """
    check_prime(p)
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"truncation degree must be between 0 and {MAX_DEGREE}, got {degree}")
    fact = [1]
    for n in range(1, degree + 1):
        fact.append(fact[-1] * n)
    a = [1] * (degree + 1)  # exp(t), the factor q = 1
    q = p
    while q <= degree:
        b = [(q * i, fact[q * i] // (q ** i * fact[i])) for i in range(1, degree // q + 1)]
        a = [a[n] + sum(comb(n, k) * bk * a[n - k] for k, bk in b if k <= n) for n in range(degree + 1)]
        q *= p
    for n in range(degree):
        total = 0
        q = 1
        while q <= n + 1:
            total += fact[n] // fact[n + 1 - q] * a[n + 1 - q]
            q *= p
        if a[n + 1] != total:
            raise ArithmeticError(
                f"Artin-Hasse expansion failed the derivative recurrence at degree {n + 1}"
            )
    return tuple(a), tuple(fact)


@lru_cache(maxsize=None)
def ah_rational_coeffs(p: int, degree: int) -> tuple:
    """Coefficients C_0..C_degree of E_p(t), each C_n = A_n / n! formed
    once from ``_ah_integer_coeffs``; every denominator comes out coprime
    to p."""
    from fractions import Fraction

    return tuple(Fraction(a, fact) for a, fact in zip(*_ah_integer_coeffs(p, degree)))


@lru_cache(maxsize=None)
def ah_coeffs_mod_p(p: int, degree: int) -> tuple[int, ...]:
    """The mod-p reduction e_p(t) of the Artin-Hasse series: each A_n / n!
    in lowest terms, its numerator times the inverse of its denominator.

    Raises ArithmeticError if any denominator were divisible by p; that
    would be an internal invariant violation, not a caller error.
    """
    out = []
    for i, (a, fact) in enumerate(zip(*_ah_integer_coeffs(p, degree))):
        g = gcd(a, fact)
        num, den = a // g, fact // g
        if den % p == 0:
            raise ArithmeticError(
                f"integrality violated: coefficient {i} of E_{p} is {num}/{den}"
            )
        out.append(num * inverse_mod(den, p) % p)
    return tuple(out)


@lru_cache(maxsize=None)
def ah_inverse_coeffs(p: int, degree: int) -> tuple[int, ...]:
    """The series f over F_p with f * e_p = 1 up to the truncation degree."""
    e = ah_coeffs_mod_p(p, degree)
    # e[0] == 1, so the recursion needs no division
    f = [1] + [0] * degree
    for n in range(1, degree + 1):
        acc = 0
        for k in range(1, n + 1):
            acc += e[k] * f[n - k]
        f[n] = (-acc) % p
    return tuple(f)


def series_mul(a: tuple, b: tuple, p: int) -> tuple[int, ...]:
    """Cauchy product over F_p, truncated to the shorter input."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n - i):
            out[i + j] = (out[i + j] + ai * b[j]) % p
    return tuple(out)


def series_reversion(s: tuple, p: int) -> tuple[int, ...]:
    """Compositional inverse over F_p: the series l with l(s(t)) = t up to
    truncation, for canonical coefficients s.

    Requires s(0) = 0 and a nonzero linear coefficient.  The inverse is
    two-sided on that domain.
    """
    if s[0] != 0:
        raise ValueError("reversion requires zero constant term")
    if len(s) > 1 and s[1] == 0:
        raise ValueError("reversion requires a unit linear coefficient")
    n = len(s) - 1
    # powers[k] = s^k truncated; s^k has valuation k with leading coeff s1^k
    powers = [None, s]
    for k in range(2, n + 1):
        powers.append(series_mul(powers[-1], s, p))
    ell = [0] * (n + 1)
    for m in range(1, n + 1):
        target = 1 if m == 1 else 0
        acc = 0
        for k in range(1, m):
            acc += ell[k] * powers[k][m]
        lead = powers[m][m]  # = s1^m, nonzero
        ell[m] = (target - acc) * inverse_mod(lead, p) % p
    return tuple(ell)

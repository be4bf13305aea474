"""Truncated power series with exact coefficients.

Two coefficient domains: big rationals (``RationalSeries``, for the
characteristic-zero Artin-Hasse expansion) and F_p (``FpSeries``, its
mod-p reduction).  A series of truncation degree N stores the N+1
coefficients of t^0 .. t^N; every operation states its truncation
explicitly, and operations on mismatched truncations truncate to the
shorter input.

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


class RationalSeries:
    """Truncated series with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        from fractions import Fraction  # loaded only where a rational is built

        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"RationalSeries({list(self.coeffs)!r})"


class FpSeries:
    """Truncated series over F_p; coefficients are canonical ints in [0, p)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        check_prime(p)
        self.p = p
        self.coeffs = tuple(int(c) % p for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpSeries):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __repr__(self):
        return f"FpSeries({self.p}, {list(self.coeffs)!r})"


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
def ah_rational_coeffs(p: int, degree: int) -> RationalSeries:
    """Coefficients C_0..C_degree of E_p(t), each C_n = A_n / n! formed
    once from ``_ah_integer_coeffs``; every denominator comes out coprime
    to p."""
    from fractions import Fraction

    return RationalSeries(Fraction(a, fact) for a, fact in zip(*_ah_integer_coeffs(p, degree)))


@lru_cache(maxsize=None)
def ah_coeffs_mod_p(p: int, degree: int) -> FpSeries:
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
    return FpSeries(p, out)


@lru_cache(maxsize=None)
def ah_inverse_coeffs(p: int, degree: int) -> FpSeries:
    """The series f over F_p with f * e_p = 1 up to the truncation degree."""
    e = ah_coeffs_mod_p(p, degree).coeffs
    # e[0] == 1, so the recursion needs no division
    f = [1] + [0] * degree
    for n in range(1, degree + 1):
        acc = 0
        for k in range(1, n + 1):
            acc += e[k] * f[n - k]
        f[n] = (-acc) % p
    return FpSeries(p, f)


def series_mul(a: FpSeries, b: FpSeries) -> FpSeries:
    """Cauchy product, truncated to the shorter input."""
    if a.p != b.p:
        raise ValueError(f"characteristic mismatch: {a.p} vs {b.p}")
    p = a.p
    n = min(a.degree, b.degree)
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = a.coeffs[i]
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] = (out[i + j] + ai * b.coeffs[j]) % p
    return FpSeries(p, out)


def series_reversion(s: FpSeries) -> FpSeries:
    """Compositional inverse: the series l with l(s(t)) = t up to truncation.

    Requires s(0) = 0 and a nonzero linear coefficient.  The inverse is
    two-sided on that domain.
    """
    p = s.p
    if s.coeffs[0] != 0:
        raise ValueError("reversion requires zero constant term")
    if s.degree >= 1 and s.coeffs[1] == 0:
        raise ValueError("reversion requires a unit linear coefficient")
    n = s.degree
    if n == 0:
        return FpSeries(p, [0])
    # powers[k] = s^k truncated; s^k has valuation k with leading coeff s1^k
    powers = [None, s]
    for k in range(2, n + 1):
        powers.append(series_mul(powers[-1], s))
    ell = [0] * (n + 1)
    for m in range(1, n + 1):
        target = 1 if m == 1 else 0
        acc = 0
        for k in range(1, m):
            acc += ell[k] * powers[k].coeffs[m]
        lead = powers[m].coeffs[m]  # = s1^m, nonzero
        ell[m] = (target - acc) * inverse_mod(lead, p) % p
    return FpSeries(p, ell)

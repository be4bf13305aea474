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

from fractions import Fraction
from functools import lru_cache

from .gf import check_prime, inverse_mod

# The rational expansion costs about degree^3: about 0.14 s at degree 250
# for p = 2, 8.5 s at degree 1000 (2-core box, CPython 3.11).  No runtime
# path needs more than matrices.MAX_DIM - 1 = 127 (ah_exp) or
# suites.INTEGRALITY_DEGREE = 60.
MAX_DEGREE = 256


class RationalSeries:
    """Truncated series with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, degree: int) -> "RationalSeries":
        return cls([Fraction(1)] + [Fraction(0)] * degree)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"RationalSeries({list(self.coeffs)!r})"

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        # only the nonzero terms of each factor: exp(t^q / q) has one in q
        n = min(self.degree, other.degree)
        out = [Fraction(0)] * (n + 1)
        b = [(j, c) for j, c in enumerate(other.coeffs[:n + 1]) if c]
        for i, a in enumerate(self.coeffs[:n + 1]):
            if a:
                for j, c in b:
                    if i + j > n:
                        break
                    out[i + j] += a * c
        return RationalSeries(out)


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


def _exp_of_term(k: int, c: Fraction, degree: int) -> RationalSeries:
    # exp(c * t^k) truncated: sum over i with k*i <= degree of c^i/i! t^(k*i)
    out = [Fraction(0)] * (degree + 1)
    term = Fraction(1)
    i = 0
    while k * i <= degree:
        out[k * i] = term
        i += 1
        term = term * c / i
    return RationalSeries(out)


@lru_cache(maxsize=None)
def ah_rational_coeffs(p: int, degree: int) -> RationalSeries:
    """Coefficients C_0..C_degree of E_p(t) = exp(sum_j t^(p^j)/p^j).

    Computed by multiplying the exponential of each summand, which never
    divides by p along the way; every denominator comes out coprime to p.
    The derivative recurrence (n+1) C_{n+1} = sum_{p^j - 1 <= n}
    C_{n - (p^j - 1)} is rechecked internally on every fresh expansion.
    """
    check_prime(p)
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"truncation degree must be between 0 and {MAX_DEGREE}, got {degree}")
    result = RationalSeries.one(degree)
    q = 1
    while q <= degree:
        result = result * _exp_of_term(q, Fraction(1, q), degree)
        q *= p
    coeffs = result.coeffs
    for n in range(degree):
        total = Fraction(0)
        q = 1
        while q - 1 <= n:
            total += coeffs[n - (q - 1)]
            q *= p
        if (n + 1) * coeffs[n + 1] != total:
            raise ArithmeticError(
                f"Artin-Hasse expansion failed the derivative recurrence at degree {n + 1}"
            )
    return result


@lru_cache(maxsize=None)
def ah_coeffs_mod_p(p: int, degree: int) -> FpSeries:
    """The mod-p reduction e_p(t) of the Artin-Hasse series.

    Raises ArithmeticError if any denominator were divisible by p; that
    would be an internal invariant violation, not a caller error.
    """
    rational = ah_rational_coeffs(p, degree)
    out = []
    for i, c in enumerate(rational.coeffs):
        if c.denominator % p == 0:
            raise ArithmeticError(
                f"integrality violated: coefficient {i} of E_{p} is {c}"
            )
        out.append(c.numerator * inverse_mod(c.denominator, p) % p)
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

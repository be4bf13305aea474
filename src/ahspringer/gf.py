"""Exact scalar arithmetic in F_p and the quadratic extension F_{p^2}.

Elements are represented by their coordinates in [0, p) over the basis
{1, w}, where w is a root of a fixed irreducible monic quadratic.  Only
extension degrees 1 and 2 are supported; everything is plain integer
arithmetic, no floating point anywhere.

This module owns that presentation: ``field_modulus`` chooses it, and
``_field_mul``, ``_field_pow``, ``_field_inv`` and ``_frobenius`` are
the one product, power, inverse and Frobenius that every layer calls, on
ints or on arrays.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import product

import numpy as np

# The plane kernels sum k products before they reduce mod p.  Each term
# is a coordinate times a coordinate, times a coefficient of the
# quadratic modulus for e = 2, so it is below p^3 in magnitude and the
# largest unreduced sum is below k * p^3: k = n for an F_{p^2} matrix
# product, the basis size (at most n^2) for a sampled combination.  With
# p < 2^16 that is below k * 2^48 < 2^63 for every k < 2^15, and
# matrices.MAX_DIM = 128 keeps k below 2^14.
PRIME_BOUND = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> None:
    """Refuse p unless it is a prime below PRIME_BOUND.  The bound is
    tested first, so trial division never runs on a large p."""
    if p >= PRIME_BOUND:
        raise ValueError(f"p must be below {PRIME_BOUND} for exact int64 arithmetic, got {p}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")


@lru_cache(maxsize=None)
def quadratic_modulus(p: int) -> tuple[int, int]:
    """Coefficients (b, c) of the fixed irreducible x^2 + b*x + c over F_p.

    The first irreducible polynomial in lexicographic order on (b, c) is
    chosen, so the extension field is reproducible across runs and
    implementations: p=2 -> x^2+x+1, p=3 -> x^2+1, p=5 -> x^2+2,
    p=7 -> x^2+1.
    """
    check_prime(p)
    for b in range(p):
        for c in range(p):
            if all((x * x + b * x + c) % p != 0 for x in range(p)):
                return (b, c)
    raise AssertionError("unreachable: F_p always has an irreducible quadratic")


def field_modulus(p: int, e: int):
    """The presentation of F_{p^e} every layer computes in:
    quadratic_modulus(p) for e = 2, None for e = 1."""
    return quadratic_modulus(p) if e == 2 else None


def _field_mul(a, b, q: int, mod, op):
    """Coordinates of the product of a and b in (Z/q)[w]/(w^2 + b*w + c).

    a and b hold e coordinates each (ints or arrays) and op is the bilinear
    map that combines one coordinate of a with one of b: multiply, matmul,
    an outer product or a contraction.  mod is field_modulus(p, e); q is p
    for F_{p^e}, or p^(n+1) for the Witt ghost ring.  This is the one
    place that applies w^2 = -b*w - c.
    """
    if mod is None:
        return (op(a[0], b[0]) % q,)
    mb, mc = mod
    hi = op(a[1], b[1])
    return ((op(a[0], b[0]) - mc * hi) % q, (op(a[0], b[1]) + op(a[1], b[0]) - mb * hi) % q)


def _field_pow(x, k: int, q: int, mod):
    """x^k for k >= 0 on integer coordinates, in the ring of _field_mul."""
    if mod is None:
        return (pow(x[0], k, q),)
    result = (1, 0)
    while k:
        if k & 1:
            result = _field_mul(result, x, q, mod, operator.mul)
        x = _field_mul(x, x, q, mod, operator.mul)
        k >>= 1
    return result


def _frobenius(a, p: int, mod):
    """Coordinates of a^p for e coordinates a (ints or arrays): the
    identity for e = 1; for e = 2, w^p is the conjugate root -b - w of
    x^2 + b*x + c."""
    if mod is None:
        return a
    a0, a1 = a
    return ((a0 - mod[0] * a1) % p, (-a1) % p)


@lru_cache(maxsize=None)
def _check_field_params(p: int, e: int) -> None:
    check_prime(p)
    if e not in (1, 2):
        raise ValueError(f"extension degree must be 1 or 2, got {e!r}")


class FieldScalar:
    """An element of F_{p^e}, immutable and hashable.

    ``coords`` holds e integers in [0, p); for e=2 the element is
    coords[0] + coords[1]*w with w^2 + b*w + c = 0 from
    ``quadratic_modulus(p)``.
    """

    __slots__ = ("p", "e", "coords")

    def __init__(self, p: int, e: int, coords):
        _check_field_params(p, e)
        coords = tuple(int(x) % p for x in coords)
        if len(coords) != e:
            raise ValueError(f"expected {e} coordinates, got {len(coords)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("FieldScalar is immutable")

    @classmethod
    def from_int(cls, p: int, e: int, value: int) -> "FieldScalar":
        """Image of the integer ``value`` under Z -> F_p <= F_{p^e}."""
        return cls(p, e, (value,) + (0,) * (e - 1))

    @classmethod
    def zero(cls, p: int, e: int) -> "FieldScalar":
        return cls.from_int(p, e, 0)

    @classmethod
    def one(cls, p: int, e: int) -> "FieldScalar":
        return cls.from_int(p, e, 1)

    def _check_match(self, other: "FieldScalar") -> None:
        if self.p != other.p or self.e != other.e:
            raise ValueError(
                f"field mismatch: F_{self.p}^{self.e} vs F_{other.p}^{other.e}"
            )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return (self.p, self.e, self.coords) == (other.p, other.e, other.coords)

    def __hash__(self):
        return hash((self.p, self.e, self.coords))

    def __repr__(self):
        return f"FieldScalar({self.p}, {self.e}, {self.coords})"

    def __add__(self, other: "FieldScalar") -> "FieldScalar":
        self._check_match(other)
        p = self.p
        return FieldScalar(p, self.e, tuple((x + y) % p for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "FieldScalar") -> "FieldScalar":
        self._check_match(other)
        p = self.p
        return FieldScalar(p, self.e, tuple((x - y) % p for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "FieldScalar":
        p = self.p
        return FieldScalar(p, self.e, tuple((-x) % p for x in self.coords))

    @property
    def _mod(self):
        return field_modulus(self.p, self.e)

    def __mul__(self, other: "FieldScalar") -> "FieldScalar":
        self._check_match(other)
        coords = _field_mul(self.coords, other.coords, self.p, self._mod, operator.mul)
        return FieldScalar(self.p, self.e, coords)

    def __pow__(self, n: int) -> "FieldScalar":
        if n < 0:
            return self.inverse() ** (-n)
        return FieldScalar(self.p, self.e, _field_pow(self.coords, n, self.p, self._mod))

    def inverse(self) -> "FieldScalar":
        return FieldScalar(self.p, self.e, inverse_coords(self.p, self.e, self.coords))

    def __truediv__(self, other: "FieldScalar") -> "FieldScalar":
        return self * other.inverse()

    def frobenius(self) -> "FieldScalar":
        """The p-th power map x -> x^p (identity on F_p)."""
        return FieldScalar(self.p, self.e, _frobenius(self.coords, self.p, self._mod))

    def lift(self) -> int:
        """Canonical integer representative; only valid for e=1."""
        if self.e != 1:
            raise ValueError("lift() only defined for prime-field elements")
        return self.coords[0]

    def to_json(self):
        """int for e=1, [int, int] for e=2 — the file-format encoding."""
        if self.e == 1:
            return self.coords[0]
        return list(self.coords)

    @classmethod
    def from_json(cls, p: int, e: int, obj) -> "FieldScalar":
        if e == 1:
            if not is_json_int(obj):
                raise ValueError(f"expected integer entry, got {obj!r}")
            return cls(p, 1, (obj,))
        if not (isinstance(obj, list) and len(obj) == 2 and all(is_json_int(x) for x in obj)):
            raise ValueError(f"expected [int, int] entry for e=2, got {obj!r}")
        return cls(p, 2, tuple(obj))


def is_json_int(obj) -> bool:
    """Whether a decoded JSON value is an integer (true/false decode to bool,
    a subclass of int, and are not entries)."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def all_scalars(p: int, e: int):
    """Iterate every element of F_{p^e} in a fixed order."""
    _check_field_params(p, e)
    for coords in product(range(p), repeat=e):
        yield FieldScalar(p, e, coords)


@lru_cache(maxsize=None)
def _prime_field_inverses(p: int) -> np.ndarray:
    # 1/a mod p for a = 0..p-1 (0 -> 0), by 1/a = -(p // a) / (p mod a)
    inv = [0, 1]
    for a in range(2, p):
        inv.append(-(p // a) * inv[p % a] % p)
    table = np.array(inv, dtype=np.int64)
    table.flags.writeable = False
    return table


def _field_inv(a, p: int, mod):
    """Coordinates of 1/a for e reduced coordinates a (ints or arrays),
    with 0 -> 0: the per-p table for e = 1; a^p / N(a) for e = 2, with the
    norm N(a) = a * a^p in F_p."""
    table = _prime_field_inverses(p)
    if mod is None:
        return (table[a[0]],)
    conj = _frobenius(a, p, mod)
    norm_inv = table[_field_mul(a, conj, p, mod, np.multiply)[0]]
    return tuple(x * norm_inv % p for x in conj)


def inverse_coords(p: int, e: int, coords) -> tuple[int, ...]:
    """Coordinates of 1/a for a in F_{p^e} given by reduced coordinates.

    Raises ZeroDivisionError for a = 0.
    """
    if not any(coords):
        raise ZeroDivisionError("inverse of zero in a finite field")
    return tuple(int(x) for x in _field_inv(coords, p, field_modulus(p, e)))


def inverse_mod(a: int, p: int) -> int:
    """Inverse of a mod prime p; raises ZeroDivisionError when p | a."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"{a} has no inverse mod {p}")
    return pow(a, p - 2, p)

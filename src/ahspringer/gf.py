"""Exact scalar arithmetic in F_p and the quadratic extension F_{p^2}.

An element of F_{p^e} is the tuple of its e coordinates in [0, p) over
the basis {1, w}, where w is a root of a fixed irreducible monic
quadratic; matrices hold the same coordinates as planes.  Only extension
degrees 1 and 2 are supported; everything is plain integer arithmetic,
no floating point anywhere.

This module owns that presentation: ``field_modulus`` chooses it, and
``_field_mul``, ``_field_pow``, ``_field_inv`` and ``_frobenius`` are
the one product, power, inverse and Frobenius that every layer calls, on
ints or on arrays.
"""

from __future__ import annotations

import operator
from functools import lru_cache

# The plane kernels sum k products before they reduce mod p.  Each term
# is a coordinate times a coordinate, times a coefficient of the
# quadratic modulus for e = 2, so it is below p^3 in magnitude and the
# largest unreduced sum is below k * p^3: k = n for an F_{p^2} matrix
# product, the basis size (at most n^2) for a sampled combination.  With
# p < 2^16 that is below k * 2^48 < 2^63 for every k < 2^15, and
# MAX_DIM = 128 keeps k below 2^14.
PRIME_BOUND = 1 << 16
MAX_DIM = 128


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


def scalar_to_json(a):
    """The file-format encoding of coordinates a: int for e=1, [int, int]
    for e=2."""
    return a[0] if len(a) == 1 else list(a)


def scalar_from_json(p: int, e: int, obj) -> tuple[int, ...]:
    """Reduced coordinates of one file-format entry of F_{p^e}."""
    _check_field_params(p, e)
    if e == 1:
        if not is_json_int(obj):
            raise ValueError(f"expected integer entry, got {obj!r}")
        return (obj % p,)
    if not (isinstance(obj, list) and len(obj) == 2 and all(is_json_int(x) for x in obj)):
        raise ValueError(f"expected [int, int] entry for e=2, got {obj!r}")
    return tuple(x % p for x in obj)


def is_json_int(obj) -> bool:
    """Whether a decoded JSON value is an integer (true/false decode to bool,
    a subclass of int, and are not entries)."""
    return isinstance(obj, int) and not isinstance(obj, bool)


@lru_cache(maxsize=None)
def _prime_field_inverses(p: int):
    # 1/a mod p for a = 0..p-1 (0 -> 0), by 1/a = -(p // a) / (p mod a), as
    # a read-only int64 array; numpy is imported here, not with the module,
    # so the scalar-only commands (witt, ah-coeffs) never load it
    import numpy as np

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
    norm_inv = table[_field_mul(a, conj, p, mod, operator.mul)[0]]
    return tuple(x * norm_inv % p for x in conj)


class _Frozen:
    """Base of the immutable values of the numpy-free layers, in place of
    frozen dataclasses, whose module loads ``inspect``: a subclass names
    its fields in ``_fields`` and stores them with ``_freeze``, which keeps
    their tuple as the key, and its hash; values of one class are equal,
    and hash, by it, and a cache keyed on one never hashes its fields."""

    __slots__ = ("_key", "_hash")
    _fields: tuple[str, ...] = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)
        object.__setattr__(self, "_hash", hash(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"


def inverse_mod(a: int, p: int) -> int:
    """Inverse of a mod prime p; raises ZeroDivisionError when p | a."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"{a} has no inverse mod {p}")
    return pow(a, p - 2, p)

"""Witt vectors of length m <= 3 over F_{p^e}, additive group only.

The group law is computed from ghost components.  Entries are lifted to
R_n = (Z/p^(n+1))[w]/(w^2 + b*w + c), with (b, c) from
``gf.field_modulus`` (plain Z/p^(n+1) for e = 1) and powers from
``gf._field_pow``, and the sum or negative is the vector s whose ghost
components w_n(x) = sum_{i<=n} p^i x_i^(p^(n-i)) hit the target
(w_n(a) + w_n(b), or -w_n(a)), found coordinate by coordinate:

    p^n s_n = target_n - sum_{i<n} p^i s_i^(p^(n-i))   (mod p^(n+1)).

Any lift of s_i will do, because x = y (mod p) implies
x^(p^k) = y^(p^k) (mod p^(k+1)).  Exact divisibility by p^n is checked
at every step (a failed division would be a correctness bug, never a
rounding issue).  Length is capped at m = 3.  The tests check this law
against two references that share no code with it: the symbolic sum
polynomials (``tests/witt_reference.py``) and the Teichmuller map.
"""

from __future__ import annotations

from functools import lru_cache

from .gf import _check_field_params, _field_pow, _Frozen, _frobenius, field_modulus, scalar_to_json

MAX_LENGTH = 3


def _check_length(m: int) -> None:
    if not 1 <= m <= MAX_LENGTH:
        raise ValueError(f"Witt length must be 1..{MAX_LENGTH}, got {m}")


class WittVector(_Frozen):
    """Length-m Witt vector with entries in F_{p^e}, each the tuple of its
    e coordinates, reduced into [0, p) on construction."""

    __slots__ = ("p", "e", "m", "entries")
    _fields = __slots__

    def __init__(self, p: int, e: int, m: int, entries: tuple[tuple[int, ...], ...]):
        _check_field_params(p, e)
        _check_length(m)
        if len(entries) != m:
            raise ValueError("entry count does not match length")
        if any(len(a) != e for a in entries):
            raise ValueError(f"every entry needs {e} coordinates")
        self._freeze(p, e, m, tuple(tuple(int(x) % p for x in a) for a in entries))

    @classmethod
    def from_ints(cls, p: int, m: int, values, e: int = 1) -> "WittVector":
        _check_length(m)  # before any entry is built
        return cls(p, e, m, tuple((v,) + (0,) * (e - 1) for v in values))

    @classmethod
    def zero(cls, p: int, m: int, e: int = 1) -> "WittVector":
        return cls.from_ints(p, m, [0] * m, e)

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def to_json(self) -> list:
        return [scalar_to_json(a) for a in self.entries]

    def to_json_obj(self) -> dict:
        return {"p": self.p, "e": self.e, "m": self.m, "entries": self.to_json()}

    def __str__(self):
        if self.e == 1:
            return ",".join(str(a[0]) for a in self.entries)
        return ",".join(f"({a[0]}+{a[1]}w)" for a in self.entries)


def _check_pair(u: WittVector, v: WittVector) -> None:
    if (u.p, u.e, u.m) != (v.p, v.e, v.m):
        raise ValueError("Witt vector parameter mismatch")


def _ghost_sum(p: int, n: int, coords, mod) -> tuple[int, ...]:
    # sum_i p^i coords[i]^(p^(n-i)) over the given coords, mod p^(n+1)
    q = p ** (n + 1)
    acc = [0] * (1 if mod is None else 2)
    for i, x in enumerate(coords):
        term = _field_pow(x, p ** (n - i), q, mod)
        acc = [a + p ** i * t for a, t in zip(acc, term)]
    return tuple([a % q for a in acc])


@lru_cache(maxsize=1 << 12)
def _ghosts(w: WittVector, mod) -> tuple[tuple[int, ...], ...]:
    """Ghost components w_n mod p^(n+1), n < m, of the [0, p) lifts of w, once per vector."""
    return tuple(_ghost_sum(w.p, n, w.entries[: n + 1], mod) for n in range(w.m))


def _from_ghosts(p: int, e: int, targets, mod) -> WittVector:
    """The Witt vector whose ghost components are targets[n] mod p^(n+1)."""
    coords: list[tuple[int, ...]] = []
    for n, target in enumerate(targets):
        q, pn = p ** (n + 1), p ** n
        s_n = []
        for t, g in zip(target, _ghost_sum(p, n, coords, mod)):
            quo, rem = divmod((t - g) % q, pn)
            if rem:
                raise ArithmeticError(f"ghost residue {(t - g) % q} not divisible by {pn}")
            s_n.append(quo)
        coords.append(tuple(s_n))
    return WittVector(p, e, len(coords), tuple(coords))


def witt_add(u: WittVector, v: WittVector) -> WittVector:
    """Group law: the vector with ghost components w_n(u) + w_n(v)."""
    _check_pair(u, v)
    mod = field_modulus(u.p, u.e)
    ghosts = zip(_ghosts(u, mod), _ghosts(v, mod))
    return _from_ghosts(u.p, u.e, [[x + y for x, y in zip(gu, gv)] for gu, gv in ghosts], mod)


def witt_neg(w: WittVector) -> WittVector:
    """Group inverse: the vector with ghost components -w_n(w)."""
    mod = field_modulus(w.p, w.e)
    return _from_ghosts(w.p, w.e, [[-x for x in g] for g in _ghosts(w, mod)], mod)


def witt_pow_p(w: WittVector) -> WittVector:
    """The p-th power map: (a_0, ..., a_{m-1}) -> (0, a_0^p, ..., a_{m-2}^p)."""
    mod = field_modulus(w.p, w.e)
    entries = ((0,) * w.e,) + tuple(_frobenius(a, w.p, mod) for a in w.entries[:-1])
    return WittVector(w.p, w.e, w.m, entries)


def witt_order(w: WittVector) -> int:
    """Order of w in the additive group: p^j, or 1 for the identity."""
    order = 1
    v = w
    while not v.is_zero():
        v = witt_pow_p(v)
        order *= w.p
    return order


def witt_from_integer(p: int, m: int, value: int) -> WittVector:
    """The image of an integer under Z -> W_m(F_p), n -> n * (1, 0, ..., 0).

    This is the independent oracle for the group law: it realizes the
    isomorphism Z/p^m = W_m(F_p).  Base field only (e = 1).  The ghost map
    is additive and w_k(1, 0, ..., 0) = 1, so every ghost component of the
    image is n, and the vector is solved from those, with no witt_add.
    """
    _check_length(m)
    _check_field_params(p, 1)
    return _from_ghosts(p, 1, [(value,)] * m, None)


def witt_entries_from_string(p: int, m: int, text: str, e: int = 1) -> WittVector:
    """Parse the CLI form "a_0,a_1,...": integer entries lifted into F_{p^e}."""
    _check_length(m)
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != m:
        raise ValueError(f"expected {m} comma-separated entries, got {len(parts)}")
    try:
        values = [int(s) for s in parts]
    except ValueError as exc:
        raise ValueError(f"Witt vector entries must be integers: {text!r}") from exc
    return WittVector.from_ints(p, m, values, e)

"""Exponential-type maps between nilpotent and unipotent matrices.

The centerpiece is the Artin-Hasse exponential applied to a nilpotent
matrix: X -> e_p(X) = sum_i c_i X^i, truncated at the nilpotency degree
of X.  Because the coefficients c_i live in F_p, this map commutes with
p-th powers and with entrywise Frobenius, and for X in one of the
classical Lie algebras (antidiagonal forms, p >= 3) it lands in the
corresponding group.  The plain degree-(p-1) truncated exponential only
behaves on matrices with X^p = 0; e_p is the extension beyond that
range.

Also here: the inverse map via compositional reversion, the general
coefficient-sequence map 1 + sum a_i X^i, the Witt-vector product
embedding, and the truncated Baker-Campbell-Hausdorff product with its
independent Dynkin-expansion oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .gf import FieldScalar, inverse_mod
from .groups import nilpotent_order, nilpotent_powers
from .matrices import FpMatrix, _lin_comb
from .series import ah_coeffs_mod_p, series_reversion
from .witt import WittVector


def eval_series_in_matrix(coeffs, x: FpMatrix, limit: int | None = None,
                          message: str = "matrix is not nilpotent") -> FpMatrix:
    """sum coeffs[i] * x^i with integer (F_p) coefficients, x nilpotent.

    One reduction over the walked powers x^0, ..., x^(d-1); the terms from
    the nilpotency degree d on are zero.  DomainError(message) unless
    x^limit = 0 (limit defaults to n).  A stack x is evaluated lane by
    lane, so every map built on this one takes stacks too.
    """
    powers = nilpotent_powers(x, limit, message)
    k = min(len(powers), len(coeffs))
    total = np.array(coeffs[:k], dtype=np.int64) @ powers[:k].reshape(k, -1)
    return FpMatrix._wrap(x.p, x.e, x.n, total.reshape(x.planes.shape) % x.p)


@lru_cache(maxsize=None)
def _inv_factorials(p: int) -> tuple[int, ...]:
    # 1/i! mod p for i < p
    out = [1]
    for i in range(1, p):
        out.append(out[-1] * inverse_mod(i, p) % p)
    return tuple(out)


def truncated_exp(x: FpMatrix) -> FpMatrix:
    """sum_{i<p} x^i / i!, defined only where x^p = 0."""
    return eval_series_in_matrix(
        _inv_factorials(x.p), x, x.p, "truncated exponential needs x^p = 0"
    )


@lru_cache(maxsize=None)
def _log_coeffs(p: int) -> tuple[int, ...]:
    # (-1)^(i+1) / i mod p for 1 <= i < p
    return (0,) + tuple(inverse_mod(i, p) * (-1) ** (i + 1) % p for i in range(1, p))


def truncated_log(u: FpMatrix) -> FpMatrix:
    """sum_{1<=i<p} (-1)^(i+1) (u-1)^i / i, inverse of truncated_exp."""
    return eval_series_in_matrix(
        _log_coeffs(u.p), u - FpMatrix.identity(u.p, u.e, u.n), u.p,
        "truncated logarithm needs (u - 1)^p = 0",
    )


@dataclass(frozen=True)
class CoefficientSequence:
    """Coefficients a_1, ..., a_{n-1} of a polynomial map 1 + sum a_i X^i."""

    p: int
    a: tuple[FieldScalar, ...]

    @classmethod
    def from_ints(cls, p: int, values, e: int = 1) -> "CoefficientSequence":
        return cls(p, tuple(FieldScalar.from_int(p, e, v) for v in values))


def phi_seq(seq: CoefficientSequence, y: FpMatrix) -> FpMatrix:
    """The map 1 + sum_{i=1}^{n-1} a_i y^i on nilpotent y.

    Any such sequence with a_1 != 0 sends the nilpotent cone of gl_n
    bijectively onto the unipotent variety.
    """
    if len(seq.a) != y.n - 1:
        raise ValueError(f"need {y.n - 1} coefficients for dimension {y.n}, got {len(seq.a)}")
    if seq.a and seq.a[0].is_zero():
        raise ValueError("the linear coefficient a_1 must be nonzero")
    if any((a.p, a.e) != (y.p, y.e) for a in seq.a):
        raise ValueError("coefficient field does not match matrix field")
    powers = nilpotent_powers(y, message="phi_seq is only defined on nilpotent matrices")
    coords = np.array([(1,) + (0,) * (y.e - 1)] + [a.coords for a in seq.a], dtype=np.int64)
    k = len(powers)
    return FpMatrix._wrap(y.p, y.e, y.n, _lin_comb(coords[:k], powers, y.p, y._mod))


def ah_exp(x: FpMatrix) -> FpMatrix:
    """The Artin-Hasse exponential of a nilpotent matrix.

    The series truncates at the nilpotency degree of x, so this is a
    finite exact computation; the result is unipotent.
    """
    return eval_series_in_matrix(ah_coeffs_mod_p(x.p, x.n - 1).coeffs, x)


@lru_cache(maxsize=None)
def _ah_reversion_coeffs(p: int, degree: int) -> tuple[int, ...]:
    # compositional inverse of e_p(t) - 1 through the given degree; its
    # low coefficients do not depend on the truncation, so one reversion
    # to degree n - 1 serves every n x n input
    e_coeffs = ah_coeffs_mod_p(p, degree).coeffs
    shifted = (0,) + e_coeffs[1:]
    from .series import FpSeries

    return series_reversion(FpSeries(p, shifted)).coeffs


def ah_log(u: FpMatrix) -> FpMatrix:
    """Inverse of ah_exp: the nilpotent x with ah_exp(x) = u."""
    return eval_series_in_matrix(
        _ah_reversion_coeffs(u.p, u.n - 1), u - FpMatrix.identity(u.p, u.e, u.n),
        message="ah_log is only defined on unipotent matrices",
    )


def witt_embed(x: FpMatrix, w: WittVector) -> FpMatrix:
    """e_p(a_0 x) e_p(a_1 x^p) ... e_p(a_{m-1} x^(p^(m-1))).

    Requires the Witt length to equal the nilpotent order m of x; the
    map is then an injective homomorphism from W_m into the unipotent
    subgroup generated by the image.
    """
    m = nilpotent_order(x)
    if w.m != m:
        raise DomainError(f"Witt length {w.m} does not match nilpotent order {m}")
    if (w.p, w.e) != (x.p, x.e):
        raise ValueError("Witt vector field does not match matrix field")
    acc = FpMatrix.identity(x.p, x.e, x.n)
    power = x
    for a_i in w.entries:
        acc = acc @ ah_exp(power.scale(a_i))
        power = power ** x.p
    return acc


def bch(x: FpMatrix, y: FpMatrix) -> FpMatrix:
    """log(exp(x) exp(y)) with the degree-(p-1) truncations.

    Defined when x, y generate a nilpotent associative algebra of class
    below p; the enforceable part of that is x^p = y^p = 0 and
    (exp(x)exp(y) - 1)^p = 0.
    """
    ex = truncated_exp(x)
    ey = truncated_exp(y)
    return truncated_log(ex @ ey)


@lru_cache(maxsize=None)
def _dynkin_word_table(maxdeg: int) -> tuple[tuple[str, Fraction], ...]:
    # coefficient of each X/Y word in the Dynkin expansion of
    # log(exp X exp Y), collapsed over block decompositions:
    # sum over n and (r_i, s_i) with r_i + s_i > 0 of
    # (-1)^(n-1) / (n * |word| * prod r_i! s_i!)
    from math import factorial

    table: dict[str, Fraction] = {}

    def extend(prefix: str, blocks: int, denom: int, budget: int):
        if prefix:
            weight = Fraction((-1) ** (blocks - 1), blocks * len(prefix) * denom)
            table[prefix] = table.get(prefix, Fraction(0)) + weight
        if budget == 0:
            return
        for r in range(budget + 1):
            for s in range(budget - r + 1):
                if r + s == 0:
                    continue
                extend(
                    prefix + "X" * r + "Y" * s,
                    blocks + 1,
                    denom * factorial(r) * factorial(s),
                    budget - r - s,
                )

    extend("", 0, 1, maxdeg)
    return tuple(sorted((w, c) for w, c in table.items() if c != 0))


@lru_cache(maxsize=None)
def _dynkin_table_mod_p(p: int, maxdeg: int) -> tuple[tuple[str, int], ...]:
    out = []
    for word, coeff in _dynkin_word_table(maxdeg):
        num, den = coeff.numerator, coeff.denominator
        if den % p == 0:
            raise ArithmeticError(f"Dynkin coefficient {coeff} not p-integral at p={p}")
        out.append((word, num * inverse_mod(den, p) % p))
    return tuple(out)


def bch_dynkin(x: FpMatrix, y: FpMatrix, maxdeg: int) -> FpMatrix:
    """Dynkin commutator expansion of log(exp(x) exp(y)) through maxdeg.

    An oracle for bch(): the nested-bracket words are summed with exact
    rational coefficients reduced mod p, a computation sharing nothing
    with the truncated exp/log route.  maxdeg must stay below p, where
    the coefficient denominators are units.  Stacks x, y are expanded
    lane by lane.
    """
    if maxdeg < 1:
        raise ValueError("maxdeg must be >= 1")
    if maxdeg >= x.p:
        raise ValueError("maxdeg must be below p (denominators reach p)")
    for z in (x, y):
        nilpotent_powers(z, z.p, "bch_dynkin needs x^p = y^p = 0")
    letters = {"X": x, "Y": y}
    brackets: dict[str, FpMatrix] = {}

    def bracket(word: str) -> FpMatrix:
        # right-nested: [w_0, [w_1, [... w_k]]]
        if word in brackets:
            return brackets[word]
        if len(word) == 1:
            result = letters[word]
        else:
            head = letters[word[0]]
            tail = bracket(word[1:])
            result = head @ tail - tail @ head
        brackets[word] = result
        return result

    acc = FpMatrix._wrap(x.p, x.e, x.n, np.zeros(np.broadcast_shapes(x.planes.shape, y.planes.shape),
                                                  dtype=np.int64))
    for word, coeff in _dynkin_table_mod_p(x.p, maxdeg):
        term = bracket(word)
        if not term.is_zero():
            acc = acc + term.scale(coeff)
    return acc

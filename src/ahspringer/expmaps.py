"""Exponential-type maps between nilpotent and unipotent matrices.

The centerpiece is the Artin-Hasse exponential applied to a nilpotent
matrix: X -> e_p(X) = sum_i c_i X^i, truncated at the nilpotency degree
of X.  Because the coefficients c_i live in F_p, this map commutes with
p-th powers and with entrywise Frobenius, and for X in one of the
classical Lie algebras (antidiagonal forms, p >= 3) it lands in the
corresponding group.  The plain degree-(p-1) truncated exponential only
behaves on matrices with X^p = 0; e_p is the extension beyond that
range.

Also here: the inverse map via compositional reversion, the Witt-vector
product embedding (on stacks too), and the truncated Baker-Campbell-Hausdorff
product with its independent Dynkin-expansion oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .gf import _field_mul, inverse_mod
from .matrices import FpMatrix, nilpotent_powers
from .series import ah_coeffs_mod_p, series_reversion

if TYPE_CHECKING:  # witt is loaded by its callers
    from .witt import WittVector


def eval_series_in_matrix(coeffs, x: FpMatrix, limit: int | None = None,
                          message: str = "matrix is not nilpotent") -> FpMatrix:
    """sum coeffs[i] * x^i with integer (F_p) coefficients, x nilpotent.

    One reduction over the walked powers x^0, ..., x^(d-1); the terms from
    the nilpotency degree d on are zero.  DomainError(message) unless
    x^limit = 0 (limit defaults to n).  A stack x is evaluated lane by
    lane, so every map built on this one takes stacks too; 2-D coeffs, one
    row per series, give one leading lane per row, all from the one walk.
    """
    powers = nilpotent_powers(x, limit, message)
    coeffs = np.asarray(coeffs, dtype=np.int64)[..., :len(powers)]
    total = coeffs @ powers[:coeffs.shape[-1]].reshape(coeffs.shape[-1], -1)
    return FpMatrix._wrap(x.p, x.e, x.n, total.reshape(coeffs.shape[:-1] + x.planes.shape) % x.p)


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


def ah_exp(x: FpMatrix) -> FpMatrix:
    """The Artin-Hasse exponential of a nilpotent matrix.

    The series truncates at the nilpotency degree of x, so this is a
    finite exact computation; the result is unipotent.
    """
    return eval_series_in_matrix(ah_coeffs_mod_p(x.p, x.n - 1), x)


@lru_cache(maxsize=None)
def _ah_reversion_coeffs(p: int, degree: int) -> tuple[int, ...]:
    # compositional inverse of e_p(t) - 1 through the given degree; its
    # low coefficients do not depend on the truncation, so one reversion
    # to degree n - 1 serves every n x n input
    return series_reversion((0,) + ah_coeffs_mod_p(p, degree)[1:], p)


def ah_log(u: FpMatrix) -> FpMatrix:
    """Inverse of ah_exp: the nilpotent x with ah_exp(x) = u."""
    return eval_series_in_matrix(
        _ah_reversion_coeffs(u.p, u.n - 1), u - FpMatrix.identity(u.p, u.e, u.n),
        message="ah_log is only defined on unipotent matrices",
    )


def witt_embed(x: FpMatrix, w: WittVector | list[WittVector]) -> FpMatrix:
    """e_p(a_0 x) e_p(a_1 x^p) ... e_p(a_{m-1} x^(p^(m-1))) for a Witt vector
    w; for a sequence w, the stack of these, one lane per vector.

    Requires each Witt length to equal the nilpotent order m of x; the
    map is then an injective homomorphism from W_m into the unipotent
    subgroup generated by the image.
    """
    from .groups import nilpotent_order

    vectors = [w] if hasattr(w, "entries") else w
    m = nilpotent_order(x)
    for v in vectors:
        if v.m != m:
            raise DomainError(f"Witt length {v.m} does not match nilpotent order {m}")
        if (v.p, v.e) != (x.p, x.e):
            raise ValueError("Witt vector field does not match matrix field")
    # coords[k, i]: coordinate k of each lane's a_i; one ah_exp per i
    coords = np.array([v.entries for v in vectors], dtype=np.int64).reshape(-1, m, x.e).T[..., None, None]
    acc = None
    for i in range(m):
        scaled = _field_mul(tuple(coords[:, i]), tuple((x ** x.p ** i).planes), x.p, x._mod, np.multiply)
        term = ah_exp(FpMatrix._wrap(x.p, x.e, x.n, np.stack(scaled, axis=-3)))
        acc = term if acc is None else acc @ term
    return acc if vectors is w else acc.lane(0)


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
def _dynkin_table_mod_p(p: int, maxdeg: int) -> tuple[tuple[str, int], ...]:
    # coefficient of each X/Y word in the Dynkin expansion of
    # log(exp X exp Y), collapsed over block decompositions:
    # sum over n and (r_i, s_i) with r_i + s_i > 0 of
    # (-1)^(n-1) / (n * |word| * prod r_i! s_i!), summed exactly as an
    # integer over common = (maxdeg!)^3, which every denominator divides
    # (n and |word| divide maxdeg!, prod r_i! s_i! divides |word|!); words
    # whose sum is zero are dropped.  common is a unit mod p for the
    # maxdeg < p of bch_dynkin; at p <= maxdeg inverse_mod raises
    # ZeroDivisionError, an ArithmeticError
    from math import factorial

    common = factorial(maxdeg) ** 3
    table: dict[str, int] = {}

    def extend(prefix: str, blocks: int, denom: int, budget: int):
        if prefix:
            weight = (-1) ** (blocks - 1) * (common // (blocks * len(prefix) * denom))
            table[prefix] = table.get(prefix, 0) + weight
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
    scale = inverse_mod(common, p)
    return tuple(sorted((w, c * scale % p) for w, c in table.items() if c != 0))


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
    brackets = {"X": x, "Y": y}

    def bracket(word: str) -> FpMatrix:
        # right-nested: [w_0, [w_1, [... w_k]]], built up from the shortest missing
        # suffix; a recursive closure would form a cycle holding every stack
        for i in range(len(word) - 2, -1, -1):
            if word[i:] not in brackets:
                head, tail = brackets[word[i]], brackets[word[i + 1:]]
                brackets[word[i:]] = head @ tail - tail @ head
        return brackets[word]

    acc = FpMatrix._wrap(x.p, x.e, x.n, np.zeros(np.broadcast_shapes(x.planes.shape, y.planes.shape),
                                                  dtype=np.int64))
    for word, coeff in _dynkin_table_mod_p(x.p, maxdeg):
        term = bracket(word)
        if not term.is_zero():
            acc = acc + term.scale(coeff)
    return acc

"""Standard parabolic subgroups of GL_n by block composition: their matrices.

A ``compositions.ParabolicGL`` determines the block-upper-triangular
subgroup P, its unipotent radical U_P (identity blocks on the diagonal)
and the nilradical u_P (strictly block-upper matrices), whose basis is
``groups.lie_basis`` of GL on the block-upper positions.  When the
nilpotence class r - 1 of u_P is below p (``compositions.is_restricted``),
the degree-(p-1) truncated exponential is a bijection u_P -> U_P, and
that is what eps_P computes.

The samplers draw many elements at once, one lane per (parabolic, seed),
from SplitMix64 lanes (``rng.stream_lanes``), and u_P elements through
``groups._combination_lanes``; ``p_elements([par], [seed]).lane(0)`` is
one element.  ``eps_p`` and ``in_nilradical`` take a stack with one
parabolic per lane.  The parabolics of a stack may differ in n: as in
``groups``, each lane is padded to the largest, u_P elements as
diag(X, 0) and P-elements as diag(G, 1); ``lane(i, pars[i].n)`` crops.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .compositions import ParabolicGL, is_restricted
from .errors import DomainError
from .expmaps import truncated_exp
from .groups import _combination_lanes, _runs, invertible_lanes, lie_basis
from .matrices import FpMatrix
from .rng import stream_lanes


@lru_cache(maxsize=None)
def nilradical_basis(par: ParabolicGL) -> np.ndarray:
    """Read-only planes (k, e, n, n) of the matrix units spanning u_P,
    row-major over the block-upper positions: ``groups.lie_basis`` of GL
    there."""
    idx = par.block_index()
    support = tuple((i, j) for i in range(par.n) for j in range(par.n) if idx[i] < idx[j])
    return lie_basis("GL", par.n, par.p, par.e, support)


@lru_cache(maxsize=None)
def _support_mask(par: ParabolicGL, size: int) -> np.ndarray:
    """Boolean (size, size) mask of the block-upper positions, from the
    basis, padded by False beyond n."""
    mask = np.zeros((size, size), dtype=bool)
    mask[:par.n, :par.n] = nilradical_basis(par).any(axis=(0, 1))
    mask.flags.writeable = False
    return mask


def _lane_support(par) -> np.ndarray:
    """The support mask (n, n) of one parabolic, or (B, n, n) of a
    sequence of B parabolics (one per lane) over one field, padded to the
    largest n."""
    n = _field_of(par)[2]
    if isinstance(par, ParabolicGL):
        return _support_mask(par, n)
    runs = _runs(par)
    return np.repeat(np.stack([_support_mask(q, n) for q, _ in runs]), [k for _, k in runs], axis=0)


def _lane_labels(pars, prefix: str) -> list[str]:
    return [label for q, k in _runs(pars) for label in [f"{prefix}/{q.comp.blocks}/{q.p}/{q.e}"] * k]


def _field_of(par):
    """(p, e, n) of a parabolic, or of a lane list with n its largest."""
    pars = [par] if isinstance(par, ParabolicGL) else [q for q, _ in _runs(par)]
    q = max(pars, key=lambda q: q.n)
    return q.p, q.e, q.n


def in_nilradical(par, x: FpMatrix) -> bool:
    """Whether x lies in u_P; for a stack x, par holds each lane's parabolic
    and the answer is whether every lane lies in its own, padded as
    diag(X, 0)."""
    if (x.p, x.e, x.n) != _field_of(par):
        return False
    return not (x.planes * ~_lane_support(par)[..., None, :, :]).any()


def eps_p(par, x: FpMatrix) -> FpMatrix:
    """The block exponential u_P -> U_P on a restricted parabolic.

    Elements of u_P satisfy x^p = 0 (the class bound gives x^r = 0 with
    r <= p), so the truncated exponential applies exactly.  For a stack
    x, par holds one parabolic per lane, x is padded to the largest n as
    diag(X, 0) and the result as diag(eps_P(X), 1).  A matrix over
    another field or of another size raises ValueError.
    """
    pars = [par] if isinstance(par, ParabolicGL) else [q for q, _ in _runs(par)]
    q = max(pars, key=lambda q: q.n)
    if (x.p, x.e) != (q.p, q.e):
        raise ValueError(f"matrix is over F_{x.p}^{x.e} but the parabolic is over F_{q.p}^{q.e}")
    if x.n != q.n:
        raise ValueError(f"matrix is {x.n} x {x.n} but composition {q.comp.blocks} has n = {q.n}")
    for q in pars:
        if not is_restricted(q):
            raise DomainError(f"parabolic {q.comp.blocks} has nilpotence class >= {q.p}")
    if not in_nilradical(par, x):
        raise DomainError("matrix is not in the nilradical of this parabolic")
    return truncated_exp(x)


def _radical_draws(pars, states: np.ndarray) -> np.ndarray:
    """Planes (B, e, n, n) of u_P elements drawn from the lanes by
    ``groups._combination_lanes`` over ``nilradical_basis``: e
    coordinates per block-upper position, in row-major order."""
    p, e, n = _field_of(pars)
    return _combination_lanes([(nilradical_basis(q), k) for q, k in _runs(pars)], p, e, states, n)[0]


def p_elements(pars, seeds) -> FpMatrix:
    """Seeded invertible block-upper-triangular matrices, lane i in P_i
    and padded to diag(G, 1) at the largest n.

    Lane i draws from stream(seeds[i], "p-element/<blocks>/<p>/<e>"):
    first each diagonal block, in block order, as a uniform invertible
    matrix (``groups.invertible_lanes``), then the entries above the
    blocks, as ``_radical_draws``.
    """
    p, e, n = _field_of(pars)
    states = stream_lanes(seeds, _lane_labels(pars, "p-element"))
    runs = _runs(pars)
    lengths = [k for _, k in runs]
    index = np.repeat([q.block_index() + (-1,) * (n - q.n) for q, _ in runs], lengths, axis=0)
    planes = np.zeros((len(pars), e, n, n), dtype=np.int64)
    planes[:, 0, range(n), range(n)] = index < 0
    for b in range(max(len(q.comp.blocks) for q, _ in runs)):
        sizes = np.repeat([q.comp.blocks[b] if b < len(q.comp.blocks) else 0 for q, _ in runs], lengths)
        g = invertible_lanes(p, e, sizes, states)
        inner = np.arange(g.shape[-1]) < sizes[:, None]
        slot = index == b
        for k in range(e):
            planes[:, k][slot[:, :, None] & slot[:, None, :]] = g[:, k][inner[:, :, None] & inner[:, None, :]]
    planes += _radical_draws(pars, states)
    return FpMatrix._wrap(p, e, n, planes)


def radical_elements(pars, seeds, index=0) -> FpMatrix:
    """Seeded elements of u_P, lane i in the nilradical of P_i and padded
    to diag(X, 0) at the largest n, drawn from
    stream(seeds[i], "radical/<blocks>/<p>/<e>", index)."""
    p, e, n = _field_of(pars)
    states = stream_lanes(seeds, _lane_labels(pars, "radical"), index)
    return FpMatrix._wrap(p, e, n, _radical_draws(pars, states))

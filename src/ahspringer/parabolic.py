"""Standard parabolic subgroups of GL_n by block composition: the block
exponential.

A ``compositions.ParabolicGL`` determines the block-upper-triangular
subgroup P, its unipotent radical U_P (identity blocks on the diagonal)
and the nilradical u_P (strictly block-upper matrices).  When the
nilpotence class r - 1 of u_P is below p (``compositions.is_restricted``),
the degree-(p-1) truncated exponential is a bijection u_P -> U_P, and
that is what eps_P computes.  Only the block-upper mask of u_P is needed
for that, so ``parabolic eps`` loads what ``exp`` loads; the seeded
samplers of P and u_P (``p_elements``, ``radical_elements``) and the
basis of u_P (``nilradical_basis``) live with the other lane samplers in
``groups``.

``eps_p`` and ``in_nilradical`` take one parabolic, or a stack with one
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
from .matrices import FpMatrix, _runs


@lru_cache(maxsize=None)
def _support_mask(par: ParabolicGL, size: int) -> np.ndarray:
    """Boolean (size, size) mask of the block-upper positions of par,
    padded by False beyond n."""
    idx = np.array(par.block_index())
    mask = np.zeros((size, size), dtype=bool)
    mask[:par.n, :par.n] = idx[:, None] < idx
    mask.flags.writeable = False
    return mask


def _lanes(par):
    """The runs of one parabolic or of a lane list, and the largest of them."""
    runs = [(par, 1)] if isinstance(par, ParabolicGL) else _runs(par)
    return runs, max((q for q, _ in runs), key=lambda q: q.n)


def in_nilradical(par, x: FpMatrix) -> bool:
    """Whether x lies in u_P; for a stack x, par holds each lane's parabolic
    and the answer is whether every lane lies in its own, padded as
    diag(X, 0)."""
    return _in_nilradical(*_lanes(par), x)


def _in_nilradical(runs, q, x: FpMatrix) -> bool:
    """``in_nilradical`` on the runs of a lane list and the largest of them."""
    if (x.p, x.e, x.n) != (q.p, q.e, q.n):
        return False
    support = np.repeat(np.stack([_support_mask(r, q.n) for r, _ in runs]), [k for _, k in runs], axis=0)
    return not (x.planes * ~support[..., None, :, :]).any()


def eps_p(par, x: FpMatrix) -> FpMatrix:
    """The block exponential u_P -> U_P on a restricted parabolic.

    Elements of u_P satisfy x^p = 0 (the class bound gives x^r = 0 with
    r <= p), so the truncated exponential applies exactly.  For a stack
    x, par holds one parabolic per lane, x is padded to the largest n as
    diag(X, 0) and the result as diag(eps_P(X), 1).  A matrix over
    another field or of another size raises ValueError.
    """
    runs, q = _lanes(par)
    if (x.p, x.e) != (q.p, q.e):
        raise ValueError(f"matrix is over F_{x.p}^{x.e} but the parabolic is over F_{q.p}^{q.e}")
    if x.n != q.n:
        raise ValueError(f"matrix is {x.n} x {x.n} but composition {q.comp.blocks} has n = {q.n}")
    for r, _ in runs:
        if not is_restricted(r):
            raise DomainError(f"parabolic {r.comp.blocks} has nilpotence class >= {r.p}")
    if not _in_nilradical(runs, q, x):
        raise DomainError("matrix is not in the nilradical of this parabolic")
    return truncated_exp(x)

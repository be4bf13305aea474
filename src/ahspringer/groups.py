"""Classical matrix groups over F_{p^e}: GL, SL, SO, Sp.

Covers nilpotent generation by Jordan type, group / Lie algebra
membership for the classical forms, nilpotent order, centralizers, and
seeded sampling of nilpotents and group elements, and of the elements
of standard parabolics of GL_n and their nilradicals.  ``lie_basis``
(Lie(G) on a set of matrix-unit positions) is written down from the
units its conditions tie together, and u_P's basis is its block-upper
units; ``centralizer_space``, the one null-space solve, reads its basis
off one ``linalg._eliminate`` call.  SO and Sp preserve a fixed
antidiagonal form, so Lie(G) on the strictly upper triangle is a
nilpotent subalgebra; ``_combination_lanes`` samples it and parabolic
nilradicals alike.

The samplers draw many elements at once, one lane per (group, seed),
from SplitMix64 lanes (``rng.stream_lanes``); a stack of groups of
different n pads each lane to the largest, nilpotents as diag(X, 0) and
group elements as diag(G, 1); a stack of parabolics (``p_elements``,
``radical_elements``) is padded the same way.  An invertible draw (a GL
or SL element, a Levi block of a P-element) tests candidates up to 3 x 3
by closed-form determinants, larger ones by elimination, and moves each
lane's state past the candidates it used by the raw draw counts of
``rng.below_lanes``.  ``random_nilpotent`` and ``random_matrix`` are
one-lane views, and a Jordan type is sampled in GL and SL only.  The
order and membership functions take a stack as well and return one
value per lane.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import linalg
from .errors import DomainError
from .gf import _check_field_params, _field_inv, _field_mul, _Frozen, field_modulus
from .matrices import FpMatrix, _mat_mul_planes, _runs, nilpotent_powers
from .rng import _GAMMA, Stream, below_lanes, stream_lanes

KINDS = ("GL", "SL", "SO", "Sp")


class JordanType(_Frozen):
    """A partition (weakly decreasing positive block sizes)."""

    __slots__ = ("partition",)
    _fields = __slots__

    def __init__(self, partition: tuple[int, ...]):
        parts = tuple(int(x) for x in partition)
        if not parts:
            raise ValueError("a Jordan type needs at least one block")
        if any(x <= 0 for x in parts):
            raise ValueError("Jordan block sizes must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("Jordan block sizes must be weakly decreasing")
        self._freeze(parts)

    @property
    def n(self) -> int:
        return sum(self.partition)


class GroupSpec(_Frozen):
    """One of GL_n, SL_n, SO_n, Sp_n; SO and Sp preserve the antidiagonal
    form of ``default_form``."""

    __slots__ = ("kind", "n")
    _fields = __slots__

    def __init__(self, kind: str, n: int):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if n < 1:
            raise ValueError("dimension must be positive")
        if kind == "Sp" and n % 2:
            raise ValueError("Sp requires even dimension")
        self._freeze(kind, n)

    def form_for(self, p: int, e: int) -> FpMatrix | None:
        """The bilinear form over F_{p^e}; checks the good-prime constraint."""
        if self.kind in ("GL", "SL"):
            return None
        if p == 2:
            raise ValueError(f"{self.kind} is not supported in characteristic 2")
        return default_form(self.kind, self.n, p, e)


@lru_cache(maxsize=None)
def default_form(kind: str, n: int, p: int, e: int) -> FpMatrix:
    """Antidiagonal form: all ones for SO; lower antidiagonal half -1 for Sp."""
    planes = np.zeros((e, n, n), dtype=np.int64)
    for i in range(n):
        if kind == "Sp" and i >= n // 2:
            planes[0, i, n - 1 - i] = p - 1
        else:
            planes[0, i, n - 1 - i] = 1
    return FpMatrix(p, e, planes)


def jordan_nilpotent(t: JordanType, p: int, e: int = 1) -> FpMatrix:
    """Block-diagonal nilpotent with ones on each block's superdiagonal."""
    _check_field_params(p, e)
    n = t.n
    planes = np.zeros((e, n, n), dtype=np.int64)
    offset = 0
    for size in t.partition:
        for i in range(size - 1):
            planes[0, offset + i, offset + i + 1] = 1
        offset += size
    return FpMatrix(p, e, planes)


def _per_lane(values: np.ndarray):
    """An int or bool for a single matrix, an array (one per lane) for a stack."""
    return values.item() if values.ndim == 0 else values


def nilpotency_degree(x: FpMatrix):
    """Least d >= 1 with x^d = 0, per lane for a stack, from the one power
    walk (x^k != 0 exactly for k < d); DomainError when x is not nilpotent."""
    return _per_lane(nilpotent_powers(x).any(axis=(-3, -2, -1)).sum(axis=0))


def nilpotent_order(x: FpMatrix):
    """Least m with x^(p^m) = 0 (0 iff x = 0), per lane for a stack;
    DomainError if x is not nilpotent."""
    d = np.asarray(nilpotency_degree(x))
    m = np.zeros(d.shape, dtype=np.int64)
    while (short := x.p ** m < d).any():  # x^k = 0 exactly when k >= d
        m += short
    return _per_lane(m)


def unipotent_order_exponent(u: FpMatrix):
    """Least j with u^(p^j) = identity, per lane for a stack, by repeated
    p-th powers; DomainError if u is not unipotent.  That is exact in
    characteristic p, where u^(p^j) - 1 = (u - 1)^(p^j): u is unipotent
    exactly when u^(p^j) = identity at the first p^j >= n."""
    ident = FpMatrix.identity(u.p, u.e, u.n)
    j = np.zeros(u.planes.shape[:-3], dtype=np.int64)
    y, power = u, 1  # y = u^power, power = p^j
    while (open_ := ~y.lanes_equal(ident)).any():
        if power >= u.n:
            raise DomainError("matrix is not unipotent")
        y, power = y ** u.p, power * u.p
        j += open_
    return _per_lane(j)


def in_group(spec: GroupSpec, g: FpMatrix):
    """Whether g lies in G, per lane for a stack."""
    if g.n != spec.n:
        raise ValueError("matrix dimension does not match group")
    form = spec.form_for(g.p, g.e)
    ok = np.ones(g.planes.shape[:-3], dtype=bool)
    if form is not None:
        ok &= (g.transpose() @ form @ g).lanes_equal(form)
    if spec.kind != "Sp":
        det = linalg.det_planes(g.planes, g.p, g.e)
        # GL: det != 0; SL and SO: det = 1, the coordinates (1, 0, ...)
        ok &= det.any(axis=-1) if spec.kind == "GL" else (det[..., 0] == 1) & ~det[..., 1:].any(axis=-1)
    return _per_lane(ok)


def _lie_residual(spec: GroupSpec, planes: np.ndarray, p: int) -> np.ndarray:
    """The map with kernel Lie(G) on planes (..., e, n, n), as (..., e, m):
    nothing (m = 0) for GL, the trace for SL, X^T J + J X for SO and Sp
    (J has F_p entries, so it acts plane by plane)."""
    form = spec.form_for(p, 1)
    if form is not None:
        j = form.planes[0]
        return ((planes.swapaxes(-1, -2) @ j + j @ planes) % p).reshape(*planes.shape[:-2], j.size)
    if spec.kind == "SL":
        return np.trace(planes, axis1=-2, axis2=-1)[..., None] % p
    return planes[..., :0, 0]


def in_lie_algebra(spec: GroupSpec, x: FpMatrix):
    """Whether x lies in Lie(G), per lane for a stack."""
    if x.n != spec.n:
        raise ValueError("matrix dimension does not match group")
    return _per_lane(~_lie_residual(spec, x.planes, x.p).any(axis=(-2, -1)))


@lru_cache(maxsize=None)
def lie_basis(kind: str, n: int, p: int, e: int, support: tuple) -> np.ndarray:
    """Read-only planes (k, e, n, n) of a basis of Lie(G) on the span of
    the matrix units at support, a tuple of (i, j) positions: the null
    space of ``_lie_residual`` there that an elimination would give,
    written down instead (F_p entries, plane 0 only).  Each condition ties
    a unit only to its partners; the first of them in support is a pivot,
    and each later one b gives 1 at b and c at that pivot a, while a unit
    under no condition gives itself, all in support order.  GL has no
    condition; SL ties the diagonal units, c = -1; SO/Sp tie b = (i, j) to
    its mirror (n-1-j, n-1-i) by s_i x_b + s_j x_mirror = 0, s_i =
    J[i, n-1-i] = +-1, so c = -s_i s_j, and an antidiagonal unit (its own
    mirror) is under no condition for Sp (s_j = -s_i), a pivot for SO."""
    form = GroupSpec(kind, n).form_for(p, 1)  # refuses SO and Sp at p = 2
    sign = None if form is None else np.diag(form.planes[0][:, ::-1]).tolist()
    index = {unit: k for k, unit in enumerate(support)}
    diagonal = [k for k, (i, j) in enumerate(support) if i == j]
    vectors = []  # (b, a, c); a = b for a unit that stands alone
    for b, (i, j) in enumerate(support):
        if sign is not None:
            a = index.get((n - 1 - j, n - 1 - i), len(support))  # missing: b is a pivot
            if a < b:
                vectors.append((b, a, -sign[i] * sign[j] % p))
            elif a == b and kind == "Sp":
                vectors.append((b, b, 1))
        elif kind == "GL" or i != j:
            vectors.append((b, b, 1))
        elif b != diagonal[0]:
            vectors.append((b, diagonal[0], p - 1))
    b, a, c = np.array(vectors, dtype=np.int64).reshape(-1, 3).T
    at = np.array(support, dtype=np.intp).reshape(-1, 2)
    basis = np.zeros((len(vectors), e, n, n), dtype=np.int64)
    basis[np.arange(len(vectors)), 0, at[a, 0], at[a, 1]] = c
    basis[np.arange(len(vectors)), 0, at[b, 0], at[b, 1]] = 1
    basis.flags.writeable = False
    return basis


def centralizer_space(a: FpMatrix) -> np.ndarray:
    """Read-only planes (d, e, n, n) of a basis of { Z : ZA = AZ }: the
    kernel of Z -> AZ - ZA on all n^2 matrix units, row-major, read off
    one elimination of its conditions (a zero row holds for every unit):
    one vector per non-pivot column f, 1 at f and minus column f of the
    reduced form at the pivot columns."""
    p, e, n = a.p, a.e, a.n
    units = np.eye(n * n, dtype=np.int64).reshape(-1, n, n)
    images = ((a.planes @ units[:, None] - units[:, None] @ a.planes) % p).reshape(n * n, e, n * n)
    r_mat, pivot, _ = linalg._eliminate(images[:, :, images.any(axis=(0, 1))].transpose(1, 2, 0), p, e)
    pivots, free = np.flatnonzero(pivot), np.flatnonzero(~pivot)
    planes = np.zeros((len(free), e, n * n), dtype=np.int64)
    planes[np.arange(len(free)), 0, free] = 1
    planes[:, :, pivots] = (-r_mat[:, :len(pivots), free]).transpose(2, 0, 1) % p
    planes = planes.reshape(-1, e, n, n)
    planes.flags.writeable = False
    return planes


# -- sampling ----------------------------------------------------------


def random_matrix(p: int, e: int, n: int, st: Stream) -> FpMatrix:
    """Seeded matrix with uniform entries: one lane of ``_matrix_lanes``,
    after which st advances past exactly the draws it consumed."""
    states = np.array([st.state], dtype=np.uint64)
    planes = _matrix_lanes(p, e, np.array([n]), states, n)[0]
    st.state = int(states[0])
    return FpMatrix._wrap(p, e, n, planes[0, 0])


def _matrix_lanes(p: int, e: int, sizes: np.ndarray, states: np.ndarray, size: int,
                  count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """count successive matrices diag(A, 1) from each lane, as planes
    (B, count, e, size, size): A of size sizes[i] has uniform entries, drawn
    plane by plane, row by row, and the raw draw ends of the entries, in
    that order (``below_lanes``)."""
    inner = np.arange(size) < sizes[:, None]
    block = inner[:, None, None, :, None] & inner[:, None, None, None, :]
    block = np.broadcast_to(block, (len(sizes), count, e, size, size))
    total = count * e * sizes * sizes
    draws, ends = below_lanes(states, p, total)
    planes = np.zeros(block.shape, dtype=np.int64)
    planes[:, :, 0] = ~block[:, :, 0] & np.eye(size, dtype=bool)
    planes[block] = draws[np.arange(draws.shape[1]) < total[:, None]]
    return planes, ends


def _corner_det(m: np.ndarray, p: int, e: int) -> tuple:
    """Coordinates of the determinants of planes (..., e, k, k), by Laplace
    expansion along the first row: a for (a), ad - bc for (a b; c d)."""
    if m.shape[-1] == 1:
        return tuple(m[..., t, 0, 0] for t in range(e))
    mod, k = field_modulus(p, e), m.shape[-1]
    terms = [_field_mul(tuple(m[..., t, 0, j] for t in range(e)),
                        _corner_det(m[..., 1:, [c for c in range(k) if c != j]], p, e), p, mod, np.multiply)
             for j in range(k)]
    return tuple(sum((-1) ** j * term[t] for j, term in enumerate(terms)) % p for t in range(e))


def _invertible(cands: np.ndarray, sizes: np.ndarray, p: int, e: int) -> np.ndarray:
    """Whether each candidate diag(A, 1), planes (B, C, e, S, S) with A of
    size sizes[i] in lane i, is invertible: det A != 0, from ``_corner_det``
    of the corner of size min(S, 3) where A fits in it, else from
    ``linalg.det_planes`` on those lanes, cropped to their largest A."""
    k = min(cands.shape[-1], 3)
    small, big = np.flatnonzero(sizes <= k), np.flatnonzero(sizes > k)
    ok = np.empty(cands.shape[:2], dtype=bool)
    ok[small] = np.any(_corner_det(cands[small, ..., :k, :k], p, e), axis=0)
    if big.size:
        m = sizes[big].max()
        ok[big] = linalg.det_planes(cands[big, ..., :m, :m], p, e).any(axis=-1)
    return ok


# Matrices drawn per lane and round by invertible_lanes.  Over F_2 about
# 70% of matrices are singular; four candidates per elimination settle
# most lanes in one round, where one per round needs three or four.
_CANDIDATES = 4


def invertible_lanes(p: int, e: int, sizes, states: np.ndarray) -> np.ndarray:
    """diag(G_i, 1) per lane, (B, e, S, S) with S = max(sizes), where G_i
    is a uniform invertible matrix of size sizes[i] over F_{p^e} drawn
    from the SplitMix64 lane states[i] (advanced in place).

    Lane i keeps the first invertible matrix of its stream, as drawing one
    matrix at a time and redrawing while the determinant is zero would.
    Each round draws the next _CANDIDATES matrices of every lane still
    open from a copy of its state, keeps the first invertible one
    (``_invertible``: up to 3 x 3 in closed form), and then moves the
    lane's state past exactly the matrices it used, by their raw draws
    times SplitMix64's increment; the lanes with none invertible, and only
    they, go on to another round.
    """
    sizes = np.asarray(sizes)
    size = max(int(sizes.max(initial=0)), 1)
    planes = np.zeros((len(sizes), e, size, size), dtype=np.int64)
    planes[:, 0] = np.eye(size, dtype=np.int64)
    todo = np.flatnonzero(sizes)  # a 0 x 0 matrix draws nothing and stays 1
    while todo.size:
        open_sizes = sizes[todo]
        cands, ends = _matrix_lanes(p, e, open_sizes, states[todo], size, _CANDIDATES)
        ok = _invertible(cands, open_sizes, p, e)
        found, pick = ok.any(axis=1), ok.argmax(axis=1)
        planes[todo[found]] = cands[found, pick[found]]
        used = np.where(found, pick + 1, _CANDIDATES) * e * open_sizes ** 2
        states[todo] += ends[np.arange(len(todo)), used - 1].astype(np.uint64) * np.uint64(_GAMMA)
        todo = todo[~found]
    return planes


@lru_cache(maxsize=None)
def _nilradical_planes(kind: str, n: int, p: int, e: int, lower: bool = False) -> np.ndarray:
    """``lie_basis`` on the strictly upper (or lower) triangle."""
    support = tuple((i, j) for i in range(n) for j in range(n) if (i > j if lower else i < j))
    return lie_basis(kind, n, p, e, support)


def _triangle_runs(specs, p: int, e: int, lower: bool = False) -> list[tuple[np.ndarray, int]]:
    """(basis, lane count) runs of each lane's upper (or lower) triangle basis."""
    return [(_nilradical_planes(spec.kind, spec.n, p, e, lower), k) for spec, k in _runs(specs)]


def _combination_lanes(runs, p: int, e: int, states: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_i s_i B_i lane by lane, for runs of (basis, lane count): the next
    count lanes combine over that basis B_0, B_1, ... (planes (k, e, n, n)
    with F_p entries).  Returns planes (B, e, size, size), each lane padded
    by zeros, and the number of coordinates each lane drew.

    Lane l draws the e coordinates of s_0, then those of s_1, and so on,
    from states[l] (advanced in place), as one stream drawing a scalar per
    basis element would.  Coordinate j of the sum is sum_i s_i[j] B_i, as
    B_i lies in plane 0: one integer matmul per run."""
    counts = np.repeat([len(basis) * e for basis, _ in runs], [k for _, k in runs])
    draws = below_lanes(states, p, counts)[0].astype(np.int64)
    planes = np.zeros((len(counts), e, size, size), dtype=np.int64)
    start = 0
    for basis, k in runs:
        d, n = len(basis), basis.shape[-1]
        coords = draws[start:start + k, :d * e].reshape(k, d, e).swapaxes(1, 2)
        planes[start:start + k, :, :n, :n] = (coords @ basis[:, 0].reshape(d, n * n)).reshape(k, e, n, n)
        start += k
    planes %= p
    return planes, counts


def group_element_lanes(specs, p: int, e: int, states: np.ndarray) -> FpMatrix:
    """Pseudo-random elements of G(F_{p^e}), lane l in the group specs[l]
    and padded to diag(G, 1) at the largest n, drawn from states[l]
    (advanced in place).

    GL/SL lanes take a uniform invertible matrix (``invertible_lanes``),
    and SL lanes then scale row 0 by 1/det; SO/Sp lanes multiply
    e_p(U) e_p(L) e_p(U') for combinations U, L, U' of the upper, lower
    and upper nilradical bases, drawn in that order.
    """
    from .expmaps import ah_exp

    size = max(spec.n for spec in specs)
    mod = field_modulus(p, e)
    linear = np.array([spec.kind in ("GL", "SL") for spec in specs])
    g = np.zeros((len(specs), e, size, size), dtype=np.int64)
    g[:, 0] = np.eye(size, dtype=np.int64)
    # an SO/Sp lane asks for a 0 x 0 matrix: it draws nothing and stays 1
    invertible = invertible_lanes(p, e, np.where(linear, [spec.n for spec in specs], 0), states)
    g[:, :, :invertible.shape[-1], :invertible.shape[-1]] = invertible
    sl = np.flatnonzero([spec.kind == "SL" for spec in specs])
    if sl.size:
        det = linalg.det_planes(g[sl], p, e)
        scale = _field_inv(tuple(det.T[:, :, None]), p, mod)
        row = _field_mul(scale, tuple(g[sl, k, 0] for k in range(e)), p, mod, np.multiply)
        g[sl, :, 0] = np.stack(row, axis=1)
    forms = np.flatnonzero(~linear)
    if forms.size:
        sub, sub_states = [specs[i] for i in forms], states[forms]
        combos = [_combination_lanes(_triangle_runs(sub, p, e, lower), p, e, sub_states, size)[0]
                  for lower in (False, True, False)]
        states[forms] = sub_states
        exps = ah_exp(FpMatrix._wrap(p, e, size, np.stack(combos)))
        g[forms] = (exps.lane(0) @ exps.lane(1) @ exps.lane(2)).planes
    return FpMatrix._wrap(p, e, size, g)


def _nilpotent_draws(specs, p: int, e: int, states: np.ndarray) -> FpMatrix:
    """Nilpotent elements of Lie(G), lane l in the Lie algebra of specs[l]
    and padded to diag(X, 0) at the largest n, drawn from states[l]
    (advanced in place).

    Each lane draws X over the upper nilradical basis; then, unless that
    basis is empty, one coin below(2); and on the lanes whose coin is 1,
    L over the lower basis and U over the upper one, after which X is
    conjugated to a X a^-1 with a = e_p(L) e_p(U).  One power walk of
    (L, U) gives e_p and the inverse series F (F e_p = 1, so F(L) e_p(L) = 1).
    """
    from .expmaps import eval_series_in_matrix
    from .series import ah_coeffs_mod_p, ah_inverse_coeffs

    size = max(spec.n for spec in specs)
    x, counts = _combination_lanes(_triangle_runs(specs, p, e), p, e, states, size)
    on = np.flatnonzero(below_lanes(states, 2, counts > 0)[0].any(axis=1))
    if on.size:
        sub, sub_states = [specs[i] for i in on], states[on]
        combos = [_combination_lanes(_triangle_runs(sub, p, e, lower), p, e, sub_states, size)[0]
                  for lower in (True, False)]
        states[on] = sub_states
        series = [f(p, size - 1) for f in (ah_coeffs_mod_p, ah_inverse_coeffs)]
        walk = eval_series_in_matrix(series, FpMatrix._wrap(p, e, size, np.stack(combos)))
        exps, inverses = walk.lane(0), walk.lane(1)
        a = exps.lane(0) @ exps.lane(1)
        x[on] = (a @ FpMatrix._wrap(p, e, size, x[on]) @ inverses.lane(1) @ inverses.lane(0)).planes
    return FpMatrix._wrap(p, e, size, x)


def nilpotent_lanes(specs, p: int, e: int, seeds) -> FpMatrix:
    """Seeded nilpotent elements of Lie(G), one lane per (spec, seed): lane
    l is drawn by ``_nilpotent_draws`` from
    stream(seeds[l], "nilpotent/<kind>/<n>/<p>/<e>/any") of specs[l]."""
    labels = [f"nilpotent/{spec.kind}/{spec.n}/{p}/{e}/any" for spec in specs]
    return _nilpotent_draws(specs, p, e, stream_lanes(seeds, labels))


def jordan_nilpotent_lanes(spec: GroupSpec, jordan_type: JordanType, p: int, e: int, seeds) -> FpMatrix:
    """Seeded nilpotents of gl_n of one Jordan type, one lane per seed, for
    GL or SL: lane l is g x0 g^-1, x0 the ``jordan_nilpotent`` of the type
    and g an ``invertible_lanes`` matrix drawn from
    stream(seeds[l], "nilpotent/<kind>/<n>/<p>/<e>/<partition>")."""
    type_label = ",".join(map(str, jordan_type.partition))
    states = stream_lanes(seeds, f"nilpotent/{spec.kind}/{spec.n}/{p}/{e}/{type_label}")
    g = FpMatrix._wrap(p, e, spec.n, invertible_lanes(p, e, [spec.n] * len(states), states))
    return g @ jordan_nilpotent(jordan_type, p, e) @ linalg.inv(g)


@lru_cache(maxsize=None)
def nilradical_basis(par) -> np.ndarray:
    """Read-only planes (k, e, n, n) of the matrix units spanning the
    nilradical u_P of a ``compositions.ParabolicGL``, row-major over the
    block-upper positions (Lie(GL) there needs no condition)."""
    idx = np.array(par.block_index())
    i, j = np.nonzero(idx[:, None] < idx)
    basis = np.zeros((len(i), par.e, par.n, par.n), dtype=np.int64)
    basis[np.arange(len(i)), 0, i, j] = 1
    basis.flags.writeable = False
    return basis


def _parabolic_lanes(pars, prefix: str, seeds, index=0):
    """The runs of a lane list of parabolics, the (p, e, n) of its largest,
    and the lane states of stream(seeds[i], "<prefix>/<blocks>/<p>/<e>",
    index), each label built once per run."""
    runs = _runs(pars)
    q = max((q for q, _ in runs), key=lambda q: q.n)
    labels = [label for r, k in runs for label in [f"{prefix}/{r.comp.blocks}/{r.p}/{r.e}"] * k]
    return runs, (q.p, q.e, q.n), stream_lanes(seeds, labels, index)


def _radical_draws(runs, field, states: np.ndarray) -> np.ndarray:
    """Planes (B, e, n, n) of u_P elements, (p, e, n) = field, drawn from
    the lanes by ``_combination_lanes`` over ``nilradical_basis``: e
    coordinates per block-upper position, in row-major order."""
    p, e, n = field
    return _combination_lanes([(nilradical_basis(q), k) for q, k in runs], p, e, states, n)[0]


def p_elements(pars, seeds) -> FpMatrix:
    """Seeded invertible block-upper-triangular matrices, lane i in the
    parabolic P_i = pars[i] and padded to diag(G, 1) at the largest n.

    Lane i draws from stream(seeds[i], "p-element/<blocks>/<p>/<e>"):
    first each diagonal block, in block order, as a uniform invertible
    matrix (``invertible_lanes``), then the entries above the blocks, as
    ``_radical_draws``.
    """
    runs, (p, e, n), states = _parabolic_lanes(pars, "p-element", seeds)
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
    planes += _radical_draws(runs, (p, e, n), states)
    return FpMatrix._wrap(p, e, n, planes)


def radical_elements(pars, seeds, index=0) -> FpMatrix:
    """Seeded elements of u_P, lane i in the nilradical of P_i = pars[i]
    and padded to diag(X, 0) at the largest n, drawn from
    stream(seeds[i], "radical/<blocks>/<p>/<e>", index)."""
    runs, field, states = _parabolic_lanes(pars, "radical", seeds, index)
    return FpMatrix._wrap(*field, _radical_draws(runs, field, states))


def random_nilpotent(
    spec: GroupSpec,
    jordan_type: JordanType | str,
    seed: int,
    p: int,
    e: int = 1,
) -> FpMatrix:
    """Seeded nilpotent element of Lie(G), optionally of a given Jordan type.

    Deterministic for fixed arguments; "any" is one lane of
    ``nilpotent_lanes``, a Jordan type one lane of
    ``jordan_nilpotent_lanes``, which samples GL and SL only.
    """
    if jordan_type == "any":
        return nilpotent_lanes([spec], p, e, [seed]).lane(0)
    if spec.kind not in ("GL", "SL") or jordan_type.n != spec.n:
        raise DomainError(
            f"Jordan type {jordan_type.partition} is not sampled in {spec.kind}_{spec.n}"
        )
    return jordan_nilpotent_lanes(spec, jordan_type, p, e, [seed]).lane(0)


def enumerate_nilpotents(p: int, n: int, e: int = 1):
    """Every nilpotent matrix in gl_n(F_{p^e}); only sane for tiny p^n.

    All p^(e n^2) coordinate codes are decoded at once (digit t of the
    base-p code is plane t // n^2, entry t mod n^2 in row-major order) and
    tested with one batched power x^(2^j), 2^j >= n; matrices come out in
    code order.
    """
    _check_field_params(p, e)
    total = p ** (e * n * n)
    if total > 600000:
        raise ValueError("enumeration space too large")
    digits = np.arange(total, dtype=np.int64)[:, None] // p ** np.arange(e * n * n) % p
    cube = digits.reshape(total, e, n, n)
    power = cube
    for _ in range((n - 1).bit_length()):
        power = _mat_mul_planes(power, power, p, field_modulus(p, e))
    for planes in cube[~power.any(axis=(1, 2, 3))]:
        yield FpMatrix._wrap(p, e, n, planes)

"""Classical matrix groups over F_{p^e}: GL, SL, SO, Sp.

Covers nilpotent generation by Jordan type, group / Lie algebra
membership for the classical forms, nilpotent order, exact centralizer
computation, and seeded random sampling of nilpotents and group
elements.  SO and Sp preserve a fixed antidiagonal form, so the
strictly upper triangular part of each Lie algebra is a nilpotent
subalgebra we can sample from directly.

The samplers draw many elements at once, one lane per (group, seed),
from SplitMix64 lanes (``rng.stream_lanes``); a stack of groups of
different n pads each lane to the largest, nilpotents as diag(X, 0) and
group elements as diag(G, 1).  ``random_nilpotent``,
``random_group_element``, ``random_invertible`` and ``random_matrix``
are their one-lane views.  The order functions take a stack as well and
return one value per lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from . import linalg
from .errors import DomainError
from .gf import _check_field_params, _field_inv, _field_mul, field_modulus
from .matrices import FpMatrix, _lin_comb, _mat_mul_planes
from .rng import Stream, below_lanes, stream, stream_lanes

KINDS = ("GL", "SL", "SO", "Sp")


@dataclass(frozen=True)
class JordanType:
    """A partition (weakly decreasing positive block sizes)."""

    partition: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(x) for x in self.partition)
        if not parts:
            raise ValueError("a Jordan type needs at least one block")
        if any(x <= 0 for x in parts):
            raise ValueError("Jordan block sizes must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("Jordan block sizes must be weakly decreasing")
        object.__setattr__(self, "partition", parts)

    @property
    def n(self) -> int:
        return sum(self.partition)


@dataclass(frozen=True)
class GroupSpec:
    """One of GL_n, SL_n, SO_n, Sp_n; SO and Sp preserve the antidiagonal
    form of ``default_form``."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if self.kind == "Sp" and self.n % 2:
            raise ValueError("Sp requires even dimension")

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


def nilpotent_powers(x: FpMatrix, limit: int | None = None,
                     message: str = "matrix is not nilpotent") -> np.ndarray:
    """Planes of x^0, x^1, ..., x^(d-1), shape (d, e, n, n), where d is the
    nilpotency degree (the least d >= 1 with x^d = 0).

    The one power walk of the package: x, x^2, ... are multiplied out once,
    stopping at the first zero power.  Raises DomainError(message) unless
    x^limit = 0 (limit defaults to n, where that means x is nilpotent).
    A stack x with planes (B, e, n, n) is walked lane by lane at once: the
    result is (d, B, e, n, n) with d the largest degree of any lane, and a
    single lane with x^limit != 0 raises.
    """
    limit = x.n if limit is None else min(limit, x.n)
    powers = np.zeros((limit,) + x.planes.shape, dtype=np.int64)
    powers[0, ..., 0, :, :] = np.eye(x.n, dtype=np.int64)
    y = x.planes
    d = 1
    while y.any():
        if d == limit:
            raise DomainError(message)
        powers[d] = y
        d += 1
        y = _mat_mul_planes(y, x.planes, x.p, x._mod)
    return powers[:d]


def _per_lane(values: np.ndarray):
    """An int for a single matrix, an int array (one per lane) for a stack."""
    return int(values) if values.ndim == 0 else values


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
    p-th powers; DomainError if u is not unipotent."""
    ident = FpMatrix.identity(u.p, u.e, u.n)
    nilpotent_powers(u - ident, message="matrix is not unipotent")
    j = np.zeros(u.planes.shape[:-3], dtype=np.int64)
    y = u
    while (open_ := ~y.lanes_equal(ident)).any():
        y = y ** u.p
        j += open_
    return _per_lane(j)


def _unipotent_inverse(u: FpMatrix) -> FpMatrix:
    """u^-1 = sum_k (1 - u)^k for unipotent u (lane by lane for a stack),
    from the power walk of the nilpotent 1 - u; DomainError if u is not
    unipotent."""
    ident = FpMatrix.identity(u.p, u.e, u.n)
    powers = nilpotent_powers(ident - u, message="matrix is not unipotent")
    return FpMatrix._wrap(u.p, u.e, u.n, powers.sum(axis=0) % u.p)


def in_group(spec: GroupSpec, g: FpMatrix) -> bool:
    if g.n != spec.n:
        raise ValueError("matrix dimension does not match group")
    form = spec.form_for(g.p, g.e)
    one = (1,) + (0,) * (g.e - 1)
    if spec.kind == "GL":
        return any(linalg.det(g))
    if spec.kind == "SL":
        return linalg.det(g) == one
    preserves = (g.transpose() @ form @ g) == form
    if spec.kind == "SO":
        return preserves and linalg.det(g) == one
    return preserves


def in_lie_algebra(spec: GroupSpec, x: FpMatrix) -> bool:
    if x.n != spec.n:
        raise ValueError("matrix dimension does not match group")
    form = spec.form_for(x.p, x.e)
    if spec.kind == "GL":
        return True
    if spec.kind == "SL":
        return not any(x.trace())
    return (x.transpose() @ form + form @ x).is_zero()


@dataclass(frozen=True)
class CentralizerSpace:
    """A basis of { Z : ZA = AZ } inside the full matrix algebra."""

    dimension: int
    basis: tuple[FpMatrix, ...]


def commutator_map_planes(a: FpMatrix):
    """Planes of the n^2 x n^2 matrix of Z -> AZ - ZA on row-major vec(Z)."""
    n = a.n
    eye = np.eye(n, dtype=np.int64)
    planes = []
    for k in range(a.e):
        plane = np.kron(a.planes[k], eye) - np.kron(eye, a.planes[k].T)
        planes.append(plane % a.p)
    return np.stack(planes)


def centralizer_space(a: FpMatrix) -> CentralizerSpace:
    vecs = linalg.null_space_planes(commutator_map_planes(a), a.p, a.e)
    basis = tuple(FpMatrix(a.p, a.e, v.reshape(a.e, a.n, a.n)) for v in vecs)
    return CentralizerSpace(dimension=len(basis), basis=basis)


def jordan_type_of(x: FpMatrix) -> JordanType:
    """Jordan type of a nilpotent matrix from its power-rank sequence."""
    ranks = [linalg.rank_planes(power, x.p, x.e) for power in nilpotent_powers(x)] + [0]
    # parts >= k appear (rank x^(k-1) - rank x^k) times
    counts = [ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1)]
    parts = []
    for size in range(len(counts), 0, -1):
        copies = counts[size - 1] - (counts[size] if size < len(counts) else 0)
        parts.extend([size] * copies)
    parts.sort(reverse=True)
    return JordanType(tuple(parts))


# -- sampling ----------------------------------------------------------


def _on_stream(st: Stream, draw):
    """draw(states) on the one lane holding st's state; st then advances
    past exactly the draws that lane consumed."""
    states = np.array([st.state], dtype=np.uint64)
    out = draw(states)
    st.state = int(states[0])
    return out


def random_matrix(p: int, e: int, n: int, st: Stream) -> FpMatrix:
    """Seeded matrix with uniform entries: one lane of ``_matrix_lanes``."""
    planes = _on_stream(st, lambda states: _matrix_lanes(p, e, np.array([n]), states, n))
    return FpMatrix._wrap(p, e, n, planes[0, 0])


def random_invertible(p: int, e: int, n: int, st: Stream) -> FpMatrix:
    """Seeded uniform invertible matrix: one lane of ``invertible_lanes``."""
    planes = _on_stream(st, lambda states: invertible_lanes(p, e, [n], states))
    return FpMatrix._wrap(p, e, n, planes[0])


def _matrix_lanes(p: int, e: int, sizes: np.ndarray, states: np.ndarray, size: int,
                  count: int = 1) -> np.ndarray:
    """count successive matrices diag(A, 1) from each lane, as planes
    (B, count, e, size, size): A of size sizes[i] has uniform entries, drawn
    plane by plane, row by row."""
    inner = np.arange(size) < sizes[:, None]
    block = inner[:, None, None, :, None] & inner[:, None, None, None, :]
    block = np.broadcast_to(block, (len(sizes), count, e, size, size))
    total = count * e * sizes * sizes
    draws = below_lanes(states, p, total)
    planes = np.zeros(block.shape, dtype=np.int64)
    planes[:, :, 0] = ~block[:, :, 0] & np.eye(size, dtype=bool)
    planes[block] = draws[np.arange(draws.shape[1]) < total[:, None]]
    return planes


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
    open from a copy of its state, keeps the first invertible one, and
    then advances the lane's state past exactly the matrices it used; the
    lanes with none invertible, and only they, go on to another round.
    """
    sizes = np.asarray(sizes)
    size = max(int(sizes.max(initial=0)), 1)
    planes = np.zeros((len(sizes), e, size, size), dtype=np.int64)
    todo = np.arange(len(sizes))
    while todo.size:
        start = states[todo]
        cands = _matrix_lanes(p, e, sizes[todo], start.copy(), size, _CANDIDATES)
        ok = linalg.det_planes(cands, p, e).any(axis=-1)
        found, pick = ok.any(axis=1), ok.argmax(axis=1)
        planes[todo[found]] = cands[found, pick[found]]
        used = np.where(found, pick + 1, _CANDIDATES)
        below_lanes(start, p, used * e * sizes[todo] ** 2)
        states[todo] = start
        todo = todo[~found]
    return planes


@lru_cache(maxsize=None)
def _nilradical_planes(kind: str, n: int, p: int, e: int, lower: bool = False) -> np.ndarray:
    """Planes (k, e, n, n) of a basis of Lie(G) intersected with the
    strictly upper (or lower) triangle; see upper_nilradical_basis."""
    positions = [(i, j) for i in range(n) for j in range(n) if (i > j if lower else i < j)]
    if kind in ("GL", "SL"):
        vecs = np.eye(len(positions), dtype=np.int64)
    else:
        GroupSpec(kind, n).form_for(p, e)  # validates the good-prime constraint
        # the form has F_p entries, so an F_p basis spans the F_{p^e} solutions
        form = default_form(kind, n, p, 1)
        cols = np.zeros((1, n * n, len(positions)), dtype=np.int64)
        for idx, (i, j) in enumerate(positions):
            unit = FpMatrix.matrix_unit(p, 1, n, i, j)
            cond = unit.transpose() @ form + form @ unit
            cols[0, :, idx] = cond.planes[0].reshape(n * n)
        vecs = [v[0] for v in linalg.null_space_planes(cols, p, 1)]
    rows, cols = np.array(positions, dtype=np.intp).reshape(-1, 2).T
    planes = np.zeros((len(vecs), e, n, n), dtype=np.int64)
    planes[:, 0, rows, cols] = np.reshape(vecs, (len(vecs), len(positions)))
    planes.flags.writeable = False
    return planes


def upper_nilradical_basis(kind: str, n: int, p: int, e: int, lower: bool = False) -> tuple[FpMatrix, ...]:
    """Basis of Lie(G) intersected with the strictly upper (or lower) triangle.

    For GL/SL these are just the matrix units; for SO/Sp the linear
    condition X^T J + J X = 0 is solved on the triangular coordinates.
    """
    return tuple(FpMatrix(p, e, b) for b in _nilradical_planes(kind, n, p, e, lower))


def _runs(items) -> list[tuple[object, int]]:
    """(item, run length) for each run of one object in a lane list, so
    per-item work is done once per run, not once per lane."""
    return [(run[0], len(run)) for run in (list(g) for _, g in groupby(items, key=id))]


def _combination_lanes(specs, p: int, e: int, states: np.ndarray, size: int,
                       lower: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """sum_i s_i B_i lane by lane, over the upper (or lower) nilradical
    basis B_0, B_1, ... of the lane's group, as planes (B, e, size, size)
    with each lane padded by zeros; and the number of coordinates each
    lane drew.

    Lane l draws the e coordinates of s_0 first, then those of s_1, and so
    on, from states[l] (advanced in place), as drawing one scalar per basis
    element from one stream would.  Each run of one group contracts its
    coordinates against the group's cached basis.
    """
    runs = _runs(specs)
    bases = [_nilradical_planes(spec.kind, spec.n, p, e, lower) for spec, _ in runs]
    counts = np.repeat([len(basis) * e for basis in bases], [k for _, k in runs])
    draws = below_lanes(states, p, counts).astype(np.int64)
    planes = np.zeros((len(specs), e, size, size), dtype=np.int64)
    start = 0
    for (spec, k), basis in zip(runs, bases):
        if len(basis):
            coords = draws[start:start + k, :len(basis) * e].reshape(k, len(basis), e)
            planes[start:start + k, :, :spec.n, :spec.n] = _lin_comb(coords, basis, p, field_modulus(p, e))
        start += k
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
        combos = [_combination_lanes(sub, p, e, sub_states, size, lower)[0]
                  for lower in (False, True, False)]
        states[forms] = sub_states
        exps = ah_exp(FpMatrix._wrap(p, e, size, np.stack(combos)))
        g[forms] = (exps.lane(0) @ exps.lane(1) @ exps.lane(2)).planes
    return FpMatrix._wrap(p, e, size, g)


def random_group_element(spec: GroupSpec, p: int, e: int, st: Stream) -> FpMatrix:
    """A pseudo-random element of G(F_{p^e}): one lane of
    ``group_element_lanes``."""
    return _on_stream(st, lambda states: group_element_lanes([spec], p, e, states)).lane(0)


def _nilpotent_draws(specs, p: int, e: int, states: np.ndarray) -> FpMatrix:
    """Nilpotent elements of Lie(G), lane l in the Lie algebra of specs[l]
    and padded to diag(X, 0) at the largest n, drawn from states[l]
    (advanced in place).

    Each lane draws X over the upper nilradical basis; then, unless that
    basis is empty, one coin below(2); and on the lanes whose coin is 1,
    L over the lower basis and U over the upper one, after which X is
    conjugated to a X a^-1 with a = e_p(L) e_p(U).
    """
    from .expmaps import ah_exp

    size = max(spec.n for spec in specs)
    x, counts = _combination_lanes(specs, p, e, states, size)
    on = np.flatnonzero(below_lanes(states, 2, counts > 0).any(axis=1))
    if on.size:
        sub, sub_states = [specs[i] for i in on], states[on]
        combos = [_combination_lanes(sub, p, e, sub_states, size, lower)[0] for lower in (True, False)]
        states[on] = sub_states
        exps = ah_exp(FpMatrix._wrap(p, e, size, np.stack(combos)))
        inverses = _unipotent_inverse(exps)
        a = exps.lane(0) @ exps.lane(1)
        x[on] = (a @ FpMatrix._wrap(p, e, size, x[on]) @ inverses.lane(1) @ inverses.lane(0)).planes
    return FpMatrix._wrap(p, e, size, x)


def nilpotent_lanes(specs, p: int, e: int, seeds) -> FpMatrix:
    """Seeded nilpotent elements of Lie(G), one lane per (spec, seed): lane
    l is drawn by ``_nilpotent_draws`` from
    stream(seeds[l], "nilpotent/<kind>/<n>/<p>/<e>/any") of specs[l]."""
    labels = [f"nilpotent/{spec.kind}/{spec.n}/{p}/{e}/any" for spec in specs]
    return _nilpotent_draws(specs, p, e, stream_lanes(seeds, labels))


_SAMPLE_CAP = 3000


def _jordan_type_satisfiable(kind: str, n: int, t: JordanType) -> bool:
    if t.n != n:
        return False
    if kind in ("GL", "SL"):
        return True
    mult = {}
    for part in t.partition:
        mult[part] = mult.get(part, 0) + 1
    if kind == "Sp":
        return all(mult[part] % 2 == 0 for part in mult if part % 2 == 1)
    return all(mult[part] % 2 == 0 for part in mult if part % 2 == 0)


def random_nilpotent(
    spec: GroupSpec,
    jordan_type: JordanType | str,
    seed: int,
    p: int,
    e: int = 1,
) -> FpMatrix:
    """Seeded nilpotent element of Lie(G), optionally of a given Jordan type.

    Deterministic for fixed arguments; "any" is one lane of
    ``nilpotent_lanes``.
    """
    if jordan_type == "any":
        return nilpotent_lanes([spec], p, e, [seed]).lane(0)
    if not _jordan_type_satisfiable(spec.kind, spec.n, jordan_type):
        raise DomainError(
            f"Jordan type {jordan_type.partition} is not realizable in {spec.kind}_{spec.n}"
        )
    type_label = ",".join(map(str, jordan_type.partition))
    st = stream(seed, f"nilpotent/{spec.kind}/{spec.n}/{p}/{e}/{type_label}")
    if spec.kind in ("GL", "SL"):
        x0 = jordan_nilpotent(jordan_type, p, e)
        g = random_invertible(p, e, spec.n, st)
        return g @ x0 @ linalg.inv(g)
    for _ in range(_SAMPLE_CAP):
        x = _on_stream(st, lambda states: _nilpotent_draws([spec], p, e, states)).lane(0)
        if jordan_type_of(x) == jordan_type:
            return x
    raise DomainError(
        f"could not realize Jordan type {jordan_type.partition} in {spec.kind}_{spec.n}"
    )


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

"""Classical matrix groups over F_{p^e}: GL, SL, SO, Sp.

Covers nilpotent generation by Jordan type, group / Lie algebra
membership for the classical forms, nilpotent order, exact centralizer
computation, and seeded random sampling of nilpotents and group
elements.  SO and Sp preserve a fixed antidiagonal form, so the
strictly upper triangular part of each Lie algebra is a nilpotent
subalgebra we can sample from directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import DomainError
from .gf import _check_field_params, _field_mul, field_modulus, inverse_coords
from .matrices import FpMatrix, _lin_comb, _mat_mul_planes
from .rng import Stream, below_lanes, stream

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


def nilpotency_degree(x: FpMatrix) -> int:
    """Least d >= 1 with x^d = 0; DomainError when x is not nilpotent."""
    return len(nilpotent_powers(x))


def nilpotent_order(x: FpMatrix) -> int:
    """Least m with x^(p^m) = 0 (0 iff x = 0); DomainError if not nilpotent."""
    d = nilpotency_degree(x)
    m = 0
    while x.p ** m < d:  # x^k = 0 exactly when k >= d
        m += 1
    return m


def unipotent_order_exponent(u: FpMatrix) -> int:
    """Least j with u^(p^j) = identity; DomainError if u is not unipotent."""
    ident = FpMatrix.identity(u.p, u.e, u.n)
    nilpotent_powers(u - ident, message="matrix is not unipotent")
    j = 0
    y = u
    while y != ident:
        y = y ** u.p
        j += 1
    return j


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


def random_matrix(p: int, e: int, n: int, st: Stream) -> FpMatrix:
    """Seeded matrix with uniform entries: one lane of ``_matrix_lanes``."""
    states = np.array([st.state], dtype=np.uint64)
    planes = _matrix_lanes(p, e, np.array([n]), states, n)[0, 0]
    st.state = int(states[0])
    return FpMatrix._wrap(p, e, n, planes)


def random_invertible(p: int, e: int, n: int, st: Stream) -> FpMatrix:
    """Seeded uniform invertible matrix: one lane of ``invertible_lanes``."""
    states = np.array([st.state], dtype=np.uint64)
    planes = invertible_lanes(p, e, [n], states)[0]
    st.state = int(states[0])
    return FpMatrix._wrap(p, e, n, planes)


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


def _combine(basis: np.ndarray, p: int, e: int, st: Stream) -> FpMatrix:
    """sum_i s_i B_i over basis planes (k, e, n, n) with random s_i in F_{p^e}.

    The e coordinates of s_0 are drawn first, then those of s_1, and so
    on, so every seed gives the same samples as drawing one scalar per
    basis element; the sum is one contraction.
    """
    k, _, n, _ = basis.shape
    coords = np.array([st.below(p) for _ in range(k * e)], dtype=np.int64).reshape(k, e)
    return FpMatrix._wrap(p, e, n, _lin_comb(coords, basis, p, field_modulus(p, e)))


def random_group_element(spec: GroupSpec, p: int, e: int, st: Stream) -> FpMatrix:
    """A pseudo-random element of G(F_{p^e}).

    GL/SL use rejection-sampled invertible matrices (SL rescales one row
    by 1/det); SO/Sp multiply exponentials of nilradical elements from
    both triangles.
    """
    if spec.kind == "GL":
        return random_invertible(p, e, spec.n, st)
    if spec.kind == "SL":
        g = random_invertible(p, e, spec.n, st)
        d_inv = inverse_coords(p, e, linalg.det(g))
        planes = g.planes.copy()
        planes[:, 0, :] = _field_mul(d_inv, planes[:, 0, :], p, g._mod, np.multiply)
        return FpMatrix(p, e, planes)
    from .expmaps import ah_exp

    upper = _nilradical_planes(spec.kind, spec.n, p, e)
    lower = _nilradical_planes(spec.kind, spec.n, p, e, lower=True)
    g = FpMatrix.identity(p, e, spec.n)
    for basis in (upper, lower, upper):
        if len(basis):
            g = g @ ah_exp(_combine(basis, p, e, st))
    return g


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

    Deterministic for fixed arguments.
    """
    type_label = "any" if jordan_type == "any" else ",".join(map(str, jordan_type.partition))
    st = stream(seed, f"nilpotent/{spec.kind}/{spec.n}/{p}/{e}/{type_label}")
    if jordan_type != "any":
        if not _jordan_type_satisfiable(spec.kind, spec.n, jordan_type):
            raise DomainError(
                f"Jordan type {jordan_type.partition} is not realizable in {spec.kind}_{spec.n}"
            )
        if spec.kind in ("GL", "SL"):
            x0 = jordan_nilpotent(jordan_type, p, e)
            g = random_invertible(p, e, spec.n, st)
            return g @ x0 @ linalg.inv(g)
        for _ in range(_SAMPLE_CAP):
            x = _sample_lie_nilpotent(spec, p, e, st)
            if jordan_type_of(x) == jordan_type:
                return x
        raise DomainError(
            f"could not realize Jordan type {jordan_type.partition} in {spec.kind}_{spec.n}"
        )
    return _sample_lie_nilpotent(spec, p, e, st)


def _sample_lie_nilpotent(spec: GroupSpec, p: int, e: int, st: Stream) -> FpMatrix:
    basis = _nilradical_planes(spec.kind, spec.n, p, e)
    if not len(basis):
        return FpMatrix.zeros(p, e, spec.n)
    x = _combine(basis, p, e, st)
    if st.below(2):
        from .expmaps import ah_exp

        lower = _nilradical_planes(spec.kind, spec.n, p, e, lower=True)
        a = ah_exp(_combine(lower, p, e, st)) if len(lower) else FpMatrix.identity(p, e, spec.n)
        b = ah_exp(_combine(basis, p, e, st))
        inverses = _unipotent_inverse(FpMatrix._wrap(p, e, spec.n, np.stack([a.planes, b.planes])))
        x = a @ b @ x @ inverses.lane(1) @ inverses.lane(0)
    return x


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

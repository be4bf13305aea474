"""Dense square matrices over F_{p^e} with exact arithmetic.

Entries are stored as ``e`` integer coefficient planes, each an (n, n)
int64 array reduced into [0, p).  The bounds p < 2^16 and n <= MAX_DIM
keep every intermediate sum in int64 before reduction (see
``gf.PRIME_BOUND``), so all arithmetic is exact.  The plane kernels below
take stacks of matrices as well; matrices are immutable once constructed.

An FpMatrix whose planes carry a leading batch axis, (B, e, n, n), is a
stack of B matrices (lanes), as the lane samplers return.  Sums, products,
integer scaling, Frobenius, powers, the power walk and the series maps
built on it act lane by lane, broadcasting a single matrix against every
lane; ``lane(i)`` and ``lanes_equal`` read lanes back out.  JSON is for
single matrices.
"""

from __future__ import annotations

import json
from itertools import groupby

import numpy as np

from .errors import DomainError
from .gf import (
    MAX_DIM, _check_field_params, _field_mul, _frobenius, field_modulus, is_json_int, scalar_from_json,
)


def _mat_mul_planes(a, b, p, mod):
    """Product of plane arrays (..., e, n, m) and (..., e, m, k); leading
    batch dimensions broadcast."""
    if mod is None:
        prod = np.matmul(a, b)
        prod %= p  # in place: a batch holds one product array, not two
        return prod
    planes = _field_mul((a[..., 0, :, :], a[..., 1, :, :]), (b[..., 0, :, :], b[..., 1, :, :]),
                        p, mod, np.matmul)
    return np.stack(planes, axis=-3)


class FpMatrix:
    """An n x n matrix over F_{p^e}."""

    __slots__ = ("p", "e", "n", "planes")

    def __init__(self, p: int, e: int, planes):
        _check_field_params(p, e)
        planes = np.asarray(planes, dtype=np.int64)
        if planes.ndim == 2:
            planes = planes[np.newaxis, :, :]
        if planes.ndim != 3 or planes.shape[0] != e or planes.shape[1] != planes.shape[2]:
            raise ValueError(f"expected ({e}, n, n) coefficient planes, got {planes.shape}")
        if not 1 <= planes.shape[1] <= MAX_DIM:
            raise ValueError(f"matrix dimension must be between 1 and {MAX_DIM}, got {planes.shape[1]}")
        planes = planes % p
        planes.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "n", planes.shape[1])
        object.__setattr__(self, "planes", planes)

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def _wrap(cls, p, e, n, planes):
        # fast path for arithmetic results: planes already reduced mod p
        m = object.__new__(cls)
        planes.flags.writeable = False
        object.__setattr__(m, "p", p)
        object.__setattr__(m, "e", e)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "planes", planes)
        return m

    def lane(self, i: int | list[int], n: int | None = None) -> "FpMatrix":
        """Matrix i of a stack, or its leading n x n block (a lane padded
        to the stack's size); a stack of them for a list of indices i."""
        if n is None or n == self.n:
            return FpMatrix._wrap(self.p, self.e, self.n, self.planes[i])
        return FpMatrix._wrap(self.p, self.e, n, np.ascontiguousarray(self.planes[i, :, :n, :n]))

    def lanes_equal(self, other: "FpMatrix") -> np.ndarray:
        """Boolean per lane: whether the two (stacked) matrices agree there."""
        self._check_match(other)
        return (self.planes == other.planes).all(axis=(-3, -2, -1))

    @property
    def _mod(self):
        return field_modulus(self.p, self.e)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, p: int, e: int, n: int) -> "FpMatrix":
        planes = np.zeros((e, n, n), dtype=np.int64)
        planes[0] = np.eye(n, dtype=np.int64)
        return cls(p, e, planes)

    @classmethod
    def from_rows(cls, p: int, e: int, rows) -> "FpMatrix":
        """Build from nested lists of ints (lifted from Z) or coordinate tuples."""
        n = len(rows)
        planes = np.zeros((e, n, n), dtype=np.int64)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix rows must all have length n")
            for j, v in enumerate(row):
                if isinstance(v, int):
                    coords = (v,) + (0,) * (e - 1)
                else:
                    coords = tuple(v)
                    if len(coords) != e:
                        raise ValueError(f"entry {v!r} has wrong coordinate count")
                for k, c in enumerate(coords):
                    planes[k, i, j] = c % p
        return cls(p, e, planes)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.planes.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (
            (self.p, self.e, self.n) == (other.p, other.e, other.n)
            and np.array_equal(self.planes, other.planes)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.n, self.planes.tobytes()))

    def __repr__(self):
        if self.e == 1:
            return f"FpMatrix(p={self.p}, {self.planes[0].tolist()})"
        return f"FpMatrix(p={self.p}, e=2, planes={self.planes.tolist()})"

    def _check_match(self, other: "FpMatrix") -> None:
        if (self.p, self.e, self.n) != (other.p, other.e, other.n):
            raise ValueError("matrix shape/field mismatch")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_match(other)
        return FpMatrix._wrap(self.p, self.e, self.n, (self.planes + other.planes) % self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_match(other)
        return FpMatrix._wrap(self.p, self.e, self.n, (self.planes - other.planes) % self.p)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix._wrap(self.p, self.e, self.n, (-self.planes) % self.p)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_match(other)
        return FpMatrix._wrap(
            self.p, self.e, self.n, _mat_mul_planes(self.planes, other.planes, self.p, self._mod)
        )

    def __pow__(self, k: int) -> "FpMatrix":
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = FpMatrix.identity(self.p, self.e, self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def scale(self, s) -> "FpMatrix":
        """Multiply by a scalar: an int, or the coordinate tuple of an element."""
        if isinstance(s, int):
            return FpMatrix._wrap(self.p, self.e, self.n, (s % self.p * self.planes) % self.p)
        if len(s) != self.e:
            raise ValueError(f"scalar {s!r} does not have {self.e} coordinates")
        s = tuple(x % self.p for x in s)
        coords = tuple(self.planes[..., k, :, :] for k in range(self.e))  # lane by lane
        return FpMatrix._wrap(
            self.p, self.e, self.n,
            np.stack(_field_mul(s, coords, self.p, self._mod, np.multiply), axis=-3),
        )

    def transpose(self) -> "FpMatrix":
        return FpMatrix._wrap(self.p, self.e, self.n, self.planes.swapaxes(-1, -2).copy())

    def frobenius_entries(self) -> "FpMatrix":
        """Apply x -> x^p to every entry (identity when e=1)."""
        coords = tuple(self.planes[..., k, :, :] for k in range(self.e))  # lane by lane
        planes = np.stack(_frobenius(coords, self.p, self._mod), axis=-3)
        return FpMatrix._wrap(self.p, self.e, self.n, planes)

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> dict:
        if self.e == 1:
            entries = self.planes[0].tolist()
        else:
            entries = [
                [[int(self.planes[0, i, j]), int(self.planes[1, i, j])] for j in range(self.n)]
                for i in range(self.n)
            ]
        return {"p": self.p, "e": self.e, "n": self.n, "entries": entries}

    @classmethod
    def from_json_obj(cls, obj) -> "FpMatrix":
        if not isinstance(obj, dict):
            raise ValueError("matrix JSON must be an object")
        for key in ("p", "e", "n", "entries"):
            if key not in obj:
                raise ValueError(f"matrix JSON missing key {key!r}")
        p, e, n, entries = obj["p"], obj["e"], obj["n"], obj["entries"]
        if not (is_json_int(p) and is_json_int(e) and is_json_int(n)):
            raise ValueError("matrix JSON p, e, n must be integers")
        if not (isinstance(entries, list) and len(entries) == n):
            raise ValueError(f"matrix JSON needs {n} rows of entries")
        rows = []
        for i, row in enumerate(entries):
            if not (isinstance(row, list) and len(row) == n):
                raise ValueError(f"matrix JSON row {i} must have {n} entries")
            rows.append([scalar_from_json(p, e, v) for v in row])
        return cls.from_rows(p, e, rows)

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())


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


def _runs(items) -> list[tuple[object, int]]:
    """(item, run length) for each run of one object in a lane list, so
    per-item work is done once per run, not once per lane."""
    return [(run[0], len(run)) for run in (list(g) for _, g in groupby(items, key=id))]


def load_matrix(path: str) -> FpMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc
    try:
        return FpMatrix.from_json_obj(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

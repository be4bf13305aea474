"""Symbolic Witt sum polynomials, the test reference for ``witt_add``.

The integral sum polynomials S_0, ..., S_{m-1} are solved from the ghost
identity w_n(S_0, ..., S_n) = w_n(a) + w_n(b), with
w_n(x) = sum_{i<=n} p^i x_i^(p^(n-i)), over Z, one n at a time.  The
runtime law in ``ahspringer.witt`` solves the same recursion numerically
from ghost components; this module shares no code with the package (it
imports nothing from it), so agreement between the two is evidence.
"""

from functools import lru_cache

MAX_LENGTH = 3  # the length cap of the runtime law


class ZPoly:
    """Multivariate polynomial with integer coefficients.

    ``terms`` maps exponent tuples (one slot per variable) to nonzero
    integer coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[tuple(mono)] = self.terms.get(tuple(mono), 0) + c
            self.terms = {m: c for m, c in self.terms.items() if c}

    @classmethod
    def const(cls, nvars: int, c: int) -> "ZPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, index: int) -> "ZPoly":
        mono = [0] * nvars
        mono[index] = 1
        return cls(nvars, {tuple(mono): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return f"ZPoly({self.nvars}, {self.terms!r})"

    def __add__(self, other: "ZPoly") -> "ZPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return ZPoly(self.nvars, out)

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) - c
        return ZPoly(self.nvars, out)

    def __neg__(self) -> "ZPoly":
        return ZPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(x + y for x, y in zip(m1, m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return ZPoly(self.nvars, out)

    def __rmul__(self, k: int) -> "ZPoly":
        return ZPoly(self.nvars, {m: k * c for m, c in self.terms.items()})

    def __pow__(self, k: int) -> "ZPoly":
        result = ZPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def exact_div(self, k: int) -> "ZPoly":
        out = {}
        for mono, c in self.terms.items():
            q, r = divmod(c, k)
            if r:
                raise ArithmeticError(f"coefficient {c} not divisible by {k}")
            out[mono] = q
        return ZPoly(self.nvars, out)

    def reduce_mod(self, p: int) -> "ZPoly":
        return ZPoly(self.nvars, {m: c % p for m, c in self.terms.items()})

    def eval(self, values, lift):
        """Evaluate at ring elements supporting * and +; lift(c) is the
        integer c as a ring element."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        # power cache per variable
        maxdeg = [0] * self.nvars
        for mono in self.terms:
            for i, k in enumerate(mono):
                maxdeg[i] = max(maxdeg[i], k)
        pows = []
        for i, v in enumerate(values):
            col = [lift(1)]
            for _ in range(maxdeg[i]):
                col.append(col[-1] * v)
            pows.append(col)
        total = lift(0)
        for mono, c in self.terms.items():
            term = lift(c)
            for i, k in enumerate(mono):
                if k:
                    term = term * pows[i][k]
            total = total + term
        return total


def _ghost(nvars: int, var_indices, p: int, n: int) -> ZPoly:
    # w_n(x) = sum_{i<=n} p^i x_i^(p^(n-i))
    acc = ZPoly(nvars, {})
    for i in range(n + 1):
        acc = acc + (p ** i) * (ZPoly.var(nvars, var_indices[i]) ** (p ** (n - i)))
    return acc


@lru_cache(maxsize=None)
def witt_sum_polys(p: int, m: int) -> tuple[ZPoly, ...]:
    """The integral sum polynomials S_0..S_{m-1} in a_0..a_{m-1}, b_0..b_{m-1}.

    Variables 0..m-1 are the a-coordinates, m..2m-1 the b-coordinates.
    """
    if m < 1:
        raise ValueError("length must be >= 1")
    if m > MAX_LENGTH:
        raise ValueError(f"Witt length {m} unsupported (max {MAX_LENGTH})")
    nvars = 2 * m
    avars = list(range(m))
    bvars = list(range(m, 2 * m))
    polys: list[ZPoly] = []
    for n in range(m):
        rhs = _ghost(nvars, avars, p, n) + _ghost(nvars, bvars, p, n)
        for i in range(n):
            rhs = rhs - (p ** i) * (polys[i] ** (p ** (n - i)))
        polys.append(rhs.exact_div(p ** n))
    return tuple(polys)

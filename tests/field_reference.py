"""Plain-integer F_p and F_{p^2} arithmetic, the test oracle for field
computations.

An ``Elem`` is a + b*w with integer coordinates reduced mod p, where w is
a root of the first monic irreducible quadratic x^2 + B*x + C over F_p in
lexicographic order on (B, C) -- the presentation the package documents.
This module finds that quadratic by its own test (Euler's criterion on
the discriminant) and shares no code with the package: it imports
nothing from it, so agreement between the two is evidence.
"""

from functools import lru_cache
from itertools import product


@lru_cache(maxsize=None)
def first_irreducible_quadratic(p: int) -> tuple[int, int]:
    """(B, C) of the first monic irreducible x^2 + B*x + C over F_p.

    For odd p a monic quadratic is irreducible exactly when its
    discriminant B^2 - 4C is a non-square, i.e. (B^2 - 4C)^((p-1)/2) = -1;
    over F_2 the only irreducible quadratic is x^2 + x + 1.
    """
    if p == 2:
        return (1, 1)
    for b, c in product(range(p), repeat=2):
        if pow(b * b - 4 * c, (p - 1) // 2, p) == p - 1:
            return (b, c)
    raise AssertionError(f"no irreducible quadratic over F_{p}")


class Elem:
    """An element of F_{p^e}, e in {1, 2}, with the usual operators."""

    __slots__ = ("p", "e", "coords")

    def __init__(self, p: int, e: int, coords):
        coords = tuple(int(x) % p for x in coords)
        if len(coords) != e:
            raise ValueError(f"expected {e} coordinates, got {len(coords)}")
        self.p, self.e, self.coords = p, e, coords

    @classmethod
    def lift(cls, p: int, e: int, k: int) -> "Elem":
        """The image of the integer k."""
        return cls(p, e, (k,) + (0,) * (e - 1))

    def _new(self, coords) -> "Elem":
        return Elem(self.p, self.e, coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Elem) and (self.p, self.e, self.coords) == (
            other.p, other.e, other.coords)

    def __hash__(self):
        return hash((self.p, self.e, self.coords))

    def __repr__(self):
        return f"Elem({self.p}, {self.e}, {self.coords})"

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "Elem") -> "Elem":
        return self._new(x + y for x, y in zip(self.coords, other.coords))

    def __sub__(self, other: "Elem") -> "Elem":
        return self._new(x - y for x, y in zip(self.coords, other.coords))

    def __neg__(self) -> "Elem":
        return self._new(-x for x in self.coords)

    def __mul__(self, other: "Elem") -> "Elem":
        if self.e == 1:
            return self._new((self.coords[0] * other.coords[0],))
        # (a0 + a1 w)(b0 + b1 w) with w^2 = -B w - C
        (a0, a1), (b0, b1) = self.coords, other.coords
        big_b, big_c = first_irreducible_quadratic(self.p)
        return self._new((a0 * b0 - big_c * a1 * b1, a0 * b1 + a1 * b0 - big_b * a1 * b1))

    def __pow__(self, k: int) -> "Elem":
        if k < 0:
            return self.inverse() ** -k
        result = Elem.lift(self.p, self.e, 1)
        for bit in bin(k)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def inverse(self) -> "Elem":
        """a^(q - 2) for q = p^e, by Lagrange; ZeroDivisionError for 0."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.p ** self.e - 2)


def elements(p: int, e: int):
    """Every element of F_{p^e}, coordinates in lexicographic order."""
    return [Elem(p, e, c) for c in product(range(p), repeat=e)]

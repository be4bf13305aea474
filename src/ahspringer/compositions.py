"""Block compositions of n and the standard parabolics of GL_n they give.

A composition (b_1, ..., b_r) of n determines the block-upper-triangular
subgroup P of GL_n.  The i-th term of the lower central series of its
nilradical u_P is spanned by the matrix units at least i blocks above
the diagonal, so the nilpotence class is r - 1, and P is restricted when
that is below p.  Everything here is integer bookkeeping without numpy,
so ``parabolic class`` runs without it; the matrices of P live in
``parabolic``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import MAX_DIM, _check_field_params


@dataclass(frozen=True)
class Composition:
    """Ordered positive block sizes."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        if not blocks:
            raise ValueError("a composition needs at least one block")
        if any(b <= 0 for b in blocks):
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        try:
            return cls(tuple(int(s) for s in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad composition {text!r}: {exc}") from exc


@dataclass(frozen=True)
class ParabolicGL:
    """A standard parabolic of GL_n over F_{p^e}."""

    comp: Composition
    p: int
    e: int = 1

    def __post_init__(self):
        _check_field_params(self.p, self.e)
        if self.n > MAX_DIM:
            raise ValueError(f"matrix dimension must be between 1 and {MAX_DIM}, got {self.n}")

    @property
    def n(self) -> int:
        return self.comp.n

    def block_index(self) -> tuple[int, ...]:
        """block_index()[i] = which block row/column i belongs to."""
        out = []
        for b, size in enumerate(self.comp.blocks):
            out.extend([b] * size)
        return tuple(out)


def nilpotence_class(par: ParabolicGL) -> int:
    """Length of the lower central series of u_P: r - 1 for r blocks."""
    return len(par.comp.blocks) - 1


def is_restricted(par: ParabolicGL) -> bool:
    """Whether the nilpotence class of U_P is below p."""
    return nilpotence_class(par) < par.p


def restricted_compositions(n: int, p: int):
    """All compositions of n whose parabolic is restricted (r - 1 < p)."""
    def parts(total, maxblocks):
        if total == 0:
            yield ()
            return
        if maxblocks == 0:
            return
        for first in range(1, total + 1):
            for rest in parts(total - first, maxblocks - 1):
                yield (first,) + rest

    return [Composition(c) for c in parts(n, p)]

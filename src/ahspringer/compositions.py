"""Block compositions of n and the standard parabolics of GL_n they give.

A composition (b_1, ..., b_r) of n determines the block-upper-triangular
subgroup P of GL_n.  The i-th term of the lower central series of its
nilradical u_P is spanned by the matrix units at least i blocks above
the diagonal, so the nilpotence class is r - 1, and P is restricted when
that is below p.  Everything here is integer bookkeeping without numpy,
so ``parabolic class`` runs without it; eps_P lives in ``parabolic``
and the samplers of P and u_P in ``groups``.
"""

from __future__ import annotations

from .gf import MAX_DIM, _check_field_params, _Frozen


class Composition(_Frozen):
    """Ordered positive block sizes, and n, their sum."""

    __slots__ = ("blocks", "n")
    _fields = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        blocks = tuple(int(b) for b in blocks)
        if not blocks:
            raise ValueError("a composition needs at least one block")
        if any(b <= 0 for b in blocks):
            raise ValueError("block sizes must be positive")
        self._freeze(blocks)
        object.__setattr__(self, "n", sum(blocks))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        try:
            return cls(tuple(int(s) for s in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad composition {text!r}: {exc}") from exc


class ParabolicGL(_Frozen):
    """A standard parabolic of GL_n over F_{p^e}, n = comp.n."""

    __slots__ = ("comp", "p", "e", "n")
    _fields = ("comp", "p", "e")

    def __init__(self, comp: Composition, p: int, e: int = 1):
        _check_field_params(p, e)
        if comp.n > MAX_DIM:
            raise ValueError(f"matrix dimension must be between 1 and {MAX_DIM}, got {comp.n}")
        self._freeze(comp, p, e)
        object.__setattr__(self, "n", comp.n)

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

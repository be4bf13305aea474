"""Parabolic subgroup tests: nilradicals, classes, the block exponential."""

from collections import namedtuple
from itertools import product

import numpy as np
import pytest

from ahspringer import linalg
from ahspringer.compositions import (
    Composition,
    ParabolicGL,
    is_restricted,
    nilpotence_class,
    restricted_compositions,
)
from ahspringer.errors import DomainError
from ahspringer.expmaps import ah_exp, bch, truncated_log
from ahspringer.groups import JordanType, jordan_nilpotent, nilradical_basis, p_elements, radical_elements
from ahspringer.matrices import FpMatrix, _runs
from ahspringer.parabolic import _support_mask, eps_p, in_nilradical
from ahspringer.rng import stream
from linalg_reference import rref_reference


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def p_element(par, seed):
    """One seeded element of P: a stack of one lane."""
    return p_elements([par], [seed]).lane(0)


def radical_element(par, seed, index=0):
    """One seeded element of u_P: a stack of one lane."""
    return radical_elements([par], [seed], index).lane(0)


def span_basis(mats):
    """Reduce a list of matrices to a basis of their span (rref rows)."""
    if not mats:
        return []
    p, e, n = mats[0].p, mats[0].e, mats[0].n
    stacked = np.stack([m.planes.reshape(e, n * n) for m in mats], axis=1)
    r_mat, pivots = rref_reference(stacked, p, e)
    return [FpMatrix(p, e, r_mat[:, i, :].reshape(e, n, n)) for i in range(len(pivots))]


def test_span_basis_removes_dependence():
    a = FpMatrix.from_rows(3, 1, [[1, 0], [0, 0]])
    b = FpMatrix.from_rows(3, 1, [[2, 0], [0, 0]])
    c = FpMatrix.from_rows(3, 1, [[0, 1], [0, 0]])
    assert len(span_basis([a, b, c])) == 2
    assert span_basis([]) == []


def bracket_span_class(par):
    """Reference class: iterate Lie brackets of u_P with the current term
    of the lower central series until the span dies."""
    basis = [FpMatrix(par.p, par.e, b) for b in nilradical_basis(par)]
    current = span_basis(basis)
    cls = 0
    while current:
        cls += 1
        brackets = []
        for a in current:
            for b in basis:
                c = a @ b - b @ a
                if not c.is_zero():
                    brackets.append(c)
        current = span_basis(brackets)
    return cls


class TestComposition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Composition(())
        with pytest.raises(ValueError):
            Composition((2, 0))
        assert Composition((2, 1)).n == 3

    def test_parse(self):
        assert Composition.parse("2,1").blocks == (2, 1)
        with pytest.raises(ValueError):
            Composition.parse("2,x")

    def test_value_contract(self):
        # what the frozen dataclasses gave: equality and hash by the fields
        # within the one class, no assignment, a field-by-field repr
        comp, par = Composition(["2", 1.0]), ParabolicGL(Composition((2, 1)), 3, e=2)
        assert comp == Composition((2, 1)) and hash(comp) == hash(Composition((2, 1)))
        assert par == ParabolicGL(comp, 3, 2) and hash(par) == hash(ParabolicGL(comp, 3, 2))
        assert hash(comp) == hash(((2, 1),)) and hash(par) == hash((comp, 3, 2))  # the dataclasses' hashes
        assert (comp.n, par.n) == (3, 3)
        assert par != ParabolicGL(comp, 3) and comp != Composition((1, 2))
        assert comp != ((2, 1),) and comp != namedtuple("Composition", "blocks")((2, 1))
        assert par != (comp, 3, 2) and par != namedtuple("ParabolicGL", "comp p e")(comp, 3, 2)
        for value, names in ((comp, ("blocks", "n", "other")), (par, ("comp", "p", "e", "n", "other"))):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(value, name, 0)
        assert repr(comp) == "Composition(blocks=(2, 1))"
        assert repr(par) == "ParabolicGL(comp=Composition(blocks=(2, 1)), p=3, e=2)"
        for make, message in (
            (lambda: Composition(()), "a composition needs at least one block"),
            (lambda: Composition((2, 0)), "block sizes must be positive"),
            (lambda: Composition.parse("2,x"), "bad composition '2,x': invalid literal for int() with base 10: 'x'"),
            (lambda: ParabolicGL(comp, 4), "p must be prime, got 4"),
            (lambda: ParabolicGL(comp, 3, 3), "extension degree must be 1 or 2, got 3"),
            (lambda: ParabolicGL(Composition((64, 65)), 2), "matrix dimension must be between 1 and 128, got 129"),
        ):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == message

    def test_hash_is_kept_from_construction(self, monkeypatch):
        # a cache keyed on a parabolic hashes it without hashing its fields
        par = ParabolicGL(Composition((3, 2, 1)), 5)
        same, key = ParabolicGL(par.comp, 5), hash(par)
        calls = []
        monkeypatch.setattr(Composition, "__hash__", lambda comp: calls.append(comp) or 0)
        nilradical_basis(par)
        _support_mask(par, 6)
        assert hash(par) == key and {par: 1}[same] == 1
        assert calls == []


class TestNilradical:
    def test_full_group_is_empty(self):
        par = ParabolicGL(Composition((4,)), 3)
        assert nilradical_basis(par).shape == (0, 1, 4, 4)

    def test_two_one_blocks(self):
        par = ParabolicGL(Composition((2, 1)), 3)
        basis = nilradical_basis(par)
        positions = [tuple(int(v) for v in divmod(int(b[0].argmax()), 3)) for b in basis]
        assert positions == [(0, 2), (1, 2)]
        assert not basis.flags.writeable

    def test_borel(self):
        par = ParabolicGL(Composition((1, 1, 1)), 3)
        assert len(nilradical_basis(par)) == 3

    def test_an_equal_parabolic_hits_the_cache(self):
        first = nilradical_basis(ParabolicGL(Composition((3, 1, 2)), 7))
        before = nilradical_basis.cache_info()
        assert nilradical_basis(ParabolicGL(Composition((3, 1, 2)), 7)) is first
        after = nilradical_basis.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 2)])
    def test_support_mask_is_the_basis_support(self, p, e):
        for n in range(1, 7):
            for blocks in compositions(n):
                par = ParabolicGL(Composition(blocks), p, e)
                mask = _support_mask(par, 7)
                assert (mask[:n, :n] == nilradical_basis(par).any(axis=(0, 1))).all()
                assert not mask[n:].any() and not mask[:, n:].any()

    def test_membership(self):
        par = ParabolicGL(Composition((2, 1)), 3)
        x = FpMatrix.from_rows(3, 1, [[0, 0, 1], [0, 0, 2], [0, 0, 0]])
        assert in_nilradical(par, x)
        y = FpMatrix.from_rows(3, 1, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert not in_nilradical(par, y)  # inside the (2) block


class TestNilpotenceClass:
    def test_examples(self):
        assert nilpotence_class(ParabolicGL(Composition((4,)), 3)) == 0
        assert nilpotence_class(ParabolicGL(Composition((1, 1, 1)), 3)) == 2
        assert nilpotence_class(ParabolicGL(Composition((2, 1)), 2)) == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_closed_form_r_minus_one(self, p):
        def comps(total):
            if total == 0:
                yield ()
                return
            for first in range(1, total + 1):
                for rest in comps(total - first):
                    yield (first,) + rest

        for n in (2, 3, 4, 5):
            for blocks in comps(n):
                par = ParabolicGL(Composition(blocks), p)
                assert nilpotence_class(par) == len(blocks) - 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_closed_form_matches_the_bracket_span(self, p):
        for n in range(1, 8):
            for blocks in compositions(n):
                par = ParabolicGL(Composition(blocks), p)
                assert nilpotence_class(par) == bracket_span_class(par), blocks

    def test_dimension_is_bounded(self):
        assert nilpotence_class(ParabolicGL(Composition((1,) * 128), 2)) == 127
        with pytest.raises(ValueError, match="between 1 and 128"):
            ParabolicGL(Composition((64, 65)), 2)

    def test_restricted(self):
        assert not is_restricted(ParabolicGL(Composition((1, 1, 1)), 2))
        assert is_restricted(ParabolicGL(Composition((1, 1, 1)), 3))
        assert is_restricted(ParabolicGL(Composition((2, 1)), 2))

    def test_restricted_composition_listing(self):
        comps = restricted_compositions(4, 2)
        assert all(len(c.blocks) <= 2 for c in comps)
        assert Composition((4,)) in comps and Composition((3, 1)) in comps
        assert Composition((1, 1, 2)) not in comps
        assert len(restricted_compositions(4, 5)) == 8  # every composition of 4


class TestEpsP:
    def test_zero(self):
        par = ParabolicGL(Composition((2, 1)), 2)
        assert eps_p(par, FpMatrix(2, 1, np.zeros((1, 3, 3), dtype=np.int64))) == FpMatrix.identity(2, 1, 3)

    def test_abelian_radical(self):
        par = ParabolicGL(Composition((2, 1)), 2)
        x = FpMatrix.from_rows(2, 1, [[0, 0, 1], [0, 0, 1], [0, 0, 0]])
        assert eps_p(par, x) == FpMatrix.identity(2, 1, 3) + x

    def test_borel_p3(self):
        par = ParabolicGL(Composition((1, 1, 1)), 3)
        j3 = jordan_nilpotent(JordanType((3,)), 3)
        assert eps_p(par, j3) == FpMatrix.from_rows(3, 1, [[1, 1, 2], [0, 1, 1], [0, 0, 1]])

    def test_rejects_non_restricted(self):
        par = ParabolicGL(Composition((1, 1, 1)), 2)
        with pytest.raises(DomainError):
            eps_p(par, FpMatrix(2, 1, np.zeros((1, 3, 3), dtype=np.int64)))

    def test_rejects_outside_radical(self):
        par = ParabolicGL(Composition((2, 1)), 3)
        with pytest.raises(DomainError):
            eps_p(par, FpMatrix.from_rows(3, 1, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))

    def test_rejects_another_size_or_field_by_name(self):
        par = ParabolicGL(Composition((2, 1)), 3)
        for (p, e, n), message in (((3, 1, 4), "matrix is 4 x 4 but composition (2, 1) has n = 3"),
                                   ((3, 2, 3), "matrix is over F_3^2 but the parabolic is over F_3^1"),
                                   ((5, 1, 3), "matrix is over F_5^1 but the parabolic is over F_3^1")):
            x = FpMatrix(p, e, np.zeros((e, n, n), dtype=np.int64))
            assert not in_nilradical(par, x)
            with pytest.raises(ValueError) as err:
                eps_p(par, x)
            assert str(err.value) == message and not isinstance(err.value, DomainError)

    @pytest.mark.parametrize("p,blocks", [(2, (2, 1)), (3, (1, 1, 1)), (5, (2, 2, 1)), (3, (2, 2))])
    def test_bijective_on_samples(self, p, blocks):
        par = ParabolicGL(Composition(blocks), p)
        for k in range(200):
            x = radical_element(par, 9000 + k, 0)
            u = eps_p(par, x)
            assert truncated_log(u) == x
            assert in_nilradical(par, truncated_log(u))

    @pytest.mark.parametrize("p,blocks", [(2, (3, 2)), (3, (1, 2, 1)), (5, (1, 1, 1, 1))])
    def test_equivariance_on_samples(self, p, blocks):
        par = ParabolicGL(Composition(blocks), p)
        for k in range(100):
            g = p_element(par, 500 + k)
            x = radical_element(par, 600 + k, 0)
            ginv = linalg.inv(g)
            assert eps_p(par, g @ x @ ginv) == g @ eps_p(par, x) @ ginv

    @pytest.mark.parametrize("p,blocks", [(3, (1, 1, 1)), (5, (2, 1, 1)), (2, (3, 3))])
    def test_bch_homomorphism_on_samples(self, p, blocks):
        par = ParabolicGL(Composition(blocks), p)
        for k in range(100):
            x = radical_element(par, 700 + k, 0)
            y = radical_element(par, 700 + k, 1)
            assert eps_p(par, bch(x, y)) == eps_p(par, x) @ eps_p(par, y)

    @pytest.mark.parametrize("p,blocks", [(2, (4, 2)), (3, (2, 2, 2)), (5, (3, 2, 1))])
    def test_ah_exp_restricts_to_eps(self, p, blocks):
        par = ParabolicGL(Composition(blocks), p)
        for k in range(100):
            x = radical_element(par, 800 + k, 0)
            assert ah_exp(x) == eps_p(par, x)

    @pytest.mark.parametrize("p,blocks", [(3, (2, 1)), (5, (1, 2, 2))])
    def test_image_lies_in_unipotent_radical(self, p, blocks):
        # eps_P output is unipotent block-upper-triangular: identity diagonal
        # blocks, support only above them
        par = ParabolicGL(Composition(blocks), p)
        ident = FpMatrix.identity(p, 1, par.n)
        for k in range(50):
            x = radical_element(par, 850 + k, 0)
            u = eps_p(par, x)
            assert in_nilradical(par, u - ident)

    def test_extension_field_parabolic(self):
        par = ParabolicGL(Composition((2, 1)), 3, e=2)
        for k in range(30):
            x = radical_element(par, 860 + k, 0)
            u = eps_p(par, x)
            assert truncated_log(u) == x
            assert ah_exp(x) == u
        g = p_element(par, 5)
        assert linalg.det_planes(g.planes, g.p, g.e).any()
        x = radical_element(par, 861, 0)
        ginv = linalg.inv(g)
        assert eps_p(par, g @ x @ ginv) == g @ eps_p(par, x) @ ginv


class TestRandomPElement:
    def test_postconditions(self):
        par = ParabolicGL(Composition((2, 1, 2)), 3)
        g = p_element(par, 4)
        assert linalg.det_planes(g.planes, g.p, g.e).any()
        idx = par.block_index()
        for i in range(5):
            for j in range(5):
                if idx[i] > idx[j]:  # below the diagonal blocks
                    assert not g.planes[:, i, j].any()

    def test_determinism(self):
        par = ParabolicGL(Composition((2, 2)), 2)
        assert p_element(par, 11) == p_element(par, 11)
        assert p_element(par, 11) != p_element(par, 12)


# x^2 + b*x + c defining F_{p^2}, as (b, c), from the README
README_MODULI = {2: (1, 1), 3: (0, 1), 5: (0, 2), 7: (0, 1)}


def ref_det_is_zero(rows, p, e):
    """Plain Gaussian elimination over F_{p^e} on lists of coordinate tuples."""
    def mul(a, b):
        if e == 1:
            return ((a[0] * b[0]) % p,)
        mb, mc = README_MODULI[p]
        hi = a[1] * b[1]
        return ((a[0] * b[0] - mc * hi) % p, (a[0] * b[1] + a[1] * b[0] - mb * hi) % p)

    def inverse(a):
        one = (1,) + (0,) * (e - 1)
        return next(c for c in product(range(p), repeat=e) if mul(a, c) == one)

    m = [list(r) for r in rows]
    n = len(m)
    for c in range(n):
        piv = next((r for r in range(c, n) if any(m[r][c])), None)
        if piv is None:
            return True
        m[c], m[piv] = m[piv], m[c]
        inv = inverse(m[c][c])
        for r in range(c + 1, n):
            f = mul(m[r][c], inv)
            m[r] = [tuple((x - y) % p for x, y in zip(m[r][j], mul(f, m[c][j]))) for j in range(n)]
    return False


def ref_p_element(par, seed):
    """The draw order of one p_elements lane on one Stream: each diagonal
    block drawn plane by plane, row by row until it is invertible, then the
    entries above the blocks, e coordinates per position, row-major."""
    p, e, n = par.p, par.e, par.n
    st = stream(seed, f"p-element/{par.comp.blocks}/{p}/{e}")
    planes = np.zeros((e, n, n), dtype=np.int64)
    offset = 0
    for size in par.comp.blocks:
        while True:
            g = [[[st.below(p) for _ in range(size)] for _ in range(size)] for _ in range(e)]
            rows = [[tuple(g[k][i][j] for k in range(e)) for j in range(size)] for i in range(size)]
            if not ref_det_is_zero(rows, p, e):
                break
        planes[:, offset:offset + size, offset:offset + size] = g
        offset += size
    index = par.block_index()
    for i in range(n):
        for j in range(n):
            if index[i] < index[j]:
                for k in range(e):
                    planes[k, i, j] = st.below(p)
    return planes


def ref_radical_element(par, seed, index):
    p, e, n = par.p, par.e, par.n
    st = stream(seed, f"radical/{par.comp.blocks}/{p}/{e}", index)
    planes = np.zeros((e, n, n), dtype=np.int64)
    blocks = par.block_index()
    for i in range(n):
        for j in range(n):
            if blocks[i] < blocks[j]:
                for k in range(e):
                    planes[k, i, j] = st.below(p)
    return planes


class TestLaneSamplers:
    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
    def test_lanes_follow_the_one_stream_draw_order(self, p, e):
        pars = [ParabolicGL(Composition(b), p, e) for b in ((3, 1), (1, 1, 2), (4,), (2, 2), (1, 3))]
        lanes = [par for par in pars for _ in range(3)]
        seeds = list(range(100, 100 + len(lanes)))
        g = p_elements(lanes, seeds)
        x = radical_elements(lanes, seeds, 2)
        for k, (par, seed) in enumerate(zip(lanes, seeds)):
            assert (g.lane(k).planes == ref_p_element(par, seed)).all()
            assert g.lane(k) == p_element(par, seed)  # one lane alone
            assert (x.lane(k).planes == ref_radical_element(par, seed, 2)).all()
            assert x.lane(k) == radical_element(par, seed, 2)

    def test_eps_p_groups_a_stack_once(self, monkeypatch):
        # its own checks and the nilradical test share one grouping
        import ahspringer.parabolic as parabolic

        pars = [ParabolicGL(Composition(b), 5) for b in ((1, 1, 2), (2, 2), (4,)) for _ in range(3)]
        x = radical_elements(pars, range(len(pars)))
        calls = []
        monkeypatch.setattr(parabolic, "_runs", lambda items: calls.append(items) or _runs(items))
        assert eps_p(pars, x).lanes_equal(ah_exp(x)).all()
        assert calls == [pars]

    def test_eps_p_on_a_stack_is_eps_p_per_lane(self):
        pars = [ParabolicGL(Composition(b), 5) for b in ((1, 1, 2), (2, 2), (4,), (1, 1, 1, 1))]
        x = radical_elements(pars, [7, 8, 9, 10])
        u = eps_p(pars, x)
        assert all(u.lane(k) == eps_p(par, x.lane(k)) for k, par in enumerate(pars))
        assert in_nilradical(pars, x)
        # lane 2 lies in the nilradical of the Borel, not in that of (4,)
        y = radical_elements([pars[3]] * 4, [7, 8, 9, 10])
        assert not in_nilradical(pars, y)
        with pytest.raises(DomainError):
            eps_p(pars, y)


class TestMixedStacks:
    """One lane list of parabolics of n = 2..6, interleaved so that runs of
    every n sit side by side: each lane is padded to n = 6, and cropped back
    it is that parabolic's own single-n result."""

    @staticmethod
    def lanes(p, e):
        by_n = [[ParabolicGL(comp, p, e) for comp in restricted_compositions(n, p)] for n in range(2, 7)]
        mixed = [pars[i] for i in range(max(map(len, by_n))) for pars in by_n if i < len(pars)]
        return [par for par in mixed for _ in range(2)]

    @staticmethod
    def assert_padding(planes, n, one):
        """The padding of one lane: zeros beside its block, and a one (for
        diag(G, 1)) or a zero (for diag(X, 0)) on the padded diagonal."""
        size = planes.shape[-1]
        assert not planes[:, :n, n:].any() and not planes[:, n:, :n].any()
        assert not planes[1:, n:, n:].any()
        assert (planes[0, n:, n:] == one * np.eye(size - n, dtype=np.int64)).all()

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (3, 2)])
    def test_cropped_lanes_are_the_single_n_results(self, p, e):
        lanes = self.lanes(p, e)
        seeds = list(range(500, 500 + len(lanes)))
        assert [par.n for par in lanes[:10:2]] == [2, 3, 4, 5, 6]
        g, x = p_elements(lanes, seeds), radical_elements(lanes, seeds, 1)
        u = eps_p(lanes, x)
        assert g.n == x.n == u.n == 6
        assert in_nilradical(lanes, x)
        for k, (par, seed) in enumerate(zip(lanes, seeds)):
            n, own = par.n, radical_elements([par], [seed], 1).lane(0)
            assert g.lane(k, n) == p_elements([par], [seed]).lane(0)
            assert x.lane(k, n) == own
            assert u.lane(k, n) == eps_p(par, own)
            assert in_nilradical(par, x.lane(k, n))
            self.assert_padding(g.planes[k], n, 1)
            self.assert_padding(x.planes[k], n, 0)
            self.assert_padding(u.planes[k], n, 1)

    def test_a_padded_lane_outside_diag_x_0_is_not_in_the_nilradical(self):
        lanes = self.lanes(3, 1)
        x = radical_elements(lanes, range(len(lanes)))
        k = next(k for k, par in enumerate(lanes) if par.n < 6)
        bad = x.planes.copy()
        bad[k, 0, 0, 5] = 1  # above the diagonal, but in the padding
        assert not in_nilradical(lanes, FpMatrix._wrap(3, 1, 6, bad))
        with pytest.raises(DomainError):
            eps_p(lanes, FpMatrix._wrap(3, 1, 6, bad))
        with pytest.raises(ValueError, match="has n = 6"):
            eps_p(lanes, x.lane(list(range(len(lanes))), 5))

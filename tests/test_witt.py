"""Witt group tests: symbolic ghost identities, the symbolic sum polynomials
(``witt_reference``) as a reference for the runtime law, and the Z/p^m and
Teichmuller oracles."""

import ast
import random
from collections import namedtuple
from itertools import product
from pathlib import Path

import pytest

from ahspringer import witt as witt_module
from ahspringer.witt import (
    MAX_LENGTH,
    WittVector,
    witt_add,
    witt_entries_from_string,
    witt_from_integer,
    witt_neg,
    witt_order,
    witt_pow_p,
)
from field_reference import Elem, first_irreducible_quadratic
from witt_reference import ZPoly, _ghost, witt_sum_polys


def elements(p, m, e=1):
    coords = list(product(range(p), repeat=e))
    return [WittVector(p, e, m, entry) for entry in product(coords, repeat=m)]


class TestSumPolynomials:
    def test_length_one_is_plain_addition(self):
        (s0,) = witt_sum_polys(5, 1)
        assert s0 == ZPoly.var(2, 0) + ZPoly.var(2, 1)

    def test_frozen_reductions(self):
        # S_1 mod 2 = a_1 + b_1 + a_0 b_0
        s1 = witt_sum_polys(2, 2)[1].reduce_mod(2)
        assert s1.terms == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): 1}
        # S_1 mod 3 = a_1 + b_1 + 2 a_0^2 b_0 + 2 a_0 b_0^2
        s1 = witt_sum_polys(3, 2)[1].reduce_mod(3)
        assert s1.terms == {
            (0, 1, 0, 0): 1,
            (0, 0, 0, 1): 1,
            (2, 0, 1, 0): 2,
            (1, 0, 2, 0): 2,
        }

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_ghost_identity_symbolic(self, p):
        # w_n(S_0..S_n) = w_n(a) + w_n(b) identically over Z
        m = MAX_LENGTH
        polys = witt_sum_polys(p, m)
        nvars = 2 * m
        for n in range(m):
            lhs = ZPoly(nvars, {})
            for i in range(n + 1):
                lhs = lhs + (p ** i) * (polys[i] ** (p ** (n - i)))
            rhs = _ghost(nvars, list(range(m)), p, n) + _ghost(nvars, list(range(m, 2 * m)), p, n)
            assert lhs == rhs

    def test_length_cap(self):
        with pytest.raises(ValueError):
            witt_sum_polys(2, 4)
        with pytest.raises(ValueError):
            witt_sum_polys(2, 0)

    def test_exact_division_guard(self):
        with pytest.raises(ArithmeticError):
            ZPoly.const(1, 3).exact_div(2)

    def test_reference_imports_nothing_from_the_package(self):
        assert not package_imports("witt_reference.py")


def package_imports(name):
    """The imports of tests/<name> that reach into the package."""
    tree = ast.parse((Path(__file__).parent / name).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    return {name for name in imported if name.split(".")[0] in ("ahspringer", "")}


def test_field_reference_imports_nothing_from_the_package():
    assert not package_imports("field_reference.py")


def symbolic_sum(u, v):
    """u + v by evaluating the mod-p sum polynomials S_n in the plain-integer
    reference field, the reference law."""
    def lift(c):
        return Elem.lift(u.p, u.e, c)

    values = [Elem(u.p, u.e, a) for a in u.entries + v.entries]
    polys = [s.reduce_mod(u.p) for s in witt_sum_polys(u.p, u.m)]
    return WittVector(u.p, u.e, u.m, tuple(s.eval(values, lift).coords for s in polys))


def seeded_elements(p, m, e, count, seed):
    rng = random.Random(seed)
    return [WittVector(p, e, m, tuple(tuple(rng.randrange(p) for _ in range(e))
                                      for _ in range(m)))
            for _ in range(count)]


class TestSymbolicReference:
    @pytest.mark.parametrize("p,m,e", [(2, 3, 1), (3, 3, 1), (5, 2, 1), (2, 3, 2), (3, 2, 2)])
    def test_matches_sum_polynomials_exhaustive(self, p, m, e):
        els = elements(p, m, e)
        zero = WittVector.zero(p, m, e)
        for u in els:
            assert symbolic_sum(u, witt_neg(u)) == zero
            for v in els:
                assert witt_add(u, v) == symbolic_sum(u, v)

    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_sum_polynomials_sampled(self, p):
        els = seeded_elements(p, 3, 1, 40, seed=p)
        zero = WittVector.zero(p, 3)
        for u, v in zip(els, els[1:] + els[:1]):
            assert witt_add(u, v) == symbolic_sum(u, v)
            assert symbolic_sum(u, witt_neg(u)) == zero


def teichmuller_image(w):
    """sum_i p^i tau(a_i^(p^i)) in (Z/p^m)[x]/(x^2 + b x + c), tau the Teichmuller lift.

    tau(a) = a~^(q^(m-1)) for any lift a~ and q = p^e.  This map is an
    isomorphism from W_m(F_{p^e}) onto the unramified ring (Z/p^m for e = 1);
    Frobenius has order e <= 2, so a_i^(p^i) is also a_i^(p^-i).  It shares
    no code with the ghost recursion or the sum polynomials.
    """
    p, e, m = w.p, w.e, w.m
    mod = p ** m
    b, c = first_irreducible_quadratic(p) if e == 2 else (0, 0)

    def mul(x, y):
        hi = x[1] * y[1]
        return ((x[0] * y[0] - c * hi) % mod, (x[0] * y[1] + x[1] * y[0] - b * hi) % mod)

    total = (0, 0)
    for i, a in enumerate(w.entries):
        x, k, t = a + (0,) * (2 - e), p ** i * p ** (e * (m - 1)), (1, 0)
        while k:
            if k & 1:
                t = mul(t, x)
            x, k = mul(x, x), k >> 1
        total = ((total[0] + p ** i * t[0]) % mod, (total[1] + p ** i * t[1]) % mod)
    return total


class TestTeichmullerOracle:
    @pytest.mark.parametrize("p", [11, 47, 65521])
    @pytest.mark.parametrize("e", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_additive_and_negating(self, p, e, m):
        mod = p ** m
        els = seeded_elements(p, m, e, 80, seed=1000 * p + 10 * e + m)
        for u, v in zip(els, els[1:] + els[:1]):
            tu, tv = teichmuller_image(u), teichmuller_image(v)
            assert teichmuller_image(witt_add(u, v)) == tuple((x + y) % mod for x, y in zip(tu, tv))
            assert teichmuller_image(witt_neg(u)) == tuple(-x % mod for x in tu)

    @pytest.mark.parametrize("p,m,e", [(2, 3, 1), (3, 2, 1), (2, 2, 2), (3, 2, 2)])
    def test_injective_and_additive_exhaustive(self, p, m, e):
        els = elements(p, m, e)
        images = {w: teichmuller_image(w) for w in els}
        assert len(set(images.values())) == len(els)
        mod = p ** m
        for u in els:
            for v in els:
                expected = tuple((x + y) % mod for x, y in zip(images[u], images[v]))
                assert images[witt_add(u, v)] == expected

    def test_large_prime_example(self):
        u = WittVector.from_ints(47, 3, [1, 2, 3], e=2)
        v = WittVector.from_ints(47, 3, [4, 5, 6], e=2)
        total = witt_add(u, v)
        assert total == WittVector.from_ints(47, 3, [5, 35, 27], e=2)
        tu, tv = teichmuller_image(u), teichmuller_image(v)
        assert teichmuller_image(total) == tuple((x + y) % 47 ** 3 for x, y in zip(tu, tv))


class TestZpmOracle:
    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_from_integer_is_isomorphism(self, p, m):
        order = p ** m
        images = [witt_from_integer(p, m, k) for k in range(order)]
        assert len(set(images)) == order
        for a in range(order):
            for b in range(order):
                assert witt_add(images[a], images[b]) == images[(a + b) % order]

    def test_frozen_examples(self):
        assert witt_from_integer(2, 2, 0) == WittVector.zero(2, 2)
        assert witt_from_integer(2, 2, 2) == WittVector.from_ints(2, 2, [0, 1])
        assert witt_from_integer(2, 2, 3) == WittVector.from_ints(2, 2, [1, 1])

    def test_negative_integers_wrap(self):
        assert witt_from_integer(2, 2, -1) == witt_from_integer(2, 2, 3)

    @pytest.mark.parametrize("m", [2, 3])
    def test_ghost_components_at_large_prime(self, m, monkeypatch):
        # w_k(x) = sum_{i<=k} p^i x_i^(p^(k-i)) must be n mod p^(k+1), in plain ints
        p = 65521
        calls = []
        monkeypatch.setattr(witt_module, "witt_add", lambda u, v: calls.append(1) or witt_add(u, v))
        rng = random.Random(m)
        for n in [1, p - 1, p, 10**6, p ** m - 1, -1] + [rng.randrange(p ** m) for _ in range(4)]:
            calls.clear()
            x = [a for (a,) in witt_from_integer(p, m, n).entries]
            for k in range(m):
                q = p ** (k + 1)
                ghost = sum(p ** i * pow(x[i], p ** (k - i), q) for i in range(k + 1)) % q
                assert ghost == n % q
            assert calls == []


class TestGroupLaw:
    def test_frozen_additions(self):
        u = WittVector.from_ints(2, 2, [1, 0])
        assert witt_add(u, u) == WittVector.from_ints(2, 2, [0, 1])
        assert witt_add(u, WittVector.from_ints(2, 2, [1, 1])) == WittVector.zero(2, 2)

    def test_identity(self):
        for p, m in ((2, 3), (3, 2), (5, 2)):
            zero = WittVector.zero(p, m)
            for w in elements(p, m)[: p ** m]:
                assert witt_add(w, zero) == w

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_group_axioms_exhaustive(self, p, m):
        els = elements(p, m)
        zero = WittVector.zero(p, m)
        table = {}
        for u in els:
            for v in els:
                table[(u, v)] = witt_add(u, v)
        for u in els:
            assert table[(u, zero)] == u
            assert table[(u, witt_neg(u))] == zero
        for u in els:
            for v in els:
                assert table[(u, v)] == table[(v, u)]
        for u in els:
            for v in els:
                for w in els:
                    assert table[(table[(u, v)], w)] == table[(u, table[(v, w)])]

    def test_extension_field_entries(self):
        els = elements(3, 2, e=2)
        zero = WittVector.zero(3, 2, e=2)
        for w in els[:20]:
            assert witt_add(w, witt_neg(w)) == zero
            assert witt_add(w, zero) == w

    def test_neg_examples(self):
        assert witt_neg(WittVector.zero(3, 3)) == WittVector.zero(3, 3)
        assert witt_neg(WittVector.from_ints(2, 2, [1, 0])) == WittVector.from_ints(2, 2, [1, 1])
        for p in (3, 5):
            w = WittVector.from_ints(p, 2, [2, 1])
            assert witt_neg(w).entries[0] == ((-w.entries[0][0]) % p,)

    def test_parameter_mismatch(self):
        with pytest.raises(ValueError):
            witt_add(WittVector.zero(2, 2), WittVector.zero(3, 2))
        with pytest.raises(ValueError):
            witt_add(WittVector.zero(2, 2), WittVector.zero(2, 3))


class TestPowerAndOrder:
    def test_shift_formula(self):
        w = WittVector.from_ints(5, 2, [2, 3])
        assert witt_pow_p(w) == WittVector.from_ints(5, 2, [0, 2 ** 5 % 5])
        assert witt_pow_p(WittVector.zero(5, 2)) == WittVector.zero(5, 2)

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_pfold_sum_equals_pow_p_exhaustive(self, p, m):
        zero = WittVector.zero(p, m)
        for w in elements(p, m):
            acc = zero
            for _ in range(p):
                acc = witt_add(acc, w)
            assert acc == witt_pow_p(w)

    def test_pfold_sum_over_extension_field(self):
        for w in elements(2, 2, e=2)[:10]:
            assert witt_add(w, w) == witt_pow_p(w)

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
    def test_order_matches_brute_force_and_leading_entry(self, p, m):
        zero = WittVector.zero(p, m)
        for w in elements(p, m):
            # brute force: least k >= 1 with k*w = 0
            acc = w
            k = 1
            while acc != zero:
                acc = witt_add(acc, w)
                k += 1
            assert witt_order(w) == k
            lead = next((i for i, a in enumerate(w.entries) if any(a)), None)
            assert witt_order(w) == (1 if lead is None else p ** (m - lead))

    def test_order_examples(self):
        assert witt_order(WittVector.zero(3, 2)) == 1
        assert witt_order(WittVector.from_ints(3, 2, [1, 0])) == 9
        assert witt_order(WittVector.from_ints(3, 2, [0, 1])) == 3


class TestParsingAndEncoding:
    def test_parse(self):
        w = witt_entries_from_string(2, 3, "1,0,1")
        assert w == WittVector.from_ints(2, 3, [1, 0, 1])
        assert str(w) == "1,0,1"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            witt_entries_from_string(2, 2, "1")
        with pytest.raises(ValueError):
            witt_entries_from_string(2, 2, "1,x")

    def test_json(self):
        w = WittVector.from_ints(3, 2, [2, 1])
        assert w.to_json() == [2, 1]
        w2 = WittVector(3, 2, 2, ((1, 2), (0, 1)))
        assert w2.to_json() == [[1, 2], [0, 1]]
        assert str(w2) == "(1+2w),(0+1w)"

    def test_from_integer_requires_base_field(self):
        # the oracle map is only defined over F_p itself
        w = witt_from_integer(3, 2, 4)
        assert w.e == 1


class TestValidation:
    def test_entry_count_and_field_mismatch(self):
        with pytest.raises(ValueError):
            WittVector(2, 1, 2, ((1,),))
        with pytest.raises(ValueError):
            WittVector(2, 1, 2, ((1,), (1, 0)))  # an F_{p^2} entry in W(F_p)
        with pytest.raises(ValueError):
            WittVector.from_ints(2, 4, [0, 0, 0, 0])  # length cap

    def test_value_contract(self):
        # what the frozen dataclass gave: equality and hash by the reduced
        # fields within the one class, no assignment, a field-by-field repr
        w = WittVector(3, 2, 2, ((4, 2), (0, 7)))
        same = WittVector(p=3, e=2, m=2, entries=((1, 2), (0, 1)))
        assert w == same and hash(w) == hash(same) and w is not same
        assert hash(w) == hash((3, 2, 2, ((1, 2), (0, 1))))  # the dataclass's hash, kept from construction
        assert {w: 1}[same] == 1
        assert w != WittVector(3, 2, 2, ((1, 2), (0, 2)))
        fields = (3, 2, 2, ((1, 2), (0, 1)))
        assert w != fields and w != namedtuple("WittVector", "p e m entries")(*fields)
        for name in ("p", "e", "m", "entries", "other"):
            with pytest.raises(AttributeError):
                setattr(w, name, 0)
        assert repr(w) == "WittVector(p=3, e=2, m=2, entries=((1, 2), (0, 1)))"
        for args, message in (((4, 1, 1, ((0,),)), "p must be prime, got 4"),
                              ((3, 3, 1, ((0, 0, 0),)), "extension degree must be 1 or 2, got 3"),
                              ((3, 1, 4, ((0,),) * 4), "Witt length must be 1..3, got 4"),
                              ((3, 1, 2, ((0,),)), "entry count does not match length"),
                              ((3, 2, 1, ((0,),)), "every entry needs 2 coordinates")):
            with pytest.raises(ValueError) as err:
                WittVector(*args)
            assert str(err.value) == message

    def test_zpoly_eval_arity(self):
        poly = ZPoly.var(2, 0)
        with pytest.raises(ValueError):
            poly.eval([Elem.lift(2, 1, 1)], lambda c: Elem.lift(2, 1, c))

    def test_zpoly_scalar_and_zero(self):
        zero = ZPoly(2, {})
        assert zero.is_zero()
        one = ZPoly.const(2, 1)
        assert (0 * one).is_zero()
        assert (one - one).is_zero()
        assert (2 * ZPoly.var(2, 1)).terms == {(0, 1): 2}

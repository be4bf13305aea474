"""Exponential map tests: truncated exp/log, the Artin-Hasse exponential
and its inverse, Witt embeddings, and the two independent BCH routes."""

import gc
from collections import defaultdict
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest

from ahspringer.compositions import Composition, ParabolicGL
from ahspringer.errors import DomainError
from ahspringer.expmaps import (
    _dynkin_table_mod_p,
    ah_exp,
    ah_log,
    bch,
    bch_dynkin,
    eval_series_in_matrix,
    truncated_exp,
    truncated_log,
    witt_embed,
)
from ahspringer.gf import inverse_mod
from ahspringer.groups import (
    GroupSpec,
    JordanType,
    jordan_nilpotent,
    nilpotent_order,
    radical_elements,
    random_nilpotent,
    unipotent_order_exponent,
)
from ahspringer.matrices import FpMatrix
from ahspringer.series import ah_inverse_coeffs
from ahspringer.witt import WittVector, witt_add


def p_nilpotent(p, n, seed):
    """A seeded nilpotent with X^p = 0 (all Jordan blocks of size <= p)."""
    parts = [p] * (n // p)
    if n % p:
        parts.append(n % p)
    t = JordanType(tuple(sorted(parts, reverse=True)))
    return random_nilpotent(GroupSpec("GL", n), t, seed, p)


class TestTruncatedExp:
    def test_zero(self):
        zero = FpMatrix(5, 1, np.zeros((1, 3, 3), dtype=np.int64))
        assert truncated_exp(zero) == FpMatrix.identity(5, 1, 3)

    def test_p2_two_terms(self):
        j2 = jordan_nilpotent(JordanType((2,)), 2)
        assert truncated_exp(j2) == FpMatrix.identity(2, 1, 2) + j2

    def test_p3_j3_frozen(self):
        j3 = jordan_nilpotent(JordanType((3,)), 3)
        expected = FpMatrix.from_rows(3, 1, [[1, 1, 2], [0, 1, 1], [0, 0, 1]])
        assert truncated_exp(j3) == expected

    def test_domain_guard(self):
        # J_3 over F_2 has J^2 != 0, outside the truncated domain
        with pytest.raises(DomainError):
            truncated_exp(jordan_nilpotent(JordanType((3,)), 2))

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 6), (5, 6)])
    def test_log_round_trip_on_samples(self, p, n):
        for k in range(100):
            x = p_nilpotent(p, n, 1000 + k)
            assert truncated_log(truncated_exp(x)) == x

    def test_log_examples(self):
        assert truncated_log(FpMatrix.identity(3, 1, 4)).is_zero()
        u = FpMatrix.from_rows(3, 1, [[1, 1, 2], [0, 1, 1], [0, 0, 1]])
        assert truncated_log(u) == jordan_nilpotent(JordanType((3,)), 3)

    def test_log_domain_guard(self):
        with pytest.raises(DomainError):
            truncated_log(FpMatrix(3, 1, np.zeros((1, 2, 2), dtype=np.int64)))


class TestAhExp:
    def test_zero_and_frozen(self):
        assert ah_exp(FpMatrix(2, 1, np.zeros((1, 3, 3), dtype=np.int64))) == FpMatrix.identity(2, 1, 3)
        j3 = jordan_nilpotent(JordanType((3,)), 2)
        ident = FpMatrix.identity(2, 1, 3)
        assert ah_exp(j3) == ident + j3 + j3 @ j3

    def test_frobenius_power_example(self):
        j3 = jordan_nilpotent(JordanType((3,)), 2)
        u = ah_exp(j3)
        assert u @ u == FpMatrix.identity(2, 1, 3) + j3 @ j3
        assert u @ u == ah_exp(j3 @ j3)

    def test_non_nilpotent_rejected(self):
        with pytest.raises(DomainError):
            ah_exp(FpMatrix.identity(3, 1, 2))

    def test_agrees_with_truncated_exp_on_small_support(self):
        for p, n in ((2, 4), (3, 6), (5, 5)):
            for k in range(30):
                x = p_nilpotent(p, n, 3000 + k)
                assert ah_exp(x) == truncated_exp(x)

    def test_inverse_series_evaluates_to_matrix_inverse(self):
        for p, n in ((2, 5), (3, 6)):
            spec = GroupSpec("GL", n)
            for k in range(30):
                x = random_nilpotent(spec, "any", 4000 + k, p)
                d = max(nilpotent_degree_of(x) - 1, 0)
                f = ah_inverse_coeffs(p, d)
                assert eval_series_in_matrix(f, x) @ ah_exp(x) == FpMatrix.identity(p, 1, n)

    def test_series_rows_evaluate_on_one_walk(self):
        # a 2-D coefficient array gives one leading lane per row, each equal
        # to that row evaluated alone, on a single matrix and on a stack
        for p, e, n in ((2, 1, 5), (3, 2, 4), (5, 1, 6)):
            xs = [random_nilpotent(GroupSpec("GL", n), "any", 4100 + k, p, e=e) for k in range(3)]
            rows = [(0, 1, 2, 3), (1, 0, p - 1), (4, 0, 0, 0, 1, 2, 0, 3)]
            width = max(map(len, rows))
            coeffs = [row + (0,) * (width - len(row)) for row in rows]
            for x in (xs[0], FpMatrix._wrap(p, e, n, np.stack([m.planes for m in xs]))):
                walked = eval_series_in_matrix(coeffs, x)
                assert walked.planes.shape == (len(rows),) + x.planes.shape
                for k, row in enumerate(rows):
                    assert walked.lane(k) == eval_series_in_matrix(row, x)

    def test_p2_inverse_is_not_negation(self):
        # over F_2 the inverse series differs from e_p(-X) = e_p(X) once X^2 != 0
        j3 = jordan_nilpotent(JordanType((3,)), 2)
        u = ah_exp(j3)
        assert u @ u != FpMatrix.identity(2, 1, 3)

    def test_odd_p_inverse_is_negation(self):
        for p in (3, 5):
            spec = GroupSpec("GL", 5)
            for k in range(20):
                x = random_nilpotent(spec, "any", 5000 + k, p)
                assert ah_exp(x) @ ah_exp(-x) == FpMatrix.identity(p, 1, 5)

    def test_lands_in_special_linear_group(self):
        from ahspringer.groups import in_group, in_lie_algebra

        for p in (2, 3, 5):
            spec = GroupSpec("SL", 4)
            for k in range(30):
                x = random_nilpotent(spec, "any", 5500 + k, p)
                assert in_lie_algebra(spec, x)
                assert in_group(spec, ah_exp(x))


def nilpotent_degree_of(x):
    from ahspringer.groups import nilpotency_degree

    return nilpotency_degree(x)


class TestAhLog:
    def test_identity(self):
        assert ah_log(FpMatrix.identity(5, 1, 4)).is_zero()

    def test_round_trip_frozen(self):
        j3 = jordan_nilpotent(JordanType((3,)), 2)
        assert ah_log(ah_exp(j3)) == j3

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 6), (5, 6)])
    def test_round_trips_on_samples(self, p, n):
        spec = GroupSpec("GL", n)
        for k in range(60):
            x = random_nilpotent(spec, "any", 6000 + k, p)
            u = ah_exp(x)
            assert ah_log(u) == x
            assert ah_exp(ah_log(u)) == u

    def test_order_preservation(self):
        for p, partition in ((2, (5,)), (2, (3, 2)), (3, (4,)), (3, (7,))):
            x = jordan_nilpotent(JordanType(partition), p)
            u = ah_exp(x)
            assert nilpotent_order(ah_log(u)) == unipotent_order_exponent(u)

    def test_non_unipotent_rejected(self):
        with pytest.raises(DomainError):
            ah_log(FpMatrix(3, 1, np.zeros((1, 2, 2), dtype=np.int64)))


class TestWittEmbed:
    def test_zero_vector(self):
        j3 = jordan_nilpotent(JordanType((3,)), 2)  # nilpotent order 2
        assert witt_embed(j3, WittVector.zero(2, 2)) == FpMatrix.identity(2, 1, 3)

    def test_unit_vector_is_ah_exp(self):
        j5 = jordan_nilpotent(JordanType((5,)), 2)  # nilpotent order 3
        w = WittVector.from_ints(2, 3, [1, 0, 0])
        assert witt_embed(j5, w) == ah_exp(j5)

    def test_square_example(self):
        j3 = jordan_nilpotent(JordanType((3,)), 2)
        one = WittVector.from_ints(2, 2, [1, 0])
        doubled = witt_add(one, one)
        assert doubled == WittVector.from_ints(2, 2, [0, 1])
        lhs = witt_embed(j3, doubled)
        assert lhs == FpMatrix.identity(2, 1, 3) + j3 @ j3
        assert lhs == witt_embed(j3, one) @ witt_embed(j3, one)

    def test_length_mismatch_rejected(self):
        j3 = jordan_nilpotent(JordanType((3,)), 2)
        with pytest.raises(DomainError):
            witt_embed(j3, WittVector.zero(2, 3))

    def test_field_mismatch_rejected(self):
        j3 = jordan_nilpotent(JordanType((3,)), 2)
        with pytest.raises(ValueError):
            witt_embed(j3, WittVector.zero(3, 2))

    def test_homomorphism_exhaustive_small(self):
        from itertools import product

        j3 = jordan_nilpotent(JordanType((3,)), 2)
        vecs = [WittVector.from_ints(2, 2, v) for v in product(range(2), repeat=2)]
        embeds = {w: witt_embed(j3, w) for w in vecs}
        for u in vecs:
            for v in vecs:
                assert witt_embed(j3, witt_add(u, v)) == embeds[u] @ embeds[v]
        assert len(set(embeds.values())) == 4


    # witt-hom's grid points (J_5 over F_2, m = 3; J_4 over F_3, m = 2) and
    # one over F_4 (J_3, m = 2), with every vector of W_m(F_{p^e}) stacked
    @pytest.mark.parametrize("p, n, m, e", [(2, 5, 3, 1), (3, 4, 2, 1), (2, 3, 2, 2)])
    def test_stack_is_the_one_vector_embedding_lane_by_lane(self, p, n, m, e):
        from itertools import product

        x = jordan_nilpotent(JordanType((n,)), p, e)
        scalars = list(product(range(p), repeat=e))
        vecs = [WittVector(p, e, m, entries) for entries in product(scalars, repeat=m)]
        stack = witt_embed(x, vecs)
        assert stack.planes.shape == (len(vecs), e, n, n)
        for i, w in enumerate(vecs):
            # the definition, one factor at a time
            expected = FpMatrix.identity(p, e, n)
            for k, a in enumerate(w.entries):
                expected = expected @ ah_exp((x ** p ** k).scale(a))
            assert stack.lane(i) == witt_embed(x, w) == expected, w

    def test_stack_rejects_a_mismatch_as_one_vector_does(self):
        j3 = jordan_nilpotent(JordanType((3,)), 2)
        good = WittVector.zero(2, 2)
        for bad, error in ((WittVector.zero(2, 3), DomainError), (WittVector.zero(3, 2), ValueError)):
            with pytest.raises(error) as one:
                witt_embed(j3, bad)
            with pytest.raises(error) as stacked:
                witt_embed(j3, [good, bad])
            assert type(stacked.value) is type(one.value)
            assert str(stacked.value) == str(one.value)


class TestBch:
    def test_commuting_is_addition(self):
        x = jordan_nilpotent(JordanType((2,)), 3)
        y = x.scale(2)
        assert bch(x, y) == x + y

    def test_inverse_pair(self):
        x = jordan_nilpotent(JordanType((2, 1)), 5)
        assert bch(x, -x).is_zero()

    def test_degree_two_closed_form(self):
        # strictly upper triangular 3x3, p >= 3: bch = X + Y + [X,Y]/2
        for p in (3, 5):
            par = ParabolicGL(Composition((1, 1, 1)), p)
            half = inverse_mod(2, p)
            for k in range(50):
                x = radical_elements([par], [7000 + k], 0).lane(0)
                y = radical_elements([par], [7000 + k], 1).lane(0)
                comm = x @ y - y @ x
                assert bch(x, y) == x + y + comm.scale(half)
                assert bch_dynkin(x, y, 2) == x + y + comm.scale(half)

    def test_precondition_failures(self):
        zero = FpMatrix(2, 1, np.zeros((1, 3, 3), dtype=np.int64))
        with pytest.raises(DomainError):
            bch(jordan_nilpotent(JordanType((3,)), 2), zero)
        with pytest.raises(DomainError):
            bch_dynkin(jordan_nilpotent(JordanType((3,)), 2), zero, 1)


class TestBchDynkin:
    def test_degree_one(self):
        x = jordan_nilpotent(JordanType((2,)), 5)
        y = FpMatrix.from_rows(5, 1, [[0, 3], [0, 0]])
        assert bch_dynkin(x, y, 1) == x + y

    def test_maxdeg_cap(self):
        x = FpMatrix(3, 1, np.zeros((1, 2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            bch_dynkin(x, x, 3)
        with pytest.raises(ValueError):
            bch_dynkin(x, x, 0)

    @pytest.mark.parametrize("p", [3, 5])
    def test_agrees_with_log_exp_route_on_borel(self, p):
        # Borel nilradical of GL_p: class p - 1, both routes are exact
        par = ParabolicGL(Composition((1,) * p), p)
        for k in range(100):
            x = radical_elements([par], [8000 + k], 0).lane(0)
            y = radical_elements([par], [8000 + k], 1).lane(0)
            assert bch(x, y) == bch_dynkin(x, y, p - 1)

    def test_leaves_no_reference_cycle(self):
        # a cycle would keep the bracket stacks alive until a collection,
        # so the memory of a stacked suite would grow with its lane count
        par = ParabolicGL(Composition((1,) * 5), 5)
        x, y = radical_elements([par], [1], 0).lane(0), radical_elements([par], [1], 1).lane(0)
        gc.collect()
        gc.disable()
        try:
            bch_dynkin(x, y, 4)
            assert gc.collect() == 0
        finally:
            gc.enable()


def ref_dynkin_table(maxdeg):
    """The Dynkin coefficient of each X/Y word of length <= maxdeg, as an
    exact Fraction: the sum over block sequences ((r_1, s_1), ..., (r_n, s_n)),
    r_i + s_i > 0, spelling the word X^r_1 Y^s_1 ... X^r_n Y^s_n, of
    (-1)^(n-1) / (n |word| prod r_i! s_i!); zero words dropped."""
    def sequences(budget):
        yield ()
        for r in range(budget + 1):
            for s in range(budget + 1 - r):
                if r + s:
                    for rest in sequences(budget - r - s):
                        yield ((r, s),) + rest

    coeff = defaultdict(Fraction)
    for seq in sequences(maxdeg):
        if seq:
            word = "".join("X" * r + "Y" * s for r, s in seq)
            denom = len(seq) * len(word) * prod(factorial(r) * factorial(s) for r, s in seq)
            coeff[word] += Fraction((-1) ** (len(seq) - 1), denom)
    return {word: c for word, c in coeff.items() if c}


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_integer_dynkin_table_is_the_reduced_fraction_table(p):
    want = tuple(sorted((word, c.numerator * pow(c.denominator, -1, p) % p)
                        for word, c in ref_dynkin_table(p - 1).items()))
    assert _dynkin_table_mod_p(p, p - 1) == want


def test_dynkin_table_refuses_p_at_most_maxdeg():
    # only a direct caller reaches it: bch_dynkin keeps maxdeg below p, where
    # every denominator is a unit
    for p, maxdeg in ((2, 2), (3, 3), (3, 5), (5, 6)):
        assert any(c.denominator % p == 0 for c in ref_dynkin_table(maxdeg).values())
        with pytest.raises(ArithmeticError):
            _dynkin_table_mod_p(p, maxdeg)

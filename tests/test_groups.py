"""Group/Lie-algebra membership, Jordan forms, centralizers, sampling."""

import ast
from collections import namedtuple
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from ahspringer import linalg
from ahspringer.errors import DomainError
from ahspringer.groups import (
    GroupSpec,
    JordanType,
    _combination_lanes,
    _invertible,
    _triangle_runs,
    centralizer_space,
    default_form,
    _nilpotent_draws,
    _nilradical_planes,
    enumerate_nilpotents,
    group_element_lanes,
    in_group,
    in_lie_algebra,
    invertible_lanes,
    jordan_nilpotent,
    jordan_nilpotent_lanes,
    lie_basis,
    nilpotency_degree,
    nilpotent_lanes,
    nilpotent_order,
    random_matrix,
    random_nilpotent,
    unipotent_order_exponent,
)
from ahspringer.expmaps import ah_exp, eval_series_in_matrix
from ahspringer.matrices import FpMatrix, nilpotent_powers
from ahspringer.series import ah_coeffs_mod_p, ah_inverse_coeffs
from ahspringer.rng import stream, stream_lanes

from field_reference import Elem
from linalg_reference import (
    jordan_type_of,
    lie_kernel_reference,
    null_space_reference,
    rank_reference,
)


def partitions(n, largest=None):
    """Every partition of n, parts weakly decreasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def test_group_spec_and_jordan_type_value_contract():
    # what the frozen dataclasses gave: equality and hash by the fields
    # within the one class, no assignment, a field-by-field repr, and the
    # messages of their validation
    spec, jtype = GroupSpec("Sp", 4), JordanType(["2", 1.0, 1])
    assert spec == GroupSpec(kind="Sp", n=4) and hash(spec) == hash(GroupSpec("Sp", 4)) == hash(("Sp", 4))
    assert jtype == JordanType((2, 1, 1)) and hash(jtype) == hash(((2, 1, 1),)) and jtype.n == 4
    assert {spec: 1}[GroupSpec("Sp", 4)] == 1
    assert spec != GroupSpec("SO", 4) and jtype != JordanType((2, 2))
    assert spec != ("Sp", 4) and spec != namedtuple("GroupSpec", "kind n")("Sp", 4)
    assert jtype != ((2, 1, 1),) and jtype != namedtuple("JordanType", "partition")((2, 1, 1))
    for value, names in ((spec, ("kind", "n", "other")), (jtype, ("partition", "n", "other"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
    assert repr(spec) == "GroupSpec(kind='Sp', n=4)"
    assert repr(jtype) == "JordanType(partition=(2, 1, 1))"
    for make, message in (
        (lambda: GroupSpec("XX", 3), "kind must be one of ('GL', 'SL', 'SO', 'Sp'), got 'XX'"),
        (lambda: GroupSpec("GL", 0), "dimension must be positive"),
        (lambda: GroupSpec("Sp", 3), "Sp requires even dimension"),
        (lambda: JordanType(()), "a Jordan type needs at least one block"),
        (lambda: JordanType((2, 0)), "Jordan block sizes must be positive"),
        (lambda: JordanType((1, 2)), "Jordan block sizes must be weakly decreasing"),
    ):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


class TestJordan:
    def test_single_block(self):
        j3 = jordan_nilpotent(JordanType((3,)), 5)
        assert j3.planes[0].tolist() == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]

    def test_trivial_blocks(self):
        assert jordan_nilpotent(JordanType((1, 1)), 3).is_zero()

    def test_mixed_block_degree(self):
        x = jordan_nilpotent(JordanType((2, 1)), 2)
        assert nilpotency_degree(x) == 2

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            JordanType(())
        with pytest.raises(ValueError):
            JordanType((1, 2))
        with pytest.raises(ValueError):
            JordanType((2, 0))

    @pytest.mark.parametrize("partition", [(3,), (2, 1), (2, 2), (3, 2, 1), (4, 1)])
    def test_power_rank_formula(self, partition):
        # rank(J^k) = sum_i max(part_i - k, 0)
        t = JordanType(partition)
        x = jordan_nilpotent(t, 3)
        for k in range(sum(partition) + 1):
            expected = sum(max(part - k, 0) for part in partition)
            assert rank_reference((x ** k).planes, 3, 1) == expected

    @pytest.mark.parametrize("partition", [(3,), (2, 1), (2, 2, 1), (4, 2)])
    def test_jordan_type_round_trip(self, partition):
        x = jordan_nilpotent(JordanType(partition), 2)
        assert jordan_type_of(x) == partition


class TestNilpotentOrder:
    def test_examples(self):
        assert nilpotent_order(jordan_nilpotent(JordanType((3,)), 2)) == 2
        assert nilpotent_order(jordan_nilpotent(JordanType((5,)), 2)) == 3
        assert nilpotent_order(FpMatrix(7, 1, np.zeros((1, 4, 4), dtype=np.int64))) == 0

    def test_direct_powering_oracle(self):
        # p^m is the first p-power at which the matrix dies
        for p in (2, 3):
            for partition in ((3,), (4, 2), (5,)):
                x = jordan_nilpotent(JordanType(partition), p)
                m = nilpotent_order(x)
                assert (x ** (p ** m)).is_zero()
                if m:
                    assert not (x ** (p ** (m - 1))).is_zero()

    def test_non_nilpotent_raises(self):
        with pytest.raises(DomainError):
            nilpotent_order(FpMatrix.identity(3, 1, 2))
        with pytest.raises(DomainError):
            nilpotency_degree(FpMatrix.from_rows(2, 1, [[1, 1], [0, 1]]))

    def test_unipotent_order(self):
        j = jordan_nilpotent(JordanType((3,)), 2)
        u = FpMatrix.identity(2, 1, 3) + j
        assert unipotent_order_exponent(u) == 2
        with pytest.raises(DomainError):
            unipotent_order_exponent(j)


class TestMembership:
    def test_identity_in_every_group(self):
        for kind, n, p in (("GL", 3, 2), ("SL", 3, 2), ("SO", 3, 3), ("Sp", 4, 3)):
            assert in_group(GroupSpec(kind, n), FpMatrix.identity(p, 1, n))

    def test_sp2_lie_algebra_example(self):
        x = FpMatrix.from_rows(3, 1, [[0, 1], [0, 0]])
        spec = GroupSpec("Sp", 2)
        assert spec.form_for(3, 1) == FpMatrix.from_rows(3, 1, [[0, 1], [-1, 0]])
        assert in_lie_algebra(spec, x)
        form = FpMatrix.from_rows(3, 1, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
        assert default_form("SO", 4, 3, 1) == form

    def test_sl_determinant_example(self):
        g = FpMatrix.from_rows(3, 1, [[2, 0], [0, 1]])
        assert not in_group(GroupSpec("SL", 2), g)
        assert in_group(GroupSpec("GL", 2), g)

    def test_characteristic_two_rejected_for_forms(self):
        with pytest.raises(ValueError):
            in_group(GroupSpec("SO", 3), FpMatrix.identity(2, 1, 3))
        with pytest.raises(ValueError):
            in_lie_algebra(GroupSpec("Sp", 4), FpMatrix(2, 1, np.zeros((1, 4, 4), dtype=np.int64)))

    def test_sp_needs_even_dimension(self):
        with pytest.raises(ValueError):
            GroupSpec("Sp", 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_group(GroupSpec("GL", 3), FpMatrix.identity(3, 1, 2))

    @pytest.mark.parametrize("kind,n,p", [("GL", 4, 3), ("SL", 4, 3), ("SO", 5, 3), ("Sp", 4, 5)])
    def test_closure_under_product_and_inverse(self, kind, n, p):
        spec = GroupSpec(kind, n)
        states = stream_lanes([31], f"closure/{kind}/{n}/{p}")  # one lane, advanced in place
        for _ in range(10):
            g = group_element_lanes([spec], p, 1, states).lane(0)
            h = group_element_lanes([spec], p, 1, states).lane(0)
            assert in_group(spec, g) and in_group(spec, h)
            assert in_group(spec, g @ h)
            assert in_group(spec, linalg.inv(g))

    @pytest.mark.parametrize("kind,n,p", [("SL", 4, 3), ("SO", 5, 3), ("Sp", 6, 3)])
    def test_conjugation_preserves_lie_membership(self, kind, n, p):
        spec = GroupSpec(kind, n)
        states = stream_lanes([32], f"conj/{kind}/{n}/{p}")
        for k in range(10):
            x = random_nilpotent(spec, "any", 100 + k, p)
            assert in_lie_algebra(spec, x)
            g = group_element_lanes([spec], p, 1, states).lane(0)
            assert in_lie_algebra(spec, g @ x @ linalg.inv(g))

    @pytest.mark.parametrize("kind,n,p,e", [("GL", 4, 3, 1), ("SL", 3, 3, 2), ("SO", 5, 3, 1),
                                            ("Sp", 4, 5, 1)])
    def test_stacked_membership_is_membership_per_lane(self, kind, n, p, e):
        # three members, then zero, diag(2, 1, ...) and the swap of the first
        # and last basis vectors: in GL, but with det 2 or -1 (the swap keeps
        # the SO form) and moving the SO/Sp form
        spec, unit = GroupSpec(kind, n), np.zeros((e, n, n), dtype=np.int64)
        unit[0, 0, 0] = 1
        ident = FpMatrix.identity(p, e, n).planes
        swap = ident[:, [n - 1, *range(1, n - 1), 0]]
        members = group_element_lanes([spec] * 3, p, e, stream_lanes([33, 34, 35], "stacked")).planes
        groups = FpMatrix._wrap(p, e, n, np.concatenate([members, [0 * ident, ident + unit, swap]]))
        lies = FpMatrix._wrap(p, e, n, np.concatenate([
            nilpotent_lanes([spec] * 3, p, e, np.arange(3, dtype=np.uint64)).planes, [unit, ident]]))
        linear = kind == "GL"
        for test, stack, want in (
                (in_group, groups, [True] * 3 + [False, linear, linear]),
                (in_lie_algebra, lies, [True] * 3 + [linear, linear or (kind == "SL" and n % p == 0)])):
            each = [test(spec, stack.lane(i)) for i in range(len(want))]
            assert all(type(v) is bool for v in each)
            assert test(spec, stack).tolist() == each == want


class TestCentralizer:
    def test_zero_matrix_full_space(self):
        assert len(centralizer_space(FpMatrix(3, 1, np.zeros((1, 3, 3), dtype=np.int64)))) == 9

    @pytest.mark.parametrize("p,e", product([2, 3, 5], [1, 2]))
    def test_basis_is_the_reference_null_space(self, p, e):
        # Z -> AZ - ZA on row-major vec(Z) is kron(A, 1) - kron(1, A^T),
        # plane by plane as 1 has F_p entries; its reference null space,
        # array for array, on random, nilpotent and scalar matrices
        st = stream(26, f"centralizer-reference/{p}/{e}")
        for n in range(1, 5):
            scalar = np.zeros((e, n, n), dtype=np.int64)
            scalar[e - 1] = np.eye(n, dtype=np.int64)
            for a in (random_matrix(p, e, n, st), random_nilpotent(GroupSpec("GL", n), "any", n, p, e),
                      FpMatrix(p, e, scalar), FpMatrix(p, e, 0 * scalar)):
                eye = np.eye(n, dtype=np.int64)
                ad = np.stack([np.kron(plane, eye) - np.kron(eye, plane.T) for plane in a.planes]) % p
                ref = null_space_reference(ad, p, e).reshape(-1, e, n, n)
                got = centralizer_space(a)
                assert got.dtype == np.int64 and not got.flags.writeable
                assert got.shape == ref.shape and np.array_equal(got, ref), (n, a.planes.tolist())

    def test_regular_nilpotent_dimension(self):
        for n in (2, 3, 4):
            assert len(centralizer_space(jordan_nilpotent(JordanType((n,)), 5))) == n

    def test_two_one_partition(self):
        assert len(centralizer_space(jordan_nilpotent(JordanType((2, 1)), 3))) == 5

    def test_dimension_formula_oracle(self):
        # commutant dimension of a nilpotent = sum min(part_i, part_j)
        for p, partition in ((2, (2, 1)), (3, (3, 1)), (5, (2, 2))):
            x = jordan_nilpotent(JordanType(partition), p)
            expected = sum(min(a, b) for a in partition for b in partition)
            assert len(centralizer_space(x)) == expected

    def test_basis_commutes_and_rank_complement(self):
        x = jordan_nilpotent(JordanType((3, 2)), 3)
        c = centralizer_space(x)
        assert c.shape[1:] == (1, 5, 5) and not c.flags.writeable
        for z in c:
            assert FpMatrix(3, 1, z) @ x == x @ FpMatrix(3, 1, z)
        # Z -> XZ - ZX on row-major vec(Z) is kron(X, 1) - kron(1, X^T)
        eye = np.eye(5, dtype=np.int64)
        ad = (np.kron(x.planes[0], eye) - np.kron(eye, x.planes[0].T)) % 3
        commutator_rank = rank_reference(ad[None], 3, 1)
        assert len(c) == 25 - commutator_rank

    def test_extension_field(self):
        x = jordan_nilpotent(JordanType((2,)), 3, e=2)
        assert len(centralizer_space(x)) == 2

    @pytest.mark.parametrize("p,e", product([2, 3, 5], [1, 2]))
    def test_conjugate_partition_oracle(self, p, e):
        # dim C(X) = sum_i (lambda'_i)^2 for X of Jordan type lambda, lambda' the
        # conjugate partition (Macdonald, Symmetric Functions and Hall
        # Polynomials, ch. II); e_p(X) - 1 = X (1 + X/2 + ...) has the same type
        for n in range(1, 7):
            for partition in partitions(n):
                x = jordan_nilpotent_lanes(GroupSpec("GL", n), JordanType(partition), p, e, [n]).lane(0)
                conjugate = [sum(part > i for part in partition) for i in range(partition[0])]
                expected = sum(c * c for c in conjugate)
                assert len(centralizer_space(x)) == expected, (p, e, partition)
                assert len(centralizer_space(ah_exp(x))) == expected, (p, e, partition)


class TestSampling:
    def test_gl_jordan_type_request(self):
        x = random_nilpotent(GroupSpec("GL", 3), JordanType((3,)), 7, 2)
        assert jordan_type_of(x) == (3,)
        assert nilpotent_order(x) == 2

    def test_sp2_any_postconditions(self):
        spec = GroupSpec("Sp", 2)
        x = random_nilpotent(spec, "any", 9, 3)
        assert in_lie_algebra(spec, x)
        assert (x @ x).is_zero()

    def test_determinism(self):
        spec = GroupSpec("Sp", 6)
        assert random_nilpotent(spec, "any", 5, 3) == random_nilpotent(spec, "any", 5, 3)
        assert random_nilpotent(spec, "any", 5, 3) != random_nilpotent(spec, "any", 6, 3)

    def test_unsatisfiable_types_raise(self):
        with pytest.raises(DomainError):
            random_nilpotent(GroupSpec("Sp", 4), JordanType((3, 1)), 1, 3)
        with pytest.raises(DomainError):
            random_nilpotent(GroupSpec("SO", 5), JordanType((4, 1)), 1, 3)
        with pytest.raises(DomainError):
            random_nilpotent(GroupSpec("GL", 4), JordanType((3,)), 1, 3)  # wrong n

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (3, 2), (5, 1)])
    def test_random_nilpotent_is_one_lane_of_the_lane_samplers(self, p, e):
        # "any" and a GL/SL Jordan type give the lane-0 bytes of
        # nilpotent_lanes and jordan_nilpotent_lanes (the regular types at
        # n = 4 and 8 are the kernel probes' inputs); an SO/Sp Jordan type
        # is not sampled, realizable or not
        def same(a, b):
            return ((a.p, a.e, a.n, a.planes.dtype, a.planes.shape, a.planes.tobytes())
                    == (b.p, b.e, b.n, b.planes.dtype, b.planes.shape, b.planes.tobytes()))

        for seed in (42, 0, 2 ** 64 + 5):
            for kind, n in product(("GL", "SL"), (2, 4, 8)):
                spec = GroupSpec(kind, n)
                lane = nilpotent_lanes([spec], p, e, [seed]).lane(0)
                assert same(random_nilpotent(spec, "any", seed, p, e), lane)
                for parts in ((n,), (n - 1, 1), (1,) * n):
                    jtype = JordanType(parts)
                    assert same(random_nilpotent(spec, jtype, seed, p, e),
                                jordan_nilpotent_lanes(spec, jtype, p, e, [seed]).lane(0))
            if p == 2:
                continue
            for kind, n in (("SO", 3), ("SO", 4), ("Sp", 2), ("Sp", 4)):
                spec = GroupSpec(kind, n)
                lane = nilpotent_lanes([spec], p, e, [seed]).lane(0)
                assert same(random_nilpotent(spec, "any", seed, p, e), lane)
                for parts in ((n,), (n - 1, 1), (1,) * n):
                    with pytest.raises(DomainError, match=f"is not sampled in {kind}_{n}$"):
                        random_nilpotent(spec, JordanType(parts), seed, p, e)

    def test_nilradical_bases_satisfy_lie_condition(self):
        # oracle: the standard dimensions of Lie(G) on the full support
        # (gl_n, sl_n, so_n, sp_2m) and of its positive-root part on either
        # triangle, N = n(n-1)/2 for GL and SL, m^2 for Sp_2m and SO_2m+1
        # and m(m-1) for SO_2m
        def expected(kind, n, support):
            m = n // 2
            if support == "full":
                return {"GL": n * n, "SL": n * n - 1, "SO": n * (n - 1) // 2, "Sp": m * (2 * m + 1)}[kind]
            return {"GL": n * (n - 1) // 2, "SL": n * (n - 1) // 2, "Sp": m * m,
                    "SO": m * m if n % 2 else m * (m - 1)}[kind]

        for kind, n, p, e, name, support in lie_cases((2, 3, 5, 7)):
            if name == "irregular":
                continue
            spec = GroupSpec(kind, n)
            form = default_form(kind, n, p, e) if kind in ("SO", "Sp") else None
            basis = lie_basis(kind, n, p, e, support)
            assert basis.shape == (expected(kind, n, name), e, n, n), (p, e, kind, n, name)
            # F_p entries only, on the support, linearly independent
            assert not basis[:, 1:].any() and not basis.flags.writeable
            outside = np.ones((n, n), dtype=bool)
            outside[tuple(np.reshape(support, (-1, 2)).astype(int).T)] = False
            assert not basis[:, 0, outside].any()
            if len(basis):
                assert rank_reference(basis[:, 0].reshape(1, len(basis), n * n), p, 1) == len(basis)
            for b in basis:
                x = FpMatrix(p, e, b)
                assert in_lie_algebra(spec, x)
                if kind == "SL":
                    assert not (np.trace(x.planes, axis1=1, axis2=2) % p).any()
                if form is not None:
                    assert (x.transpose() @ form + form @ x).is_zero()


SUPPORTS = {"full": lambda i, j: True, "upper": lambda i, j: i < j, "lower": lambda i, j: i > j,
            "irregular": lambda i, j: (i + j) % 3 != 1}


def ref_lie_basis(kind, n, p, e, support):
    """Lie(G) on the units at support by elimination, as planes (d, e, n, n):
    the reference kernel of its conditions, which have F_p coefficients, so
    an F_p basis spans the F_{p^e} solutions."""
    solved = lie_kernel_reference(kind, n, p, support)
    basis = np.zeros((len(solved), e, n, n), dtype=np.int64)
    basis[:, 0] = solved
    return basis


def lie_cases(primes):
    """(kind, n, p, e, support name, support) over the kinds valid at each p."""
    for kind, n, p, e in product(("GL", "SL", "SO", "Sp"), range(1, 9), primes, (1, 2)):
        if (kind == "Sp" and n % 2) or (kind in ("SO", "Sp") and p == 2):
            continue
        for name, inside in SUPPORTS.items():
            yield kind, n, p, e, name, tuple((i, j) for i in range(n) for j in range(n) if inside(i, j))


def test_lie_basis_is_the_elimination_basis():
    # the written-down basis against the old solve, array for array: the
    # same rows in the same order, int64 and read-only
    for kind, n, p, e, name, support in lie_cases((2, 3, 5, 7)):
        basis, ref = lie_basis(kind, n, p, e, support), ref_lie_basis(kind, n, p, e, support)
        assert basis.dtype == np.int64 and not basis.flags.writeable, (kind, n, p, e, name)
        assert basis.shape == ref.shape and np.array_equal(basis, ref), (kind, n, p, e, name)


@pytest.mark.parametrize("kind,n", [("SO", 3), ("SO", 4), ("Sp", 4)])
def test_lie_basis_refuses_so_and_sp_at_p_2(kind, n):
    with pytest.raises(ValueError, match=f"^{kind} is not supported in characteristic 2$"):
        lie_basis(kind, n, 2, 1, ((0, 1),))


def test_lie_basis_and_sampling_run_no_elimination(monkeypatch):
    def draws(p, e):
        specs = [GroupSpec(kind, n) for kind in ("GL", "SL", "SO", "Sp") for n in range(1, 9)
                 if not (kind == "Sp" and n % 2)]
        forms = [spec for spec in specs if spec.kind in ("SO", "Sp")]
        states = stream_lanes(range(len(forms)), f"no-solve/{p}/{e}")
        return (nilpotent_lanes(specs, p, e, range(len(specs))).planes,
                group_element_lanes(forms, p, e, states).planes)

    grid = list(product((3, 5), (1, 2)))
    expected = [draws(p, e) for p, e in grid]

    def no_solve(*args, **kwargs):
        raise AssertionError("an elimination ran")

    lie_basis.cache_clear()
    _nilradical_planes.cache_clear()
    monkeypatch.setattr(linalg, "_eliminate", no_solve)
    for kind, n, p, e, _, support in lie_cases((3, 5)):
        lie_basis(kind, n, p, e, support)
    for (p, e), (nilpotents, elements) in zip(grid, expected):
        got = draws(p, e)
        assert np.array_equal(got[0], nilpotents) and np.array_equal(got[1], elements)


def test_one_null_space_solve_and_one_nilradical_sampler():
    # every elimination is one _eliminate call, made only by det_planes,
    # inv, centralizer_space (the one null-space solve; lie_basis writes
    # its basis down) and suites._centralizers_equal; and the parabolic
    # samplers draw their nilradical coordinates through
    # _combination_lanes, never straight from below_lanes
    def name(func):
        return getattr(func, "attr", getattr(func, "id", None))

    src = Path(linalg.__file__).parent
    callers = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calls = [node for node in ast.walk(top) if isinstance(node, ast.Call)]
            callers += [(path.name, getattr(top, "name", None)) for node in calls
                        if name(node.func) == "_eliminate"]
    assert sorted(callers) == [("groups.py", "centralizer_space"), ("linalg.py", "det_planes"),
                               ("linalg.py", "inv"), ("suites.py", "_centralizers_equal")]
    samplers = {top.name: {name(node.func) for node in ast.walk(top) if isinstance(node, ast.Call)}
                for top in ast.parse((src / "groups.py").read_text()).body
                if getattr(top, "name", None) in ("nilradical_basis", "_parabolic_lanes", "_radical_draws",
                                                  "p_elements", "radical_elements")}
    assert len(samplers) == 5
    assert not any("below_lanes" in calls for calls in samplers.values())
    assert "_combination_lanes" in samplers["_radical_draws"]
    assert {"_radical_draws", "_parabolic_lanes"} <= samplers["p_elements"] & samplers["radical_elements"]


def test_enumerate_nilpotents_counts():
    # Fine-Herstein: gl_n(F_q) has q^(n^2 - n) nilpotent matrices, q = p^e
    for p, n, e in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)):
        found = list(enumerate_nilpotents(p, n, e))
        assert len(found) == p ** (e * n * (n - 1))
        assert len(set(found)) == len(found)
        assert all((x.p, x.e, x.n) == (p, e, n) and nilpotency_degree(x) <= n for x in found)


def unipotent_inverse(u: FpMatrix) -> FpMatrix:
    """u^-1 = sum_k (1 - u)^k for unipotent u (lane by lane for a stack),
    from the power walk of the nilpotent 1 - u."""
    ident = FpMatrix.identity(u.p, u.e, u.n)
    powers = nilpotent_powers(ident - u, message="matrix is not unipotent")
    return FpMatrix._wrap(u.p, u.e, u.n, powers.sum(axis=0) % u.p)


@pytest.mark.parametrize("p,e,n", [(2, 1, 5), (3, 2, 4), (5, 1, 6), (2, 2, 8), (2, 1, 1), (3, 1, 8),
                                   (5, 2, 3), (7, 1, 8), (7, 2, 5)])
def test_unipotent_inverse_from_the_power_walk(p, e, n):
    # the conjugator stack of _nilpotent_draws: L over the lower triangle
    # basis and U over the upper one, walked once under the rows e_p and F
    # (F e_p = 1); F(L) is e_p(L)^-1 at every p, also at p = 2, where
    # e_p(t) e_p(-t) = e_p(t^2) != 1, so the inverse is not e_p(-L)
    kinds = ["GL", "SL"] + ["SO"] * (p > 2 and n > 1) + ["Sp"] * (p > 2 and n % 2 == 0)
    specs = [GroupSpec(kind, n) for kind in kinds for _ in range(3)]
    states = stream_lanes(range(len(specs)), f"conjugator-inverse/{p}/{e}/{n}")
    x = FpMatrix._wrap(p, e, n, np.stack([_combination_lanes(_triangle_runs(specs, p, e, lower), p, e,
                                                             states, n)[0] for lower in (True, False)]))
    rows = [f(p, n - 1) for f in (ah_coeffs_mod_p, ah_inverse_coeffs)]
    walk = eval_series_in_matrix(rows, x)
    exps, inverses = walk.lane(0), walk.lane(1)
    assert exps == ah_exp(x)
    assert inverses == unipotent_inverse(exps)
    ident = FpMatrix.identity(p, e, n)
    assert (exps @ inverses).lanes_equal(ident).all() and (inverses @ exps).lanes_equal(ident).all()
    for side, lane in product(range(2), range(len(specs))):
        assert inverses.lane(side).lane(lane) == linalg.inv(exps.lane(side).lane(lane))
    squares = (x @ x).planes.any(axis=(-3, -2, -1))
    if p == 2 and n > 2:
        assert squares.any()
        assert not (ah_exp(-x).lanes_equal(inverses) & squares).any()


# -- lane samplers against one Stream per sample ------------------------


def ref_combination(basis, p, e, st):
    """sum_i s_i B_i, drawing the e coordinates of each s_i in turn."""
    acc = FpMatrix(p, e, np.zeros(basis.shape[1:], dtype=np.int64))
    for b in basis:
        acc = acc + FpMatrix(p, e, b).scale(tuple(st.below(p) for _ in range(e)))
    return acc


def ref_nilpotent(spec, p, e, st):
    """The per-sample draw order on one Stream: X over the upper basis; a
    coin, unless that basis is empty; on a coin of 1, L over the lower
    basis and U over the upper one, and X becomes a X a^-1 with
    a = e_p(L) e_p(U).  Returns (X, coin)."""
    upper = _nilradical_planes(spec.kind, spec.n, p, e)
    if not len(upper):
        return FpMatrix(p, e, np.zeros((e, spec.n, spec.n), dtype=np.int64)), None
    x = ref_combination(upper, p, e, st)
    coin = st.below(2)
    if coin:
        lower = _nilradical_planes(spec.kind, spec.n, p, e, lower=True)
        a = ah_exp(ref_combination(lower, p, e, st)) @ ah_exp(ref_combination(upper, p, e, st))
        x = a @ x @ linalg.inv(a)
    return x, coin


def ref_group_element(spec, p, e, st):
    """GL/SL: matrices drawn plane by plane, row by row, until one is
    invertible, SL with row 0 then divided by the determinant; SO/Sp:
    e_p(U) e_p(L) e_p(U') over the upper, lower and upper bases."""
    n = spec.n
    if spec.kind in ("GL", "SL"):
        while True:
            g = FpMatrix(p, e, [[[st.below(p) for _ in range(n)] for _ in range(n)] for _ in range(e)])
            det = tuple(linalg.det_planes(g.planes, p, e).tolist())
            if any(det):
                break
        if spec.kind == "SL":
            unit = [[(1,) + (0,) * (e - 1) if i == j else (0,) * e for j in range(n)] for i in range(n)]
            unit[0][0] = Elem(p, e, det).inverse().coords
            g = FpMatrix.from_rows(p, e, unit) @ g
        return g
    g = FpMatrix.identity(p, e, n)
    for lower in (False, True, False):
        g = g @ ah_exp(ref_combination(_nilradical_planes(spec.kind, n, p, e, lower), p, e, st))
    return g


def ref_jordan_nilpotent(spec, jordan_type, p, e, seed):
    """The per-object GL/SL branch of random_nilpotent that the lanes
    replaced: g x0 g^-1 for the Jordan matrix x0 and the first invertible g
    drawn, one matrix at a time, from the stream of the type."""
    label = f"nilpotent/{spec.kind}/{spec.n}/{p}/{e}/{','.join(map(str, jordan_type.partition))}"
    g = ref_group_element(GroupSpec("GL", spec.n), p, e, stream(seed, label))
    return g @ jordan_nilpotent(jordan_type, p, e) @ linalg.inv(g)


def every_group(p):
    """Each kind at every n = 2..8 it allows, SO/Sp only for odd p."""
    kinds = ("GL", "SL", "SO", "Sp") if p > 2 else ("GL", "SL")
    return [GroupSpec(kind, n) for kind in kinds for n in range(2, 9)
            if (kind, n % 2) != ("Sp", 1) and (kind, n) != ("SO", 2)]


class TestLaneSamplers:
    @pytest.mark.parametrize("e", [1, 2])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_nilpotent_lanes_follow_the_one_stream_draw_order(self, p, e):
        # one stack of every group, two seeds each, padded to n = 8
        specs = [spec for spec in every_group(p) for _ in range(2)]
        seeds = [1000 + 7 * i for i in range(len(specs))]
        x = nilpotent_lanes(specs, p, e, seeds)
        states = stream_lanes(seeds, [f"nilpotent/{s.kind}/{s.n}/{p}/{e}/any" for s in specs])
        assert _nilpotent_draws(specs, p, e, states).lanes_equal(x).all()
        coins = set()
        for i, (spec, seed) in enumerate(zip(specs, seeds)):
            st = stream(seed, f"nilpotent/{spec.kind}/{spec.n}/{p}/{e}/any")
            want, coin = ref_nilpotent(spec, p, e, st)
            coins.add(coin)
            assert x.lane(i, spec.n) == want
            assert not x.planes[i, :, spec.n:].any() and not x.planes[i, :, :, spec.n:].any()
            assert int(states[i]) == st.state  # exactly the draws of one stream
            assert random_nilpotent(spec, "any", seed, p, e) == want
        assert coins == {0, 1}

    @pytest.mark.parametrize("e", [1, 2])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_group_element_lanes_follow_the_one_stream_draw_order(self, p, e):
        specs = [spec for spec in every_group(p) for _ in range(2)]
        seeds = [2000 + 3 * i for i in range(len(specs))]
        states = stream_lanes(seeds, "conjugator")
        g = group_element_lanes(specs, p, e, states)
        one = (1,) + (0,) * (e - 1)
        for i, (spec, seed) in enumerate(zip(specs, seeds)):
            st = stream(seed, "conjugator")
            want = ref_group_element(spec, p, e, st)
            assert g.lane(i, spec.n) == want
            assert in_group(spec, want)
            pad = g.planes[i, :, spec.n:, :]
            assert (pad[0, :, spec.n:] == np.eye(8 - spec.n, dtype=np.int64)).all()
            assert not pad[1:].any() and not pad[0, :, :spec.n].any()
            assert not g.planes[i, :, :spec.n, spec.n:].any()
            assert int(states[i]) == st.state
            if spec.kind == "SL":
                assert tuple(linalg.det_planes(want.planes, p, e).tolist()) == one

    @pytest.mark.parametrize("e", [1, 2])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_jordan_nilpotent_lanes_are_the_per_object_draws(self, p, e):
        seeds = [3000 + 11 * k for k in range(4)] + [-1, 2 ** 64 + 5]  # masked as stream masks
        for kind, n in product(("GL", "SL"), (4, 5, 6)):
            spec = GroupSpec(kind, n)
            for parts in ((n,), (n - 2, 1, 1), (2,) * (n // 2) + (1,) * (n % 2)):
                jtype = JordanType(parts)
                x = jordan_nilpotent_lanes(spec, jtype, p, e, seeds)
                assert x.planes.shape == (len(seeds), e, n, n)
                for i, seed in enumerate(seeds):
                    want = ref_jordan_nilpotent(spec, jtype, p, e, seed)
                    assert x.lane(i) == want == random_nilpotent(spec, jtype, seed, p, e)
                    assert jordan_type_of(want) == parts and in_lie_algebra(spec, want)

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 2), (5, 1), (7, 1)])
    def test_stacked_orders_are_the_single_matrix_orders(self, p, e):
        specs = [spec for spec in every_group(p) for _ in range(2)]
        x = nilpotent_lanes(specs, p, e, range(len(specs)))
        u = ah_exp(x)
        degrees, orders = nilpotency_degree(x), nilpotent_order(x)
        exponents = unipotent_order_exponent(u)
        assert degrees.shape == orders.shape == exponents.shape == (len(specs),)
        for i, spec in enumerate(specs):
            x_i = x.lane(i, spec.n)
            d = nilpotency_degree(x_i)
            assert degrees[i] == d and (x_i ** d).is_zero() and not (x_i ** (d - 1)).is_zero()
            assert orders[i] == nilpotent_order(x_i)
            assert exponents[i] == unipotent_order_exponent(u.lane(i, spec.n))
            assert exponents[i] == orders[i]


def ref_det(rows, p, e):
    """Determinant of a square list of coordinate tuples by plain Gaussian
    elimination on ``Elem``s."""
    m = [[Elem(p, e, a) for a in row] for row in rows]
    det = Elem.lift(p, e, 1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if not m[r][c].is_zero()), None)
        if piv is None:
            return Elem.lift(p, e, 0)
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det = det * m[c][c]
        inv = m[c][c].inverse()
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def every_matrix(p, e, k):
    """Planes (p^(e k^2), e, k, k) of every k x k matrix over F_{p^e}."""
    total = p ** (e * k * k)
    return (np.arange(total)[:, None] // p ** np.arange(e * k * k) % p).reshape(total, e, k, k)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_closed_form_invertibility_is_det_planes(p, e):
    # every 1 x 1 and 2 x 2 matrix, every 3 x 3 one over F_2 and F_3 (3^9
    # seeded ones over the larger fields), each size alone and then all
    # padded as diag(A, 1) to 5 x 5 in one stack with seeded 4 x 4 and
    # 5 x 5 lanes, which go to det_planes
    rng = np.random.default_rng(p * 10 + e)
    stacks = [every_matrix(p, e, k) for k in (1, 2)]
    stacks.append(every_matrix(p, e, 3) if p ** (9 * e) <= 3 ** 9 else rng.integers(0, p, (3 ** 9, e, 3, 3)))
    stacks += [rng.integers(0, p, (500, e, k, k)) for k in (4, 5)]
    padded, sizes = [], []
    for planes in stacks:
        k = planes.shape[-1]
        want = linalg.det_planes(planes, p, e).any(axis=-1)
        assert want.any() and not want.all()
        assert np.array_equal(_invertible(planes[:, None], np.full(len(planes), k), p, e)[:, 0], want)
        pad = np.zeros((len(planes), e, 5, 5), dtype=np.int64)
        pad[:, 0] = np.eye(5, dtype=np.int64)
        pad[:, :, :k, :k] = planes
        padded.append(pad)
        sizes += [k] * len(planes)
    padded = np.concatenate(padded)
    want = linalg.det_planes(padded, p, e).any(axis=-1)
    assert np.array_equal(_invertible(padded[:, None], np.array(sizes), p, e)[:, 0], want)


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_invertible_lanes_leave_each_lane_at_its_stream_state(p, e):
    # three rounds of blocks on the same lanes, as p_elements draws them:
    # each lane keeps the first invertible matrix of its stream, a 0 x 0
    # block draws nothing and stays 1, and the state is the Stream's after
    # exactly the matrices drawn
    sizes = np.array([[0, 1, 2, 3, 4, 5, 1, 2, 3, 0, 6, 2],
                      [2, 0, 1, 4, 3, 1, 2, 2, 0, 3, 1, 5],
                      [1, 3, 0, 1, 2, 2, 4, 1, 3, 2, 0, 1]])
    seeds = [4000 + 13 * i for i in range(sizes.shape[1])]
    states = stream_lanes(seeds, "invertible")
    refs = [stream(seed, "invertible") for seed in seeds]
    for block in sizes:
        got = invertible_lanes(p, e, block, states)
        assert got.shape == (len(block), e, max(block), max(block))
        for i, (k, st) in enumerate(zip(block, refs)):
            while k:
                a = [[[st.below(p) for _ in range(k)] for _ in range(k)] for _ in range(e)]
                if not ref_det([[tuple(a[t][r][c] for t in range(e)) for c in range(k)] for r in range(k)],
                               p, e).is_zero():
                    break
            want = np.zeros((e, max(block), max(block)), dtype=np.int64)
            want[0] = np.eye(max(block), dtype=np.int64)
            if k:
                want[:, :k, :k] = a
            assert np.array_equal(got[i], want)
            assert int(states[i]) == st.state

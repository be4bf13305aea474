"""Matrix arithmetic against a scalar-by-scalar oracle in the plain-integer
reference field, plus serialization."""

import json

import numpy as np
import pytest

from ahspringer.matrices import FpMatrix, load_matrix
from ahspringer.rng import stream
from field_reference import Elem, elements


def coords(rows):
    return [[a.coords for a in row] for row in rows]


def entry(m, i, j):
    """The coordinates of entry (i, j), read off the planes."""
    return tuple(m.planes[:, i, j].tolist())


def random_fp_matrix(p, e, n, st):
    """A matrix and its rows as reference-field elements."""
    rows = [
        [Elem(p, e, tuple(st.below(p) for _ in range(e))) for _ in range(n)]
        for _ in range(n)
    ]
    return FpMatrix.from_rows(p, e, coords(rows)), rows


def naive_matmul(rows_a, rows_b, p, e):
    n = len(rows_a)
    zero = Elem.lift(p, e, 0)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + rows_a[i][k] * rows_b[k][j]
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 2), (3, 2), (7, 2), (65521, 2)])
def test_matmul_matches_scalar_oracle(p, e):
    st = stream(11, f"matmul/{p}/{e}")
    for trial in range(8):
        n = 2 + st.below(3)
        a, rows_a = random_fp_matrix(p, e, n, st)
        b, rows_b = random_fp_matrix(p, e, n, st)
        expected = FpMatrix.from_rows(p, e, coords(naive_matmul(rows_a, rows_b, p, e)))
        assert a @ b == expected


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2)])
def test_add_sub_scale_match_entries(p, e):
    st = stream(12, f"addsub/{p}/{e}")
    a, rows_a = random_fp_matrix(p, e, 3, st)
    b, rows_b = random_fp_matrix(p, e, 3, st)
    s = Elem(p, e, tuple(st.below(p) for _ in range(e)))
    for i in range(3):
        for j in range(3):
            assert entry(a + b, i, j) == (rows_a[i][j] + rows_b[i][j]).coords
            assert entry(a - b, i, j) == (rows_a[i][j] - rows_b[i][j]).coords
            assert entry(-a, i, j) == (-rows_a[i][j]).coords
            assert entry(a.scale(s.coords), i, j) == (s * rows_a[i][j]).coords
            assert entry(a.transpose(), i, j) == rows_a[j][i].coords


def test_pow_and_identity():
    a = FpMatrix.from_rows(5, 1, [[1, 2], [3, 4]])
    assert a ** 0 == FpMatrix.identity(5, 1, 2)
    assert a ** 1 == a
    assert a ** 3 == a @ a @ a
    with pytest.raises(ValueError):
        a ** -1


def test_trace():
    a = FpMatrix.from_rows(5, 1, [[1, 2], [3, 4]])
    assert np.trace(a.planes, axis1=1, axis2=2).tolist() == [5]  # reduced entries 1 + 4
    b = FpMatrix.from_rows(3, 2, [[(1, 1), 0], [0, (1, 2)]])
    assert (np.trace(b.planes, axis1=1, axis2=2) % 3).tolist() == [2, 0]


@pytest.mark.parametrize("p", [2, 3])
def test_entrywise_frobenius_is_ring_homomorphism(p):
    st = stream(13, f"frob/{p}")
    a, _ = random_fp_matrix(p, 2, 3, st)
    b, _ = random_fp_matrix(p, 2, 3, st)
    assert (a @ b).frobenius_entries() == a.frobenius_entries() @ b.frobenius_entries()
    assert (a + b).frobenius_entries() == a.frobenius_entries() + b.frobenius_entries()
    for i in range(3):
        for j in range(3):
            assert entry(a.frobenius_entries(), i, j) == (Elem(p, 2, entry(a, i, j)) ** p).coords


def test_shape_and_field_mismatch():
    a = FpMatrix.identity(3, 1, 2)
    with pytest.raises(ValueError):
        a + FpMatrix.identity(3, 1, 3)
    with pytest.raises(ValueError):
        a @ FpMatrix.identity(5, 1, 2)
    with pytest.raises(ValueError):
        a.scale((1, 0))  # two coordinates for a matrix over F_3


def test_json_round_trip_e1(tmp_path):
    a = FpMatrix.from_rows(3, 1, [[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    obj = a.to_json_obj()
    assert obj == {"p": 3, "e": 1, "n": 3, "entries": [[0, 1, 2], [1, 0, 1], [2, 2, 0]]}
    assert FpMatrix.from_json_obj(obj) == a
    path = tmp_path / "m.json"
    path.write_text(a.dumps())
    assert load_matrix(str(path)) == a


def test_json_round_trip_e2(tmp_path):
    a = FpMatrix.from_rows(3, 2, [[(1, 2), (0, 1)], [(2, 0), (1, 1)]])
    obj = json.loads(a.dumps())
    assert obj["entries"][0][0] == [1, 2]
    assert FpMatrix.from_json_obj(obj) == a


def test_json_malformed_inputs(tmp_path):
    with pytest.raises(ValueError):
        FpMatrix.from_json_obj({"p": 3, "e": 1, "n": 2})
    with pytest.raises(ValueError):
        FpMatrix.from_json_obj({"p": 3, "e": 1, "n": 2, "entries": [[0, 1]]})
    with pytest.raises(ValueError):
        FpMatrix.from_json_obj({"p": 3, "e": 1, "n": 2, "entries": [[0, [1, 1]], [0, 0]]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="bad.json"):
        load_matrix(str(bad))


def test_entries_reduced_and_immutable():
    a = FpMatrix.from_rows(3, 1, [[4, -1], [0, 0]])
    assert entry(a, 0, 0) == (1,)
    assert entry(a, 0, 1) == (2,)
    with pytest.raises(ValueError):
        a.planes[0, 0, 0] = 2
    with pytest.raises(AttributeError):
        a.n = 5


def test_equality_covers_field_and_shape():
    a = FpMatrix.identity(3, 1, 2)
    assert a != FpMatrix.identity(5, 1, 2)
    assert a != FpMatrix.identity(3, 2, 2)
    assert a == FpMatrix.from_rows(3, 1, [[1, 0], [0, 1]])


def test_scalar_scaling_by_every_element():
    a = FpMatrix.from_rows(3, 2, [[(1, 1), (2, 0)], [(0, 2), (1, 0)]])
    for s in elements(3, 2):
        scaled = a.scale(s.coords)
        for i in range(2):
            for j in range(2):
                assert entry(scaled, i, j) == (s * Elem(3, 2, entry(a, i, j))).coords


@pytest.mark.parametrize("e", [1, 2])
def test_scale_acts_lane_by_lane(e):
    st = stream(14, f"scale-lanes/{e}")
    lanes = [random_fp_matrix(3, e, 3, st)[0] for _ in range(4)]
    stack = FpMatrix._wrap(3, e, 3, np.stack([m.planes for m in lanes]))
    s = (2, 1)[:e]
    scaled = stack.scale(s)
    assert scaled.planes.shape == stack.planes.shape
    assert all(scaled.lane(i) == m.scale(s) for i, m in enumerate(lanes))


def test_constructor_validation():
    with pytest.raises(ValueError):
        FpMatrix(3, 1, np.zeros((2, 2, 2), dtype=np.int64))  # wrong plane count
    with pytest.raises(ValueError):
        FpMatrix(3, 1, np.zeros((1, 2, 3), dtype=np.int64))  # not square
    with pytest.raises(ValueError):
        FpMatrix.from_rows(3, 1, [[0, 1], [0]])  # ragged rows
    with pytest.raises(ValueError):
        FpMatrix.from_rows(3, 2, [[(1, 2, 3), 0], [0, 0]])  # bad coords


def test_repr_smoke():
    assert "p=3" in repr(FpMatrix.identity(3, 1, 2))
    assert "e=2" in repr(FpMatrix.identity(3, 2, 2))


def test_prime_bound_keeps_products_exact():
    # 65521 is the largest prime below the bound 2^16, 65537 the first above
    p = 65521
    a = FpMatrix.from_rows(p, 1, [[p - 1, p - 1], [p - 1, p - 1]])
    assert (a @ a).planes[0].tolist() == [[2, 2], [2, 2]]
    with pytest.raises(ValueError, match="below 65536"):
        FpMatrix.identity(65537, 1, 2)

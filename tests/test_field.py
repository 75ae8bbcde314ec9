"""Exhaustive field-axiom checks for every supported field."""

import itertools

import numpy as np
import pytest

from agcodes import alist, analysis, linalg, transforms
from agcodes.codes import Code, PointEnumeration
from agcodes.errors import (DependentForms, DimensionMismatch, DivisionByZero, NotPrimePower,
                            SingularMatrix, Unsupported)
from agcodes.field import digits, make_field, undigits
from agcodes.monomials import Rectangle, linear_form_power_basis

SUPPORTED_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_axioms_exhaustive(q):
    F = make_field(q)
    els = range(F.q)
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_no_zero_divisors(q):
    F = make_field(q)
    for a in range(1, q):
        for b in range(1, q):
            assert F.mul(a, b) != 0


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_frobenius_is_additive(q):
    F = make_field(q)
    for a in range(q):
        for b in range(q):
            lhs = F.pow(int(F.add(a, b)), F.p)
            rhs = F.add(F.pow(a, F.p), F.pow(b, F.p))
            assert lhs == rhs


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_pow_table_and_fermat(q):
    F = make_field(q)
    for a in range(q):
        acc = 1
        for e in range(3 * q):  # e >= q: pow folds the exponent
            if e < q:
                assert F.pow_table[a, e] == acc
            assert F.pow(a, e) == acc
            acc = int(F.mul(acc, a))
    for a in range(1, q):
        assert F.pow(a, q - 1) == 1
    assert F.pow(0, 0) == 1


def test_pow_large_exponent_reduction():
    F = make_field(9)
    for a in range(1, 9):
        assert F.pow(a, 1000) == F.pow(a, 1000 % 8)
        assert F.pow(a, 2 ** 70) == F.pow(a, 2 ** 70 % 8)  # past int64


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError, match="negative exponent"):
        make_field(3).pow(2, -1)


@pytest.mark.parametrize("q", [6, 10, 12, 15, 1, 0])
def test_not_prime_power_rejected(q):
    with pytest.raises(NotPrimePower):
        make_field(q)


@pytest.mark.parametrize("q", [17, 25, 27, 32])
def test_cap_enforced(q):
    with pytest.raises((Unsupported, NotPrimePower)):
        make_field(q)


def test_inverse_of_zero_raises():
    F = make_field(5)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):  # subclass relationship
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.inv(np.array([1, 0, 2], dtype=np.uint8))


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_inverse_of_an_array(q):
    F = make_field(q)
    a = np.arange(1, q, dtype=np.uint8)
    assert (F.mul(a, F.inv(a)) == 1).all()
    assert F.inv(a.reshape(1, -1)).shape == (1, q - 1)
    with pytest.raises(DivisionByZero):
        F.inv(np.arange(q, dtype=np.uint8))


def test_vectorized_ops_match_scalar():
    """The array ops against the scalar table entries, for every q, on
    broadcast shapes, 0-d values, empty arrays and int64 inputs."""
    rng = np.random.default_rng(0)
    for q in SUPPORTED_Q:
        F = make_field(q)
        refs = {F.add: lambda a, b: F.add_table[a, b],
                F.sub: lambda a, b: F.add_table[a, F.neg_table[b]],
                F.mul: lambda a, b: F.mul_table[a, b]}
        col = rng.integers(0, q, (5, 1)).astype(np.uint8)
        row = rng.integers(0, q, (1, 7)).astype(np.uint8)
        x = int(rng.integers(0, q))
        cases = [(col, row), (row, col), (np.uint8(x), row), (row, np.array(x)),
                 (x, col), (col.astype(np.int64), row.astype(np.int64)),
                 (np.zeros((0, 7), dtype=np.uint8), row), (x, np.zeros(0, np.int64))]
        for op, ref in refs.items():
            for a, b in cases:
                A, B = np.broadcast_arrays(np.asarray(a), np.asarray(b))
                out = op(a, b)
                assert out.dtype == np.uint8 and out.shape == A.shape
                assert out.ravel().tolist() == [ref(int(u), int(v)) for u, v in
                                                zip(A.ravel(), B.ravel())]
        for a in [col, row.astype(np.int64), np.array(x), np.zeros((3, 0), np.uint8)]:
            out = F.neg(a)
            assert out.dtype == np.uint8 and out.shape == np.shape(a)
            assert out.ravel().tolist() == [F.neg_table[int(u)] for u in np.ravel(a)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_lookup_scales_either_operand(q):
    """add, sub, mul and neg read the 2-D tables whichever operand is the
    smaller one scaled by q: a smaller a, a smaller b, equal shapes, 0-d
    and empty operands, as uint8 and as int64."""
    F = make_field(q)
    rng = np.random.default_rng(q)
    big = rng.integers(0, q, (6, 9)).astype(np.uint8)
    col, row = big[:, :1].copy(), big[:1].copy()
    x = np.array(int(rng.integers(0, q)))
    empty = np.zeros((0, 9), dtype=np.uint8)
    cases = [(col, big), (big, col), (row, big), (big, row), (big, big[::-1]),
             (col, row), (row, col), (x, big), (big, x), (x, x), (empty, row), (row, empty),
             (int(x), empty), (empty, int(x))]
    for a, b in cases + [(np.asarray(a, np.int64), b) for a, b in cases[:6]] \
            + [(a, np.asarray(b, np.int64)) for a, b in cases[:6]]:
        A, B = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        for op, table in ((F.add, F.add_table), (F.sub, F.sub_table), (F.mul, F.mul_table)):
            out = op(a, b)
            assert out.dtype == np.uint8 and out.shape == A.shape
            assert np.array_equal(out, table[A, B]), (op.__name__, np.shape(a), np.shape(b))
    for a in (big, col.astype(np.int64), x, empty):
        assert np.array_equal(F.neg(a), F.neg_table[a])


def test_make_field_is_cached():
    assert make_field(4) is make_field(4)


@pytest.mark.parametrize("base", range(2, 17))
def test_undigits_inverts_digits(base):
    """Every value below base^width for widths 0..3, and random values of
    up to 62 bits; digits are uint8, least significant first."""
    for width in range(4):
        v = np.arange(base ** width)
        D = digits(v, base, width)
        assert D.dtype == np.uint8 and D.shape == (v.size, width)
        assert undigits(D, base).tolist() == v.tolist()
    width = 62 // (base - 1).bit_length()
    v = np.random.default_rng(base).integers(0, base ** width, (3, 5))
    D = digits(v, base, width)
    assert D.shape == (3, 5, width)
    assert D[..., 0].tolist() == (v % base).tolist()
    assert undigits(D, base).dtype == np.int64
    assert undigits(D, base).tolist() == v.tolist()


@pytest.mark.parametrize("q,ell,ell_prime", [(2, 1, 1), (2, 2, 3), (3, 2, 2),
                                             (4, 1, 3), (16, 1, 2)])
def test_points_are_digits_of_their_index(q, ell, ell_prime):
    pe = PointEnumeration(Rectangle(ell, ell_prime), make_field(q))
    assert np.array_equal(pe.points, digits(np.arange(pe.n), q, ell * ell_prime))
    for i in range(0, pe.n, max(1, pe.n // 50)):
        assert pe.index_of(pe.point(i)) == i


def test_index_of_checks_shape_and_entries():
    """A point is an l x l' matrix over F_q: any other shape, or an entry
    that would give an index >= n, is rejected."""
    pe = PointEnumeration(Rectangle(1, 2), make_field(2))
    for bad in [np.zeros((3, 3), dtype=np.uint8), np.zeros(2, dtype=np.uint8),
                np.zeros((2, 1), dtype=np.uint8)]:
        with pytest.raises(DimensionMismatch):
            pe.index_of(bad)
    with pytest.raises(ValueError):
        pe.index_of(np.array([[5, 5]]))
    assert pe.index_of([[1, 1]]) == 3


def _past_a_byte(M):
    """M as int64 with 256 added to its first entry: a uint8 cast would
    read it as the valid entry it was."""
    M = np.array(M, dtype=np.int64)
    M.reshape(-1)[0] += 256
    return M


_F3 = make_field(3)
_I2 = np.eye(2, dtype=np.uint8)
_C3 = Code(_F3, np.array([[2, 1, 2], [0, 1, 1]], dtype=np.uint8))

_HALF = np.array([[1, 0.5], [0, 1]])  # a non-integral entry in a 2 x 2 matrix

_PAST_A_BYTE = {
    "Code": lambda: Code(_F3, _past_a_byte(_C3.generator)),
    "Code.contains": lambda: _C3.contains(_past_a_byte(_C3.generator[0])),
    "span_generation_test": lambda: analysis.span_generation_test(
        _C3, _past_a_byte(_C3.generator)),
    "rref": lambda: linalg.rref(_past_a_byte(_I2), _F3),
    "nullspace": lambda: linalg.nullspace(_past_a_byte(_I2), _F3),
    "inv_matrix": lambda: linalg.inv_matrix(_past_a_byte(_I2), _F3),
    "rowspace_equal(A)": lambda: linalg.rowspace_equal(_past_a_byte(_I2), _I2, _F3),
    "rowspace_equal(B)": lambda: linalg.rowspace_equal(_I2, _past_a_byte(_I2), _F3),
    "AffineTransform(B)": lambda: transforms.AffineTransform(
        B=_past_a_byte(np.eye(1)), A=_I2, u=np.zeros((1, 2)), field=make_field(2)),
    "AffineTransform(A)": lambda: transforms.AffineTransform(
        B=np.eye(1), A=_past_a_byte(_I2), u=np.zeros((1, 2)), field=make_field(2)),
    "rank_counterexample_check": lambda: analysis.rank_counterexample_check(
        3, 2, 2, _past_a_byte(_I2)),
    "linear_form_power_basis": lambda: linear_form_power_basis(_F3, _past_a_byte(_I2)),
    "index_of": lambda: PointEnumeration(Rectangle(1, 2), _F3).index_of(
        _past_a_byte([[0, 0]])),
    "export_parity_alist": lambda: alist.export_parity_alist(
        _past_a_byte(_C3.generator), "H.alist", 3),
}


@pytest.mark.parametrize("entry", list(_PAST_A_BYTE))
def test_entries_past_a_byte_rejected(entry, tmp_path, monkeypatch):
    """Every public entry point that takes a matrix or a word checks its
    entries against F_q before any uint8 cast, so 256 + a is not read as
    a; each raises ValueError (a writer before it opens a file)."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="not an element of F_"):
        _PAST_A_BYTE[entry]()
    assert list(tmp_path.iterdir()) == []


_NON_INTEGRAL = {
    "Code": lambda: Code(_F3, np.array([[2.5, 1, 0]])),
    "Code.contains": lambda: _C3.contains(np.array([2, 1.5, 2])),
    "rank": lambda: linalg.rank(np.array([[1, 0.5], [0, 1]]), _F3),
    "rank over F_2": lambda: linalg.rank(np.array([[1, 0.5], [0, 1]]), make_field(2)),
    "matmul(A)": lambda: linalg.matmul(np.array([[0.5, 1]]), _I2, _F3),
    "matmul(B)": lambda: linalg.matmul(_I2, np.array([[1, 0], [0, 1.25]]), _F3),
    "rref": lambda: linalg.rref(_HALF, _F3),
    "nullspace": lambda: linalg.nullspace(_HALF, _F3),
    "inv_matrix": lambda: linalg.inv_matrix(_HALF, _F3),
    "rowspace_equal(A)": lambda: linalg.rowspace_equal(_HALF, _I2, _F3),
    "rowspace_equal(B)": lambda: linalg.rowspace_equal(_I2, _HALF, _F3),
    "AffineTransform(B)": lambda: transforms.AffineTransform(
        B=[[0.5]], A=_I2, u=np.zeros((1, 2)), field=_F3),
    "AffineTransform(A)": lambda: transforms.AffineTransform(
        B=np.eye(1), A=_HALF, u=np.zeros((1, 2)), field=_F3),
    "rank_counterexample_check": lambda: analysis.rank_counterexample_check(3, 2, 2, _HALF),
    "span_generation_test": lambda: analysis.span_generation_test(
        _C3, np.array([[2, 1, 2], [0, 1, 1.5]])),
    "linear_form_power_basis": lambda: linear_form_power_basis(_F3, _HALF),
    "index_of": lambda: PointEnumeration(Rectangle(1, 2), _F3).index_of([[0, 0.5]]),
    "export_parity_alist": lambda: alist.export_parity_alist(
        np.array([[2.5, 1, 0]]), "H.alist", 3),
    "nan": lambda: Code(_F3, np.array([[np.nan, 1, 0]])),
    "complex": lambda: Code(_F3, np.array([[1 + 1j, 1, 0]])),
}


@pytest.mark.parametrize("entry", list(_NON_INTEGRAL))
def test_non_integral_entries_rejected(entry, tmp_path, monkeypatch):
    """A float entry that is not an integer raises ValueError instead of
    being truncated by the uint8 cast (2.5 would be read as 2)."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="non-integral entry"):
        _NON_INTEGRAL[entry]()
    assert list(tmp_path.iterdir()) == []


def test_integral_floats_accepted():
    """Integrality is tested, not the dtype: np.eye and np.zeros give
    floats that hold integers."""
    C = Code(_F3, np.array([[2.0, 1, 0], [0, 0, 1 + 0j]]))
    assert C.generator.dtype == np.uint8
    assert C.generator.tolist() == [[2, 1, 0], [0, 0, 1]]
    assert C.contains(np.array([1.0, 2.0, 0.0]))
    assert linalg.rank(np.eye(3), _F3) == 3
    assert linalg.matmul(np.eye(2), np.array([[2.0, 1.0], [0.0, 1.0]]), _F3).tolist() == \
        [[2, 1], [0, 1]]
    assert linalg.rank(np.zeros((2, 2)), make_field(2)) == 0


_GRID = PointEnumeration(Rectangle(1, 2), _F3)

# (error, call): each entry point on an operand that is not a matrix (1-D,
# or 3-D where any matrix is taken) and on one of a wrong length
_NOT_A_MATRIX = {
    "Code: 1-D": (DimensionMismatch, lambda: Code(_F3, [2, 1, 2])),
    "Code: 3-D": (DimensionMismatch, lambda: Code(_F3, _C3.generator[None])),
    "Code.contains: 2-D": (DimensionMismatch, lambda: _C3.contains(_C3.generator[:1])),
    "Code.contains: length": (DimensionMismatch, lambda: _C3.contains([2, 1])),
    "span_generation_test: 1-D": (DimensionMismatch, lambda: analysis.span_generation_test(
        _C3, _C3.generator[0])),
    "span_generation_test: length": (DimensionMismatch, lambda: analysis.span_generation_test(
        _C3, _C3.generator[:, :2])),
    "rank: 1-D": (DimensionMismatch, lambda: linalg.rank([1, 0, 2], _F3)),
    "rank: 3-D": (DimensionMismatch, lambda: linalg.rank(_I2[None], _F3)),
    "rank over F_2: 1-D": (DimensionMismatch, lambda: linalg.rank([1, 0], make_field(2))),
    "rref: 1-D": (DimensionMismatch, lambda: linalg.rref([1, 0, 2], _F3)),
    "rref: 3-D": (DimensionMismatch, lambda: linalg.rref(_I2[None], _F3)),
    "nullspace: 1-D": (DimensionMismatch, lambda: linalg.nullspace([1, 0, 2], _F3)),
    "nullspace: 3-D": (DimensionMismatch, lambda: linalg.nullspace(_I2[None], _F3)),
    "matmul(A): 1-D": (DimensionMismatch, lambda: linalg.matmul([1, 0], _I2, _F3)),
    "matmul(B): length": (DimensionMismatch, lambda: linalg.matmul(_I2, np.eye(3), _F3)),
    "inv_matrix: 1-D": (DimensionMismatch, lambda: linalg.inv_matrix([1, 0, 2], _F3)),
    "inv_matrix: length": (SingularMatrix, lambda: linalg.inv_matrix(np.ones((2, 3)), _F3)),
    "rowspace_equal(A): 1-D": (DimensionMismatch, lambda: linalg.rowspace_equal(
        [1, 0], _I2, _F3)),
    "rowspace_equal(B): length": (DimensionMismatch, lambda: linalg.rowspace_equal(
        np.eye(2), [[1, 0, 0], [0, 1, 0]], _F3)),
    "AffineTransform(B): 1-D": (DimensionMismatch, lambda: transforms.AffineTransform(
        B=[1], A=_I2, u=np.zeros((1, 2)), field=_F3)),
    "AffineTransform(A): 1-D": (DimensionMismatch, lambda: transforms.AffineTransform(
        B=np.eye(1), A=[1, 0], u=np.zeros((1, 2)), field=_F3)),
    "AffineTransform(B): length": (SingularMatrix, lambda: transforms.AffineTransform(
        B=np.ones((1, 2)), A=_I2, u=np.zeros((1, 2)), field=_F3)),
    "AffineTransform(u): length": (DimensionMismatch, lambda: transforms.AffineTransform(
        B=np.eye(1), A=_I2, u=np.zeros((1, 3)), field=_F3)),
    "rank_counterexample_check: 1-D": (DimensionMismatch, lambda:
                                       analysis.rank_counterexample_check(3, 2, 2, [1, 0, 0, 1])),
    "rank_counterexample_check: length": (DimensionMismatch, lambda:
                                          analysis.rank_counterexample_check(3, 2, 2, np.eye(3))),
    "linear_form_power_basis: 1-D": (DependentForms, lambda: linear_form_power_basis(
        _F3, [1, 0])),
    "linear_form_power_basis: length": (DependentForms, lambda: linear_form_power_basis(
        _F3, [[1, 0, 0], [0, 1, 0]])),
    "index_of: 1-D": (DimensionMismatch, lambda: _GRID.index_of([0, 1])),
    "index_of: length": (DimensionMismatch, lambda: _GRID.index_of([[0, 1, 0]])),
    "export_parity_alist: 1-D": (DimensionMismatch, lambda: alist.export_parity_alist(
        [1, 0, 2], "H.alist", 3)),
    "export_parity_alist: 3-D": (DimensionMismatch, lambda: alist.export_parity_alist(
        _C3.generator[None], "H.alist", 3)),
    "write_alist: 1-D": (DimensionMismatch, lambda: alist.write_alist([1, 0, 1], "H.alist")),
    "write_alist: 3-D": (DimensionMismatch, lambda: alist.write_alist(_I2[None], "H.alist")),
    "write_qval: 1-D": (DimensionMismatch, lambda: alist.write_qval([1, 0, 2], "H.qval")),
    "write_qval: 3-D": (DimensionMismatch, lambda: alist.write_qval(_I2[None], "H.qval")),
    "Permutation: 2-D": (DimensionMismatch, lambda: transforms.Permutation([[1, 0]])),
    "Permutation.apply: length": (DimensionMismatch, lambda: transforms.Permutation(
        [1, 0]).apply([5, 6, 7])),
}


@pytest.mark.parametrize("entry", list(_NOT_A_MATRIX))
def test_operands_of_the_wrong_shape_rejected(entry, tmp_path, monkeypatch):
    """An operand with the wrong number of axes, or a wrong length, raises
    DimensionMismatch before any entry is read (a writer before it opens a
    file), not a numpy error or a broadcast result.  inv_matrix keeps
    SingularMatrix for a 2-D matrix that is not square, and
    linear_form_power_basis DependentForms for forms that are not s x s."""
    monkeypatch.chdir(tmp_path)
    error, call = _NOT_A_MATRIX[entry]
    with pytest.raises(error):
        call()
    assert list(tmp_path.iterdir()) == []


def test_every_linalg_entry_point_is_in_the_shape_registry():
    """A new public function of agcodes.linalg must join _NOT_A_MATRIX, so
    no entry point skips the gate.  pack_rows and unpack_rows are left out:
    they take 0/1 codec arrays (bits and packed words), not field
    elements, and no field to check them against."""
    public = {name for name, obj in vars(linalg).items()
              if callable(obj) and not name.startswith("_")
              and getattr(obj, "__module__", None) == "agcodes.linalg"}
    covered = {entry.split(":")[0].split("(")[0].split(" ")[0] for entry in _NOT_A_MATRIX}
    assert public - {"pack_rows", "unpack_rows"} <= covered
    assert {"rank", "rref", "nullspace", "matmul", "inv_matrix", "rowspace_equal"} <= public

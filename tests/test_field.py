"""Exhaustive field-axiom checks for every supported field."""

import itertools

import numpy as np
import pytest

from agcodes import analysis, linalg, transforms
from agcodes.codes import Code, PointEnumeration
from agcodes.errors import DimensionMismatch, DivisionByZero, NotPrimePower, Unsupported
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

_PAST_A_BYTE = {
    "Code": lambda: Code(_F3, _past_a_byte(_C3.generator)),
    "Code.contains": lambda: _C3.contains(_past_a_byte(_C3.generator[0])),
    "span_generation_test": lambda: analysis.span_generation_test(
        _C3, _past_a_byte(_C3.generator)),
    "nullspace": lambda: linalg.nullspace(_past_a_byte(_I2), _F3),
    "inv_matrix": lambda: linalg.inv_matrix(_past_a_byte(_I2), _F3),
    "is_invertible": lambda: linalg.is_invertible(_past_a_byte(_I2), _F3),
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
}


@pytest.mark.parametrize("entry", list(_PAST_A_BYTE))
def test_entries_past_a_byte_rejected(entry):
    """Every public entry point that takes a matrix or a word checks its
    entries against F_q before any uint8 cast, so 256 + a is not read as
    a; each raises ValueError."""
    with pytest.raises(ValueError, match="not an element of F_"):
        _PAST_A_BYTE[entry]()

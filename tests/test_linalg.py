"""Linear algebra kernels over F_q, including the GF(2) bit-packed path."""

import operator

import numpy as np
import pytest

from agcodes import linalg
from agcodes.codes import Code
from agcodes.errors import SingularMatrix
from agcodes.field import make_field

FIELDS = [2, 3, 4, 5, 8, 9]


def _random_matrix(rng, rows, cols, q):
    return rng.integers(0, q, size=(rows, cols)).astype(np.uint8)


def test_gf2_reducer_matches_dense_rank():
    rng = np.random.default_rng(2)
    F = make_field(2)
    for _ in range(20):
        M = _random_matrix(rng, 12, 20, 2)
        dense = len(linalg.rref(M, F)[1])
        assert linalg.gf2_rank(M) == dense


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 63, 65])
def test_gf2_rank_against_rref(rows):
    """Over F_2, rank packs the columns of a tall matrix and the rows of a
    wide one, from any memory layout; rref of the same matrix is the
    reference."""
    F = make_field(2)
    rng = np.random.default_rng(rows)
    for cols in sorted({1, 3, 8, 64, rows, rows + 5, 2 * rows + 3}):
        M = _random_matrix(rng, rows, cols, 2)
        low = linalg.matmul(_random_matrix(rng, rows, 3, 2),
                            _random_matrix(rng, 3, cols, 2), F)  # rank <= 3
        strided = np.repeat(np.repeat(M, 2, axis=0), 3, axis=1)[::2, ::3]
        for A in [M, low, np.zeros((rows, cols), dtype=np.uint8),
                  np.ones((rows, cols), dtype=np.uint8), strided]:
            expected = len(linalg.rref(A, F)[1])
            assert linalg.rank(A, F) == linalg.rank(A.T, F) == expected
        if rows > cols:  # bit b of byte g in row j is M[8g + b, j]
            P = linalg._packed_columns(M)
            bits = np.unpackbits(P, axis=1, bitorder="little")
            assert (bits[:, :rows] == M.T).all() and not bits[:, rows:].any()


@pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 4097])
def test_packed_columns_against_packbits(rows):
    """Strips of _STRIP_ROWS rows, the last one partial, any column count
    and any memory layout give packbits' columns; pack_rows gives
    packbits' rows, zero-padded to whole uint64 words."""
    rng = np.random.default_rng(rows)
    for cols in [1, 5, 8, 13, 77]:
        M = _random_matrix(rng, rows, cols, 2)
        by_columns = np.packbits(M, axis=0, bitorder="little").T
        by_rows = np.packbits(M, axis=1, bitorder="little")
        strided = np.repeat(M, 2, axis=1)[:, ::2]  # neither C- nor F-ordered
        for view in [M, np.asfortranarray(M), M.T.copy().T, M.astype(bool), strided]:
            assert np.array_equal(linalg._packed_columns(view), by_columns)
            words = linalg.pack_rows(view)
            assert words.dtype == np.uint64 and words.shape == (rows, -(-cols // 64))
            packed = words.view(np.uint8)
            assert np.array_equal(packed[:, :by_rows.shape[1]], by_rows)
            assert not packed[:, by_rows.shape[1]:].any()
            assert np.array_equal(linalg.unpack_rows(words, cols), M)


def test_unpack_rows_inverts_pack_rows():
    """unpack_rows reads the words along the last axis of any layout and
    any number of leading axes, and stops at n entries."""
    rng = np.random.default_rng(4)
    for cols in [0, 1, 8, 63, 64, 65, 130]:
        M = _random_matrix(rng, 6, cols, 2)
        P = linalg.pack_rows(M)
        U = linalg.unpack_rows(P, cols)
        assert U.dtype == np.uint8 and U.shape == (6, cols) and np.array_equal(U, M)
        stacked = np.stack([P, P[::-1]], axis=2)  # (6, words, 2)
        U3 = linalg.unpack_rows(stacked.transpose(2, 0, 1), cols)
        assert np.array_equal(U3, np.stack([M, M[::-1]]))


def _gf2_reference(A, B):
    return (A.astype(np.int64) @ B.astype(np.int64)) % 2


@pytest.mark.parametrize("inner", [0, 1, 7, 8, 9, 64, 65, 513])
def test_matmul_gf2_against_integer_product(inner):
    """Bool input and F-ordered views of A and B give the integer
    product mod 2, on every edge of a byte and of a uint64 word."""
    rng = np.random.default_rng(inner)
    for rows in [0, 1, 2049]:
        for cols in [0, 1, 63, 64, 65, 130]:
            A = _random_matrix(rng, rows, inner, 2)
            B = _random_matrix(rng, inner, cols, 2)
            expected = _gf2_reference(A, B)
            for left, right in [(A, B), (A.astype(bool), B.astype(bool)),
                                (A.T.copy().T, B.T.copy().T)]:
                C = linalg._matmul_gf2(left, right)
                assert C.dtype == np.uint8 and C.shape == (rows, cols)
                assert np.array_equal(C, expected)


@pytest.mark.parametrize("block_words", [1, 300, 512, 1024])
def test_matmul_gf2_over_small_blocks(block_words, monkeypatch):
    """Row blocks of one or more rows and groups of one or more byte
    tables, ending part-way through the rows and the byte positions."""
    monkeypatch.setattr(linalg, "_GF2_BLOCK_WORDS", block_words)
    rng = np.random.default_rng(block_words)
    for rows, inner, cols in [(301, 65, 1), (301, 513, 65), (77, 130, 130), (5, 9, 200)]:
        A = _random_matrix(rng, rows, inner, 2)
        B = _random_matrix(rng, inner, cols, 2)
        assert np.array_equal(linalg._matmul_gf2(A, B), _gf2_reference(A, B))


def test_characteristic_two_products_use_no_floats(monkeypatch):
    """Every product over F_2 and F_{2^t} takes the byte-table kernel."""
    def refuse(*args):
        raise AssertionError("a p = 2 product reached the odd-prime path")
    monkeypatch.setattr(linalg, "_matmul_mod_p", refuse)
    rng = np.random.default_rng(3)
    for q in [2, 4, 8, 16]:
        F = make_field(q)
        for rows, inner, cols in [(7, 33, 5), (1, 200, 1), (3, 0, 4), (0, 5, 3)]:
            A = _random_matrix(rng, rows, inner, q)
            B = _random_matrix(rng, inner, cols, q)
            assert linalg.matmul(A, B, F).tolist() == _field_matmul_reference(A, B, F)


@pytest.mark.parametrize("q", FIELDS)
def test_rref_shape_and_pivots(q):
    rng = np.random.default_rng(q)
    F = make_field(q)
    M = _random_matrix(rng, 6, 9, q)
    R, pivots = linalg.rref(M, F)
    for i, c in enumerate(pivots):
        assert R[i, c] == 1
        col = R[:, c].copy()
        col[i] = 0
        assert not col.any()
    assert linalg.rowspace_equal(M, R[:len(pivots)], F)


@pytest.mark.parametrize("q", FIELDS)
def test_nullspace_annihilates(q):
    rng = np.random.default_rng(10 + q)
    F = make_field(q)
    M = _random_matrix(rng, 5, 11, q)
    N = linalg.nullspace(M, F)
    assert N.shape[0] == 11 - linalg.rank(M, F)
    if N.size:
        assert not linalg.matmul(M, N.T, F).any()
        assert linalg.rank(N, F) == N.shape[0]


@pytest.mark.parametrize("q", FIELDS)
def test_matmul_matches_schoolbook(q):
    rng = np.random.default_rng(20 + q)
    F = make_field(q)
    A = _random_matrix(rng, 4, 6, q)
    B = _random_matrix(rng, 6, 5, q)
    C = linalg.matmul(A, B, F)
    for i in range(4):
        for j in range(5):
            acc = 0
            for t in range(6):
                acc = int(F.add(acc, int(F.mul(int(A[i, t]), int(B[t, j])))))
            assert C[i, j] == acc


def _field_matmul_reference(A, B, F):
    """A B entry by entry with the field's add and mul tables."""
    out = []
    for row in A.tolist():
        out.append([])
        for col in B.T.tolist():
            acc = 0
            for a, b in zip(row, col):
                acc = int(F.add_table[acc, F.mul_table[a, b]])
            out[-1].append(acc)
    return out


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_extension_matmul_matches_elementwise(q, monkeypatch):
    rng = np.random.default_rng(40 + q)
    F = make_field(q)
    shapes = [(7, 33, 5), (1, 200, 1), (3, 0, 4), (0, 5, 3), (4, 6, 0), (0, 0, 0),
              (5, 8, 66), (9, 64, 3), (2, 65, 9)]
    for rows, inner, cols in shapes:
        A = _random_matrix(rng, rows, inner, q)
        B = _random_matrix(rng, inner, cols, q)
        C = linalg.matmul(A, B, F)
        assert C.dtype == np.uint8 and C.shape == (rows, cols)
        assert C.tolist() == _field_matmul_reference(A, B, F)
    A = np.full((3, 50), q - 1, dtype=np.uint8)  # every digit at its largest
    assert linalg.matmul(A, A.T, F).tolist() == _field_matmul_reference(A, A.T, F)
    monkeypatch.setattr(linalg, "_MATMUL_BLOCK_CELLS", 40)  # many row blocks
    A, B = _random_matrix(rng, 23, 9, q), _random_matrix(rng, 9, 4, q)
    assert linalg.matmul(A, B, F).tolist() == _field_matmul_reference(A, B, F)


def _matmul_reference(A, B, p):
    cols = B.T.tolist()
    return [[sum(map(operator.mul, row, col)) % p for col in cols] for row in A.tolist()]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_matmul_is_exact(p):
    rng = np.random.default_rng(50 + p)
    F = make_field(p)
    for rows, inner, cols in [(7, 33, 5), (1, 200, 1), (3, 0, 4), (0, 5, 3),
                              (4, 6, 0), (0, 0, 0), (5, 8, 66), (9, 64, 3), (2, 65, 9)]:
        A = _random_matrix(rng, rows, inner, p)
        B = _random_matrix(rng, inner, cols, p)
        C = linalg.matmul(A, B, F)
        assert C.dtype == np.uint8 and C.shape == (rows, cols)
        assert C.tolist() == _matmul_reference(A, B, p)
    # all entries p - 1: the largest products
    A = np.full((3, 1000), p - 1, dtype=np.uint8)
    assert linalg.matmul(A, A.T, F).tolist() == _matmul_reference(A, A.T, p)


@pytest.mark.parametrize("inner, value", [(120_000, 12), (150_001, 11)])
def test_prime_matmul_past_float32_integers(inner, value):
    # inner * value^2 exceeds 2^24, past which float32 holds no odd integer
    # (150001 * 121 is odd): the int64 products stay exact
    F = make_field(13)
    A = np.full((1, inner), value, dtype=np.uint8)
    assert inner * value ** 2 > 2 ** 24
    assert linalg.matmul(A, A.T, F).tolist() == [[inner * value ** 2 % 13]]


@pytest.mark.parametrize("p", [2, 3, 13])
def test_prime_matmul_over_row_blocks(p, monkeypatch):
    rng = np.random.default_rng(70 + p)
    F = make_field(p)
    # A at full block size: 7 rows of 2^18 + 1 entries are 3 row blocks,
    # and each row's sum passes 2^24 for p = 13
    inner = 2 ** 18 + 1
    A = _random_matrix(rng, 7, inner, p)
    B = _random_matrix(rng, inner, 2, p)
    assert linalg._MATMUL_BLOCK_CELLS // inner == 3
    assert linalg.matmul(A, B, F).tolist() == _matmul_reference(A, B, p)
    # small blocks, so that many shapes cross block boundaries
    monkeypatch.setattr(linalg, "_MATMUL_BLOCK_CELLS", 40)
    for rows, inner, cols in [(23, 9, 4), (10, 40, 3), (5, 41, 1), (9, 100, 2),
                              (0, 9, 3), (6, 0, 2)]:
        A = _random_matrix(rng, rows, inner, p)
        B = _random_matrix(rng, inner, cols, p)
        C = linalg.matmul(A, B, F)
        assert C.dtype == np.uint8 and C.tolist() == _matmul_reference(A, B, p)


def _scalar_ops(F):
    """(sub, mul, inv) on Python ints: arithmetic mod p over a prime field,
    one lookup in the field's tables at a time otherwise."""
    if F.t == 1:
        p = F.p
        return (lambda a, b: (a - b) % p, lambda a, b: a * b % p,
                lambda a: pow(a, -1, p))
    return (lambda a, b: int(F.sub(a, b)), lambda a, b: int(F.mul(a, b)), F.inv)


def _reference_rref(M, F):
    """Gauss-Jordan elimination on Python ints, one scalar at a time."""
    sub, mul, inv = _scalar_ops(F)
    R = [list(row) for row in M.tolist()]
    pivots, r = [], 0
    for c in range(M.shape[1]):
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        f = inv(R[r][c])
        R[r] = [mul(x, f) for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [sub(x, mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def _reference_nullspace(M, F):
    sub = _scalar_ops(F)[0]
    R, pivots = _reference_rref(M, F)
    free = [c for c in range(M.shape[1]) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * M.shape[1]
        v[fc] = 1
        for i, c in enumerate(pivots):
            v[c] = sub(0, R[i][fc])
        basis.append(v)
    return basis


def _elimination_matrix(shape, fill, q, F):
    """fill is "random", "low_rank" (rank <= 2), or else every entry q - 1."""
    rng = np.random.default_rng(sum(shape))
    if fill == "random":
        return _random_matrix(rng, *shape, q)
    if fill == "low_rank":
        return linalg.matmul(_random_matrix(rng, shape[0], 2, q),
                             _random_matrix(rng, 2, shape[1], q), F)
    return np.full(shape, q - 1, dtype=np.uint8)


_SHAPES = [(5, 7), (7, 5), (1, 1), (3, 40), (0, 4)]


def _prime_elimination_cases():
    """(p, fill, shape); the p = 13 cases keep the ids they had when this
    test covered p = 13 alone, and "all{p-1}" fills every entry with p - 1."""
    for p in [2, 3, 5, 7, 11, 13]:
        for fill in [f"all{p - 1}", "random", "low_rank"]:
            for i, shape in enumerate(_SHAPES):
                tag = "" if p == 13 else f"p{p}-"
                yield pytest.param(p, fill, shape, id=f"{tag}{fill}-shape{i}")


@pytest.mark.parametrize("p, fill, shape", _prime_elimination_cases())
def test_prime_elimination_against_reference(p, fill, shape):
    F = make_field(p)
    M = _elimination_matrix(shape, fill, p, F)
    R_ref, pivots_ref = _reference_rref(M, F)
    R, pivots = linalg.rref(M, F)
    assert R.dtype == np.uint8
    assert R.tolist() == R_ref and pivots == pivots_ref
    assert linalg.rank(M, F) == len(pivots_ref)
    assert linalg.nullspace(M, F).tolist() == _reference_nullspace(M, F)


@pytest.mark.parametrize("q", [4, 8, 9, 16])
@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("fill", ["all_top", "random", "low_rank"])
def test_extension_elimination_against_reference(q, shape, fill):
    F = make_field(q)
    M = _elimination_matrix(shape, fill, q, F)
    R_ref, pivots_ref = _reference_rref(M, F)
    R, pivots = linalg.rref(M, F)
    assert R.tolist() == R_ref and pivots == pivots_ref
    assert linalg.rank(M, F) == len(pivots_ref)
    N = linalg.nullspace(M, F)
    assert N.dtype == np.uint8 and N.shape == (shape[1] - len(pivots_ref), shape[1])
    assert N.tolist() == _reference_nullspace(M, F)


@pytest.mark.parametrize("q", FIELDS)
def test_rank_of_tall_matrix(q):
    rng = np.random.default_rng(60 + q)
    F = make_field(q)
    M = np.concatenate([_random_matrix(rng, 4, 9, q)] * 5)  # 20 x 9, rank <= 4
    assert linalg.rank(M, F) == len(linalg.rref(M, F)[1]) == linalg.rank(M.T, F)


@pytest.mark.parametrize("q", FIELDS)
def test_inverse_roundtrip(q):
    rng = np.random.default_rng(30 + q)
    F = make_field(q)
    n = 5
    while True:
        A = _random_matrix(rng, n, n, q)
        if linalg.is_invertible(A, F):
            break
    Ainv = linalg.inv_matrix(A, F)
    assert np.array_equal(linalg.matmul(A, Ainv, F), np.eye(n, dtype=np.uint8))
    assert np.array_equal(linalg.matmul(Ainv, A, F), np.eye(n, dtype=np.uint8))


def test_singular_matrix_raises():
    F = make_field(3)
    with pytest.raises(SingularMatrix):
        linalg.inv_matrix(np.ones((3, 3), dtype=np.uint8), F)
    with pytest.raises(SingularMatrix):
        linalg.inv_matrix(np.ones((2, 3), dtype=np.uint8), F)


@pytest.mark.parametrize("q", [2, 3, 4, 16])
def test_entries_outside_the_field_rejected(q):
    """A table lookup would read an entry >= q as another entry, so every
    entry point that takes a matrix rejects one."""
    F = make_field(q)
    for bad in [np.array([[1, 0], [1, q]], dtype=np.uint8),
                np.array([[1, 0], [1, -1]], dtype=np.int64)]:
        for call in [lambda: linalg.rref(bad, F), lambda: linalg.rank(bad, F),
                     lambda: linalg.nullspace(bad, F),
                     lambda: linalg.matmul(bad, np.eye(2, dtype=np.uint8), F),
                     lambda: linalg.matmul(np.eye(2, dtype=np.uint8), bad, F),
                     lambda: Code(F, bad).contains(np.zeros(2, dtype=np.uint8))]:
            with pytest.raises(ValueError):
                call()


def test_rowspace_equal_detects_difference():
    F = make_field(2)
    A = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8)
    B = np.array([[1, 1, 0], [0, 1, 0]], dtype=np.uint8)
    C = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    assert linalg.rowspace_equal(A, B, F)
    assert not linalg.rowspace_equal(A, C, F)
    assert not linalg.rowspace_equal(A, A[:1], F)  # unequal ranks


def test_rank_of_empty_matrix():
    for q in (2, 3):
        for shape in [(0, 5), (5, 0), (0, 0)]:
            assert linalg.rank(np.zeros(shape, dtype=np.uint8), make_field(q)) == 0

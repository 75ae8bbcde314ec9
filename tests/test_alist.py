"""MacKay alist export and round-trip parsing."""

import tracemalloc

import numpy as np
import pytest

from agcodes import alist
from agcodes.alist import (_BLOCK_CELLS, _format, _write_rows, export_parity_alist,
                           read_alist, write_alist, write_qval)
from agcodes.codes import Code, build_affine_grassmann, write_generator
from agcodes.dual import build_dual_code
from agcodes.errors import TooLarge
from agcodes.field import make_field


def test_header_and_weights(tmp_path):
    H = np.array([
        [1, 0, 1, 0],
        [0, 1, 1, 1],
    ], dtype=np.uint8)
    path = tmp_path / "h.alist"
    write_alist(H, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "4 2"          # n m
    assert lines[1] == "2 3"          # max col/row weight
    assert lines[2] == "1 1 2 1"      # column weights
    assert lines[3] == "2 3"          # row weights
    assert lines[4] == "1 0"          # column 1 hits row 1, padded
    assert lines[6] == "1 2"          # column 3 hits rows 1 and 2
    assert lines[8] == "1 3 0"        # row 1 hits columns 1 and 3, padded


def test_roundtrip_random(tmp_path):
    rng = np.random.default_rng(0)
    H = (rng.random((7, 13)) < 0.3).astype(np.uint8)
    path = tmp_path / "r.alist"
    write_alist(H, path)
    assert np.array_equal(read_alist(path), H)


def test_roundtrip_dual_parity_check(tmp_path):
    C = build_affine_grassmann(2, 4, 2, 2)
    D = build_dual_code(C)
    path = tmp_path / "dual.alist"
    export_parity_alist(D.generator, path, 2)
    assert np.array_equal(read_alist(path), D.generator)
    assert not (tmp_path / "dual.alist.qval").exists()  # q = 2: no companion


def test_qval_companion(tmp_path):
    C = build_affine_grassmann(1, 2, 1, 3)
    D = build_dual_code(C)
    path = tmp_path / "d3.alist"
    export_parity_alist(D.generator, path, 3)
    qval = (str(path) + ".qval")
    lines = open(qval).read().splitlines()
    # one line per column then one per row, values in traversal order
    assert len(lines) == D.n + D.k
    H = D.generator
    for j in range(D.n):
        vals = [int(v) for v in lines[j].split()]
        assert vals == [int(H[i, j]) for i in range(D.k) if H[i, j]]
    for i in range(D.k):
        vals = [int(v) for v in lines[D.n + i].split()]
        assert vals == [int(H[i, j]) for j in range(D.n) if H[i, j]]


def test_weight_mismatch_detected(tmp_path):
    H = np.eye(3, dtype=np.uint8)
    path = tmp_path / "bad.alist"
    write_alist(H, path)
    text = path.read_text().splitlines()
    text[2] = "2 1 1"  # corrupt a column weight
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError):
        read_alist(path)


# H = [[1 0 1 0], [0 1 1 1]]: header, weights, then 4 column and 2 row lists.
_GOOD = ["4 2", "2 3", "1 1 2 1", "2 3",
         "1 0", "2 0", "1 2", "2 0",
         "1 3 0", "2 3 4"]


@pytest.mark.parametrize("line, text", [
    (1, "2 4"),        # header maximum row weight
    (1, "3 3"),        # header maximum column weight
    (3, "3 2"),        # row weights (the maximum still matches)
    (4, "2 0"),        # a column list: weight kept, row moved
    (5, "2 2"),        # a column list with a repeated index
    (6, "1 3"),        # a column list with an index out of range
    (8, "1 4 0"),      # a row list: weight kept, column moved
    (9, "2 3 0"),      # a row list one entry short
    (9, "-1 3 4"),     # a row list with a negative index
])
def test_every_corrupted_line_is_detected(line, text, tmp_path):
    path = tmp_path / "good.alist"
    path.write_text("\n".join(_GOOD) + "\n")
    H = read_alist(path)
    assert H.tolist() == [[1, 0, 1, 0], [0, 1, 1, 1]]
    lines = list(_GOOD)
    lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_alist(path)


@pytest.mark.parametrize("lines", [_GOOD[:-1], _GOOD + ["1 2 3"], ["4 2"], []])
def test_wrong_line_count_is_detected(lines, tmp_path):
    path = tmp_path / "short.alist"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError):
        read_alist(path)


# ------------------------------------------------ byte identity of the writers
# Per-element reference writers: the text format entry by entry.

def _ref_alist(H, path):
    H = np.asarray(H)
    m, n = H.shape
    col_idx = [list(np.nonzero(H[:, j])[0] + 1) for j in range(n)]
    row_idx = [list(np.nonzero(H[i, :])[0] + 1) for i in range(m)]
    max_col = max((len(c) for c in col_idx), default=0)
    max_row = max((len(r) for r in row_idx), default=0)

    def padded(idx, width):
        return " ".join(str(v) for v in idx + [0] * (width - len(idx)))

    with open(path, "w") as fh:
        fh.write(f"{n} {m}\n")
        fh.write(f"{max_col} {max_row}\n")
        fh.write(" ".join(str(len(c)) for c in col_idx) + "\n")
        fh.write(" ".join(str(len(r)) for r in row_idx) + "\n")
        for c in col_idx:
            fh.write(padded(c, max_col) + "\n")
        for r in row_idx:
            fh.write(padded(r, max_row) + "\n")


def _ref_qval(H, path):
    H = np.asarray(H)
    m, n = H.shape
    with open(path, "w") as fh:
        for j in range(n):
            vals = H[np.nonzero(H[:, j])[0], j]
            fh.write(" ".join(str(int(v)) for v in vals) + "\n")
        for i in range(m):
            vals = H[i, np.nonzero(H[i, :])[0]]
            fh.write(" ".join(str(int(v)) for v in vals) + "\n")


def _ref_generator(code, path):
    with open(path, "w") as fh:
        fh.write(f"{code.field.q} {code.n} {code.k}\n")
        for row in code.generator:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


def _assert_same_bytes(H, q, tmp_path):
    code = Code(field=make_field(q), generator=H)
    for new, ref, arg in ((write_alist, _ref_alist, H),
                          (write_qval, _ref_qval, H),
                          (write_generator, _ref_generator, code)):
        new(arg, tmp_path / "new")
        ref(arg, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes(), \
            (new.__name__, q, H.shape)


def _random_entries(rng, shape, q, density):
    H = rng.integers(1, q, size=shape) * (rng.random(shape) < density)
    return H.astype(np.uint8)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_writers_match_reference(q, tmp_path):
    rng = np.random.default_rng(q)
    for shape in [(0, 5), (5, 0), (0, 0), (1, 1), (6, 9), (23, 40)]:
        for density in (0.0, 0.1, 0.5, 1.0):
            H = _random_entries(rng, shape, q, density)
            if min(shape) > 2:
                H[1] = 0     # a zero row
                H[:, 2] = 0  # and a zero column
            _assert_same_bytes(H, q, tmp_path)


def test_writers_match_reference_wide(tmp_path):
    rng = np.random.default_rng(1)
    H = _random_entries(rng, (3, 10_007), 3, 0.3)  # indices up to 10007
    _assert_same_bytes(H, 3, tmp_path)


def test_writers_match_reference_over_row_blocks(tmp_path):
    rng = np.random.default_rng(2)
    rows = 3 * _BLOCK_CELLS // 200 + 7  # several row blocks either way round
    H = _random_entries(rng, (rows, 200), 16, 0.2)
    H[rows // 2] = 0
    _assert_same_bytes(H, 16, tmp_path)


def test_all_zero_matrix_gives_bare_lines(tmp_path):
    H = np.zeros((3, 4), dtype=np.uint8)
    _assert_same_bytes(H, 3, tmp_path)
    write_alist(H, tmp_path / "z.alist")
    assert (tmp_path / "z.alist").read_bytes() == b"4 3\n0 0\n0 0 0 0\n0 0 0\n" + b"\n" * 7
    write_qval(H, tmp_path / "z.qval")
    assert (tmp_path / "z.qval").read_bytes() == b"\n" * 7


def test_line_of_full_width_is_not_padded(tmp_path):
    H = np.array([[1, 2, 3, 4], [0, 5, 0, 0], [6, 0, 0, 7]], dtype=np.uint8)
    _assert_same_bytes(H, 8, tmp_path)
    write_alist(H, tmp_path / "f.alist")
    lines = (tmp_path / "f.alist").read_text().splitlines()
    assert lines[4:8] == ["1 3", "1 2", "1 0", "1 3"]  # column 2 is padded
    assert lines[8:] == ["1 2 3 4", "2 0 0 0", "1 4 0 0"]


@pytest.mark.parametrize("q", [11, 13, 16])
def test_generator_tokens_of_one_and_two_digits(q, tmp_path):
    """Row blocks of two-digit tokens only (written as the grid), of mixed
    tokens, and of one-digit tokens only."""
    rng = np.random.default_rng(q)
    rows = 4 * _BLOCK_CELLS // 100
    H = rng.integers(10, q, size=(rows, 100)).astype(np.uint8)
    H[rows // 4:rows // 2] = rng.integers(0, q, size=(rows // 4, 100))
    H[rows // 2:3 * rows // 4] = rng.integers(0, 10, size=(rows // 4, 100))
    H[-1, :3] = [0, 9, 10]
    _assert_same_bytes(H, q, tmp_path)


def test_entry_width_limit(tmp_path):
    with open(tmp_path / "ok", "wb") as fh:
        _write_rows(fh, np.array([[1_000_000, 0], [1, 10]]))
    assert (tmp_path / "ok").read_bytes() == b"1000000 0\n1 10\n"
    with open(tmp_path / "big", "wb") as fh, pytest.raises(TooLarge):
        _write_rows(fh, np.array([[10_000_000]]))


# --------------------------------------------- token-budgeted line blocks
# The index and value lines are cut into blocks of at most _BLOCK_TOKENS
# nonzeros and _BLOCK_CELLS scanned cells; the bytes must not depend on them.

def _edge_matrices(q, rng):
    H = _random_entries(rng, (9, 13), q, 0.4)
    H[2] = 0                                 # a zero row
    H[:, 5] = 0                              # a zero column
    H[4] = rng.integers(1, q, size=13)       # a full-width row
    H[:, 8] = rng.integers(1, q, size=9)     # a full-height column
    yield H
    yield _random_entries(rng, (1, 40), q, 1.0)   # one line heavier than any budget
    yield _random_entries(rng, (40, 1), q, 1.0)
    yield np.zeros((0, 6), dtype=np.uint8)
    yield np.zeros((6, 0), dtype=np.uint8)
    yield np.zeros((5, 7), dtype=np.uint8)
    yield _random_entries(rng, (30, 30), q, 0.05)


@pytest.mark.parametrize("tokens", [1, 2, 7])
@pytest.mark.parametrize("cells", [1, 5, 64, 2 ** 16])
@pytest.mark.parametrize("q", [2, 3, 16])
def test_block_boundaries_do_not_change_the_bytes(q, tokens, cells, tmp_path, monkeypatch):
    monkeypatch.setattr(alist, "_BLOCK_TOKENS", tokens)
    monkeypatch.setattr(alist, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(100 * q + tokens)
    for H in _edge_matrices(q, rng):
        export_parity_alist(H, tmp_path / "new", q)
        _ref_alist(H, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes(), H.shape
        if q > 2:
            _ref_qval(H, tmp_path / "ref.qval")
            assert (tmp_path / "new.qval").read_bytes() == \
                (tmp_path / "ref.qval").read_bytes(), H.shape


@pytest.mark.parametrize("tokens, cells", [(1, 2 ** 16), (7, 1), (2 ** 14, 2 ** 16)])
def test_blocks_respect_both_bounds(tokens, cells, monkeypatch):
    monkeypatch.setattr(alist, "_BLOCK_TOKENS", tokens)
    monkeypatch.setattr(alist, "_BLOCK_CELLS", cells)
    weights = np.array([0, 3, 0, 0, 12, 1, 1, 1, 5, 0, 2])
    blocks = list(alist._blocks(np.r_[0, np.cumsum(weights)], 4))
    assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
    assert blocks[-1][1] == len(weights)
    for start, stop in blocks:
        assert stop > start
        assert stop - start == 1 or (weights[start:stop].sum() <= tokens
                                     and (stop - start) * 4 <= cells)
    assert list(alist._blocks(np.zeros(1, dtype=int), 4)) == []


@pytest.mark.parametrize("top", [0, 1, 9, 10, 9999, 10 ** 4, 65536, 10 ** 6, 9_999_999])
def test_format_matches_str(top):
    rng = np.random.default_rng(top)
    edges = [t for k in range(8) for t in (10 ** k - 1, 10 ** k) if t <= top]
    for v in (rng.integers(0, top + 1, size=500), np.array(edges + [top]),
              np.full(7, top)):  # mixed widths (NUL filler) and full widths
        ends = np.flatnonzero(rng.random(len(v)) < 0.2)
        expected = "".join(str(x) + ("\n" if i in set(ends) else " ")
                           for i, x in enumerate(v.tolist()))
        assert bytes(_format(v, ends)).decode() == expected
        assert bytes(_format(v.reshape(-1, 1), ends)).decode() == expected
    with pytest.raises(TooLarge):
        _format(np.array([5, 10 ** 7]), [])


def test_export_memory_follows_the_blocks(tmp_path):
    """A 4065 x 4096 0/1 matrix at 3 % density is exported with no copy of
    H: the peak of traced allocations stays below half of H."""
    rng = np.random.default_rng(3)
    H = (rng.random((4065, 4096)) < 0.03).astype(np.uint8)
    tracemalloc.start()
    try:
        write_alist(H, tmp_path / "big.alist")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < H.nbytes // 2, peak

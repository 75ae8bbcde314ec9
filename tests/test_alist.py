"""MacKay alist export and round-trip parsing."""

import io
import tracemalloc

import numpy as np
import pytest

from agcodes import alist
from agcodes.alist import (_BLOCK_CELLS, _TEXT, _format, _write_rows, export_parity_alist,
                           read_alist, write_alist, write_qval)
from agcodes.codes import Code, build_affine_grassmann, write_generator
from agcodes.dual import build_dual_code, dual_rows
from agcodes.errors import DimensionMismatch, TooLarge
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
    """Every writer on edge shapes, and on shapes whose indices cross 9,
    99, 999 and 9999 (records of every width, five-digit ones too); then
    on a row of 2^16 + 1 columns, which takes uint64 keys."""
    rng = np.random.default_rng(q)
    for shape in [(0, 5), (5, 0), (0, 0), (1, 1), (6, 9), (23, 40),
                  (12, 11), (101, 3), (3, 1001), (2, 10_001)]:
        for density in (0.0, 0.1, 0.5, 1.0):
            H = _random_entries(rng, shape, q, density)
            if min(shape) > 2:
                H[1] = 0     # a zero row
                H[:, 2] = 0  # and a zero column
            _assert_same_bytes(H, q, tmp_path)
    H = _random_entries(rng, (1, 2 ** 16 + 1), q, 0.5)
    H[0, -1] = 1
    assert next(alist._keyed(H)[2])[2].dtype == np.uint64
    _assert_same_bytes(H, q, tmp_path)


def test_writers_match_reference_wide(tmp_path):
    rng = np.random.default_rng(1)
    H = _random_entries(rng, (3, 10_007), 3, 0.3)  # indices up to 10007
    _assert_same_bytes(H, 3, tmp_path)


def test_strided_matrix_writes_the_bytes_of_its_copy(tmp_path):
    """The .qval values are read by flat index; a transposed, sliced or
    reversed H gives the bytes of its contiguous copy."""
    H = _random_entries(np.random.default_rng(5), (23, 40), 16, 0.4)
    for view in (H.T, H[:, ::2], H[::-1], H[3:19, 5:31]):
        assert not view.flags.c_contiguous
        for write in (write_alist, write_qval):
            write(view, tmp_path / "view")
            write(np.ascontiguousarray(view), tmp_path / "copy")
            assert (tmp_path / "view").read_bytes() == (tmp_path / "copy").read_bytes()
        _assert_same_bytes(view, 16, tmp_path)


def test_writers_match_reference_over_row_blocks(tmp_path):
    rng = np.random.default_rng(2)
    rows = 3 * _BLOCK_CELLS // 200 + 7  # several row blocks either way round
    H = _random_entries(rng, (rows, 200), 16, 0.2)
    H[rows // 2] = 0
    _assert_same_bytes(H, 16, tmp_path)


@pytest.mark.parametrize("shape, dtype", [((2, 65536), np.uint32), ((65536, 2), np.uint32),
                                          ((2, 65537), np.uint64), ((65537, 2), np.uint64)])
def test_writers_match_reference_at_the_key_width_edges(shape, dtype, tmp_path):
    """Keys are uint32 while m and n are at most 2^16, uint64 beyond."""
    rng = np.random.default_rng(shape[1])
    H = _random_entries(rng, shape, 16, 0.5)
    H[tuple(s - 1 for s in shape)] = 7  # the last row and column are keyed
    assert next(alist._keyed(H)[2])[2].dtype == dtype
    for new, ref in ((write_alist, _ref_alist), (write_qval, _ref_qval)):
        new(H, tmp_path / "new")
        ref(H, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes(), new.__name__


def test_writers_match_reference_dense_in_key_runs(tmp_path):
    """A dense matrix has more nonzeros than _key_cap and is keyed in runs."""
    rng = np.random.default_rng(16)
    H = _random_entries(rng, (600, 700), 16, 1.0)
    runs = [(columns, lines) for columns, lines, keys in alist._keyed(H)[2]]
    assert sum(columns for columns, lines in runs) > 2 and sum(1 - c for c, _ in runs) > 2
    _assert_same_bytes(H, 16, tmp_path)


@pytest.mark.parametrize("write", [write_alist, write_qval,
                                   lambda H, path: export_parity_alist(H, path, 3)])
def test_wide_index_raises_before_any_file(write, tmp_path):
    """An index of 8 digits is refused before the file is opened, and so
    is an H that is not a matrix (it once failed to unpack its shape)."""
    H = np.zeros((1, 10 ** 7 + 1), dtype=np.uint8)
    H[0, -1] = 1
    with pytest.raises(TooLarge):
        write(H, tmp_path / "wide.alist")
    for H in [np.array([1, 0, 2]), np.ones((2, 2, 3), dtype=np.uint8)]:
        with pytest.raises(DimensionMismatch):
            write(H, tmp_path / "bad.alist")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q,entry", [(3, -1), (3, 7), (3, 2.5), (2, 2), (16, 16)])
def test_export_rejects_entries_outside_the_field(q, entry, tmp_path):
    """An entry outside F_q (negative, too large or not an integer) raises
    ValueError before any file is opened, instead of being written as
    another token."""
    H = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64 if entry == int(entry) else float)
    H[1, 2] = entry
    with pytest.raises(ValueError, match="element of F_"):
        export_parity_alist(H, tmp_path / "bad.alist", q)
    assert list(tmp_path.iterdir()) == []


def test_export_reads_integral_floats_as_elements(tmp_path):
    """A float 11.0 over F_16 is the element 11, written as the uint8
    matrix writes it."""
    H = np.array([[11.0, 0, 1], [0, 3, 15]])
    export_parity_alist(H, tmp_path / "f.alist", 16)
    export_parity_alist(H.astype(np.uint8), tmp_path / "u.alist", 16)
    for suffix in ("", ".qval"):
        assert (tmp_path / f"f.alist{suffix}").read_bytes() == \
            (tmp_path / f"u.alist{suffix}").read_bytes()
    assert (tmp_path / "f.alist.qval").read_text().split()[0] == "11"


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
# nonzeros and _BLOCK_CELLS padded cells, and keyed in runs of at most
# _key_cap nonzeros; the bytes must not depend on either cut.

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


def _set_key_cap(monkeypatch, cap):
    monkeypatch.setattr(alist, "_KEYS_MIN", cap)
    monkeypatch.setattr(alist, "_KEYS_MAX", cap)


@pytest.mark.parametrize("tokens", [1, 2, 7])
@pytest.mark.parametrize("cells", [1, 5, 64, 2 ** 16])
@pytest.mark.parametrize("q", [2, 3, 16])
def test_block_boundaries_do_not_change_the_bytes(q, tokens, cells, tmp_path, monkeypatch):
    monkeypatch.setattr(alist, "_BLOCK_TOKENS", tokens)
    monkeypatch.setattr(alist, "_BLOCK_CELLS", cells)
    for cap in (1, 7, 2 ** 20):  # runs of one line, of a few lines, and one run
        _set_key_cap(monkeypatch, cap)
        rng = np.random.default_rng(100 * q + tokens)
        for H in _edge_matrices(q, rng):
            export_parity_alist(H, tmp_path / "new", q)
            _ref_alist(H, tmp_path / "ref")
            assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes(), \
                (H.shape, cap)
            if q > 2:
                _ref_qval(H, tmp_path / "ref.qval")
                assert (tmp_path / "new.qval").read_bytes() == \
                    (tmp_path / "ref.qval").read_bytes(), (H.shape, cap)


@pytest.mark.parametrize("tokens, cells", [(1, 2 ** 16), (7, 1), (2 ** 14, 2 ** 16)])
def test_blocks_respect_both_bounds(tokens, cells):
    weights = np.array([0, 3, 0, 0, 12, 1, 1, 1, 5, 0, 2])
    most = max(1, cells // 4)  # lines of 4 cells each
    blocks = list(alist._blocks(np.r_[0, np.cumsum(weights)], tokens, most))
    assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
    assert blocks[-1][1] == len(weights)
    for start, stop in blocks:
        assert stop > start
        assert stop - start == 1 or (weights[start:stop].sum() <= tokens
                                     and (stop - start) * 4 <= cells)
    assert list(alist._blocks(np.zeros(1, dtype=int), tokens, most)) == []


@pytest.mark.parametrize("cap", [1, 7, 50, 2 ** 20])
def test_key_runs_respect_the_cap(cap, monkeypatch):
    """_keyed's runs cover the columns, then the rows, each once and in
    order; each holds at most cap keys or one line, and its keys decode to
    the nonzeros of its lines in order."""
    _set_key_cap(monkeypatch, cap)
    rng = np.random.default_rng(cap)
    H = _random_entries(rng, (30, 40), 5, 0.3)
    H[3], H[:, 7], H[:, 9] = 0, 0, 4  # a zero row, a zero column, a full column
    col_wts, row_wts, runs = alist._keyed(H)
    assert col_wts.tolist() == np.count_nonzero(H, axis=0).tolist()
    assert row_wts.tolist() == np.count_nonzero(H, axis=1).tolist()
    order, cut = [], {True: [], False: []}
    for columns, lines, keys in runs:  # a run's keys are valid until the next
        line, pos = np.nonzero((H.T if columns else H)[lines])
        assert keys.tolist() == (((line + lines.start) << 16) | pos).tolist()
        assert keys.size <= cap or lines.stop - lines.start == 1
        order.append(columns)
        cut[columns].append(lines)
    assert order == sorted(order, reverse=True)  # the columns, then the rows
    for columns, size in ((True, 40), (False, 30)):
        assert [s.start for s in cut[columns]] == [0] + [s.stop for s in cut[columns][:-1]]
        assert cut[columns][-1].stop == size
    assert (len(order) == 2) == (cap >= np.count_nonzero(H))  # one scan keys them all


def test_each_write_respects_both_bounds(monkeypatch):
    """Every write of index lines holds at most _BLOCK_TOKENS nonzero
    positions and _BLOCK_CELLS // width lines, or one line."""
    monkeypatch.setattr(alist, "_BLOCK_TOKENS", 20)
    monkeypatch.setattr(alist, "_BLOCK_CELLS", 100)
    rng = np.random.default_rng(4)
    H = _random_entries(rng, (30, 40), 2, 0.3)
    H[:, 5] = 1  # a column of weight 30 > 20
    writes = []

    class Recorder(io.BytesIO):
        def write(self, data):
            writes.append(bytes(data))
            return len(data)

    monkeypatch.setattr(alist, "open", lambda path, mode: Recorder(), raising=False)
    write_alist(H, "unused")
    widths = [int(np.count_nonzero(H, axis=0).max()), int(np.count_nonzero(H, axis=1).max())]
    line_writes = writes[3:]  # after the header and the two weight lines
    assert b"".join(line_writes).count(b"\n") == 40 + 30
    seen = 0
    for data in line_writes:
        width = widths[seen >= 40]
        lines = data.count(b"\n")
        nonzeros = sum(token != b"0" for token in data.split())
        assert lines == 1 or (nonzeros <= 20 and lines <= 100 // width), (lines, nonzeros)
        seen += lines


@pytest.mark.parametrize("top", [0, 1, 9, 10, 9999, 10 ** 4, 65536, 10 ** 6, 9_999_999])
def test_format_matches_str(top):
    """The text is str's, and the widths are each token's bytes, one int
    only when every token has the same width."""
    rng = np.random.default_rng(top)
    edges = [t for k in range(8) for t in (10 ** k - 1, 10 ** k) if t <= top]
    for v in (rng.integers(0, top + 1, size=500), np.array(edges + [top]),
              np.full(7, top)):  # mixed widths (NUL filler) and full widths
        ends = np.flatnonzero(rng.random(len(v)) < 0.2)
        expected = "".join(str(x) + ("\n" if i in set(ends) else " ")
                           for i, x in enumerate(v.tolist()))
        widths = [len(str(x)) + 1 for x in v.tolist()]
        for arg in (v, v.reshape(-1, 1)):
            text, got = _format(arg, ends)
            assert bytes(text).decode() == expected
            assert np.broadcast_to(got, len(v)).tolist() == widths
            assert np.ndim(got) or len(set(widths)) == 1
    with pytest.raises(TooLarge):
        _format(np.array([5, 10 ** 7]), [])


@pytest.mark.parametrize("q", range(2, 10))
def test_one_digit_format_matches_the_grid(q):
    """The one-digit branch (one uint16 per token) writes the bytes of the
    record table's two-byte records, as a grid with the newlines set: with
    no newline, one at the first or the last token, one after every token,
    and for no tokens at all."""
    v = np.random.default_rng(q).permutation(np.arange(300) % q).astype(np.uint8)
    for ends in ([], [0], [len(v) - 1], np.arange(len(v))):
        grid = _TEXT[v, 3:].copy()
        grid[ends, -1] = ord("\n")
        assert bytes(_format(v, ends)[0]) == grid.tobytes()
    assert bytes(_format(v[:0], [])[0]) == b""


@pytest.mark.parametrize("q", [3, 4])
def test_export_keys_h_once(q, tmp_path, monkeypatch):
    """export_parity_alist writes the .alist and the .qval from one scan
    of H when its nonzeros fit _key_cap, with the bytes of the two writers
    run apart."""
    H = build_dual_code(build_affine_grassmann(2, 4, 2, q)).generator
    assert np.count_nonzero(H) <= alist._key_cap(*H.shape)
    scans, real = [], alist._scan
    monkeypatch.setattr(alist, "_scan", lambda *a, **k: scans.append(1) or real(*a, **k))
    export_parity_alist(H, tmp_path / "h.alist", q)
    assert len(scans) == 1
    write_alist(H, tmp_path / "a")
    write_qval(H, tmp_path / "v")
    assert (tmp_path / "h.alist").read_bytes() == (tmp_path / "a").read_bytes()
    assert (tmp_path / "h.alist.qval").read_bytes() == (tmp_path / "v").read_bytes()


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


def _traced_peak(write, *args):
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dual_export_memory(tmp_path):
    """The dual of AGC(3,7;2)/F2, 4065 x 4096 with 531380 nonzeros, is keyed
    in one run: 2 MiB of uint32 keys, and the whole export stays below 3 MiB
    of traced allocations."""
    H = build_dual_code(build_affine_grassmann(3, 7, 2, 2)).generator
    assert np.count_nonzero(H) == 531380
    peak = _traced_peak(export_parity_alist, H, tmp_path / "dual.alist", 2)
    assert peak < 3 * 2 ** 20, peak


def test_dense_export_memory_does_not_follow_the_nonzeros(tmp_path):
    """A dense 2048 x 2048 matrix over F_16 has 4 M nonzeros, 16 MiB as
    uint32 keys; the keys held are capped, so alist and .qval together stay
    below half of H."""
    rng = np.random.default_rng(6)
    H = _random_entries(rng, (2048, 2048), 16, 1.0)
    peak = _traced_peak(export_parity_alist, H, tmp_path / "dense.alist", 16)
    assert peak < H.nbytes // 2, peak


# ------------------------------------------------- row-block sources
# An EvaluatedRows source is written from its row blocks, or from runs of
# its own columns and rows past the key cap, to the bytes of its matrix.

def _dual_rows(ell, m, r, q):
    C = build_affine_grassmann(ell, m, r, q)
    return dual_rows(C), build_dual_code(C).generator


@pytest.mark.parametrize("q,ell,m,r", [(2, 2, 4, 2), (3, 2, 4, 2), (16, 1, 2, 1)])
def test_evaluated_rows_write_the_bytes_of_their_matrix(q, ell, m, r, tmp_path, monkeypatch):
    """With runs of one line, of a few lines and one run, and row blocks
    of 1, 64 and 2^16 cells, writing the rows unevaluated gives the bytes
    of the held matrix, through KeyedRows after the generator text too."""
    rows, H = _dual_rows(ell, m, r, q)
    for cells in (1, 64, 2 ** 16):
        monkeypatch.setattr(alist, "_BLOCK_CELLS", cells)
        for cap in (1, 7, 2 ** 20):
            _set_key_cap(monkeypatch, cap)
            export_parity_alist(H, tmp_path / "held", q)
            export_parity_alist(rows, tmp_path / "rows", q)
            keyed = alist.KeyedRows(rows, values=q > 2)
            write_generator(keyed, tmp_path / "gen")
            export_parity_alist(keyed, tmp_path / "keyed", q)
            for suffix in ("", ".qval") if q > 2 else ("",):
                want = (tmp_path / f"held{suffix}").read_bytes()
                for name in ("rows", "keyed"):
                    assert (tmp_path / f"{name}{suffix}").read_bytes() == want, (cells, cap)
            code = Code(field=make_field(q), generator=H)
            write_generator(code, tmp_path / "held.gen")
            assert (tmp_path / "gen").read_bytes() == (tmp_path / "held.gen").read_bytes()


def test_each_row_block_is_evaluated_once(tmp_path, monkeypatch):
    """The generator text and the alist share one evaluation of each row
    block when the keys fit the cap; past it, each run of columns and of
    rows evaluates only its own window, and the bytes are the same."""
    from agcodes import codes
    rows, H = _dual_rows(3, 6, 2, 2)
    calls, real = [], codes.evaluate
    monkeypatch.setattr(codes, "evaluate", lambda polys, pe, r, c: calls.append(
        (r.indices(len(polys))[:2], c.indices(pe.n)[:2])) or real(polys, pe, r, c))
    step = alist._BLOCK_CELLS // rows.shape[1]
    blocks = [((s, min(s + step, H.shape[0])), (0, H.shape[1]))
              for s in range(0, H.shape[0], step)]
    keyed = alist.KeyedRows(rows)
    write_generator(keyed, tmp_path / "gen")
    export_parity_alist(keyed, tmp_path / "a", 2)
    assert calls == blocks
    calls.clear()
    _set_key_cap(monkeypatch, 5000)
    export_parity_alist(rows, tmp_path / "b", 2)
    assert calls[:len(blocks)] == blocks  # the weights
    windows = calls[len(blocks):]
    whole = ((0, H.shape[0]), (0, H.shape[1]))
    assert len(windows) > 2 and whole not in windows
    cells = sum((r[1] - r[0]) * (c[1] - c[0]) for r, c in windows)
    assert cells == 2 * H.size  # each run reads its own lines only, once
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_values_a_key_cannot_hold_raise_before_any_file(tmp_path):
    """A key holds a line, a position and the value bits of a .qval:
    uint64 holds 20-bit indices with 24-bit values, and no more, and no
    negative value."""
    assert alist._layout(2 ** 20, 1, 24) == (np.uint64, 20)
    assert alist._layout(2 ** 14, 3, 4) == (np.uint32, 14)
    assert alist._layout(2 ** 14 + 1, 3, 4) == (np.uint64, 30)
    H = np.zeros((1, 2 ** 20 + 1), dtype=np.int32)
    H[0, -1] = 2 ** 23
    write_alist(H, tmp_path / "fine.alist")  # no values: 32-bit indices
    with pytest.raises(TooLarge):
        write_qval(H, tmp_path / "wide.qval")
    with pytest.raises(ValueError, match="negative"):  # its key would wrap
        write_qval(np.array([[-1, 2], [0, 3]]), tmp_path / "negative.qval")
    assert [p.name for p in tmp_path.iterdir()] == ["fine.alist"]

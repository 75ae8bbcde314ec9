"""MacKay alist export of sparse parity-check matrices.

Layout: line 1 "n m", line 2 "max_col_wt max_row_wt", then the n column
weights, the m row weights, per-column 1-based row indices (zero-padded to
the maximum column weight), and per-row 1-based column indices (zero-padded
likewise).  For q > 2 a companion ".qval" file lists the nonzero entry
values in the same traversal order, one line per column then one per row.

The writers stream blocks of at most ``_BLOCK_CELLS`` matrix entries, so
memory stays flat.  Each writer takes the row and column weights from
one pass over row blocks of the nonzero mask of H (``_weights``).  The
index and value lines are written in blocks cut from the cumulative
weights: at most
``_BLOCK_TOKENS`` nonzero entries and ``_BLOCK_CELLS`` scanned cells each,
and at least one line, so a sparse H costs in proportion to its nonzeros.
Each block is one ``flatnonzero`` over a C-contiguous bool mask (the
row-major mask of a column block, sorted into column order); only its
nonzero entries are formatted, and an index line's padding is a slice of
one constant "0 0 ... 0" run.  ``_format`` is the one decimal formatter:
it reads each value's text from a fixed table of 0..9999, one table read
per four digits.
"""

from __future__ import annotations

import numpy as np

from .errors import TooLarge

_BLOCK_CELLS = 2 ** 16  # matrix entries formatted (_write_rows) or masked at a time
_BLOCK_TOKENS = 2 ** 14  # nonzero entries formatted per write (_write_lines)
_MAX_DIGITS = 7  # the widest decimal entry the writers accept
_GROUP = 10 ** 4  # values per table read


def _digit_table():
    """The text of 0.._GROUP - 1, right-aligned in 4 bytes after NUL filler,
    as one uint32 code per value: byte k is the digit of place 10^(3-k),
    each digit repeated place times and the run tiled."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.empty((_GROUP, 4), dtype=np.uint8)
    for k, place in enumerate((1000, 100, 10, 1)):
        text[:, k] = np.tile(np.repeat(digit, place), _GROUP // (10 * place))
        if place > 1:
            text[:place, k] = 0  # NUL filler above the leading digit
    return text.view(np.uint32).ravel()


_DIGITS = _digit_table()
_ZEROS = np.frombuffer(b"0000", dtype=np.uint32)[0]  # OR-ed over the filler


def _format(v, ends):
    """The nonnegative integers v (flattened) in decimal, each followed by
    a space or, at the indices ends, a newline: the rows of a uint8 grid as
    wide as the largest token, digits right-aligned after NUL filler, as
    they are when every token fills the grid and without filler otherwise.
    The digits are read from _DIGITS, four at a time."""
    v = np.ravel(v)
    top = int(v.max(initial=0))
    if top >= 10 ** _MAX_DIGITS:
        raise TooLarge(f"entry {top} has more than {_MAX_DIGITS} digits")
    w = len(str(top)) + 1
    grid = np.empty((v.size, w), dtype=np.uint8)
    grid[:, -1] = ord(" ")
    grid[ends, -1] = ord("\n")
    if w == 2:  # one digit (generator rows over q <= 9): value + "0", no table read
        np.add(v, ord("0"), out=grid[:, 0], casting="unsafe")
        return grid.ravel()
    if w <= 5:
        codes = _DIGITS[v].reshape(-1, 1)
    else:  # up to 7 digits: a high group of up to 3, then 4 zero-filled ones
        hi, lo = np.divmod(v, _GROUP)
        big = hi != 0
        codes = np.empty((v.size, 2), dtype=np.uint32)
        codes[:, 0] = _DIGITS[hi] * big
        codes[:, 1] = _DIGITS[lo] | _ZEROS * big
    text = codes.view(np.uint8)
    grid[:, :-1] = text[:, text.shape[1] - w + 1:]
    return grid.ravel() if grid[:, 0].all() else grid[grid != 0]


def _write_rows(fh, M):
    """Write each row of the nonnegative integer matrix M as a line of its
    entries in decimal, separated by single spaces; with no columns, each
    row is a bare newline.  fh is a binary file."""
    M = np.asarray(M)
    rows, cols = M.shape
    if not cols:
        fh.write(b"\n" * rows)
        return
    step = max(1, _BLOCK_CELLS // cols)
    for start in range(0, rows, step):
        block = M[start:start + step]
        fh.write(_format(block, np.arange(cols - 1, block.size, cols)))


def _weights(H):
    """The column and row weights of H (int64), from one pass over row
    blocks of its nonzero mask, each reduced along both axes."""
    m, n = H.shape
    col_wts = np.zeros(n, dtype=np.int64)
    row_wts = np.zeros(m, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, m, step):
        mask = H[start:start + step] != 0
        row_wts[start:start + step] = mask.sum(axis=1, dtype=np.uint32)
        col_wts += mask.sum(axis=0, dtype=np.uint32)
    return col_wts, row_wts


def _blocks(lead, cells):
    """Cut the lines whose first tokens have the indices lead (with the
    token count appended), each line of ``cells`` cells, into runs
    [start, stop) of at most _BLOCK_TOKENS nonzeros and _BLOCK_CELLS cells,
    each holding at least one line."""
    most = max(1, _BLOCK_CELLS // max(cells, 1))
    start = 0
    while start < len(lead) - 1:
        stop = int(np.searchsorted(lead, lead[start] + _BLOCK_TOKENS, "right")) - 1
        stop = max(start + 1, min(stop, start + most))
        yield start, stop
        start = stop


def _write_lines(fh, H, weights, columns, width=0, values=False):
    """Write each column (columns=True) or row of H, whose weights are
    given, as a line of its nonzero entries (values=True) or their 1-based
    positions, then width - weight zeros; an empty line is a bare newline."""
    m, n = H.shape
    run = memoryview(b"0 " * (width - 1) + b"0\n")  # the longest padding; ends in a newline
    pad = np.maximum(width - weights, 0)
    tails = np.maximum(2 * pad, weights == 0).tolist()  # padding, or an empty line's newline
    lead = np.r_[0, np.cumsum(weights)]  # each line's first token, then the token count
    full = (pad == 0) & (weights > 0)  # lines whose last token ends in a newline
    for start, stop in _blocks(lead, m if columns else n):
        if columns:  # scan the block row-major, then sort into column order
            row, col = np.divmod(np.flatnonzero(H[:, start:stop] != 0), stop - start)
            line, pos = np.divmod(np.sort(col * m + row), m)
            entries = H[pos, start + line] if values else pos + 1
        else:
            line, pos = np.divmod(np.flatnonzero(H[start:stop] != 0), n)
            entries = H[start + line, pos] if values else pos + 1
        heads = lead[start:stop + 1] - lead[start]
        text = _format(entries, heads[1:][full[start:stop]] - 1)
        sep = np.empty(len(text) + 1, dtype=bool)  # sep[i]: a token starts at byte i
        sep[0] = True
        np.less(text, ord("0"), out=sep[1:])
        bounds = np.flatnonzero(sep)[heads].tolist()
        parts = []
        for lo, hi, tail in zip(bounds, bounds[1:], tails[start:stop]):
            parts += text[lo:hi], run[len(run) - tail:]
        fh.write(b"".join(parts))


def write_alist(H, path):
    """Write the m x n matrix H (nonzero pattern only) to an alist file."""
    H = np.asarray(H)
    m, n = H.shape
    col_wts, row_wts = _weights(H)
    max_col = int(col_wts.max(initial=0))
    max_row = int(row_wts.max(initial=0))
    with open(path, "wb") as fh:
        fh.write(f"{n} {m}\n{max_col} {max_row}\n".encode())
        _write_rows(fh, col_wts[None, :])
        _write_rows(fh, row_wts[None, :])
        _write_lines(fh, H, col_wts, columns=True, width=max_col)
        _write_lines(fh, H, row_wts, columns=False, width=max_row)


def write_qval(H, path):
    """Companion value file for q > 2: the nonzero entries in the same
    traversal order as the alist index lists (columns first, then rows)."""
    H = np.asarray(H)
    col_wts, row_wts = _weights(H)
    with open(path, "wb") as fh:
        _write_lines(fh, H, col_wts, columns=True, values=True)
        _write_lines(fh, H, row_wts, columns=False, values=True)


def export_parity_alist(H, path, q):
    """Write H as alist; for q > 2 also write the .qval companion."""
    write_alist(H, path)
    if q > 2:
        write_qval(H, str(path) + ".qval")


def _incidence(lists, size):
    """The (len(lists), size) 0/1 matrix with a one at each nonzero 1-based
    index of each list; ValueError on an index out of range or repeated."""
    M = np.zeros((len(lists), size), dtype=np.uint8)
    for i, idx in enumerate(lists):
        idx = [v for v in idx if v != 0]
        if not all(0 < v <= size for v in idx) or len(set(idx)) != len(idx):
            raise ValueError(f"list {i} has an index out of range or repeated")
        M[i, [v - 1 for v in idx]] = 1
    return M


def read_alist(path):
    """Parse an alist file back into a dense 0/1 uint8 matrix, checking
    every line: the header's maximum weights, the column and row weights,
    and that the row lists describe the same matrix as the column lists."""
    with open(path) as fh:
        lines = [list(map(int, line.split())) for line in fh]
    if len(lines) < 4 or len(lines[0]) != 2:
        raise ValueError("alist header is incomplete")
    n, m = lines[0]
    col_wts, row_wts = lines[2], lines[3]
    if len(lines) != 4 + n + m or len(col_wts) != n or len(row_wts) != m:
        raise ValueError("alist line counts do not match n and m")
    if lines[1] != [max(col_wts, default=0), max(row_wts, default=0)]:
        raise ValueError("header maximum weights do not match the weights")
    cols = _incidence(lines[4:4 + n], m)
    rows = _incidence(lines[4 + n:], n)
    for name, M, wts in (("column", cols, col_wts), ("row", rows, row_wts)):
        bad = np.flatnonzero(np.count_nonzero(M, axis=1) != wts)
        if bad.size:
            raise ValueError(f"{name} {bad[0]} weight mismatch")
    if not np.array_equal(cols.T, rows):
        raise ValueError("row lists disagree with the column lists")
    return rows

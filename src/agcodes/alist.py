"""MacKay alist export of sparse parity-check matrices.

Layout: line 1 "n m", line 2 "max_col_wt max_row_wt", then the n column
weights, the m row weights, per-column 1-based row indices (zero-padded to
the maximum column weight), and per-row 1-based column indices (zero-padded
likewise).  For q > 2 a companion ".qval" file lists the nonzero entry
values in the same traversal order, one line per column then one per row.

Every text writer streams: it formats blocks of about ``_BLOCK_CELLS``
matrix entries with numpy and writes each block with one call, so memory
stays flat whatever the size of the matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import TooLarge

_BLOCK_CELLS = 2 ** 16  # matrix entries formatted per write
_TOKEN_BYTES = 8  # str(v) + " " fits one uint64 ...
_MAX_TOKEN = 10 ** (_TOKEN_BYTES - 1)  # ... for v below 10^7


@lru_cache(maxsize=4)
def _tokens(size):
    """Tokens packed into one uint64 each, zero bytes after the text: for
    0 <= v < size, token v is str(v) + " " and token size + v is str(v) +
    "\n"; token 2 * size is "\n" and token 2 * size + 1 is empty."""
    v = np.arange(size)
    digits = v.astype(f"S{_TOKEN_BYTES - 1}")
    ends = np.char.str_len(digits)
    table = np.zeros((2 * size + 2, _TOKEN_BYTES), dtype=np.uint8)
    table[:2 * size, :-1] = np.tile(digits.view(np.uint8).reshape(size, -1), (2, 1))
    table[v, ends] = ord(" ")
    table[size + v, ends] = ord("\n")
    table[2 * size, 0] = ord("\n")
    tokens = table.view(np.uint64)[:, 0]
    tokens.flags.writeable = False  # shared by every caller through the cache
    return tokens


def _write_rows(fh, M, lengths=None):
    """Write row i of the nonnegative integer matrix M as a line of its first
    lengths[i] entries (default: all of them) in decimal, separated by single
    spaces; a row of length 0 is a bare newline.  fh is a binary file."""
    M = np.asarray(M)
    rows, cols = M.shape
    if lengths is None:
        lengths = np.full(rows, cols)
    top = int(M.max()) if M.size else 0
    if top >= _MAX_TOKEN:
        raise TooLarge(f"entry {top} has more than {_TOKEN_BYTES - 1} digits")
    # one table per power of two, so that row blocks share their tables
    size = min(1 << top.bit_length(), _MAX_TOKEN)
    tokens = _tokens(size)
    col = np.arange(cols + 1)
    step = max(1, _BLOCK_CELLS // max(cols, 1))
    for start in range(0, rows, step):
        block = M[start:start + step]
        ends = np.asarray(lengths[start:start + step])
        r = np.arange(block.shape[0])
        idx = np.empty((block.shape[0], cols + 1), dtype=np.intp)
        idx[:, :cols] = block
        idx[col >= ends[:, None]] = 2 * size + 1  # past the row's end: empty
        full = ends > 0
        idx[r[full], ends[full] - 1] += size  # the last entry ends the line
        idx[r[~full], 0] = 2 * size  # an empty row is a bare newline
        fh.write(tokens.take(idx).tobytes().translate(None, b"\0"))


def _nonzero_lists(H, width, values):
    """Per row block of H: each row's nonzero entries (values=True) or their
    1-based column indices (values=False), zero-padded to width, and the
    row weights."""
    step = max(1, _BLOCK_CELLS // max(H.shape[1], 1))
    for start in range(0, H.shape[0], step):
        block = H[start:start + step]
        r, c = np.divmod(np.flatnonzero(block != 0), block.shape[1])
        weights = np.bincount(r, minlength=block.shape[0])
        pos = np.arange(r.size) - (np.cumsum(weights) - weights)[r]
        lists = np.zeros((block.shape[0], width), dtype=np.int64)
        lists[r, pos] = block[r, c] if values else c + 1
        yield lists, weights


def write_alist(H, path):
    """Write the m x n matrix H (nonzero pattern only) to an alist file."""
    H = np.asarray(H)
    m, n = H.shape
    col_wts = np.count_nonzero(H, axis=0)
    row_wts = np.count_nonzero(H, axis=1)
    max_col = int(col_wts.max(initial=0))
    max_row = int(row_wts.max(initial=0))
    with open(path, "wb") as fh:
        fh.write(f"{n} {m}\n{max_col} {max_row}\n".encode())
        _write_rows(fh, col_wts[None, :])
        _write_rows(fh, row_wts[None, :])
        for lines, width in ((H.T, max_col), (H, max_row)):
            for idx, _ in _nonzero_lists(lines, width, values=False):
                _write_rows(fh, idx)


def write_qval(H, path):
    """Companion value file for q > 2: the nonzero entries in the same
    traversal order as the alist index lists (columns first, then rows)."""
    H = np.asarray(H)
    with open(path, "wb") as fh:
        for lines in (H.T, H):
            width = int(np.count_nonzero(lines, axis=1).max(initial=0))
            for vals, weights in _nonzero_lists(lines, width, values=True):
                _write_rows(fh, vals, weights)


def export_parity_alist(H, path, q):
    """Write H as alist; for q > 2 also write the .qval companion."""
    write_alist(H, path)
    if q > 2:
        write_qval(H, str(path) + ".qval")


def read_alist(path):
    """Parse an alist file back into a dense 0/1 uint8 matrix."""
    with open(path) as fh:
        tokens_by_line = [line.split() for line in fh]
    n, m = map(int, tokens_by_line[0])
    col_wts = list(map(int, tokens_by_line[2]))
    H = np.zeros((m, n), dtype=np.uint8)
    for j in range(n):
        idx = [int(v) for v in tokens_by_line[4 + j] if int(v) != 0]
        if len(idx) != col_wts[j]:
            raise ValueError(f"column {j} weight mismatch")
        for i in idx:
            H[i - 1, j] = 1
    return H

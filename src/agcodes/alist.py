"""MacKay alist export of sparse parity-check matrices.

Layout: line 1 "n m", line 2 "max_col_wt max_row_wt", then the n column
weights, the m row weights, per-column 1-based row indices (zero-padded to
the maximum column weight), and per-row 1-based column indices (zero-padded
likewise).  For q > 2 a companion ".qval" file lists the nonzero entry
values in the same traversal order, one line per column then one per row.

The writers stream blocks of about ``_BLOCK_CELLS`` matrix entries, so
memory stays flat.  Index and value lines format only the nonzero entries
(see _format); an index line's padding is a slice of one constant
"0 0 ... 0" run.
"""

from __future__ import annotations

import numpy as np

from .errors import TooLarge

_BLOCK_CELLS = 2 ** 16  # matrix entries formatted per write
_MAX_DIGITS = 7  # the widest decimal entry the writers accept


def _format(v, ends):
    """The nonnegative integers v (flattened) in decimal, each followed by
    a space or, at the indices ends, a newline: the rows of a uint8 grid as
    wide as the largest token, digits right-aligned after NUL filler, as
    they are when every token fills the grid and without filler otherwise."""
    v = np.ravel(v)
    top = int(v.max(initial=0))
    if top >= 10 ** _MAX_DIGITS:
        raise TooLarge(f"entry {top} has more than {_MAX_DIGITS} digits")
    w = len(str(top)) + 1
    grid = np.empty((v.size, w), dtype=np.uint8)
    grid[:, -1] = ord(" ")
    grid[ends, -1] = ord("\n")
    rest = v.astype(np.uint32)
    for k in range(w - 2, 0, -1):
        rest, grid[:, k] = np.divmod(rest, 10)
    grid[:, 0] = rest
    grid[:, :-1] += ord("0")
    grid[:, :-2] *= v[:, None] >= 10 ** np.arange(w - 2, 0, -1)  # filler
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


def _write_lines(fh, lines, width=0, values=False):
    """Write each row of ``lines`` (H, or the view H.T for its columns) as
    a line of its nonzero entries (values=True) or their 1-based
    positions, then width - weight zeros; an empty line is a bare newline."""
    run = b"0 " * (width - 1) + b"0\n"  # the longest padding; ends in a newline
    step = max(1, _BLOCK_CELLS // max(lines.shape[1], 1))
    for start in range(0, lines.shape[0], step):
        block = lines[start:start + step]
        mask = block != 0  # laid out like block: a block of H.T is F-ordered
        if mask.flags.c_contiguous:
            line, pos = np.divmod(np.flatnonzero(mask), block.shape[1])
        else:  # scan in memory order, then sort into line order
            pos, line = np.divmod(np.flatnonzero(mask.T), len(block))
            line, pos = np.divmod(np.sort(line * block.shape[1] + pos), block.shape[1])
        weights = np.bincount(line, minlength=len(block))
        ends = np.cumsum(weights)
        pad = np.maximum(width - weights, 0)
        text = _format(block[line, pos] if values else pos + 1,
                       ends[(pad == 0) & (weights > 0)] - 1)
        stops = np.r_[0, np.flatnonzero(text < ord("0")) + 1]  # token ends
        bounds = stops[np.r_[0, ends]].tolist()
        tails = np.maximum(2 * pad, weights == 0)  # padding, or an empty line's newline
        parts = []
        for lo, hi, tail in zip(bounds, bounds[1:], tails.tolist()):
            parts += text[lo:hi], run[len(run) - tail:]
        fh.write(b"".join(parts))


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
        _write_lines(fh, H.T, max_col)
        _write_lines(fh, H, max_row)


def write_qval(H, path):
    """Companion value file for q > 2: the nonzero entries in the same
    traversal order as the alist index lists (columns first, then rows)."""
    H = np.asarray(H)
    with open(path, "wb") as fh:
        _write_lines(fh, H.T, values=True)
        _write_lines(fh, H, values=True)


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

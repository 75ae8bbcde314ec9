"""MacKay alist export of sparse parity-check matrices.

Layout: line 1 "n m", line 2 "max_col_wt max_row_wt", then the n column
weights, the m row weights, per-column 1-based row indices (zero-padded to
the maximum column weight), and per-row 1-based column indices (zero-padded
likewise).  For q > 2 a companion ".qval" file lists the nonzero entry
values in the same traversal order, one line per column then one per row.

One writer (``_write``) serves ``write_alist`` and ``write_qval``, and
writes both files of a q > 2 export from one keyed pass.  It keys the
nonzero H[i, j] as the integer ``j << s | i``: uint32
with s = 16 when m and n are at most 2^16, uint64 with s = 32 otherwise.
One pass over contiguous row blocks of H, each at most ``_BLOCK_CELLS``
entries, writes every key and the row weights (``_scan``).  The keys are
sorted once in place, and then they are the column lines in order; the
column weights are where each column's keys start.  The same keys rotated
in place to ``i << s | j`` and sorted again are the row lines.  A writer
holds at most ``_key_cap(m, n)`` keys: one per 16 entries of H, but at
least 2^17 and at most 2^20.  A denser H takes its weights from a pass over
row blocks of its nonzero mask (``_weights``) and is keyed in runs of at
most that many nonzeros: runs of columns scanned from column slices of H,
then runs of rows, whose row-major keys need no sort.  Beside the keys, a
scan block holds its mask and one uint64 per nonzero.

The lines are formatted in rounds cut from the cumulative weights, each
of at most ``_BLOCK_TOKENS`` nonzero entries or one line, and each round
is written in blocks of at most ``_BLOCK_CELLS`` padded cells or one line.
Only the nonzero entries are formatted, and an index line's padding is a
slice of one constant "0 0 ... 0" run.
``_format`` is the one decimal formatter.  A one-digit token (the entries
of H and of a generator over q <= 9) is one uint16, the digit and its
separator; wider ones read their text from a fixed table of 0..9999, one
table read per four digits.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .field import make_field

_BLOCK_CELLS = 2 ** 16  # entries formatted (_write_rows), scanned, or padded per write
_BLOCK_TOKENS = 2 ** 14  # nonzero entries formatted at a time (_write_lines)
_KEYS_MIN, _KEYS_MAX = 2 ** 17, 2 ** 20  # bounds of the keys a writer holds (_key_cap)
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
    a space or, at the indices ends, a newline.  One-digit values (element
    codes over q <= 9) are one little-endian uint16 each, the digit and
    then its separator; wider ones are the rows of a grid (_grid)."""
    v = np.ravel(v)
    top = int(v.max(initial=0))
    if top >= 10 ** _MAX_DIGITS:
        raise TooLarge(f"entry {top} has more than {_MAX_DIGITS} digits")
    if top >= 10:
        return _grid(v, ends, len(str(top)) + 1)
    pairs = np.empty(v.size, dtype="<u2")
    np.add(v, np.uint16(ord("0") | ord(" ") << 8), out=pairs, casting="unsafe")
    pairs[ends] -= (ord(" ") - ord("\n")) << 8
    return pairs.view(np.uint8)


def _grid(v, ends, w):
    """The tokens of _format as the rows of a uint8 grid w bytes wide, the
    widest token's digits and its separator: digits right-aligned after
    NUL filler, kept as they are when every token fills the grid and
    without the filler otherwise.  The digits are read from _DIGITS, four
    at a time."""
    grid = np.empty((v.size, w), dtype=np.uint8)
    grid[:, -1] = ord(" ")
    grid[ends, -1] = ord("\n")
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


def _blocks(lead, tokens, most):
    """Cut the lines whose first tokens have the indices lead (with the
    token count appended) into runs [start, stop) of at most tokens
    nonzeros and most lines, each holding at least one line."""
    start = 0
    while start < len(lead) - 1:
        stop = int(np.searchsorted(lead, lead[start] + tokens, "right")) - 1
        stop = max(start + 1, min(stop, start + most))
        yield start, stop
        start = stop


def _key_cap(m, n):
    """The most keys a writer holds at once for an m x n matrix: one per
    16 entries, clipped to [_KEYS_MIN, _KEYS_MAX]."""
    return min(max(m * n // 16, _KEYS_MIN), _KEYS_MAX)


def _scan(H, keys, r0=0, c0=0):
    """Write into keys the key (c0 + j) << s | (r0 + i) of each nonzero
    H[i, j], in row-major order, from one pass over row blocks of at most
    _BLOCK_CELLS entries; s is half the key's bits.  Return the row weights
    of H.  A block holds one uint64 per nonzero beside its mask."""
    h, w = H.shape
    shift = 4 * keys.itemsize
    step = max(1, _BLOCK_CELLS // max(w, 1))
    row_ends = w * np.arange(1, step + 1, dtype=np.uint64)  # a block's row ends, flat
    ends = np.empty(h, dtype=np.int64)  # each row's end in keys
    pos = 0
    for s in range(0, h, step):
        flat = np.flatnonzero(H[s:s + step] != 0).view(np.uint64)
        ends[s:s + step] = pos + np.searchsorted(flat, row_ends[:min(step, h - s)])
        key = keys[pos:pos + flat.size]
        np.floor_divide(flat, w, out=key, casting="unsafe")  # the row in the block
        flat %= w
        flat += c0
        flat <<= shift
        flat += key
        flat += r0 + s
        key[...] = flat
        pos += flat.size
        del flat  # before the next block's is made
    return np.diff(ends, prepend=0)


def _rotate(keys):
    """Swap the halves of every key in place: line << s | position becomes
    position << s | line."""
    shift = 4 * keys.itemsize
    for s in range(0, keys.size, _BLOCK_CELLS):
        k = keys[s:s + _BLOCK_CELLS]
        high = k >> shift
        k <<= shift
        k |= high


def _keyed(H):
    """The column and row weights of H, and the runs (columns, lines, keys)
    of its lines: columns=True, then False for the rows; lines a slice of
    consecutive lines; keys the sorted keys line << s | position of their
    nonzeros.  The runs cover each line once, in order, and hold at most
    _key_cap keys (or one line).  When H has no more nonzeros than that,
    one scan keys all of them and gives the row weights, and the column
    weights are where each column's keys start; otherwise _weights gives
    the weights and each run is scanned on its own."""
    m, n = H.shape
    dtype = np.uint32 if max(m, n) <= 1 << 16 else np.uint64
    cap = _key_cap(m, n)
    total = np.count_nonzero(H)
    if total <= cap:
        keys = np.empty(total, dtype=dtype)
        row_wts = _scan(H, keys)
        keys.sort()
        starts = np.searchsorted(keys, np.arange(n, dtype=dtype) << (4 * keys.itemsize))
        col_wts = np.diff(starts, append=total)

        def runs():
            yield True, slice(0, n), keys
            _rotate(keys)
            keys.sort()
            yield False, slice(0, m), keys
    else:
        col_wts, row_wts = _weights(H)
        buf = np.empty(max(cap, int(col_wts.max()), int(row_wts.max())), dtype=dtype)

        def runs():  # each run's keys are a prefix of buf, valid until the next run
            for columns, wts in ((True, col_wts), (False, row_wts)):
                lead = np.r_[0, np.cumsum(wts)]
                for lo, hi in _blocks(lead, cap, len(wts)):
                    keys = buf[:lead[hi] - lead[lo]]
                    if columns:
                        _scan(H[:, lo:hi], keys, c0=lo)
                        keys.sort()
                    else:
                        _scan(H[lo:hi], keys, r0=lo)
                        _rotate(keys)  # row-major order is already row order
                    yield columns, slice(lo, hi), keys
    return col_wts, row_wts, runs()


def _text(H, keys, heads, ends, columns, values):
    """The text of lines whose sorted keys line << s | position are keys
    and whose first keys have the indices heads (with the key count
    appended): each line's nonzero entries (values=True) or their 1-based
    positions, a newline after the tokens at the indices ends and a space
    after the others; and the byte at which each line starts (with the
    text's length appended)."""
    shift = 4 * keys.itemsize
    low = keys.dtype.type((1 << shift) - 1)
    if not values:
        entries = (keys & low) + 1
    elif columns:
        entries = H[keys & low, keys >> shift]
    else:
        entries = H[keys >> shift, keys & low]
    text = _format(entries, ends)
    sep = np.empty(len(text) + 1, dtype=bool)  # sep[i]: a token starts at byte i
    sep[0] = True
    np.less(text, ord("0"), out=sep[1:])
    return text, np.flatnonzero(sep)[heads].tolist()


def _write_lines(fh, H, keys, weights, columns, width=0, values=False):
    """Write the column (columns=True) or row lines of H whose sorted keys
    line << s | position are keys and whose weights are given, each as its
    nonzero entries (values=True) or their 1-based positions, then
    width - weight zeros; an empty line is a bare newline.  Each format
    round takes at most _BLOCK_TOKENS nonzeros, and each write at most
    _BLOCK_CELLS // width lines, or one line."""
    run = memoryview(b"0 " * (width - 1) + b"0\n")  # the longest padding; ends in a newline
    pad = np.maximum(width - weights, 0)
    tails = np.maximum(2 * pad, weights == 0).tolist()  # padding, or an empty line's newline
    lead = np.r_[0, np.cumsum(weights)]  # each line's first token, then the token count
    full = (pad == 0) & (weights > 0)  # lines whose last token ends in a newline
    most = max(1, _BLOCK_CELLS // max(width, 1))  # lines per write
    for start, stop in _blocks(lead, _BLOCK_TOKENS, len(lead)):
        heads = lead[start:stop + 1] - lead[start]
        text, bounds = _text(H, keys[lead[start]:lead[stop]], heads,
                             heads[1:][full[start:stop]] - 1, columns, values)
        for first in range(0, stop - start, most):  # the round's lines [first, last) of one write
            last = min(first + most, stop - start)
            parts = []
            for lo, hi, tail in zip(bounds[first:last], bounds[first + 1:last + 1],
                                    tails[start + first:start + last]):
                parts += text[lo:hi], run[len(run) - tail:]
            fh.write(b"".join(parts))


def _checked(H):
    """H as an array, before any file is opened: DimensionMismatch unless
    2-D (the writers take no field), or TooLarge if an index of H has
    more than _MAX_DIGITS digits."""
    H = np.asarray(H)
    if H.ndim != 2:
        raise DimensionMismatch(f"H must be 2-D, not of shape {H.shape}")
    if max(H.shape) >= 10 ** _MAX_DIGITS:
        raise TooLarge(f"a {H.shape[0]} x {H.shape[1]} matrix has indices "
                       f"of more than {_MAX_DIGITS} digits")
    return H


def _write(H, path, qval_path):
    """Write H's alist file at path and its .qval values at qval_path,
    each unless None, from one keyed pass: each run of _keyed writes its
    index lines, then its value lines."""
    H = _checked(H)
    m, n = H.shape
    col_wts, row_wts, runs = _keyed(H)
    width = {True: int(col_wts.max(initial=0)), False: int(row_wts.max(initial=0))}
    with contextlib.ExitStack() as files:
        fh, fq = (None if p is None else files.enter_context(open(p, "wb"))
                  for p in (path, qval_path))
        if fh is not None:
            fh.write(f"{n} {m}\n{width[True]} {width[False]}\n".encode())
            _write_rows(fh, col_wts[None, :])
            _write_rows(fh, row_wts[None, :])
        for columns, lines, keys in runs:
            wts = (col_wts if columns else row_wts)[lines]
            if fh is not None:
                _write_lines(fh, H, keys, wts, columns, width=width[columns])
            if fq is not None:
                _write_lines(fq, H, keys, wts, columns, values=True)


def write_alist(H, path, qval_path=None):
    """Write the m x n matrix H (nonzero pattern only) to an alist file
    and, when qval_path is given, write_qval's file there from the same
    keyed pass."""
    _write(H, path, qval_path)


def write_qval(H, path):
    """Companion value file for q > 2: the nonzero entries in the same
    traversal order as the alist index lists (columns first, then rows)."""
    _write(H, None, path)


def export_parity_alist(H, path, q):
    """Write H as alist; for q > 2 also write the .qval companion, H keyed
    once for both.  An entry outside F_q raises ValueError before any file
    is opened."""
    H = make_field(q).elements(H, (None, None))
    write_alist(H, path, str(path) + ".qval" if q > 2 else None)


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

"""Linear algebra over F_q on small dense matrices.

Matrices are numpy arrays of element codes (uint8).  Elimination is one
loop for every q on the field's table lookups.  Products over F_2 are
exact XORs on packed bits, with no floats (the Method of Four Russians on
bytes, _matmul_gf2): A's rows packed eight entries to a byte select, for
each byte position, one row of a 256-row table of the XOR sums of eight of
B's rows, packed into uint64 words.  Products over an odd prime field run
as exact float32 BLAS products, reduced mod p in int32, with A cast to
float32 one row block of about 2^20 entries at a time.  Over an extension
field F_{p^t} the product is taken over F_p on A's base-p digits and on B
with each entry expanded into its t x t multiplication matrix, and the
digits are then encoded again, so F_{2^t} takes the F_2 kernel too.  rank
eliminates whichever of M and its transpose has fewer rows.  For q = 2
that side is bit-packed into Python ints and reduced against an XOR basis
(gf2_rank): the rows of a wide M, or the columns of a tall M, read in
strips of _STRIP_ROWS rows, eight rows ORed into one byte row on uint64
lanes and each strip's transpose written into place, so no transposed
uint8 copy of M is made.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix
from .field import digits, undigits

_MATMUL_BLOCK_CELLS = 2 ** 20  # entries of A cast to float32 at a time (odd p)
# uint64 words of one row block of a packed GF(2) product, and of one group
# of byte tables; a group holds at least one table (256 packed rows of B)
_GF2_BLOCK_WORDS = 2 ** 13
_STRIP_ROWS = 2048  # rows _packed_columns reads at a time


# ---------------------------------------------------------------- GF(2) bitsets

def _packed_columns(M):
    """Column j of the 0/1 matrix M as row j of a byte matrix: bit b of
    byte g is M[8g + b, j].

    M, in any memory layout, is read in strips of _STRIP_ROWS rows, each
    copied into a C-contiguous buffer whose rows are whole uint64 lanes
    of eight 0/1 bytes.  Eight rows are ORed into one byte row by shifts
    on the lanes (a byte 0/1 shifted by b < 8 stays in its byte), and the
    strip's byte rows are written transposed into place.
    """
    rows, cols = M.shape
    lanes = -(-cols // 8)
    out = np.empty((cols, -(-rows // 8)), dtype=np.uint8)
    buf = np.zeros((min(_STRIP_ROWS, 8 * out.shape[1]), 8 * lanes), dtype=np.uint8)
    for top in range(0, rows, _STRIP_ROWS):
        strip = M[top:top + _STRIP_ROWS]
        buf[:len(strip), :cols] = strip
        buf[len(strip):] = 0
        nbytes = -(-len(strip) // 8)
        x = buf[:8 * nbytes].view(np.uint64).reshape(nbytes, 8, lanes)
        acc = x[:, 0].copy()
        for b in range(1, 8):
            acc |= x[:, b] << np.uint64(b)
        out[:, top // 8:top // 8 + nbytes] = acc.view(np.uint8)[:, :cols].T
    return out


def pack_rows(M):
    """The rows of the 0/1 matrix M packed eight entries to a byte (bit b
    of byte g in row i is M[i, 8g + b]) and zero-padded to whole uint64
    words: a (rows, ceil(cols / 64)) uint64 matrix.  An F-ordered M is
    packed as the columns of its C-ordered transpose."""
    rows, cols = M.shape
    out = np.zeros((rows, -(-cols // 64)), dtype=np.uint64)
    if M.flags.c_contiguous or not M.T.flags.c_contiguous:
        packed = np.packbits(M, axis=1, bitorder="little")
    else:
        packed = _packed_columns(M.T)
    out.view(np.uint8)[:, :packed.shape[1]] = packed
    return out


def gf2_rank(M):
    """Rank of a 0/1 matrix over GF(2).

    Whichever of the rows and the columns are fewer become Python ints,
    entry i at bit i: the rows of a wide M by packbits, the columns of a
    tall M by _packed_columns, so no transposed uint8 copy of M is made.
    An M that is not C-contiguous but whose transpose is (an F-ordered
    view) is ranked as its transpose, so packbits never runs along a
    strided axis.  Each vector is reduced against an XOR basis keyed by
    the highest set bit (bit_length) and joins it when it does not
    reduce to 0.
    """
    M = np.asarray(M, dtype=np.uint8)
    if M.size == 0:
        return 0
    if not M.flags.c_contiguous and M.T.flags.c_contiguous:
        M = M.T  # rank M^T = rank M
    if M.shape[0] > M.shape[1]:
        packed = _packed_columns(M)
    else:
        packed = np.packbits(M, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    basis = {}  # bit_length -> basis vector with that highest bit
    for lo in range(0, len(data), width):
        v = int.from_bytes(data[lo:lo + width], "little")
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


# ------------------------------------------------------------- generic over F_q

def rref(M, F):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = F.elements(M).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        R[[r, pr]] = R[[pr, r]]
        R[r] = F.mul(F.inv_table[R[r, c]], R[r])
        factors = R[:, c].copy()
        factors[r] = 0
        mask = factors != 0
        if mask.any():
            R[mask] = F.sub(R[mask], F.mul(factors[mask, None], R[r]))
        pivots.append(c)
        r += 1
    return R, pivots


def rank(M, F):
    M = F.elements(M)
    if F.q == 2:
        return gf2_rank(M)
    if M.shape[0] > M.shape[1]:  # rank(M) = rank(M^T): eliminate the shorter side
        M = M.T
    return len(rref(M, F)[1])


def nullspace(M, F):
    """Rows form a basis of the right kernel {x : M x = 0}."""
    M = np.asarray(M, dtype=np.uint8)
    n = M.shape[1]
    R, pivots = rref(M, F)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, n), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = F.neg(R[:len(pivots), free].T)
    return basis


def _matmul_gf2(A, B):
    """A B over F_2 for 0/1 matrices, exact and without floats.

    A's rows are packed eight entries to a byte and B's rows into uint64
    words (pack_rows).  For each byte position g, a table of the 256 XOR
    sums of B's rows 8g..8g+7 is built by doubling, and row i of the
    product is the XOR over g of the table row that byte g of A's row i
    selects.  The tables are built one group of byte positions at a time,
    and each group is applied to the packed product (an eighth of the
    uint8 result) in row blocks; a group's tables and a row block are
    each about _GF2_BLOCK_WORDS words.  The packed product is then
    unpacked to the uint8 (rows, cols) result.
    """
    (rows, inner), cols = A.shape, B.shape[1]
    nbytes = -(-inner // 8)
    Ab = pack_rows(A).view(np.uint8)
    w = -(-cols // 64)
    Bw = np.zeros((8 * nbytes, w), dtype=np.uint64)
    Bw[:inner] = pack_rows(B)
    Bw = Bw.reshape(nbytes, 8, w)
    acc = np.zeros((rows, w), dtype=np.uint64)
    block = max(1, _GF2_BLOCK_WORDS // max(1, w))
    group = max(1, _GF2_BLOCK_WORDS // (256 * max(1, w)))
    tmp = np.empty((min(block, rows), w), dtype=np.uint64)
    for g0 in range(0, nbytes, group):
        T = np.zeros((min(group, nbytes - g0), 256, w), dtype=np.uint64)
        for b in range(8):  # entries 2^b..2^(b+1)-1: entries 0..2^b-1 XOR row 8g + b
            np.bitwise_xor(T[:, :1 << b], Bw[g0:g0 + group, b, None],
                           out=T[:, 1 << b:2 << b])
        for top in range(0, rows, block):
            a, t = acc[top:top + block], tmp[:min(block, rows - top)]
            for g in range(len(T)):
                # a byte index is always in range; "clip" lets take write
                # into t without a buffered copy
                np.take(T[g], Ab[top:top + block, g0 + g], axis=0, out=t, mode="clip")
                a ^= t
    return np.unpackbits(acc.view(np.uint8), axis=1, count=cols, bitorder="little")


def _matmul_mod_p(A, B, p):
    """A B mod p for uint8 matrices with entries in [0, p)."""
    # float32 BLAS is exact while every partial sum stays below 2^24, so
    # the inner dimension is sliced and each slice's product is added to
    # int32 residues, reduced mod p by integer division.  A is cast one row
    # block at a time, so no float32 copy of all of A is made.
    step = (2 ** 24 - p) // (p - 1) ** 2
    rows = max(1, _MATMUL_BLOCK_CELLS // max(A.shape[1], 1))
    out = np.empty(A.shape[:1] + B.shape[1:], dtype=np.uint8)
    B32 = B.astype(np.float32)
    for top in range(0, A.shape[0], rows):
        A32 = A[top:top + rows].astype(np.float32)
        acc = np.zeros(A32.shape[:1] + B.shape[1:], dtype=np.int32)
        for start in range(0, A.shape[1], step):
            np.add(acc, A32[:, start:start + step] @ B32[start:start + step],
                   out=acc, casting="unsafe")
            acc %= p
        out[top:top + rows] = acc
    return out


def _matmul_fp(A, B, p):
    """A B over the prime field F_p: byte tables for p = 2, float32 BLAS
    for odd p."""
    return _matmul_gf2(A, B) if p == 2 else _matmul_mod_p(A, B, p)


def matmul(A, B, F):
    """Matrix product over F_q.

    Over F_{p^t} with t > 1, each entry a of A becomes its t base-p digits
    and each entry b of B the t x t matrix over F_p of multiplication by b
    (row i: the digits of X^i b), so one product over F_p gives the digits
    of every entry of A B.
    """
    A = F.elements(A)
    B = F.elements(B)
    if F.t == 1:
        return _matmul_fp(A, B, F.p)
    p, t = F.p, F.t
    E = digits(np.arange(F.q), p, t)  # E[a]: the digits of a
    powers = undigits(np.eye(t, dtype=np.uint8), p)  # the codes of X^i
    times = E[F.mul_table[powers].T]  # times[b, i]: the digits of X^i b
    (rows, inner), cols = A.shape, B.shape[1]
    C = _matmul_fp(E[A].reshape(rows, inner * t),
                   times[B].transpose(0, 2, 1, 3).reshape(inner * t, cols * t), p)
    return undigits(C.reshape(rows, cols, t), p).astype(np.uint8)


def inv_matrix(A, F):
    A = np.asarray(A, dtype=np.uint8)
    n = A.shape[0]
    if A.shape != (n, n):
        raise SingularMatrix("not a square matrix")
    aug = np.concatenate([A, np.eye(n, dtype=np.uint8)], axis=1)
    R, pivots = rref(aug, F)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return R[:, n:]


def is_invertible(A, F):
    A = np.asarray(A, dtype=np.uint8)
    return A.shape[0] == A.shape[1] and rank(A, F) == A.shape[0]


def rowspace_equal(A, B, F):
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    ra, rb = rank(A, F), rank(B, F)
    if ra != rb:
        return False
    return rank(np.concatenate([A, B]), F) == ra

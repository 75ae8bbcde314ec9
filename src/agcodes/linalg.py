"""Linear algebra over F_q on small dense matrices.

Matrices are numpy arrays of element codes (uint8), and every result is
exact: no float is formed and no BLAS routine is called.  Elimination is
one loop for every q on the field's table lookups.  Products over F_2
are XORs on packed bits (the Method of Four Russians on bytes,
_matmul_gf2): A's rows packed eight entries to a byte select, for each
byte position, one row of a 256-row table of the XOR sums of eight of
B's rows, packed into uint64 words.  Products over an odd prime field
are numpy's integer products in int64, reduced mod p, with A cast one
row block of about 2^20 entries at a time; entries below p <= 13 keep
every sum far below 2^63.  Over an extension field F_{p^t} the product
is taken over F_p on A's base-p digits and on B with each entry expanded
into its t x t multiplication matrix, and the digits are then encoded
again, so F_{2^t} takes the F_2 kernel too.

pack_rows and unpack_rows are the one GF(2) bit codec: bit b of byte g
of a packed row is entry 8g + b, in rows of whole uint64 words, and no
other module knows that order or the word size.  pack_rows packs a
C-contiguous matrix along its rows (packbits) and any other layout as
the columns of its transpose (_packed_columns), so packbits never runs
along a strided axis.  rank eliminates whichever of M and its transpose
has fewer rows; for q = 2 that side is packed by pack_rows into Python
ints and reduced against an XOR basis (_xor_basis).  That loop also
tracks which rows each basis vector is the XOR of, so on the packed
columns of a GF(2) matrix it gives a basis of the right kernel
(_gf2_kernel).  Every matrix a caller passes to a public function is
checked by F.elements with the shape it must have; _matmul is the
product for a caller that has checked its operands.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix
from .field import digits, undigits

_MATMUL_BLOCK_CELLS = 2 ** 20  # entries of A cast to int64 at a time (odd p)
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
    words: a (rows, ceil(cols / 64)) uint64 matrix.  A C-contiguous M is
    packed by packbits, any other layout as the columns of its
    transpose."""
    rows, cols = M.shape
    if M.flags.c_contiguous:
        packed = np.packbits(M, axis=1, bitorder="little")
    else:
        packed = _packed_columns(M.T)
    if cols % 64 == 0:  # whole words already
        return packed.view(np.uint64)
    out = np.zeros((rows, -(-cols // 64)), dtype=np.uint64)
    out.view(np.uint8)[:, :packed.shape[1]] = packed
    return out


def unpack_rows(P, n):
    """The inverse of pack_rows: the (..., n) 0/1 uint8 matrix whose rows
    the uint64 words P pack, along P's last axis."""
    return np.unpackbits(np.ascontiguousarray(P).view(np.uint8), axis=-1,
                         count=n, bitorder="little")


def _xor_basis(packed, track=False):
    """Reduce the rows of the packed uint64 matrix, each read as a Python
    int (entry i at bit i), against an XOR basis keyed by the highest set
    bit (bit_length); a row joins the basis when it does not reduce to 0.

    Returns (rank, dependencies).  With track, each basis vector carries
    the set of rows it is the XOR of (row i at bit i), and dependencies
    lists, for each row that reduces to 0, the set of rows whose XOR is
    0: when the rows are M's columns, a basis of M's right kernel.
    Without track, dependencies is empty.
    """
    width = 8 * packed.shape[1]
    data = packed.tobytes()
    basis, rows_of = {}, {}  # bit_length -> basis vector with that highest bit, its rows
    dependencies = []
    for i in range(len(packed)):
        v = int.from_bytes(data[i * width:(i + 1) * width], "little")
        rows = 1 << i
        while v:
            top = v.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = v
                if track:
                    rows_of[top] = rows
                break
            v ^= b
            if track:
                rows ^= rows_of[top]
        else:
            if track:
                dependencies.append(rows)
    return len(basis), dependencies


def _gf2_rank(M):
    """Rank of a 0/1 uint8 matrix over GF(2): whichever of the rows and
    the columns are fewer are packed by pack_rows (of M, or of M's
    transpose) and reduced by _xor_basis."""
    return _xor_basis(pack_rows(M.T if M.shape[0] > M.shape[1] else M))[0]


def _gf2_kernel(M):
    """A basis of the right kernel {x : M x = 0} of a 0/1 uint8 matrix over
    GF(2), as the rows of a (n - rank, n) uint8 matrix: _xor_basis on M's
    packed columns, one row per column that depends on the earlier ones.
    Its order is not nullspace's."""
    n = M.shape[1]
    nbytes = 8 * -(-n // 64)
    kernel = _xor_basis(pack_rows(M.T), track=True)[1]
    packed = np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in kernel),
                           dtype=np.uint8).reshape(len(kernel), nbytes)
    return unpack_rows(packed, n)


# ------------------------------------------------------------- generic over F_q

def rref(M, F):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = F.elements(M, (None, None)).copy()
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
    M = F.elements(M, (None, None))
    if F.q == 2:
        return _gf2_rank(M)
    if M.shape[0] > M.shape[1]:  # rank(M) = rank(M^T): eliminate the shorter side
        M = M.T
    return len(rref(M, F)[1])


def nullspace(M, F):
    """Rows form a basis of the right kernel {x : M x = 0}."""
    R, pivots = rref(M, F)
    n = R.shape[1]
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
    unpacked to the uint8 (rows, cols) result (unpack_rows).
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
    return unpack_rows(acc, cols)


def _matmul_mod_p(A, B, p):
    """A B mod p for uint8 matrices with entries in [0, p), as int64
    products, A cast one row block of about _MATMUL_BLOCK_CELLS entries
    at a time.  numpy's integer matmul calls no BLAS, and with p <= 13
    each term is at most 144 < 2^8, so no sum of fewer than 2^55 terms
    reaches 2^63."""
    rows = max(1, _MATMUL_BLOCK_CELLS // max(A.shape[1], 1))
    out = np.empty(A.shape[:1] + B.shape[1:], dtype=np.uint8)
    B64 = B.astype(np.int64)
    for top in range(0, A.shape[0], rows):
        out[top:top + rows] = A[top:top + rows].astype(np.int64) @ B64 % p
    return out


def _matmul_fp(A, B, p):
    """A B over the prime field F_p: byte tables for p = 2, int64
    products for odd p."""
    return _matmul_gf2(A, B) if p == 2 else _matmul_mod_p(A, B, p)


def matmul(A, B, F):
    """Matrix product over F_q of the checked A and B (_matmul)."""
    A = F.elements(A, (None, None))
    return _matmul(A, F.elements(B, (A.shape[1], None)), F)


def _matmul(A, B, F):
    """A B over F_q for uint8 element matrices a caller has checked.

    Over F_{p^t} with t > 1, each entry a of A becomes its t base-p digits
    and each entry b of B the t x t matrix over F_p of multiplication by b
    (row i: the digits of X^i b), so one product over F_p gives the digits
    of every entry of A B.
    """
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
    A = F.elements(A, (None, None))
    n = A.shape[0]
    if A.shape[1] != n:
        raise SingularMatrix("not a square matrix")
    aug = np.concatenate([A, np.eye(n, dtype=np.uint8)], axis=1)
    R, pivots = rref(aug, F)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return R[:, n:]


def rowspace_equal(A, B, F):
    A = F.elements(A, (None, None))
    B = F.elements(B, (None, A.shape[1]))
    ra, rb = rank(A, F), rank(B, F)
    if ra != rb:
        return False
    return rank(np.concatenate([A, B]), F) == ra

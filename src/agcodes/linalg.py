"""Linear algebra over F_q on small dense matrices.

Matrices are numpy arrays of element codes (uint8).  Elimination is one
loop for every q on the field's table lookups.  Products run as exact
float32 BLAS products, reduced mod p in int32, with A cast to float32 one
row block of about 2^20 entries at a time and each block written into the
uint8 result.  Over an extension field F_{p^t} the product is taken over
F_p on A's base-p digits and on B with each entry expanded into its t x t
multiplication matrix, and the digits are then encoded again.  rank
eliminates whichever of M and its transpose has fewer rows.  For q = 2
that side is bit-packed into Python ints and reduced against an XOR basis
(gf2_rank): the rows of a wide M, or the columns of a tall M, packed
eight rows to a byte by shifts and then transposed as the 8x-smaller
byte matrix, so no transposed uint8 copy of M is made.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix
from .field import digits, undigits

_MATMUL_BLOCK_CELLS = 2 ** 20  # entries of A cast to float32 at a time


# ---------------------------------------------------------------- GF(2) bitsets

def _packed_columns(M):
    """Column j of the 0/1 matrix M as row j of a byte matrix: bit b of
    byte g is M[8g + b, j].  Eight rows are ORed into one byte row by
    shifts, and the 8x-smaller byte matrix is transposed."""
    M = np.ascontiguousarray(M)
    B = np.zeros((-(-M.shape[0] // 8), M.shape[1]), dtype=np.uint8)
    for b in range(8):
        part = M[b::8]
        B[:len(part)] |= part << np.uint8(b)
    return B.T.copy()


def gf2_rank(M):
    """Rank of a 0/1 matrix over GF(2).

    Whichever of the rows and the columns are fewer become Python ints,
    entry i at bit i: the rows of a wide M by packbits, the columns of a
    tall M by _packed_columns, so no transposed uint8 copy of M is made.
    Each vector is reduced against an XOR basis keyed by the highest set
    bit (bit_length) and joins it when it does not reduce to 0.
    """
    M = np.asarray(M, dtype=np.uint8)
    if M.size == 0:
        return 0
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
        return _matmul_mod_p(A, B, F.p)
    p, t = F.p, F.t
    E = digits(np.arange(F.q), p, t)  # E[a]: the digits of a
    powers = undigits(np.eye(t, dtype=np.uint8), p)  # the codes of X^i
    times = E[F.mul_table[powers].T]  # times[b, i]: the digits of X^i b
    (rows, inner), cols = A.shape, B.shape[1]
    C = _matmul_mod_p(E[A].reshape(rows, inner * t),
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

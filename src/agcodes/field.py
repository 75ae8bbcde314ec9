"""Exact arithmetic in small finite fields F_q via lookup tables.

Elements are integer codes in [0, q-1].  For q = p^t with t > 1 the code is
the base-p encoding of the coefficient vector of the element written in the
power basis of a fixed irreducible modulus, so code 0 is the additive
identity and code 1 the multiplicative identity.  The representation is
deterministic for every supported q, which makes all downstream matrices
reproducible bit for bit.

Every elementwise operation is a table lookup: ``add``, ``sub`` and ``mul``
read entry a * q + b of the flattened q x q table, and ``neg`` is
``sub(0, a)``.  On arrays the indices are computed as uint8 (below 256 for
q <= 16) and looked up by ``bytes.translate`` in a 256-byte copy of the
table, which makes no intp copy of the indices.  The operand with fewer
entries is the one scaled by q, on its own shape, so an outer product
broadcasts once; when it is b, the copy of the transposed table is read.
Scalars read the 2-D table directly, which is cheaper than a translate
call.  This module is the only place that turns field elements into table
indices.

``FieldSpec.elements`` is the one gate for every array a caller passes: a
wrong shape raises DimensionMismatch, an entry outside F_q ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, DivisionByZero, NotPrimePower, Unsupported

MAX_Q = 16

# Fixed irreducible modulus per non-prime q, coefficients constant term first.
_MODULI = {
    4: (1, 1, 1),         # X^2 + X + 1
    8: (1, 1, 0, 1),      # X^3 + X + 1
    9: (1, 0, 1),         # X^2 + 1
    16: (1, 1, 0, 0, 1),  # X^4 + X + 1
}


def _factor_prime_power(q):
    if q < 2:
        raise NotPrimePower(f"q = {q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    t = 0
    n = q
    while n % p == 0:
        n //= p
        t += 1
    if n != 1:
        raise NotPrimePower(f"q = {q} is not a prime power")
    return p, t


def digits(values, base, width):
    """The base-``base`` digits of the nonnegative integers ``values``,
    least significant first, as uint8 on a new last axis of length width.

    This is the package's one digit convention: point i is digits(i, q,
    delta), a message index's digits are its coefficients, a monomial's
    exponent vector is the digits of its key, and a code of F_{p^t} is
    the digits of its coefficient vector.
    """
    values = np.asarray(values, dtype=np.int64)[..., None]
    return (values // base ** np.arange(width, dtype=np.int64) % base).astype(np.uint8)


def undigits(D, base):
    """The int64 integers whose base-``base`` digits, least significant
    first, lie on the last axis of D; the inverse of digits.  Horner's
    rule adds one digit slice at a time, so no int64 copy of D is made."""
    D = np.asarray(D)
    out = np.zeros(D.shape[:-1], dtype=np.int64)
    for i in range(D.shape[-1] - 1, -1, -1):
        out *= base
        out += D[..., i]
    return out


def reduce_exponent(alpha, q):
    """Fold an exponent into [0, q-1]: 0 stays 0, and alpha > 0 goes to
    alpha mod (q-1) in [1, q-1], as x^e = x^e' on F_q when e = e' mod q-1
    and e, e' >= 1.  The package's one exponent fold."""
    if alpha < 0:
        raise ValueError("negative exponent")
    return (alpha - 1) % (q - 1) + 1 if alpha else 0


def _poly_mul_mod(a, b, modulus, p):
    # multiply two coefficient vectors, reduce mod the modulus over F_p
    t = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for deg in range(len(prod) - 1, t - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for j in range(t):
                prod[deg - t + j] = (prod[deg - t + j] - c * modulus[j]) % p
    return prod[:t] + [0] * (t - len(prod))


@dataclass(eq=False)
class FieldSpec:
    """The field F_q with precomputed operation tables.

    Immutable after construction; safe to share between workers.
    """

    q: int
    p: int
    t: int
    modulus: tuple
    add_table: np.ndarray
    sub_table: np.ndarray
    mul_table: np.ndarray
    neg_table: np.ndarray
    inv_table: np.ndarray
    pow_table: np.ndarray  # pow_table[x, e] = x^e for 0 <= e <= q-1

    def __post_init__(self):
        self._add, self._sub, self._mul = (
            (_byte_table(T), _byte_table(T.T))
            for T in (self.add_table, self.sub_table, self.mul_table))

    def _lookup(self, table, flats, a, b):
        """table[a, b] elementwise, with numpy broadcasting.  flats are the
        byte tables of table and of its transpose: the smaller operand is
        scaled by q on its own shape (in the result, when it fills it), and
        the one broadcast is the add."""
        if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            return table[a, b]
        sa, sb = np.shape(a), np.shape(b)
        shape = np.broadcast_shapes(sa, sb)
        flat, flat_t = flats
        if math.prod(sb) < math.prod(sa):  # table[a, b] is table.T[b, a]
            a, b, sa, flat = b, a, sb, flat_t
        # the indices are written into a bytearray, so translate reads them
        # without a copy and returns a writable result
        buf = bytearray(math.prod(shape))
        idx = np.frombuffer(buf, dtype=np.uint8).reshape(shape)
        scaled = np.multiply(a, self.q, out=idx if sa == shape else None, casting="unsafe")
        np.add(scaled, b, out=idx, casting="unsafe")
        out = buf.translate(flat)
        return np.frombuffer(out, dtype=np.uint8).reshape(shape)

    def elements(self, M, shape=None):
        """M as a uint8 array of element codes.  shape, if given, is the
        tuple of M's axis lengths, None for any length: a wrong number of
        axes or a wrong length raises DimensionMismatch before any entry
        is read.  An entry that is not an integer (2.5, say, which the cast
        would read as 2) or lies outside [0, q-1], which a table lookup
        would silently read as another entry, raises ValueError.  Integral
        floats, as np.eye gives, are accepted."""
        M = np.asarray(M)
        if shape is not None and (M.ndim != len(shape) or any(
                want not in (None, have) for have, want in zip(M.shape, shape))):
            raise DimensionMismatch(f"an array of shape {M.shape} where {shape} is "
                                    "needed (None: any length)")
        if M.dtype.kind in "fc":
            if not (M == np.round(M.real)).all():
                raise ValueError(f"a non-integral entry is not an element of F_{self.q}")
            M = M.real
        # an unsigned array has no negative entry, so its min is not read
        if M.size and (M.max() >= self.q or M.dtype.kind != "u" and M.min() < 0):
            raise ValueError(f"a matrix entry is not an element of F_{self.q}")
        return M.astype(np.uint8, copy=False)

    def add(self, a, b):
        return self._lookup(self.add_table, self._add, a, b)

    def sub(self, a, b):
        return self._lookup(self.sub_table, self._sub, a, b)

    def mul(self, a, b):
        return self._lookup(self.mul_table, self._mul, a, b)

    def neg(self, a):
        return self._lookup(self.sub_table, self._sub, 0, a)

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise DivisionByZero("inverse of 0")
        return int(self.inv_table[a]) if np.ndim(a) == 0 else self.inv_table[np.asarray(a)]

    def pow(self, a, e):
        """a^e read off pow_table at the folded exponent."""
        return int(self.pow_table[int(a), reduce_exponent(e, self.q)])

    def __repr__(self):
        return f"FieldSpec(q={self.q})"


def _byte_table(T):
    """The q x q table T flattened and padded to the 256 bytes that
    bytes.translate takes, so entry a * q + b is T[a, b]."""
    table = np.zeros(256, dtype=np.uint8)
    table[:T.size] = T.ravel()
    return table.tobytes()


@lru_cache(maxsize=None)
def make_field(q):
    """Build F_q for a prime power q <= 16."""
    if q > MAX_Q:  # before factoring, which takes sqrt(q) steps
        raise Unsupported(f"q = {q} exceeds the cap of {MAX_Q}")
    p, t = _factor_prime_power(q)
    modulus = _MODULI.get(q, ()) if t > 1 else ()

    E = digits(np.arange(q), p, t)  # the coefficient vector of each element
    add = undigits((E[:, None] + E) % p, p).astype(np.uint8)
    if t == 1:
        mul = (np.arange(q)[:, None] * np.arange(q) % p).astype(np.uint8)
    else:
        vecs = E.tolist()
        mul = undigits([[_poly_mul_mod(a, b, modulus, p) for b in vecs] for a in vecs],
                       p).astype(np.uint8)
    neg = (add == 0).argmax(axis=1).astype(np.uint8)
    inv = (mul == 1).argmax(axis=1).astype(np.uint8)  # row 0 has no 1: inv[0] = 0

    pow_table = np.zeros((q, q), dtype=np.uint8)
    pow_table[:, 0] = 1
    for e in range(1, q):
        pow_table[:, e] = mul[pow_table[:, e - 1], np.arange(q)]

    return FieldSpec(q=q, p=p, t=t, modulus=modulus,
                     add_table=add, sub_table=add[:, neg], mul_table=mul,
                     neg_table=neg, inv_table=inv, pow_table=pow_table)

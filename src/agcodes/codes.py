"""Point enumeration, evaluation, and the code builders.

The point order is fixed once and for all: point index n corresponds to the
base-q digit expansion of n (``field.digits``) filled into the grid
row-major, with entry (1,1) as the least significant digit.  Every
generator matrix in the package is reproducible bit for bit from this
convention.

Evaluation is one numpy kernel for every q: ``evaluate`` writes the
evaluations of a list of polynomials into one preallocated matrix, a
block of rows at a time, from the keys of ``monomials.term_table``: each
term's vector is the outer product of two rows of one cached table W, the
values of every monomial in ceil(delta/2) variables at every point of
F_q^ceil(delta/2), and ``monomials.add_terms`` sums each row's scaled
terms.  Every builder calls it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import linalg
from .alist import _write_rows
from .errors import DimensionMismatch, OrderOutOfRange, SizeOutOfRange, TooLarge
from .field import digits, make_field, undigits
from .minors import enumerate_minors, minor_polynomial
from .monomials import (Rectangle, SparsePolynomial, add_terms,
                        all_reduced_monomials, monomial_degree, term_table)

DEFAULT_MAX_CELLS = 2 ** 24  # cap on n * k across all builders
_BLOCK_CELLS = 2 ** 16  # entries per block of evaluate and dual.check_dual_basis


@lru_cache(maxsize=None)
def _points(q, delta):
    return digits(np.arange(q ** delta), q, delta)


@lru_cache(maxsize=None)
def _monomial_values(q, width):
    """W[key, i] is the monomial with base-q key ``key`` in width variables
    at point i of F_q^width: the Kronecker power of pow_table.T."""
    F = make_field(q)
    P = W = F.pow_table.T
    for _ in range(width - 1):
        W = F.mul(P[:, None, :, None], W[None, :, None, :]).reshape(q * len(W), -1)
    return W


@dataclass(frozen=True)
class PointEnumeration:
    """Fixed bijection {0..q^delta - 1} -> l x l' matrices over F_q."""

    rect: Rectangle
    field: object

    @property
    def n(self):
        return self.field.q ** self.rect.delta

    @property
    def points(self):
        """(n, delta) array; row i is point P_i as flat row-major digits."""
        return _points(self.field.q, self.rect.delta)

    def point(self, i):
        return self.points[i].reshape(self.rect.ell, self.rect.ell_prime)

    def index_of(self, matrix):
        """The index i with P_i equal to the l x l' matrix over F_q."""
        M = self.field.elements(matrix)
        if M.shape != (self.rect.ell, self.rect.ell_prime):
            raise DimensionMismatch(f"a point is {self.rect.ell} x {self.rect.ell_prime}, "
                                    f"not of shape {M.shape}")
        return int(undigits(M.reshape(-1), self.field.q))


def evaluate(polys, pe):
    """The (len(polys), n) matrix whose row j is Ev(polys[j]), coordinate i
    being polys[j](P_i).  One polynomial f is ``evaluate([f], pe)[0]``.

    Rows are filled in blocks of about ``_BLOCK_CELLS`` entries.  A term
    with key hi * q^h + lo, h = delta // 2, has at point i_hi * q^h + i_lo
    the value W[hi, i_hi] * W[lo, i_lo]: one field lookup per block.  A
    negative exponent or a coefficient outside F_q* raises ValueError in
    ``term_table``.
    """
    F, n = pe.field, pe.n
    q = F.q
    for f in polys:
        if f.rect != pe.rect or f.field.q != q:
            raise DimensionMismatch("polynomial does not match the point enumeration")
    delta = pe.rect.delta
    keys, _, rows, mons, coefs, pos = term_table(polys, q, delta)
    low = q ** (delta // 2)
    hi, lo = np.divmod(keys[mons], low)  # one entry per term
    W = _monomial_values(q, delta - delta // 2)
    H = np.zeros((len(polys), n), dtype=np.uint8)
    step = max(1, _BLOCK_CELLS // n)
    starts = range(0, len(polys), step)
    cuts = np.searchsorted(rows, [*starts, len(polys)])  # rows ascend
    for start, a, b in zip(starts, cuts, cuts[1:]):
        V = F.mul(W[hi[a:b], :, None], W[lo[a:b], None, :low]).reshape(b - a, n)
        add_terms(F, V, rows[a:b] - start, np.arange(b - a), coefs[a:b], pos[a:b],
                  H[start:start + step])
    return H


@dataclass(eq=False)
class Code:
    """A linear code with its generator matrix kept in construction order."""

    field: object
    generator: np.ndarray
    meta: dict = dc_field(default_factory=dict)
    rect: Rectangle = None

    def __post_init__(self):
        self.generator = self.field.elements(self.generator)
        self._parity = None

    @property
    def n(self):
        return self.generator.shape[1]

    @property
    def k(self):
        return self.generator.shape[0]

    def parity_check(self):
        """An (n-k) x n matrix whose rows span the dual; cached."""
        if self._parity is None:
            primal = self.meta.get("dual_of")
            if primal is not None:
                self._parity = primal.generator
            else:
                self._parity = linalg.nullspace(self.generator, self.field)
        return self._parity

    def contains(self, word):
        word = self.field.elements(word)
        if word.shape != (self.n,):
            raise DimensionMismatch("word length mismatch")
        return self._contains_rows(word[None, :])

    def _contains_rows(self, words):
        """True iff every row of words is a codeword.  The test goes through
        whichever of the generator and the parity check has fewer rows:
        rank([G; words]) == rank(G), or a zero syndrome.  So a code of low
        dimension never builds its parity check here.  Syndromes are taken
        on blocks of about 2^22 entries of contiguous word rows."""
        F = self.field
        if self.k <= self.n - self.k:
            stacked = np.concatenate([self.generator, words])
            return linalg.rank(stacked, F) == linalg.rank(self.generator, F)
        Ht = self.parity_check().T
        step = max(1, 2 ** 22 // max(1, self.n))
        return not any(linalg.matmul(words[lo:lo + step], Ht, F).any()
                       for lo in range(0, len(words), step))

    def __repr__(self):
        tag = self.meta.get("kind", "RAW")
        return f"Code[{self.n},{self.k}]({tag})"


def write_generator(code, path):
    """Plain-text export: first line 'q n k', then k rows of element codes."""
    with open(path, "wb") as fh:
        fh.write(f"{code.field.q} {code.n} {code.k}\n".encode())
        _write_rows(fh, code.generator)


def gaussian_binomial(a, b, q):
    """Number of b-dimensional subspaces of F_q^a, as an exact integer."""
    if not a >= b >= 0:
        raise ValueError("need a >= b >= 0")
    num = math.prod(q ** a - q ** j for j in range(b))
    den = math.prod(q ** b - q ** j for j in range(b))
    return num // den


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int
    min_weight_count: int = None


def theoretical_params(ell, m, r, q):
    """Closed-form [n, k_r, d_r] of the level-r code; the minimum-weight
    count is only known in closed form at full level r = l."""
    make_field(q)  # rejects q as make_field does, before the level
    ell_prime = m - ell
    if not (0 <= r <= ell <= ell_prime and ell >= 1):
        raise SizeOutOfRange("need 0 <= r <= ell <= ell' = m - ell and ell >= 1")
    delta = ell * ell_prime
    n = q ** delta
    k = sum(math.comb(ell, i) * math.comb(ell_prime, i) for i in range(r + 1))
    d = q ** (delta - r * (r + 1) // 2) * math.prod(q ** i - 1 for i in range(1, r + 1))
    count = None
    if r == ell:
        count = (q - 1) * q ** (ell * ell) * gaussian_binomial(ell_prime, ell, q)
    return CodeParams(n=n, k=k, d=d, min_weight_count=count)


def rm_theoretical_params(r, delta, q):
    """[n, k, d] and the minimum-weight count of RM(r, delta) over F_q."""
    make_field(q)  # rejects q as make_field does, before the order
    if not 0 <= r <= delta * (q - 1):
        raise OrderOutOfRange(f"RM order {r} outside [0, {delta * (q - 1)}]")
    n = q ** delta
    k = sum(
        (-1) ** j * math.comb(delta, j) * math.comb(delta + i - j * q - 1, i - j * q)
        for i in range(r + 1) for j in range(delta + 1)
        if i - j * q >= 0
    )
    Q, R = divmod(delta * (q - 1) - r, q - 1)
    d = (R + 1) * q ** Q
    if R == 0:
        count = (q ** (delta - Q + 1) - q ** (delta - Q)) * gaussian_binomial(delta, Q, q)
    else:
        count = ((q ** delta - q ** (delta - Q - 1))
                 * gaussian_binomial(delta, Q + 1, q) * math.comb(q, R + 1))
    return CodeParams(n=n, k=k, d=d, min_weight_count=count)


def delta_monomial_set(rect, r):
    """The minors of size 0..r in enumeration order (size, then lex)."""
    return [M for i in range(r + 1) for M in enumerate_minors(rect, i)]


def build_affine_grassmann(ell, m, r, q):
    """Generator rows are Ev(M) for M in the minor set, in enumeration order.

    Rank and (for r >= 1) nondegeneracy are verified on build.
    """
    F = make_field(q)
    params = theoretical_params(ell, m, r, q)
    rect = Rectangle(ell, m - ell)
    if params.n * params.k > DEFAULT_MAX_CELLS:
        raise TooLarge(f"n*k = {params.n * params.k} exceeds cap {DEFAULT_MAX_CELLS}")
    pe = PointEnumeration(rect, F)
    G = evaluate([minor_polynomial(M, F, rect)
                  for M in delta_monomial_set(rect, r)], pe)
    if linalg.rank(G, F) != params.k:
        raise AssertionError("minor evaluations unexpectedly dependent")
    if r >= 1 and (~G.any(axis=0)).any():
        raise AssertionError("unexpected zero column in a level >= 1 code")
    return Code(field=F, generator=G, rect=rect,
                meta={"kind": "AGC", "ell": ell, "m": m, "r": r, "q": q})


def build_reed_muller(r, delta, q):
    """RM(r, delta): evaluations of all reduced monomials of degree <= r
    on F_q^delta (realized as the 1 x delta grid)."""
    F = make_field(q)
    params = rm_theoretical_params(r, delta, q)
    rect = Rectangle(1, delta)
    pe = PointEnumeration(rect, F)
    mus = sorted((mu for mu in all_reduced_monomials(rect, q)
                  if monomial_degree(mu) <= r),
                 key=lambda mu: (monomial_degree(mu), mu))
    if pe.n * len(mus) > DEFAULT_MAX_CELLS:
        raise TooLarge("RM build exceeds the size cap")
    G = evaluate([SparsePolynomial.monomial(F, rect, mu) for mu in mus], pe)
    if G.shape[0] != params.k:
        raise AssertionError("monomial count disagrees with the dimension formula")
    return Code(field=F, generator=G, rect=rect,
                meta={"kind": "RM", "r": r, "delta": delta, "q": q})


def subcode_check(C1, C2):
    """True iff every generator row of C1 lies in the row space of C2."""
    if C1.field.q != C2.field.q or C1.n != C2.n:
        raise DimensionMismatch("codes live in different ambient spaces")
    return C2._contains_rows(C1.generator)

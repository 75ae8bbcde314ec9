"""Point enumeration, evaluation, and the code builders.

The point order is fixed once and for all: point index n corresponds to the
base-q digit expansion of n (``field.digits``) filled into the grid
row-major, with entry (1,1) as the least significant digit.  Every
generator matrix in the package is reproducible bit for bit from this
convention.

Evaluation is one numpy kernel for every q: ``evaluate`` writes the
evaluations of rows of polynomials, or of a block of their rows and a run
of their columns, into one preallocated matrix, a block of rows at a
time, from their ``monomials.TermRows``: each term's vector is the outer
product of two rows of one cached table W, the values of every monomial
in ceil(delta/2) variables at every point of F_q^ceil(delta/2), and
``monomials.add_terms`` sums each row's scaled terms.  Every builder
calls it once, on rows held as arrays.  ``EvaluatedRows`` is the same
matrix never held: each slice of it is one call of ``evaluate``.
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
from .minors import minor_rows
from .monomials import Rectangle, TermRows, add_terms, term_table

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
        M = self.field.elements(matrix, (self.rect.ell, self.rect.ell_prime))
        return int(undigits(M.reshape(-1), self.field.q))


def evaluate(polys, pe, rows=slice(None), cols=slice(None)):
    """The (len(polys), n) matrix whose row j is Ev(polys[j]), coordinate i
    being polys[j](P_i), or its block [rows, cols] for slices of step 1.
    polys is a list of polynomials or a ``monomials.TermRows`` (see
    ``monomials.term_table``).  One polynomial f is ``evaluate([f], pe)[0]``.

    Rows are filled in blocks of about ``_BLOCK_CELLS`` entries.  A term
    with key hi * q^h + lo, h = delta // 2, has at point i_hi * q^h + i_lo
    the value W[hi, i_hi] * W[lo, i_lo]: one field lookup per block, over
    the values i_hi that the columns span.  A field or rectangle other
    than pe's raises DimensionMismatch, and a negative exponent or a
    coefficient outside F_q* ValueError.
    """
    F, n, delta = pe.field, pe.n, pe.rect.delta
    q = F.q
    t = term_table(polys, F, pe.rect)
    (r0, r1, rstep), (c0, c1, cstep) = rows.indices(len(t)), cols.indices(n)
    if rstep != 1 or cstep != 1:
        raise ValueError("evaluate reads slices of step 1 only")
    r1, c1 = max(r0, r1), max(c0, c1)
    low = q ** (delta // 2)
    h0, h1 = c0 // low, -(-c1 // low)  # the high digits of the columns
    width, skip = (h1 - h0) * low, c0 - h0 * low
    first = t.starts[r0]
    hi, lo = np.divmod(t.keys[t.mons[first:t.starts[r1]]], low)  # one entry per term
    W = _monomial_values(q, delta - delta // 2)
    H = np.zeros((r1 - r0, c1 - c0), dtype=np.uint8)
    step = max(1, _BLOCK_CELLS // max(width, 1))
    starts = range(r0, r1, step)
    cuts = t.starts[[*starts, r1]] - first
    for start, a, b in zip(starts, cuts, cuts[1:]):
        V = F.mul(W[hi[a:b], h0:h1, None], W[lo[a:b], None, :low]).reshape(b - a, width)
        terms = slice(first + a, first + b)
        add_terms(F, V[:, skip:skip + c1 - c0], t.rows[terms] - start, np.arange(b - a),
                  t.coefs[terms], t.pos[terms], H[start - r0:start - r0 + step])
    return H


class EvaluatedRows:
    """The matrix ``evaluate(polys, pe)``, never held: E[rows] or
    E[rows, cols], with slices of step 1, evaluates that block.  Like an
    ndarray it has a shape, so the writers read it a block of rows, or a
    run of columns, at a time.  Every entry lies in F_q, and at most
    ``nonzero_bound`` entries are nonzero: a term c mu is nonzero exactly
    at the points whose slots are nonzero where mu's exponents are, and a
    row is nonzero only where one of its terms is."""

    def __init__(self, polys, pe):
        if not isinstance(polys, TermRows):  # walk a list once; evaluate checks a TermRows
            polys = term_table(polys, pe.field, pe.rect)
        self.polys, self.pe, self.field = polys, pe, pe.field
        self.shape = (len(polys), pe.n)
        self.top = pe.field.q - 1  # the largest entry

    def __getitem__(self, key):
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        return evaluate(self.polys, self.pe, rows, cols)

    @property
    def nonzero_bound(self):
        t, q, delta = self.polys, self.field.q, self.pe.rect.delta
        used = np.count_nonzero(digits(t.keys, q, delta), axis=1)  # each monomial's variables
        weights = (q - 1) ** used * q ** (delta - used)
        return int(weights[t.mons].sum())


@dataclass(eq=False)
class Code:
    """A linear code with its generator matrix kept in construction order."""

    field: object
    generator: np.ndarray
    meta: dict = dc_field(default_factory=dict)
    rect: Rectangle = None

    def __post_init__(self):
        self.generator = self.field.elements(self.generator, (None, None))
        self._parity = self._rank = None

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
        word = self.field.elements(word, (self.n,))
        return self._contains_rows(word[None, :])

    def _contains_rows(self, words):
        """True iff every row of words is a codeword.  The test goes through
        whichever of the generator and the parity check has fewer rows:
        rank([G; words]) == rank(G), or a zero syndrome.  So a code of low
        dimension never builds its parity check here, and it ranks its
        generator once (cached).  Syndromes are taken on blocks of about
        2^22 entries of contiguous word rows."""
        F = self.field
        if self.k <= self.n - self.k:
            if self._rank is None:
                self._rank = linalg.rank(self.generator, F)
            stacked = np.concatenate([self.generator, words])
            return linalg.rank(stacked, F) == self._rank
        Ht = self.parity_check().T
        step = max(1, 2 ** 22 // max(1, self.n))
        return not any(linalg.matmul(words[lo:lo + step], Ht, F).any()
                       for lo in range(0, len(words), step))

    def __repr__(self):
        tag = self.meta.get("kind", "RAW")
        return f"Code[{self.n},{self.k}]({tag})"


def write_generator(code, path):
    """Plain-text export: first line 'q n k', then k rows of element codes.
    code is a Code, or a row-block source with a field, such as
    EvaluatedRows or an ``alist.KeyedRows`` around one, read a block of
    rows at a time."""
    G = code.generator if isinstance(code, Code) else code
    k, n = G.shape
    with open(path, "wb") as fh:
        fh.write(f"{code.field.q} {n} {k}\n".encode())
        _write_rows(fh, G)


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


def build_affine_grassmann(ell, m, r, q):
    """Generator rows are Ev(M) for M in the minor set, in enumeration order.

    Rank and (for r >= 1) nondegeneracy are verified on build.  The
    generator is read-only: analysis.low_weight_dual_search uses the
    code's automorphism group only while the generator is this array,
    unchanged.
    """
    F = make_field(q)
    params = theoretical_params(ell, m, r, q)
    rect = Rectangle(ell, m - ell)
    if params.n * params.k > DEFAULT_MAX_CELLS:
        raise TooLarge(f"n*k = {params.n * params.k} exceeds cap {DEFAULT_MAX_CELLS}")
    pe = PointEnumeration(rect, F)
    G = evaluate(minor_rows(F, rect, r), pe)
    if linalg.rank(G, F) != params.k:
        raise AssertionError("minor evaluations unexpectedly dependent")
    if r >= 1 and (~G.any(axis=0)).any():
        raise AssertionError("unexpected zero column in a level >= 1 code")
    G.flags.writeable = False
    return Code(field=F, generator=G, rect=rect,
                meta={"kind": "AGC", "ell": ell, "m": m, "r": r, "q": q})


def build_reed_muller(r, delta, q):
    """RM(r, delta): evaluations of all reduced monomials of degree <= r
    on F_q^delta (the 1 x delta grid) by degree, then in lex order: point
    j's digits reversed, as in ``dual.dual_basis``.  The generator is
    read-only, as build_affine_grassmann's is."""
    F = make_field(q)
    params = rm_theoretical_params(r, delta, q)
    if params.n * params.k > DEFAULT_MAX_CELLS:
        raise TooLarge("RM build exceeds the size cap")
    rect = Rectangle(1, delta)
    pe = PointEnumeration(rect, F)
    lex = pe.points[:, ::-1]
    degree = lex.sum(axis=1)
    order = np.argsort(degree, kind="stable")
    keys = undigits(lex[order[degree[order] <= r]], q)
    k = len(keys)
    G = evaluate(TermRows(F, rect, k, keys, np.arange(k), np.arange(k),
                          np.ones(k, dtype=np.uint8)), pe)
    if G.shape[0] != params.k:
        raise AssertionError("monomial count disagrees with the dimension formula")
    G.flags.writeable = False
    return Code(field=F, generator=G, rect=rect,
                meta={"kind": "RM", "r": r, "delta": delta, "q": q})


def subcode_check(C1, C2):
    """True iff every generator row of C1 lies in the row space of C2."""
    if C1.field.q != C2.field.q or C1.n != C2.n:
        raise DimensionMismatch("codes live in different ambient spaces")
    return C2._contains_rows(C1.generator)

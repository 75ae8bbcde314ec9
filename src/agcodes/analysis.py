"""Exact weight analysis: exhaustive minimum distance, low-weight dual
codeword search, codewords of a given weight and span tests.

All counts are exact.  Full enumeration yields the weight distribution
of every nonzero message with one meet-in-the-middle kernel for every q,
with no special case for q = 2 and no BLAS product.  Each word is held
as ceil(log2 q) bit-planes of its element codes, 64 coordinates to a
uint64 word.  A table of the combinations of the first rows meets the
negated combinations -h of the other rows: low + h vanishes exactly
where the codes of low and -h agree, so its weight is the popcount of
the OR over the planes of low XOR -h (for q = 2, of low XOR h).  The
combinations are built by doubling with field lookups, and the weights
are histogrammed.

The dual search counts weights <= 4 with one sort-and-group kernel for
every q, on projectively normalized int64 keys of the columns and of the
pair combinations c_a + t c_b: B_4 = (q-1) (sum C(g, 2) - 3 (q-2) T3) / 3
over groups of g equal pair keys (see low_weight_dual_search).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .codes import PointEnumeration, evaluate, theoretical_params
from .errors import (DimensionMismatch, RankTooLow, TooLarge, Unsupported,
                     WMaxUnsupported, WordNotInCode)
from .field import digits, make_field, undigits
from .monomials import Rectangle, SparsePolynomial

DEFAULT_ENUM_CAP = 2 ** 24
# Pair combinations the support search may form (2^25 int64 keys, 256 MiB).
MAX_PAIR_COMBINATIONS = 2 ** 25
# Cells of the combinations one block forms (support search, enumeration),
# and bytes of the enumeration's packed table and of one batch of its words.
_BLOCK_CELLS = 2 ** 18
# Cells of the word matrix dual_codewords_of_weight may list (256 MiB).
MAX_WORD_CELLS = 2 ** 28


@dataclass
class WeightReport:
    min_distance: int
    min_weight_count: int
    method: str
    enumerated: int  # codewords walked, or pair combinations formed
    weight_counts: dict = None  # {w: count}: every weight met, or w = 1..w_max

    def to_json(self):
        return json.dumps({"d": self.min_distance, "count": self.min_weight_count,
                           "method": self.method, "enumerated": self.enumerated},
                          sort_keys=True)


# ---------------------------------------------------------- full enumeration

def _combinations(F, M):
    """The q^r combinations of the r rows of M, the one of message i (the
    coefficients digits(i, q, r)) at row i, as consecutive uint8 blocks
    of q^a rows and at most _BLOCK_CELLS cells (one row when a row alone
    is larger).  The combinations of the first a rows are built once, by
    doubling with field lookups; each block adds to them one combination
    of the other rows."""
    q, (r, n) = F.q, M.shape
    a = 0
    while a < r and q ** (a + 1) * n <= _BLOCK_CELLS:
        a += 1
    scale = np.arange(q, dtype=np.uint8)[:, None]
    base = np.zeros((1, n), dtype=np.uint8)
    for row in M[:a]:  # row t q^j + i is row i plus t M_j
        base = F.add(F.mul(scale, row)[:, None], base).reshape(q * len(base), n)
    for coeffs in digits(np.arange(q ** (r - a)), q, r - a).tolist():
        outer = np.zeros(n, dtype=np.uint8)
        for t, row in zip(coeffs, M[a:]):
            if t:
                outer = F.add(outer, F.mul(t, row))
        yield F.add(base, outer)


def _planes(X, b):
    """The (rows, b, ceil(n / 64)) uint64 bit-planes of the (rows, n)
    element codes X: plane j holds bit j of each code, packed as
    linalg.pack_rows packs a 0/1 matrix."""
    return np.stack([linalg.pack_rows((X >> j) & 1) for j in range(b)], axis=1)


def _codes(P, n):
    """The (m, n) element codes of the (b, words, m) bit-planes P."""
    bits = linalg.unpack_rows(P.transpose(2, 0, 1), n)
    X = bits[:, 0]
    for j in range(1, len(P)):
        X |= bits[:, j] << j
    return X


def _enumerate(C, keep_weight=-1):
    """Weight distribution of the codewords of all q^k - 1 nonzero messages.

    Returns (A, words): A[w] counts the nonzero messages whose codeword has
    weight w, and words is the (m, n) uint8 matrix of those of weight
    keep_weight, in message order (None by default).

    Meet in the middle, one kernel for every q: each word is held as
    b = ceil(log2 q) bit-planes of its element codes (_planes), 64
    coordinates to a uint64.  A table of the combinations of the first lo
    rows, stored (plane, word, row), meets each combination -h of the
    other rows negated: low + h is zero exactly where the codes of low and
    -h agree, so its weight is the popcount of the OR over the planes of
    low XOR -h, summed over the words of each table row as contiguous
    integer adds.  lo is ceil(k / 2), so both sides cost about the same
    to build, or less if the table would pass _BLOCK_CELLS bytes; the -h
    are compared in batches of about _BLOCK_CELLS bytes of words, so the
    number of numpy calls follows the work, not the table's size.  Every combination is built by field
    lookups in blocks of at most _BLOCK_CELLS cells (_combinations); no
    float product is taken.
    """
    F = C.field
    G = F.elements(C.generator)
    q, (k, n) = F.q, G.shape
    b = (q - 1).bit_length()
    nwords = linalg.pack_rows(G[:0]).shape[1]  # uint64 words of one packed word
    words_cap = _BLOCK_CELLS // 8  # uint64 words in _BLOCK_CELLS bytes
    lo = 0
    while lo < k - k // 2 and q ** (lo + 1) * b * max(1, nwords) <= words_cap:
        lo += 1
    low = np.empty((b, nwords, q ** lo), dtype=np.uint64)
    top = 0
    for block in _combinations(F, G[:lo]):
        low[:, :, top:top + len(block)] = _planes(block, b).transpose(1, 2, 0)
        top += len(block)
    step = max(1, words_cap // (max(1, nwords) * q ** lo))  # -h per batch
    diffs = np.empty((2, step) + low.shape[1:], dtype=np.uint64)
    ones = np.empty(diffs.shape[1:], dtype=np.uint8)
    wide = np.uint16 if n < 2 ** 16 else np.uint32  # holds a weight <= n
    A = np.zeros(n + 1, dtype=np.int64)
    words = [np.zeros((0, n), dtype=np.uint8)]
    for block in _combinations(F, F.neg(G[lo:])):
        planes = _planes(block, b)[..., None]
        for start in range(0, len(block), step):
            h = planes[start:start + step]
            diff, other = diffs[:, :len(h)]
            np.bitwise_xor(low[0], h[:, 0], out=diff)
            for j in range(1, b):
                np.bitwise_xor(low[j], h[:, j], out=other)
                diff |= other
            w = np.bitwise_count(diff, out=ones[:len(h)]).sum(axis=1, dtype=wide)
            A += np.bincount(w.ravel(), minlength=n + 1)
            if keep_weight >= 0:
                hi, li = np.nonzero(w == keep_weight)
                if len(hi):  # low - (-h)
                    words.append(F.sub(_codes(low[:, :, li], n), block[start + hi]))
    A[0] -= 1  # the zero message
    if keep_weight < 0:
        return A, None
    return A, np.concatenate(words)[1 if keep_weight == 0 else 0:]


def min_distance_exhaustive(C):
    """Exact minimum distance and minimum-weight count by full enumeration.

    ``weight_counts`` is {w: A_w} over the weights that occur among the
    codewords of the q^k - 1 nonzero messages, so its values sum to
    ``enumerated``; weight 0 appears only when the rows are dependent.
    """
    total = C.field.q ** C.k - 1
    if total > DEFAULT_ENUM_CAP:
        raise TooLarge(
            f"{total} codewords exceed the cap {DEFAULT_ENUM_CAP}; "
            "use low_weight_dual_search for dual codes")
    A, _ = _enumerate(C)
    counts = {w: int(a) for w, a in enumerate(A.tolist()) if a}
    d = min(counts, default=None)
    return WeightReport(min_distance=d, min_weight_count=counts.get(d, 0),
                        method="full-enumeration", enumerated=total,
                        weight_counts=counts)


# ----------------------------------------------------- low-weight dual search

def _normalize(F, V):
    """Scale each vector (last axis) so its first nonzero digit is 1.

    Returns (scaled, lead, key): a zero vector stays zero with lead 1, and
    the key is undigits(scaled, q), digit 0 least significant (for q = 2,
    the bits).
    """
    lead = np.ones(V.shape[:-1], dtype=np.uint8)
    for i in range(V.shape[-1] - 1, -1, -1):
        lead = np.where(V[..., i] != 0, V[..., i], lead)
    V = F.mul(F.inv_table[lead][..., None], V)
    return V, lead, undigits(V, F.q)


def _groups(sorted_keys):
    """Start and size of each run of equal keys in a sorted array."""
    edge = np.ones(len(sorted_keys), dtype=bool)
    edge[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(edge)
    return starts, np.diff(np.r_[starts, len(sorted_keys)])


def _group_pairs(starts, sizes):
    """Positions i < j of every pair of entries inside one run."""
    later = np.repeat(starts + sizes, sizes) - np.arange(sizes.sum()) - 1
    i = np.repeat(np.arange(sizes.sum()), later)
    return i, i + 1 + np.arange(later.sum()) - np.repeat(np.cumsum(later) - later, later)


def _words(F, lead, supports, coeffs):
    """The (m, n) uint8 matrix of the words given as m ascending rows of
    column indices and the coefficients on the normalized columns there:
    rescaled to the original columns by 1 / lead, scaled so each word's
    first entry is 1, and sorted by support, then coefficients."""
    coeffs = F.mul(coeffs, F.inv_table[lead[supports]])
    coeffs = F.mul(coeffs, F.inv_table[coeffs[:, :1]])
    key = np.zeros(len(supports), dtype=np.int64)  # (nq)^w < 2^61: (q-1) n^2 <= 2^26 at w >= 3
    for digits, base in [(supports, len(lead)), (coeffs, F.q)]:
        for col in digits.T:
            key = key * base + col
    by_key = np.argsort(key)
    n = len(lead)
    words = np.zeros((len(supports), n), dtype=np.uint8)
    np.put(words, supports[by_key] + n * np.arange(len(supports))[:, None], coeffs[by_key])
    return words


def _pair_search(D, keys, F, w_max, collect):
    """(B_3, B_4, read) on the pairwise non-proportional normalized
    columns D with keys ``keys``; with collect, read() returns the words
    of weight w_max, one per projective class, as _words takes them, so
    the caller can size them from the counts before they are formed.

    Each pair entry keeps, beside its pair a < b, the coefficients (u, v)
    with u D_a + v D_b = N, its normalized combination: (1, t) / lambda
    for D_a + t D_b = lambda N.  A column c whose key is the entry's
    gives the word u D_a + v D_b - D_c, kept when c > b; two entries with
    equal keys give the word u D_a + v D_b - u' D_c - v' D_d, kept when
    b < c.  So each word is read off one match, the one that splits off
    its lowest two columns.
    """
    q, n = F.q, len(keys)
    order = np.argsort(keys)
    col_keys = keys[order]
    scaled = F.mul(np.arange(1, q, dtype=np.uint8)[:, None, None], D)  # t c_b
    total = (q - 1) * (n * (n - 1) // 2) if w_max >= 4 else 0
    pair_keys = np.empty(total, dtype=np.int64)
    pairs = np.empty((total if collect else 0, 2), dtype=np.int32)
    pair_coef = np.empty(pairs.shape, dtype=np.uint8)  # (u, v)
    supp3, coef3 = [np.empty((0, 3), dtype=np.intp)], [np.empty((0, 3), dtype=np.uint8)]
    m3, filled = 0, 0
    rows = max(1, _BLOCK_CELLS // max(1, (q - 1) * n * D.shape[1]))
    for lo in range(0, n, rows):
        a, b = np.nonzero(np.arange(n) > np.arange(lo, min(lo + rows, n))[:, None])
        a += lo
        if q == 2:
            pk, lead = keys[a] ^ keys[b], np.ones(len(a), dtype=np.uint8)
        else:
            combos = F.add(D[a][:, None], scaled[:, b].swapaxes(0, 1))
            lead, pk = (x.ravel() for x in _normalize(F, combos)[1:])
            a, b = np.repeat(a, q - 1), np.repeat(b, q - 1)
        pos = np.minimum(np.searchsorted(col_keys, pk), n - 1)
        hit = col_keys[pos] == pk
        m3 += int(np.count_nonzero(hit))
        if collect:  # (u, v) = (1, t) / lambda
            t = np.tile(np.arange(1, q, dtype=np.uint8), len(pk) // (q - 1))
            coef = F.mul(F.inv_table[lead][:, None], np.c_[np.ones_like(t), t])
        if collect and w_max == 3:
            hit &= order[pos] > b
            supp3.append(np.stack([a, b, order[pos]], axis=1)[hit])
            coef3.append(np.c_[coef, np.full(len(a), F.neg(1))][hit])
        if total:
            pair_keys[filled:filled + len(pk)] = pk
            if collect:
                pairs[filled:filled + len(pk)] = np.stack([a, b], axis=1)
                pair_coef[filled:filled + len(pk)] = coef
            filled += len(pk)
    t3 = m3 // 3
    if not total:
        return (q - 1) * t3, 0, lambda: (np.concatenate(supp3), np.concatenate(coef3))
    if collect:
        by_key = np.argsort(pair_keys)
        pair_keys = pair_keys[by_key]
    else:
        pair_keys.sort()
    collisions = 0  # sum of C(g, 2): each key's count of equal keys before it
    for lo in range(0, total, _BLOCK_CELLS):
        block = pair_keys[lo:lo + _BLOCK_CELLS]
        collisions += int((np.arange(lo, lo + len(block))
                           - np.searchsorted(pair_keys, block)).sum())

    def read():
        i, j = (by_key[x] for x in _group_pairs(*_groups(pair_keys)))
        i, j = np.where(pairs[j, 1] < pairs[i, 0], [j, i], [i, j])  # lower pair first
        split = pairs[i, 1] < pairs[j, 0]  # i on the lowest two columns, j on the rest
        i, j = i[split], j[split]
        return np.c_[pairs[i], pairs[j]], np.c_[pair_coef[i], F.neg(pair_coef[j])]
    return (q - 1) * t3, (q - 1) * (collisions - 3 * (q - 2) * t3) // 3, read


def low_weight_dual_search(C, w_max=4):
    """Count the dual codewords of weight 1..w_max as column dependencies
    of C's generator matrix.  w_max must be an int in 1..4 (not a bool or
    a float); anything else raises WMaxUnsupported.

    With z zero columns, B_w = sum_j C(z, j) (q-1)^j B'_{w-j}, where B'
    counts on the n' nonzero columns: B'_0 = 1, B'_1 = 0 and
    B'_2 = (q-1) sum C(m, 2) over the projective classes of size m.  On
    pairwise non-proportional columns the kernel keys every column and
    every pair combination c_a + t c_b (a < b, t in F_q*), scaled so its
    first nonzero digit is 1: bit-packed for q = 2 (where the pair key is
    the XOR of two column keys), base-q digits otherwise.  ``enumerated``
    is the number of pair combinations formed, (q-1) C(n', 2), and 0
    when the kernel does not run.  If m3 pair keys equal a column key,
    there are T3 = m3 / 3 collinear triples and B'_3 = (q-1) T3.  With g
    the sizes of the groups of equal pair keys,

        B'_4 = (q-1) (sum C(g, 2) - 3 (q-2) T3) / 3,

    since a projective weight-4 word collides once per split into two
    pairs, and a collinear triple q-2 times per shared index.  If all
    nonzero columns lie in one class (a level-0 code),
    B'_w = C(n', w) ((q-1)^w + (-1)^w (q-1)) / q.  Any other proportional
    columns raise Unsupported for w_max >= 3, as do keys above 63 bits;
    more than MAX_PAIR_COMBINATIONS pair combinations raise TooLarge.
    """
    return _search(C, w_max, False)[0]


def _search(C, w_max, collect):
    """low_weight_dual_search, with the words of weight w_max as the
    matrix dual_codewords_of_weight returns (None without collect)."""
    if (isinstance(w_max, bool) or not isinstance(w_max, (int, np.integer))
            or not 1 <= w_max <= 4):
        raise WMaxUnsupported(f"w_max must be an int in 1..4, got {w_max!r}")
    F = C.field
    G = F.elements(C.generator)
    q, (k, n) = F.q, G.shape
    if q ** k > 2 ** 63:
        raise Unsupported(f"a column of {k} digits over F_{q} needs a key above 63 bits")
    cols = G.T
    zero = ~cols.any(axis=1)
    z = int(zero.sum())
    n1 = n - z
    D, lead, keys = _normalize(F, cols)
    D, keys = D[~zero], keys[~zero]
    order = np.argsort(keys, kind="stable")
    starts, sizes = _groups(keys[order])
    proportional = int((sizes * (sizes - 1) // 2).sum())
    if collect and z and w_max >= 2:
        raise Unsupported("collect lists no words through zero columns")

    b = [1, 0] + [0] * (w_max - 1)  # B'_0 .. B'_{w_max}
    if w_max >= 2:
        b[2] = (q - 1) * proportional
    examined = 0
    if w_max >= 3:
        if proportional == 0:
            examined = (q - 1) * (n1 * (n1 - 1) // 2)
            if examined > MAX_PAIR_COMBINATIONS:
                raise TooLarge(f"{examined} pair combinations exceed the cap "
                               f"{MAX_PAIR_COMBINATIONS}")
            b3, b4, read = _pair_search(D, keys, F, w_max, collect)
            b[3:] = [b3, b4][:w_max - 2]
        elif proportional == n1 * (n1 - 1) // 2:
            if collect:
                raise Unsupported("collect lists no words of weight >= 3 "
                                  "on a single projective class")
            for w in range(3, w_max + 1):
                b[w] = math.comb(n1, w) * ((q - 1) ** w + (-1) ** w * (q - 1)) // q
        else:
            raise Unsupported("proportional columns outside a single class: "
                              "weights >= 3 are not counted")
    counts = {w: sum(math.comb(z, j) * (q - 1) ** j * b[w - j] for j in range(w + 1))
              for w in range(1, w_max + 1)}
    d = next((w for w in range(1, w_max + 1) if counts[w]), None)
    report = WeightReport(
        min_distance=d,
        min_weight_count=counts[d] if d else 0,
        method="support-search",
        enumerated=examined,
        weight_counts=counts)
    if not collect:
        return report, None
    listed = counts[w_max] // (q - 1)  # one word per projective class
    if listed * n > MAX_WORD_CELLS:
        raise TooLarge(f"{listed} words of length {n} exceed the cap of "
                       f"{MAX_WORD_CELLS} cells")
    if w_max == 1:
        found = np.flatnonzero(zero)[:, None], np.ones((z, 1), dtype=np.uint8)
    elif w_max == 2:  # D_a - D_c for a < c in one class; no zero column here
        i, j = _group_pairs(starts, sizes)
        found = np.c_[order[i], order[j]], np.tile([1, F.neg(1)], (len(i), 1))
    else:
        found = read()
    return report, _words(F, lead, *found)


def dual_codewords_of_weight(C_primal, w):
    """Dual codewords of weight w (an int in 1..4, as w_max of
    low_weight_dual_search) as one C-contiguous (m, n) uint8 matrix: one
    word per projective class, scaled so its first entry is 1 (the q - 2
    other multiples are not listed; for q = 2 that is every word), in
    order of support, then coefficients.

    Each word is read off one match of the support search: a zero column
    (w = 1), two columns of one projective class (w = 2), or a pair entry
    whose key equals a column's key (w = 3) or another entry's (w = 4);
    see _pair_search.  A generator with a zero column raises Unsupported
    for w >= 2, and one with proportional columns (a single projective
    class, or more) for w >= 3.  Words of more than MAX_WORD_CELLS cells
    in all raise TooLarge, once the search has counted them and before
    they are formed.
    """
    return _search(C_primal, w, collect=True)[1]


# ------------------------------------------------- min-weight words and spans

def min_weight_codewords(C, d):
    """The codewords of weight exactly d, whether or not d is the minimum
    weight, one per projective class (first nonzero entry 1), as one
    C-contiguous (m, n) uint8 matrix ((0, n) when none).  At d = 0 the
    zero word is listed once per nonzero message that gives it.

    Uses full enumeration when feasible; falls back to the support search
    (dual_codewords_of_weight) when C is a dual code and d <= 4.  Both
    routes list the same set of words, in their own orders.  A weight
    outside 0..n has no word, on every route.  d must be an int (not a
    bool or a float); anything else raises TypeError.
    """
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise TypeError(f"the weight d must be an int, got {d!r}")
    if not 0 <= d <= C.n:
        return np.zeros((0, C.n), dtype=np.uint8)
    total = C.field.q ** C.k - 1
    if total <= DEFAULT_ENUM_CAP:
        words = _enumerate(C, keep_weight=d)[1]
        if d and C.field.q > 2 and len(words):  # for q = 2 every word is its class
            lead = words[np.arange(len(words)), (words != 0).argmax(axis=1)]
            words = words[lead == 1]
        return words
    primal = C.meta.get("dual_of")
    if primal is not None and d <= 4:
        return dual_codewords_of_weight(primal, d)
    raise TooLarge("enumeration infeasible and no support-search route")


def span_generation_test(C, words):
    """Rank of the words (an (m, n) matrix or a list of rows) and whether
    they generate C.  A uint8 matrix, as min_weight_codewords and
    dual_codewords_of_weight return, is used as it is, without a copy.

    Words that are not rows of length n raise DimensionMismatch.
    Membership of every word in C is asserted first, by
    ``Code._contains_rows``: for a code of dimension above n/2, such as a
    dual, the syndromes M H^T are formed on blocks of contiguous word
    rows, so no transposed copy of the words is made.  Over F_2 the rank
    then packs the columns of the tall word matrix into bits (see
    linalg.gf2_rank).  They generate C when their rank is rank G, or for a
    dual from ``build_dual_code`` n - rank of the primal's (short) generator.
    """
    M = C.field.elements(words)
    if M.shape != (0,) and (M.ndim != 2 or M.shape[1] != C.n):  # (0,): no words
        raise DimensionMismatch(f"words of shape {M.shape} for a code of length {C.n}")
    primal = C.meta.get("dual_of")
    dim = (C.n - linalg.rank(primal.generator, C.field) if primal is not None
           else linalg.rank(C.generator, C.field))
    if not len(M):
        return {"rank": 0, "generates": dim == 0}
    if not C._contains_rows(M):
        raise WordNotInCode("a word is outside the code")
    r = linalg.rank(M, C.field)
    return {"rank": r, "generates": r == dim}


def rank_counterexample_check(q, ell, ell_prime, c):
    """Verify the level-1 counterexample: a rank >= 2 coefficient matrix
    (so some 2 x 2 minor of c is nonzero) gives a minimum-weight word of
    the level-1 code that cannot be a transformed leading 1 x 1 minor."""
    if ell < 2:
        raise RankTooLow("need ell >= 2")
    F = make_field(q)
    c = F.elements(c)
    if c.shape != (ell, ell_prime):
        raise DimensionMismatch(f"c must be {ell} x {ell_prime}, not of shape {c.shape}")
    if linalg.rank(c, F) < 2:
        raise RankTooLow("coefficient matrix must have rank >= 2")
    rect = Rectangle(ell, ell_prime)
    pe = PointEnumeration(rect, F)
    f = SparsePolynomial.zero(F, rect)
    for (i, j) in rect.positions():
        v = int(c[i - 1, j - 1])
        if v:
            f = f + SparsePolynomial.variable(F, rect, i, j).scaled(v)
    w = int(np.count_nonzero(evaluate([f], pe)))
    return w == theoretical_params(ell, ell + ell_prime, 1, q).d

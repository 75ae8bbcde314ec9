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
are histogrammed.  Weights are constant on classes of messages, so the
kernel meets one message of each: for q > 2 the table meets the zero -h
and one -h of each class of q - 1 nonzero multiples (_leaders), and the
others are never built.  Over F_2, when a generator row is all ones, the
kernel runs on the other rows, and outside it their words c fold with
c + 1, of weight n - wt(c).

The dual search counts weights <= 4 on two routes over one sorted key of
the nonzero columns D, each scaled so its first nonzero digit is 1
(_normalize); the zero columns and the runs of equal keys give B_1 and
B_2, and combinations of columns are keyed alike (_combine).  On a code
that build_affine_grassmann or build_reed_muller made, still unchanged,
the orbit route uses the automorphism group (translations, and the maps
P -> B P A^{-1} on each rank class): B_3 and B_4 follow from lookups of
D_0 + t D_a and D_0 + t D_a + v D_b among the column keys (_find) at one
point a of each class (see _orbit_counts).  Over F_2 such a code lists
its weight-4 words as affine planes (_plane_words): a 2-dimensional
subspace V of the points whose four column keys XOR to 0 at 0 gives a
word on each of its n / 4 cosets.  Every other generator takes one
sort-merge kernel (_pair_search): the pair keys are sorted once and the
column keys looked up among them, and the runs of equal pair keys give
B_4 and list the words.

The span test ranks a word matrix M and checks its membership with one
certificate (_spanning_rows): rows S of M and a kernel basis K of S with
M K^T = 0, so span M = span S, found by syndrome passes over M.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import linalg, transforms
from .codes import (PointEnumeration, evaluate, rm_theoretical_params,
                    theoretical_params)
from .errors import RankTooLow, TooLarge, Unsupported, WMaxUnsupported, WordNotInCode
from .field import digits, make_field, undigits
from .monomials import Rectangle, SparsePolynomial

DEFAULT_ENUM_CAP = 2 ** 24
# Pair combinations the support search may form: 2^25 int64 keys (256 MiB),
# at every w_max >= 3, plus one int64 argsort index of them when listing.
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
    enumerated: int  # codewords walked, pair combinations formed, or orbit lookups
    weight_counts: dict = None  # {w: count}: every weight met, or w = 1..w_max

    def to_json(self):
        return json.dumps({"d": self.min_distance, "count": self.min_weight_count,
                           "method": self.method, "enumerated": self.enumerated},
                          sort_keys=True)


# ---------------------------------------------------------- full enumeration

def _combinations(F, M, classes=False):
    """The q^r combinations of the r rows of M, the one of message i (the
    coefficients digits(i, q, r)) at row i, as consecutive uint8 blocks
    of q^a rows and at most _BLOCK_CELLS cells (one row when a row alone
    is larger).  The combinations of the first a rows are built once, by
    doubling with field lookups; each block adds to them one combination
    of the other rows.  With classes, only the messages _leaders(q, r)
    are combined, in the same order: the blocks of the others are never
    built."""
    q, (r, n) = F.q, M.shape
    a = 0
    while a < r and q ** (a + 1) * n <= _BLOCK_CELLS:
        a += 1
    scale = np.arange(q, dtype=np.uint8)[:, None]
    base = np.zeros((1, n), dtype=np.uint8)
    for row in M[:a]:  # row t q^j + i is row i plus t M_j
        base = F.add(F.mul(scale, row)[:, None], base).reshape(q * len(base), n)
    outers, first = ((_leaders(q, r - a), base[_leaders(q, a)]) if classes
                     else (np.arange(q ** (r - a)), base))
    for coeffs in digits(outers, q, r - a).tolist():
        outer = np.zeros(n, dtype=np.uint8)
        for t, row in zip(coeffs, M[a:]):
            if t:
                outer = F.add(outer, F.mul(t, row))
        yield F.add(base if any(coeffs) else first, outer)


def _leaders(q, r):
    """The messages i < q^r whose coefficients digits(i, q, r) are zero or
    have last nonzero coefficient 1, ascending: i = 0 and q^j <= i < 2 q^j.
    They are one of each class {t x : t in F_q*} of messages x."""
    return np.concatenate([[0]] + [np.arange(q ** j, 2 * q ** j) for j in range(r)])


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


def _enumerate(F, G, keep_weight=-1):
    """Weight distribution of the codewords of all q^k messages of the
    (k, n) rows G, the zero message included.

    Returns (A, words): A[w] counts the messages whose codeword has
    weight w, and words is the (m, n) uint8 matrix of the codewords of
    weight keep_weight of the nonzero messages, in message order (None by
    default); for q > 2 and keep_weight > 0, only those whose first
    nonzero entry is 1, one of each projective class, are formed
    (_lead_one).

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
    number of numpy calls follows the work, not the table's size.  Every
    combination is built by field lookups in blocks of at most
    _BLOCK_CELLS cells (_combinations); no float product is taken.

    Without keep_weight and for q > 2, only one h of each class
    {t h : t in F_q*} is met (_leaders), with the zero h: the messages
    (low, t h) are the multiples by t of (low / t, h), and low / t runs
    over the table as low does, so the distribution met with each
    nonzero h counts q - 1 times.
    """
    q, (k, n) = F.q, G.shape
    classes = keep_weight < 0 and q > 2
    lead_one = keep_weight > 0 and q > 2
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
    for block in _combinations(F, F.neg(G[lo:]), classes):
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
                if lead_one and len(hi):
                    hi, li = _lead_one(F, diff, low, h, hi, li)
                if len(hi):  # low - (-h)
                    words.append(F.sub(_codes(low[:, :, li], n), block[start + hi]))
    if classes:  # the zero h once, the others once for each of their q - 1 multiples
        alone = np.bitwise_count(np.bitwise_or.reduce(low)).sum(axis=0, dtype=wide)
        A = (q - 1) * A - (q - 2) * np.bincount(alone, minlength=n + 1)
    if keep_weight < 0:
        return A, None
    return A, np.concatenate(words)[1 if keep_weight == 0 else 0:]


def _lead_one(F, diff, low, h, hi, li):
    """The hits (hi, li) of _enumerate whose word low[li] - h[hi] (h a
    batch of -h) has first nonzero entry 1.  That entry is where the codes
    of low and -h first differ, the lowest set bit of diff[hi, :, li], so
    it is read from the bit-planes there and no word is formed."""
    d = diff[hi, :, li]  # (hits, words)
    word = (d != 0).argmax(axis=1)
    bits = d[np.arange(len(d)), word]
    bit = np.bitwise_count((bits & (~bits + np.uint64(1))) - np.uint64(1))
    low_code = h_code = np.zeros(len(d), dtype=np.uint8)
    for j in range(len(low)):
        low_code = low_code | ((low[j, word, li] >> bit) & 1).astype(np.uint8) << j
        h_code = h_code | ((h[hi, j, word, 0] >> bit) & 1).astype(np.uint8) << j
    keep = F.sub(low_code, h_code) == 1
    return hi[keep], li[keep]


def min_distance_exhaustive(C):
    """Exact minimum distance and minimum-weight count by full enumeration.

    ``weight_counts`` is {w: A_w} over the weights that occur among the
    codewords of the q^k - 1 nonzero messages, so its values sum to
    ``enumerated``; weight 0 appears only when the rows are dependent.

    Weights are constant on classes of messages, so _enumerate meets one
    message of each.  Over F_q, q > 2, a class is the q - 1 nonzero
    multiples of a message (see _enumerate).  Over F_2, when a row of G
    is the all-ones word, a class is {x, x + e} for the unit message e of
    that row: its codewords are c and c + 1, of weights w and n - w.  So
    the q^(k-1) messages A' of the other rows, zero included, give
    A_w = A'_w + A'_(n-w), exactly, whatever the other rows are.
    """
    F = C.field
    total = F.q ** C.k - 1
    if total > DEFAULT_ENUM_CAP:
        raise TooLarge(
            f"{total} codewords exceed the cap {DEFAULT_ENUM_CAP}; "
            "use low_weight_dual_search for dual codes")
    G = F.elements(C.generator)
    ones = np.flatnonzero(G.all(axis=1)) if F.q == 2 else ()
    if len(ones):
        A = _enumerate(F, np.delete(G, ones[0], axis=0))[0]
        A = A + A[::-1]
    else:
        A = _enumerate(F, G)[0]
    A[0] -= 1  # the zero message
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
    the bits), or, when q^k passes 2^63 for k digits, the scaled vector's
    bytes as one np.void value.
    """
    k = V.shape[-1]
    lead = np.ones(V.shape[:-1], dtype=np.uint8)
    if F.q > 2 and k:  # over F_2 every lead is 1; a zero vector's first digit is 0
        flat = V.reshape(-1, k)
        first = (flat != 0).argmax(axis=1) + k * np.arange(len(flat))
        lead = np.maximum(flat.ravel()[first], 1).reshape(lead.shape)
        V = F.mul(F.inv_table[lead][..., None], V)
    if F.q ** k > 2 ** 63:
        V = np.ascontiguousarray(V)
        return V, lead, V.view(np.dtype((np.void, k)))[..., 0]
    return V, lead, undigits(V, F.q)


def _combine(F, S, keys, *cols):
    """(lead, key), as _normalize gives them, of D_{c_0} + t_1 D_{c_1} + ...
    for every t_i in F_q*, on axes (the broadcast shape of the index arrays
    cols) + (t_1, ..., t_j), from the multiples S[c, t - 1] = t D_c of the
    normalized columns.  Over F_2 with integer keys the key of a sum is the
    XOR of the keys, and no vector is formed."""
    if F.q == 2 and keys.dtype.kind == "i":
        key = reduce(np.bitwise_xor, (keys[c] for c in cols))
        key = key.reshape(key.shape + (1,) * (len(cols) - 1))
        return np.ones(key.shape, dtype=np.uint8), key
    V = S[cols[0], 0]
    for i, c in enumerate(cols[1:]):  # V: index axes, t_1 .. t_i, digits
        V = F.add(V[..., None, :], S[c].reshape(np.shape(c) + (1,) * i + S.shape[1:]))
    return _normalize(F, V)[1:]


def _find(index, keys):
    """The column whose key is each of ``keys``, or -1, by binary search in
    index: the sorted column keys and the column of each."""
    sorted_keys, order = index
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(order) - 1)
    return np.where(sorted_keys[pos] == keys, order[pos], -1)


def _groups(sorted_keys):
    """Start and size of each run of equal keys in a sorted array."""
    edge = np.ones(len(sorted_keys), dtype=bool)
    edge[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(edge)
    return starts, np.diff(starts, append=len(sorted_keys))


def _ranges(lo, hi):
    """(i, x) for every x with lo[i] <= x < hi[i] (hi >= lo), in order of
    i, then x."""
    sizes = hi - lo
    i = np.repeat(np.arange(len(lo)), sizes)
    return i, np.arange(len(i)) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)


def _words(F, lead, supports, coeffs):
    """The (m, n) uint8 matrix of the words given as m ascending rows of
    column indices and the coefficients on the normalized columns there
    (not read over F_2, where every lead and coefficient is 1): rescaled to
    the original columns by 1 / lead, scaled so each word's first entry
    is 1, and sorted by support, then coefficients."""
    n = len(lead)
    key = np.zeros(len(supports), dtype=np.int64)  # (nq)^w < 2^61: (q-1) n^2 <= 2^26 at w >= 3
    for col in supports.T:
        key = key * n + col
    if F.q > 2:
        coeffs = F.mul(coeffs, F.inv_table[lead[supports]])
        coeffs = F.mul(coeffs, F.inv_table[coeffs[:, :1]])
        for col in coeffs.T:
            key = key * F.q + col
    by_key = np.argsort(key)
    words = np.zeros((len(supports), n), dtype=np.uint8)
    np.put(words, supports[by_key] + n * np.arange(len(supports))[:, None],
           1 if F.q == 2 else coeffs[by_key])
    return words


def _pair_search(F, S, keys, w_max, collect):
    """(B_3, B_4, read) on the pairwise non-proportional normalized
    columns D, with their multiples S and keys (_combine); with collect,
    read() returns the words of weight w_max (_pair_words), so the caller
    can size them from the counts before they are formed.

    Entry (q-1) p + t - 1 is D_a + t D_b = lambda N for the p-th pair
    a < b in (a, b) order and t in F_q*.  The block loop keeps only its
    key, the key of its normalized combination N, and, for q > 2 when
    listing, its lead lambda.  The keys are sorted once (by argsort when
    listing), and the n column keys are looked up in them: column c
    bounds the run of the entries with N = D_c, so m3 is the number of
    entries in those runs, and the run sizes g give sum C(g, 2).
    """
    q, n = F.q, len(keys)
    total = (q - 1) * (n * (n - 1) // 2)
    pair_keys = np.empty(total, dtype=np.int64)
    leads = np.empty(total if collect and q > 2 else 0, dtype=np.uint8)
    cells = n if q == 2 else S[:1].size * n  # per row a; over F_2 one XOR key per pair
    rows = max(1, _BLOCK_CELLS // max(1, cells))
    filled = 0
    for lo in range(0, n, rows):
        a = np.arange(lo, min(lo + rows, n))
        i, b = _ranges(a + 1, np.full(len(a), n))  # every pair (a[i], b) with b > a[i]
        lead, pk = (x.ravel() for x in _combine(F, S, keys, a[i], b))
        pair_keys[filled:filled + len(pk)] = pk
        if len(leads):
            leads[filled:filled + len(pk)] = lead
        filled += len(pk)
    by_key = np.argsort(pair_keys) if collect else None
    if collect:
        pair_keys = pair_keys[by_key]
    else:
        pair_keys.sort()
    first, last = np.searchsorted(pair_keys, keys), np.searchsorted(pair_keys, keys, "right")
    t3 = int((last - first).sum()) // 3
    collisions, lo = 0, 0  # sum C(g, 2), over blocks of about _BLOCK_CELLS keys in whole runs
    while w_max >= 4 and lo < total:
        hi = np.searchsorted(pair_keys, pair_keys[min(lo + _BLOCK_CELLS, total) - 1], "right")
        sizes = _groups(pair_keys[lo:hi])[1]
        collisions += int((sizes * (sizes - 1) // 2).sum())
        lo = hi
    b4 = (q - 1) * (collisions - 3 * (q - 2) * t3) // 3 if w_max >= 4 else 0
    return (q - 1) * t3, b4, lambda: _pair_words(F, n, w_max, pair_keys, by_key, leads,
                                                 first, last)


def _pair_words(F, n, w_max, pair_keys, by_key, leads, first, last):
    """The words of weight w_max (3 or 4), one per projective class, as
    _words takes them, from _pair_search's sorted pair keys, their entry
    indices by_key, the leads of the entries and the run [first, last)
    of each column key.

    An entry's pair a < b, its t and its coefficients
    (u, v) = (1, t) / lambda on (D_a, D_b) are decoded from its index.
    An entry in the run of a column c > b gives the word
    u D_a + v D_b - D_c.  At weight 4 each run is put in entry order, so
    by first column; an entry's partners are the tail of its run from the
    first entry whose first column c is above its b, each giving
    u D_a + v D_b - u' D_c - v' D_d.  So each word is formed once, from
    the match that splits off its lowest two columns.  Over F_2 every
    coefficient is 1, and None stands for them.
    """
    q, total = F.q, len(pair_keys)
    row = np.arange(n + 1)
    row = row * (2 * n - row - 1) // 2  # row[a]: the index of the pair (a, a + 1)

    def entries(e):  # a, b and (u, v) of the entries e (None over F_2)
        p, t = np.divmod(e, q - 1)
        pair_a = np.repeat(np.arange(n, dtype=np.min_scalar_type(n)), np.diff(row))
        a = pair_a[p].astype(np.intp)
        if q == 2:
            return a, p - row[a] + a + 1, None
        u = F.inv_table[leads[e]]
        return a, p - row[a] + a + 1, np.c_[u, F.mul(u, (t + 1).astype(np.uint8))]

    if w_max == 3:  # the entries in the run of each column c
        c, pos = _ranges(first, last)
        a, b, coef = entries(by_key[pos])
        keep = c > b
        return (np.c_[a, b, c][keep], None if q == 2 else
                np.c_[coef, np.full(len(c), F.neg(1), dtype=np.uint8)][keep])
    starts, sizes = _groups(pair_keys)
    run = np.repeat(np.arange(len(starts)) * total, sizes)
    slot = np.sort(run + by_key)  # each run in entry order: run * total + entry
    a, b, coef = entries(slot - run)
    # the partners of an entry: the tail of its run from the first entry on column b + 1
    i, j = _ranges(np.searchsorted(slot, run + (q - 1) * row[b + 1]),
                   np.repeat(starts + sizes, sizes))
    return (np.c_[a[i], b[i], a[j], b[j]],
            None if q == 2 else np.c_[coef[i], F.neg(coef[j])])


def _orbit_classes(C):
    """transforms.rank_classes of C's points when C is a level r >= 1 code
    that build_affine_grassmann or build_reed_muller made and its
    generator is still the read-only array that function returned; None
    for every other code.  Such a code is fixed by the translations and by
    the maps P -> B P A^{-1}, and has no zero and no proportional columns."""
    meta, G, q = C.meta, C.generator, C.field.q
    if G.flags.writeable or not G.flags.owndata or meta.get("q") != q:
        return None  # changed, a view (a permutation of it, say), or unnamed
    if meta.get("kind") == "AGC" and meta.get("r", 0) >= 1:
        ell, m = meta["ell"], meta["m"]
        params, rect = theoretical_params(ell, m, meta["r"], q), Rectangle(ell, m - ell)
    elif meta.get("kind") == "RM" and meta.get("r", 0) >= 1:
        params = rm_theoretical_params(meta["r"], meta["delta"], q)
        rect = Rectangle(1, meta["delta"])
    else:
        return None
    if G.shape != (params.k, params.n):
        return None
    return transforms.rank_classes(rect, q)


def _orbit_counts(F, S, keys, index, classes, w_max):
    """(B_3, B_4, lookups) for w_max >= 3 (B_4 = 0 when w_max is 3) of a
    code that _orbit_classes admits, with the multiples S, keys and index
    of its normalized columns D (_combine, _find), and its rank classes
    ``classes``.

    The translations act transitively on the n coordinates, so
    B_w = (q-1) n N_0 / w, where N_0 counts the projective weight-w dual
    words through coordinate 0.  The maps P -> B P A^{-1} fix 0 and have
    the rank classes as orbits, so the words through 0 and a point a are
    as many for every a in a class: they are counted at its
    representative a and weighted by its size N.  With T = D_0 + t D_a
    for t in F_q*, each column c outside {0, a} proportional to T is a
    weight-3 word, and each column outside {0, a, b} proportional to
    T + v D_b, for a column b outside {0, a} and v in F_q*, a weight-4
    word.  A word through 0 is met once for each ordered choice of a (and
    b) among its other coordinates, so the weighted hits are 2 N_0 at
    weight 3 and 6 N_0 at weight 4.

    The combinations are keyed and looked up as the kernel's pairs are
    (_combine, _find), so a byte key has no width limit; at weight 4 they
    are formed in blocks of about _BLOCK_CELLS cells.  ``lookups`` counts
    the keys looked up: (q-1) + (q-1)^2 (n-2) per class at w_max = 4.
    """
    q, (n, k) = F.q, S[:, 0].shape

    def total(hits, orders, w):  # B_w from the weighted hits, checked whole
        if hits % orders or (q - 1) * n * (hits // orders) % w:
            raise AssertionError("orbit counts are not whole: the group does not fix the code")
        return (q - 1) * n * (hits // orders) // w

    step = max(1, _BLOCK_CELLS // ((q - 1) ** 2 * k))  # columns b per block
    hits3 = hits4 = lookups = 0
    for a, size in classes:
        c = _find(index, _combine(F, S, keys, 0, a)[1])
        hits3 += size * int(np.count_nonzero((c > 0) & (c != a)))  # c = -1: no column
        lookups += q - 1
        if w_max < 4:
            continue
        others = np.delete(np.arange(n), [0, a])
        for b in np.split(others, range(step, n - 2, step)):
            c = _find(index, _combine(F, S, keys, 0, a, b)[1])
            hits4 += size * int(np.count_nonzero((c > 0) & (c != a) & (c != b[:, None, None])))
        lookups += (q - 1) ** 2 * (n - 2)
    return total(hits3, 2, 3), total(hits4, 6, 4) if w_max >= 4 else 0, lookups


def _plane_words(G, keys, listed):
    """The supports of the weight-4 dual words of an F_2 code that
    _orbit_classes admits, from its generator G and integer column keys,
    as _words takes them (None for the coefficients); ``listed`` is their
    number as the orbit route counts it.

    Such a code contains RM(1, delta), so the four points of a weight-4
    dual word sum to 0: the word is an affine plane p + V, V = {0, a, x,
    a ^ x} a 2-dimensional subspace of F_2^delta, a point being its column
    index (MacWilliams and Sloane, ch. 13).  The translations p -> p ^ u
    fix the code, so when keys[0] ^ keys[a] ^ keys[x] ^ keys[a ^ x] = 0
    every coset of V is a word.  Each V is met once, by its reduced basis
    (top(a) < top(x), bit top(a) of x clear), in blocks of about
    _BLOCK_CELLS pairs (a, x).  Each coset is listed from its point p with
    bits top(a) and top(x) clear, as p < p ^ a < p ^ x < p ^ a ^ x.

    Both facts are checked first, by one rank: G's rows, the affine
    functions and G moved by each unit translation span G's row space.
    Every listed word is then checked against the keys and their number
    against ``listed``.  A failure raises AssertionError, as _orbit_counts
    does when the group does not fix the code.
    """
    n = len(keys)
    delta = n.bit_length() - 1
    points = np.arange(n)
    affine = np.vstack([np.ones(n, dtype=np.uint8), points >> np.arange(delta)[:, None] & 1])
    moved = [G[:, points ^ (1 << i)] for i in range(delta)]
    if linalg._gf2_rank(np.vstack([G, affine, *moved]).astype(np.uint8)) != linalg._gf2_rank(G):
        raise AssertionError("the translations or the affine functions leave the code: "
                             "the group does not fix it")
    top = np.repeat(np.arange(-1, delta), np.r_[1, 1 << np.arange(delta)])  # top[p]: p's top bit
    shifted = keys ^ keys[0]
    bases = [np.zeros((0, 2), dtype=np.intp)]
    for ta in range(delta - 1):
        x = points[2 << ta:]
        x = x[x & (1 << ta) == 0]
        step = max(1, _BLOCK_CELLS // len(x))
        for lo in range(1 << ta, 2 << ta, step):
            a = points[lo:min(lo + step, 2 << ta), None]
            i, j = np.nonzero(shifted[a] ^ shifted[x] == shifted[a ^ x])
            bases.append(np.c_[a[i, 0], x[j]])
    a, x = (v[:, None] for v in np.concatenate(bases).T)
    p = points[:n // 4]
    for t in (top[a], top[x]):  # a zero bit at t, the lower position first
        p = (p >> t << (t + 1)) | (p & ((1 << t) - 1))
    supports = np.stack([p, p ^ a, p ^ x, p ^ a ^ x], axis=-1).reshape(-1, 4)
    if len(supports) != listed or reduce(np.bitwise_xor, keys[supports.T]).any():
        raise AssertionError("plane words do not match the code: the group does not fix it")
    return supports, None


def low_weight_dual_search(C, w_max=4):
    """Count the dual codewords of weight 1..w_max as column dependencies
    of C's generator matrix.  w_max must be an int in 1..4 (not a bool or
    a float); anything else raises WMaxUnsupported.

    Both routes key each nonzero column scaled so its first nonzero digit
    is 1 (base-q digits, so bits for q = 2, or its bytes past 63 bits) and
    sort the keys once.  With z zero columns, B_w = sum_j C(z, j) (q-1)^j
    B'_{w-j}, where B' counts on the n' nonzero columns: B'_0 = 1,
    B'_1 = 0 and B'_2 = (q-1) sum C(m, 2) over the runs of m equal keys.

    A code that build_affine_grassmann or build_reed_muller made at level
    r >= 1 takes the orbit route (_orbit_counts) while its meta names its
    parameters, its shape matches them and its generator is still the
    read-only array it was built with: ``method`` is "orbit" and
    ``enumerated`` the number of lookups.  Every other code takes the
    kernel (_pair_search), with ``method`` "support-search": on pairwise
    non-proportional columns it keys every pair combination c_a + t c_b
    (a < b, t in F_q*) as the columns are keyed (over F_2, the XOR of two
    column keys) and sorts the keys once; ``enumerated`` is their number,
    (q-1) C(n', 2), or 0 when it does not run.  If m3 pair keys equal a
    column key (each column key is looked up among the sorted pair keys),
    there are T3 = m3 / 3 collinear triples and B'_3 = (q-1) T3.  With g
    the sizes of the runs of equal pair keys,

        B'_4 = (q-1) (sum C(g, 2) - 3 (q-2) T3) / 3,

    since a projective weight-4 word collides once per split into two
    pairs, and a collinear triple q-2 times per shared index.  If all
    nonzero columns lie in one class (a level-0 code),
    B'_w = C(n', w) ((q-1)^w + (-1)^w (q-1)) / q.  Any other proportional
    columns raise Unsupported for w_max >= 3, as do the kernel's pair keys
    above 63 bits (q^k > 2^63); more than MAX_PAIR_COMBINATIONS pair
    combinations raise TooLarge.
    """
    return _search(C, w_max, False)[0]


def _report(counts, method, enumerated):
    d = next((w for w in sorted(counts) if counts[w]), None)
    return WeightReport(min_distance=d, min_weight_count=counts[d] if d else 0,
                        method=method, enumerated=enumerated, weight_counts=counts)


def _search(C, w_max, collect):
    """low_weight_dual_search, with the words of weight w_max as the
    matrix dual_codewords_of_weight returns (None without collect).  The
    orbit route lists only F_2 words of weight 4 (_plane_words); every
    other listing takes the kernel."""
    if (isinstance(w_max, bool) or not isinstance(w_max, (int, np.integer))
            or not 1 <= w_max <= 4):
        raise WMaxUnsupported(f"w_max must be an int in 1..4, got {w_max!r}")
    F = C.field
    G = F.elements(C.generator)
    q, (k, n) = F.q, G.shape
    zero = ~G.any(axis=0)
    z = int(zero.sum())
    n1 = n - z
    D, lead, keys = _normalize(F, G.T)
    D, keys = D[~zero], keys[~zero]
    order = np.argsort(keys, kind="stable")
    index = keys[order], order
    starts, sizes = _groups(index[0])
    proportional = int((sizes * (sizes - 1) // 2).sum())
    if collect and z and w_max >= 2:
        raise Unsupported("collect lists no words through zero columns")
    classes = _orbit_classes(C)
    planes = (collect and w_max == 4 and q == 2 and classes is not None
              and keys.dtype.kind == "i")
    if collect and not planes:  # the orbit route lists no other words
        classes = None

    b = [1, 0] + [0] * (w_max - 1)  # B'_0 .. B'_{w_max}
    if w_max >= 2:
        b[2] = (q - 1) * proportional
    examined = 0
    if w_max >= 3 and proportional == 0:
        t = np.arange(1, q, dtype=np.uint8)[:, None]
        S = F.mul(t, D[:, None]) if q > 2 else D[:, None]  # S[c, t - 1] = t D_c
        if classes is not None:
            b3, b4, examined = _orbit_counts(F, S, keys, index, classes, w_max)
        else:
            if q ** k > 2 ** 63:
                raise Unsupported(f"a pair of {k}-digit columns over F_{q} needs a "
                                  "key above 63 bits")
            examined = (q - 1) * (n1 * (n1 - 1) // 2)
            if examined > MAX_PAIR_COMBINATIONS:
                raise TooLarge(f"{examined} pair combinations exceed the cap "
                               f"{MAX_PAIR_COMBINATIONS}")
            b3, b4, read = _pair_search(F, S, keys, w_max, collect)
        b[3:] = [b3, b4][:w_max - 2]
    elif w_max >= 3 and proportional == n1 * (n1 - 1) // 2:
        if collect:
            raise Unsupported("collect lists no words of weight >= 3 "
                              "on a single projective class")
        for w in range(3, w_max + 1):
            b[w] = math.comb(n1, w) * ((q - 1) ** w + (-1) ** w * (q - 1)) // q
    elif w_max >= 3:
        raise Unsupported("proportional columns outside a single class: "
                          "weights >= 3 are not counted")
    counts = {w: sum(math.comb(z, j) * (q - 1) ** j * b[w - j] for j in range(w + 1))
              for w in range(1, w_max + 1)}
    report = _report(counts, "support-search" if classes is None else "orbit", examined)
    if not collect:
        return report, None
    listed = counts[w_max] // (q - 1)  # one word per projective class
    if listed * n > MAX_WORD_CELLS:
        raise TooLarge(f"{listed} words of length {n} exceed the cap of "
                       f"{MAX_WORD_CELLS} cells")
    if w_max == 1:
        found = np.flatnonzero(zero)[:, None], np.ones((z, 1), dtype=np.uint8)
    elif w_max == 2:  # D_a - D_c for a < c in one class; no zero column here
        i, j = _ranges(np.arange(n1) + 1, np.repeat(starts + sizes, sizes))
        found = np.c_[order[i], order[j]], np.tile([1, F.neg(1)], (len(i), 1))
    else:
        found = _plane_words(G, keys, listed) if planes else read()
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
    see _pair_words.  Over F_2 at w = 4, a code that the orbit route
    admits, with integer column keys, lists its words as the cosets of
    the 2-dimensional subspaces whose keys XOR to 0 at point 0
    (_plane_words), with no pair search; the words and their order are
    the kernel's.  A generator with a zero column raises Unsupported
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
        return _enumerate(C.field, C.field.elements(C.generator), keep_weight=d)[1]
    primal = C.meta.get("dual_of")
    if primal is not None and d <= 4:
        return dual_codewords_of_weight(primal, d)
    raise TooLarge("enumeration infeasible and no support-search route")


def _spanning_rows(F, M):
    """(S, r): rows S of the checked (m, n) matrix M whose span is M's,
    and its rank r.

    S starts as a strided sample of about 2n rows of M, and K is a basis
    of the kernel of S (linalg._gf2_kernel over F_2, linalg.nullspace
    otherwise).  One pass over blocks of about 2^22 entries of M takes the
    syndromes M K^T.  When all vanish, every row lies in (ker S)^perp =
    span S, so span M = span S and r = n - |K|; otherwise a strided
    sample of about 2n of the rows with a nonzero syndrome, each outside
    span S, joins S and the pass repeats.
    """
    m, n = M.shape
    S = M[::max(1, m // max(1, 2 * n))]
    step = max(1, 2 ** 22 // max(1, n))
    while True:
        K = linalg._gf2_kernel(S) if F.q == 2 else linalg.nullspace(S, F)
        if not len(K):
            return S, n
        outside = np.flatnonzero(np.concatenate([
            linalg._matmul(M[lo:lo + step], K.T, F).any(axis=1) for lo in range(0, m, step)]))
        if not len(outside):
            return S, n - len(K)
        S = np.concatenate([S, M[outside[::max(1, len(outside) // (2 * n))]]])


def span_generation_test(C, words):
    """Rank of the words (an (m, n) matrix or a list of rows) and whether
    they generate C.  A uint8 matrix, as min_weight_codewords and
    dual_codewords_of_weight return, is used as it is, without a copy.

    Words that are not rows of length n raise DimensionMismatch.  One
    certificate gives both answers (_spanning_rows): rows S of the words
    with the same span, found by syndrome passes over contiguous blocks
    of word rows against the kernel of S, and their rank.  Every word
    lies in C exactly when every row of S does, which ``Code._contains_rows``
    tests; a word outside C raises WordNotInCode.  They generate C when
    their rank is rank G, or for a dual from ``build_dual_code`` n - rank
    of the primal's (short) generator.
    """
    if not isinstance(words, np.ndarray):  # ragged rows raise DimensionMismatch here
        words = C.field.elements(words)
    if words.shape == (0,):  # [] is no words
        words = np.zeros((0, C.n), dtype=np.uint8)
    M = C.field.elements(words, (None, C.n))
    primal = C.meta.get("dual_of")
    dim = (C.n - linalg.rank(primal.generator, C.field) if primal is not None
           else linalg.rank(C.generator, C.field))
    if not len(M):
        return {"rank": 0, "generates": dim == 0}
    S, r = _spanning_rows(C.field, M)
    if not C._contains_rows(S):
        raise WordNotInCode("a word is outside the code")
    return {"rank": r, "generates": r == dim}


def rank_counterexample_check(q, ell, ell_prime, c):
    """Verify the level-1 counterexample: a rank >= 2 coefficient matrix
    (so some 2 x 2 minor of c is nonzero) gives a minimum-weight word of
    the level-1 code that cannot be a transformed leading 1 x 1 minor."""
    if ell < 2:
        raise RankTooLow("need ell >= 2")
    F = make_field(q)
    c = F.elements(c, (ell, ell_prime))
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

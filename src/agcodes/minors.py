"""Minors of the generic matrix X and their signed Leibniz terms, one at
a time or, for the level-r code and its dual, as one ``minor_rows``."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizeOutOfRange
from .field import undigits
from .monomials import SparsePolynomial, TermRows

# i! term expansions get out of hand quickly; all supported experiments
# have i <= 4.
MAX_EXPANSION_SIZE = 8


@dataclass(frozen=True)
class Minor:
    """An i x i minor given by strictly increasing row and column index sets."""

    rows: tuple
    cols: tuple

    def __post_init__(self):
        if len(self.rows) != len(self.cols):
            raise ValueError("row and column index sets must have equal size")
        for idx in (self.rows, self.cols):
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise ValueError("indices must be strictly increasing")

    @property
    def size(self):
        return len(self.rows)

    def __str__(self):
        return "M[{}|{}]".format(",".join(map(str, self.rows)),
                                 ",".join(map(str, self.cols)))


@dataclass(frozen=True)
class SignedTerm:
    """One Leibniz term: permutation, its sign as a field element, and the
    squarefree degree-i monomial picking entry (a_k, b_sigma(k)) per k."""

    perm: tuple
    sign: int
    monomial: tuple


def enumerate_minors(rect, i):
    """All i x i minors in lexicographic (rows, cols) order."""
    if not 0 <= i <= rect.ell:
        raise SizeOutOfRange(f"minor size {i} outside [0, {rect.ell}]")
    return [Minor(r, c)
            for r in itertools.combinations(range(1, rect.ell + 1), i)
            for c in itertools.combinations(range(1, rect.ell_prime + 1), i)]


def leading_principal_minor(rect, r):
    """Rows and columns {1..r}; the r = 0 minor is the constant 1."""
    if not 0 <= r <= rect.ell:
        raise SizeOutOfRange(f"leading minor size {r} outside [0, {rect.ell}]")
    idx = tuple(range(1, r + 1))
    return Minor(idx, idx)


def _perm_sign(perm):
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return 1 - 2 * (inversions % 2)


def minor_terms(M, F, rect):
    """The i! signed terms of a minor, permutations in lexicographic order."""
    i = M.size
    if i > MAX_EXPANSION_SIZE:
        raise SizeOutOfRange(f"refusing {i}! term expansion")
    terms = []
    for perm in itertools.permutations(range(i)):
        mu = [0] * rect.delta
        for k in range(i):
            mu[rect.slot(M.rows[k], M.cols[perm[k]])] = 1
        sign = 1 if _perm_sign(perm) == 1 else int(F.neg(1))
        terms.append(SignedTerm(perm=perm, sign=sign, monomial=tuple(mu)))
    return terms


def minor_polynomial(M, F, rect):
    """The determinant polynomial of the submatrix picked out by the minor."""
    return SparsePolynomial(F, rect,
                            {t.monomial: t.sign for t in minor_terms(M, F, rect)})


@lru_cache(maxsize=None)
def minor_rows(F, rect, r):
    """The minors of size 0..r in enumeration order as a read-only
    ``monomials.TermRows``, cached per field, rectangle and r: row g holds
    minor g's signed terms, the identity first.  A term's monomial names
    its minor's rows, columns and permutation, so no two terms share one:
    term i is monomial i."""
    terms = [minor_terms(M, F, rect) for i in range(r + 1) for M in enumerate_minors(rect, i)]
    flat = [t for ts in terms for t in ts]
    table = TermRows(F, rect, len(terms), undigits(np.array([t.monomial for t in flat]), F.q),
                     np.repeat(np.arange(len(terms)), list(map(len, terms))),
                     np.arange(len(flat)), np.array([t.sign for t in flat], dtype=np.uint8))
    for a in (table.keys, table.rows, table.mons, table.coefs, table.starts, table.pos):
        a.flags.writeable = False
    return table

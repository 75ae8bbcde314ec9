"""Reduced monomials and polynomials over the variable grid X_ij.

A monomial is a flat tuple of exponents in row-major order over the
rectangle [1,l] x [1,l']: slot (i-1)*l' + (j-1) holds the exponent of
X_ij.  Reduced means every exponent lies in [0, q-1].  Canonical ordering
everywhere is row-major lexicographic on this tuple, matching the point
enumeration used by the code builders.

As an array a monomial is its base-q key, ``field.undigits`` of its
exponents, and rows of polynomials have one array form, a ``TermRows``:
the keys of the distinct monomials and, per term, its row, monomial,
coefficient and position in the row.  ``term_table`` is the one way in:
it returns a TermRows as it is and walks a list of polynomials once,
folding each distinct monomial once with ``field.reduce_exponent``.  The
array cores, ``codes.evaluate`` and ``dual.check_dual_basis``, read the
TermRows's attributes alone, and ``add_terms`` sums each row's scaled
terms.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooLarge, DependentForms, DimensionMismatch
from .field import digits, reduce_exponent, undigits
from . import linalg


@dataclass(frozen=True)
class Rectangle:
    """The integral rectangle of variable positions, 1 <= i <= l, 1 <= j <= l'."""

    ell: int
    ell_prime: int

    def __post_init__(self):
        if not 1 <= self.ell <= self.ell_prime:
            raise ValueError(f"need 1 <= ell <= ell_prime, got {self.ell}, {self.ell_prime}")

    @property
    def m(self):
        return self.ell + self.ell_prime

    @property
    def delta(self):
        return self.ell * self.ell_prime

    def slot(self, i, j):
        """Flat index of variable X_ij (1-based i, j)."""
        return (i - 1) * self.ell_prime + (j - 1)

    def positions(self):
        return [(i, j) for i in range(1, self.ell + 1)
                for j in range(1, self.ell_prime + 1)]


def monomial_degree(mu):
    return sum(mu)


def full_product(rect, q):
    """The monomial with every exponent q-1; reduced monomials are exactly
    its divisors."""
    return (q - 1,) * rect.delta


def monomial_divides(mu, nu):
    return all(a <= b for a, b in zip(mu, nu))


def monomial_div(mu, nu):
    out = tuple(a - b for a, b in zip(mu, nu))
    if any(e < 0 for e in out):
        raise ValueError("not a divisor")
    return out


def all_reduced_monomials(rect, q):
    """All reduced monomials in row-major lexicographic order."""
    return itertools.product(range(q), repeat=rect.delta)


def monomial_str(mu, rect):
    factors = []
    for (i, j) in rect.positions():
        e = mu[rect.slot(i, j)]
        if e == 1:
            factors.append(f"X[{i},{j}]")
        elif e > 1:
            factors.append(f"X[{i},{j}]^{e}")
    return "*".join(factors) if factors else "1"


class SparsePolynomial:
    """Finite map from monomials to nonzero field elements.

    Instances produced by the public constructors are reduced; raw products
    are reduced before being returned.  Values are immutable by convention.
    """

    __slots__ = ("field", "rect", "terms")

    def __init__(self, field, rect, terms=None):
        self.field = field
        self.rect = rect
        self.terms = {mu: int(c) for mu, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field, rect):
        return cls(field, rect)

    @classmethod
    def constant(cls, field, rect, c):
        return cls(field, rect, {(0,) * rect.delta: c})

    @classmethod
    def monomial(cls, field, rect, mu, coeff=1):
        return cls(field, rect, {tuple(mu): coeff})

    @classmethod
    def variable(cls, field, rect, i, j):
        mu = [0] * rect.delta
        mu[rect.slot(i, j)] = 1
        return cls(field, rect, {tuple(mu): 1})

    # -- ring-ish operations ------------------------------------------------

    def _check_compatible(self, other):
        if self.field is not other.field or self.rect != other.rect:
            raise ValueError("mismatched field or rectangle")

    def __add__(self, other):
        self._check_compatible(other)
        return _sum_terms(self.field, self.rect,
                          itertools.chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        F = self.field
        return SparsePolynomial(self.field, self.rect,
                                {mu: int(F.neg(c)) for mu, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        F = self.field
        if c == 0:
            return SparsePolynomial.zero(self.field, self.rect)
        return SparsePolynomial(self.field, self.rect,
                                {mu: int(F.mul(c, v)) for mu, v in self.terms.items()})

    def __mul__(self, other):
        return multiply_reduced(self, other)

    def is_zero(self):
        return not self.terms

    def is_reduced(self):
        q = self.field.q
        return all(all(0 <= e <= q - 1 for e in mu) for mu in self.terms)

    def evaluate_at(self, point):
        """Evaluate at a single point given as a flat tuple of element codes."""
        F = self.field
        total = 0
        for mu, c in self.terms.items():
            v = c
            for slot, e in enumerate(mu):
                if e:
                    v = int(F.mul(v, F.pow(int(point[slot]), e)))
            total = int(F.add(total, v))
        return total

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, SparsePolynomial)
                and self.rect == other.rect
                and self.field.q == other.field.q
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.rect, self.field.q, tuple(self.sorted_terms())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mu, c in self.sorted_terms():
            ms = monomial_str(mu, self.rect)
            parts.append(ms if c == 1 and ms != "1" else
                         (str(c) if ms == "1" else f"{c}*{ms}"))
        return " + ".join(parts)


def _sum_terms(F, rect, pairs):
    """The polynomial sum of c * mu over the (mu, c) pairs; a term whose
    coefficients cancel is dropped by the constructor."""
    terms = {}
    for mu, c in pairs:
        terms[mu] = F.add(terms.get(mu, 0), c)
    return SparsePolynomial(F, rect, terms)


def reduce_polynomial(f):
    """Apply the exponent-folding reduction entrywise and merge coefficients.

    Evaluation-preserving: Ev(f) = Ev(reduce_polynomial(f)) pointwise.
    """
    q = f.field.q
    return _sum_terms(f.field, f.rect,
                      ((tuple(reduce_exponent(e, q) for e in mu), c)
                       for mu, c in f.terms.items()))


def multiply_reduced(f, g):
    """Product in the reduced-polynomial algebra: each product of terms
    has its exponents folded as it is formed."""
    f._check_compatible(g)
    F, q = f.field, f.field.q
    return _sum_terms(F, f.rect,
                      ((tuple(reduce_exponent(x + y, q) for x, y in zip(mu, nu)),
                        F.mul(a, b))
                       for mu, a in f.terms.items() for nu, b in g.terms.items()))


# ------------------------------------------------------------ terms as arrays

class TermRows(Sequence):
    """count rows of polynomials over field on rect as a term table: the
    base-q ``keys`` of the distinct monomials and, per term, its row
    ``rows`` (ascending), monomial ``mons`` (an index into keys) and
    coefficient ``coefs``; ``pos``, its place in its row, is derived.
    ``reduced`` is False if some exponent was folded.  Item i is row i as a
    SparsePolynomial, formed when read.  The arrays are taken as given."""

    def __init__(self, field, rect, count, keys, rows, mons, coefs, reduced=True):
        self.field, self.rect, self._count, self.reduced = field, rect, count, reduced
        self.keys, self.rows, self.mons, self.coefs = keys, rows, mons, coefs
        self.starts = np.searchsorted(rows, np.arange(count + 1))  # row i's first term
        self.pos = np.arange(len(rows)) - self.starts[rows]

    def __len__(self):
        return self._count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._count))]
        i = range(self._count)[i]  # IndexError past either end
        lo, hi = self.starts[i], self.starts[i + 1]
        exps = digits(self.keys[self.mons[lo:hi]], self.field.q, self.rect.delta).tolist()
        return SparsePolynomial(self.field, self.rect,
                                dict(zip(map(tuple, exps), self.coefs[lo:hi].tolist())))


def term_table(polys, F, rect):
    """The TermRows of polys over F on rect: a TermRows as it is, or a list
    walked once, each distinct monomial keyed and, if need be, folded once
    in order of first use.  Another field or rectangle raises
    DimensionMismatch; a negative exponent or a coefficient outside F_q*,
    ValueError."""
    q = F.q
    if isinstance(polys, TermRows):
        if polys.rect != rect or polys.field.q != q:
            raise DimensionMismatch("polynomial does not match the field and rectangle")
        return polys
    index, rows, mons, coefs = {}, [], [], []
    for row, f in enumerate(polys):
        if f.rect != rect or f.field.q != q:
            raise DimensionMismatch("polynomial does not match the field and rectangle")
        for mu, c in f.terms.items():
            if not 0 < c < q:
                raise ValueError(f"coefficient {c} is not a nonzero element of F_{q}")
            rows.append(row)
            mons.append(index.setdefault(mu, len(index)))
            coefs.append(c)
    mus = list(index)
    reduced = set().union(*mus) <= set(range(q))
    if not reduced:  # fold every monomial once, in Python ints
        mus = [tuple(reduce_exponent(e, q) for e in mu) for mu in mus]
    keys = undigits(np.array(mus, dtype=np.uint8).reshape(len(mus), rect.delta), q)
    return TermRows(F, rect, len(polys), keys,
                    np.array(rows, dtype=np.intp), np.array(mons, dtype=np.intp),
                    np.array(coefs, dtype=np.uint8), reduced)


def add_terms(F, X, rows, mons, coefs, pos, out):
    """Row r of out becomes the sum over F of c * X[mu] over the terms
    c * mu of row r in a term_table, X holding one row per distinct
    monomial.  Pass t takes the t-th term of every row, so no pass writes a
    row twice; pass 0 assigns, and only non-unit coefficients multiply."""
    for t in range(int(pos.max(initial=-1)) + 1):
        sel = pos == t
        r, c = rows[sel], coefs[sel]
        terms = X[mons[sel]]
        scale = c != 1
        if scale.any():
            terms[scale] = F.mul(c[scale, None], terms[scale])
        out[r] = terms if t == 0 else F.add(out[r], terms)


# ----------------------------------------------------- univariate basis sets

def _poly1_mul(a, b, F):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = int(F.add(out[i + j], F.mul(ai, bj)))
    return out


def monic_split_set(F, d):
    """All monic degree-d univariate polynomials with d distinct roots in F_q.

    Returned as coefficient tuples (constant term first); there are C(q, d)
    of them and for d = q-1 they are exactly (T-a)^(q-1) - 1, a in F_q.
    """
    q = F.q
    if not 0 <= d < q:
        raise DegreeTooLarge(f"need 0 <= d < q, got d={d}")
    out = []
    for roots in itertools.combinations(range(q), d):
        poly = [1]
        for a in roots:
            poly = _poly1_mul(poly, [int(F.neg(a)), 1], F)
        out.append(tuple(poly))
    return out


def linear_form_power_basis(F, forms):
    """Reduced powers L_1^e_1 ... L_s^e_s of s independent linear forms.

    forms: list of s coefficient vectors of homogeneous linear forms in
    T_1..T_s.  Returns the q^s reduced polynomials over the 1 x s grid, in
    lexicographic order of the exponent vector (e_1, ..., e_s).
    """
    s = len(forms)
    mat = F.elements(forms)
    if mat.shape != (s, s) or linalg.rank(mat, F) < s:
        raise DependentForms("forms are linearly dependent")
    rect = Rectangle(1, s)
    q = F.q
    units = [tuple(u) for u in np.eye(s, dtype=int).tolist()]  # T_1..T_s
    lin = [SparsePolynomial(F, rect, dict(zip(units, row))) for row in forms]
    out = []
    for exps in itertools.product(range(q), repeat=s):
        prod = SparsePolynomial.constant(F, rect, 1)
        for Lf, e in zip(lin, exps):
            for _ in range(e):
                prod = prod * Lf
        out.append(prod)
    return out

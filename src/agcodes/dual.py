"""Forbidden monomials, minor binomials, and the explicit dual basis.

The dual of the level-r code is spanned by the evaluations of the
non-forbidden reduced monomials together with one binomial per (minor of
size >= 2, non-identity permutation).  Every monomial involved is fixed
by its base-q key, so ``dual_basis`` holds the basis as arrays, a
``monomials.TermRows``: the keys of the non-forbidden monomials, in
row-major lex order of their exponents, then a small term table of the
binomials, both read off ``minors.minor_rows``.  No polynomial is made
per row unless a row is read.  ``dual_rows`` proves the basis
symbolically, on keys, and returns it as ``codes.EvaluatedRows``, which
evaluates a block of rows or a run of columns only when the writers read
it; ``build_dual_code`` evaluates the whole of it once:

* Orthogonality.  Over F_q, the sum of x^e over all x is -1 when e > 0
  and (q-1) | e, and 0 otherwise.  So <Ev f, Ev g> is the sum of
  c_f c_g chi(mu + nu) over the terms c_f mu of f and c_g nu of g, where
  chi(e) = (-1)^delta if every slot of e is positive and divisible by
  q - 1, and chi(e) = 0 otherwise.  A minor's monomials are squarefree, so
  for q > 2 the test is mu = full/nu, and for q = 2 it is mu OR nu = full,
  both read on base-q keys (full/nu has the key full - nu).
* Independence.  Reduced monomials are a basis of the functions on
  F_q^delta, so Ev is injective on reduced polynomials and the basis may
  be ranked as coefficient vectors.  A one-term row whose monomial no
  other row uses is a pivot; the remaining rows (the binomials) are
  ranked on the few forbidden monomials they touch.

With n - k independent rows orthogonal to the code, the basis spans the
dual.  All of this is exact; any nonzero inner product is a hard error,
never a warning.  The proof reads the basis as ``codes.evaluate`` does,
through ``monomials.term_table``, and needs no H: ``verify``'s
``dual-dim`` runs it, and ``dual`` and ``export-alist`` run it before any
file is opened.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .codes import (_BLOCK_CELLS, DEFAULT_MAX_CELLS, Code, EvaluatedRows,
                    PointEnumeration, evaluate, theoretical_params)
from .errors import (InvalidWitnessParams, OrthogonalityViolation,
                     SizeOutOfRange, TooLarge)
from .field import make_field, undigits
from .minors import enumerate_minors, minor_rows, minor_terms
from .monomials import (Rectangle, SparsePolynomial, TermRows, add_terms,
                        full_product, monomial_div, term_table)


@dataclass(frozen=True)
class MinorBinomial:
    """full/t_eps(M) - full/t_sigma(M) for a non-identity permutation sigma."""

    minor: object
    perm: tuple
    poly: SparsePolynomial


def _params(ell, m, r, q):
    F = make_field(q)
    theoretical_params(ell, m, r, q)  # rejects a bad level
    return F, Rectangle(ell, m - ell)


def forbidden_monomials(ell, m, r, q):
    """full/t for t ranging over the (unsigned) terms of minors of size <= r."""
    F, rect = _params(ell, m, r, q)
    full = full_product(rect, q)
    mons = set()
    for i in range(r + 1):
        for M in enumerate_minors(rect, i):
            for t in minor_terms(M, F, rect):
                mons.add(monomial_div(full, t.monomial))
    return frozenset(mons)


def binomials(ell, m, r, q):
    """One binomial per (minor of size i in [2, r], non-identity sigma), in
    minor-enumeration and permutation-lexicographic order."""
    F, rect = _params(ell, m, r, q)
    full = full_product(rect, q)
    out = []
    for i in range(2, r + 1):
        for M in enumerate_minors(rect, i):
            terms = minor_terms(M, F, rect)
            lead = terms[0]  # identity permutation comes first lexicographically
            for st in terms[1:]:
                # full/t_sigma picks up the inverse of the sign, which is the
                # sign itself; the binomial has the two monomials with
                # coefficients +1 and -sgn(sigma).
                poly = SparsePolynomial(F, rect, {
                    monomial_div(full, lead.monomial): 1,
                    monomial_div(full, st.monomial): int(F.neg(st.sign)),
                })
                out.append(MinorBinomial(minor=M, perm=st.perm, poly=poly))
    return out


def dual_basis(ell, m, r, q):
    """Non-forbidden monomials (row-major lex order) followed by binomials,
    the order of ``binomials``, as a ``monomials.TermRows``: a sequence of
    SparsePolynomial rows held as arrays.

    Row-major lex order puts slot 0 first, and a key puts it least
    significant, so row j's key is point j's digits (the cached
    ``PointEnumeration.points``) reversed.  The forbidden keys are
    full - nu for the minor monomials nu, and a term sgn(sigma) nu_sigma
    of a minor with identity term nu gives the binomial
    full/nu - sgn(sigma) full/nu_sigma.  The total count equals n - k_r;
    evaluations are independent and orthogonal to every generator row of
    the level-r code.  TooLarge, before any point is formed, when the
    points' digits (n x delta) exceed the builders' cell cap.
    """
    F, rect = _params(ell, m, r, q)
    params = theoretical_params(ell, m, r, q)
    if params.n * rect.delta > DEFAULT_MAX_CELLS:  # the points' digits, before any is formed
        raise TooLarge(f"n*delta = {params.n * rect.delta} exceeds cap {DEFAULT_MAX_CELLS}")
    full = q ** rect.delta - 1  # the key of the full product
    minors = minor_rows(F, rect, r)
    nu, sign, pos = minors.keys, minors.coefs, minors.pos  # term i is monomial i
    keys = undigits(PointEnumeration(rect, F).points[:, ::-1], q)  # lex order
    keys = keys[~np.isin(keys, full - nu)]
    count = len(keys)
    bino = np.flatnonzero(pos > 0)  # the non-identity terms, in order
    nb = len(bino)
    # binomial b's terms: its minor's identity term, then its own
    used, inv = np.unique(np.c_[bino - pos[bino], bino].ravel(), return_inverse=True)
    coefs = np.ones(count + 2 * nb, dtype=np.uint8)
    coefs[count + 1::2] = F.neg(sign[bino])
    basis = TermRows(F, rect, count + nb, np.r_[keys, full - nu[used]],
                     np.r_[np.arange(count), np.repeat(count + np.arange(nb), 2)],
                     np.r_[np.arange(count), count + inv], coefs)
    expected = params.n - params.k
    if len(basis) != expected:
        raise AssertionError(
            f"dual basis count {len(basis)} != n - k = {expected}")
    return basis


def check_dual_basis(basis, ell, m, r, q):
    """Prove that the evaluations of the reduced polynomials ``basis`` (a
    list, or a ``monomials.TermRows`` such as ``dual_basis``'s) are
    independent and orthogonal to every minor of size <= r.

    Works on keys alone (see the module docstring), from the arrays of
    ``term_table(basis)`` and ``minors.minor_rows``: a 0/1 table of chi
    between each distinct basis monomial and each minor monomial is kept
    for the few monomials near full that meet a minor; times the minors'
    coefficient matrix it gives their inner products with the minors, and
    ``add_terms`` sums the scaled terms of the rows that use them.  The
    common factor (-1)^delta is a unit and is left out.  Raises
    OrthogonalityViolation on a nonzero inner product, AssertionError on
    an unreduced exponent, a key held twice, a monomial twice in one row
    or a dependent row, ValueError on a negative exponent or a
    coefficient outside F_q*, and DimensionMismatch on a polynomial of
    another field or rectangle.
    """
    F, rect = _params(ell, m, r, q)
    basis = term_table(basis, F, rect)
    keys, rows, mons, coefs = basis.keys, basis.rows, basis.mons, basis.coefs
    full = q ** rect.delta - 1  # the key of the full product
    if not basis.reduced or keys.min(initial=0) < 0 or keys.max(initial=0) > full:
        raise AssertionError("dual basis has an unreduced exponent")
    # the pivot test and the rank below read each monomial as one key, once a row
    for ids in (keys, rows * len(keys) + mons):
        ids = np.sort(ids)
        if (ids[1:] == ids[:-1]).any():
            raise AssertionError("dual basis repeats a monomial")

    minors = minor_rows(F, rect, r)
    nu = minors.keys
    coeff = np.zeros((len(nu), len(minors)), dtype=np.uint8)
    coeff[minors.mons, minors.rows] = minors.coefs

    def meets(mu):  # chi between the monomials mu and the minor monomials
        mu = mu[:, None]
        return (mu | nu) == full if q == 2 else mu == full - nu

    step = max(1, _BLOCK_CELLS // len(nu))  # blocks bound the int64 temporaries
    hit = np.concatenate([np.zeros(0, dtype=np.intp)] + [  # the monomials near full
        lo + np.flatnonzero(meets(keys[lo:lo + step]).any(axis=1))
        for lo in range(0, len(keys), step)])
    chi = meets(keys[hit])
    where = np.full(len(keys), -1)
    where[hit] = np.arange(len(hit))
    meet = where[mons] >= 0  # the terms whose monomial meets a minor
    touched, row = np.unique(rows[meet], return_inverse=True)
    gram = np.zeros((len(touched), len(minors)), dtype=np.uint8)
    add_terms(F, linalg.matmul(chi, coeff, F), row, where[mons[meet]],
              coefs[meet], basis.pos[meet], gram)
    if gram.any():
        raise OrthogonalityViolation(
            "dual basis not orthogonal to the minors of the code's level")

    # a one-term row whose monomial no other row uses is a pivot; the
    # other rows (the binomials) are ranked on the monomials they touch
    nterms = np.bincount(rows, minlength=len(basis))
    uses = np.bincount(mons, minlength=len(keys))
    pivot = np.zeros(len(basis), dtype=bool)
    pivot[rows[(nterms[rows] == 1) & (uses[mons] == 1)]] = True
    if not pivot.all():
        keep, rest = ~pivot, ~pivot[rows]
        used = np.zeros(len(keys), dtype=bool)
        used[mons[rest]] = True
        B = np.zeros((int(keep.sum()), int(used.sum())), dtype=np.uint8)
        B[np.cumsum(keep)[rows[rest]] - 1,
          np.cumsum(used)[mons[rest]] - 1] = coefs[rest]
        if linalg.rank(B, F) != B.shape[0]:
            raise AssertionError("dual basis evaluations unexpectedly dependent")


def dual_rows(C):
    """The explicit dual basis of an affine Grassmann code, proved, as
    ``codes.EvaluatedRows``: no row of H is evaluated until it is read.

    ``dual_basis`` gives the basis as arrays, and ``check_dual_basis``
    proves on those arrays that its evaluations are orthogonal to every
    minor of the code's level, the polynomials the generator rows
    evaluate, and independent, so with n - k rows they span the dual
    exactly.  The theorem admits no slack, so any nonzero inner product
    raises.  A dual of more than ``DEFAULT_MAX_CELLS`` entries raises
    TooLarge before any basis is built.
    """
    meta = C.meta
    if meta.get("kind") != "AGC":
        raise ValueError("the dual needs a code built by build_affine_grassmann")
    ell, m, r, q = meta["ell"], meta["m"], meta["r"], meta["q"]
    if C.n * (C.n - C.k) > DEFAULT_MAX_CELLS:
        raise TooLarge(f"n*(n-k) = {C.n * (C.n - C.k)} exceeds cap {DEFAULT_MAX_CELLS}")
    basis = dual_basis(ell, m, r, q)
    check_dual_basis(basis, ell, m, r, q)
    return EvaluatedRows(basis, PointEnumeration(C.rect, C.field))


def build_dual_code(C):
    """The dual of an affine Grassmann code as a Code whose generator is
    the matrix of ``dual_rows``, proved there and then evaluated by one
    call of ``evaluate``; no polynomial is made per row."""
    H, meta = dual_rows(C), C.meta
    return Code(field=C.field, generator=evaluate(H.polys, H.pe), rect=C.rect,
                meta={"kind": "DUAL", "dual_of": C, "ell": meta["ell"],
                      "m": meta["m"], "r": meta["r"], "q": meta["q"]})


def dual_min_weight_witness(ell, m, r, q, choice):
    """A reduced polynomial whose evaluation is a minimum-weight dual word.

    choice = ("g", a1, a2) for q > 2: the full split product divided by
    (X_{l,l'} - a1)(X_{l,l'} - a2); its evaluation has weight 3.
    choice = ("h", (i1, j1), (i2, j2)) for q = 2, l' > 1: the full product
    with two same-row or same-column variables removed; weight 4.
    """
    F, rect = _params(ell, m, r, q)
    if r < 1:
        raise InvalidWitnessParams("witnesses need level r >= 1")
    kind = choice[0]
    if kind == "g":
        _, a1, a2 = choice
        if q <= 2:
            raise InvalidWitnessParams("g witness requires q > 2")
        if a1 == a2 or a1 == 0 or a2 == 0 or not (0 < a1 < q and 0 < a2 < q):
            raise InvalidWitnessParams("need distinct nonzero a1, a2")
        one = poly = SparsePolynomial.constant(F, rect, 1)
        for s in range(rect.delta - 1):  # X^(q-1) - 1 for all but X_{l,l'}
            mu = [q - 1 if t == s else 0 for t in range(rect.delta)]
            poly = poly * (SparsePolynomial.monomial(F, rect, mu) - one)
        # (X^{q-1} - 1) / ((X - a1)(X - a2)) = prod over the remaining roots
        x = SparsePolynomial.variable(F, rect, rect.ell, rect.ell_prime)
        for a in range(1, q):
            if a not in (a1, a2):
                poly = poly * (x - one.scaled(a))
        return poly
    if kind == "h":
        _, p1, p2 = choice
        if q != 2:
            raise InvalidWitnessParams("h witness requires q = 2")
        if rect.ell_prime == 1:
            raise InvalidWitnessParams("h witness requires ell' > 1")
        if p1 == p2 or (p1[0] != p2[0] and p1[1] != p2[1]):
            raise InvalidWitnessParams(
                "need distinct positions sharing a row or a column")
        mu = list(full_product(rect, q))
        mu[rect.slot(*p1)] = 0
        mu[rect.slot(*p2)] = 0
        return SparsePolynomial.monomial(F, rect, tuple(mu))
    raise InvalidWitnessParams(f"unknown witness kind {kind!r}")


SELF_ORTH_EXCEPTIONS = {(1, 2, 1, 2), (1, 2, 1, 3), (1, 3, 1, 2)}


def self_orthogonality_check(ell, m, r, q, code=None):
    """Compare G G^T = 0 against the classification theorem.

    Returns {"selfOrthogonal": bool, "expectedByTheorem": bool}; the two
    flags agree whenever the implementation is correct.
    """
    from .codes import build_affine_grassmann

    C = code if code is not None else build_affine_grassmann(ell, m, r, q)
    gram = linalg.matmul(C.generator, C.generator.T, C.field)
    return {
        "selfOrthogonal": not gram.any(),
        "expectedByTheorem": (ell, m, r, q) not in SELF_ORTH_EXCEPTIONS,
    }


def char_sum(mu, pe):
    """Sum of mu(P) over all points; 0 unless mu is the full product, in
    which case it is (-1)^delta."""
    F = pe.field
    vals = evaluate([SparsePolynomial.monomial(F, pe.rect, tuple(mu))], pe)[0]
    return int(functools.reduce(F.add, vals.tolist(), 0))


def maximal_nonforbidden(ell, m, r, q):
    """Maximal non-forbidden monomials: full/t for t a term of an
    (r+1)-minor (type i, absent at full level), plus full over two
    same-row or same-column variables (type ii)."""
    F, rect = _params(ell, m, r, q)
    if r < 1:
        raise SizeOutOfRange("maximal non-forbidden monomials need r >= 1")
    full = full_product(rect, q)
    out = set()
    if r < ell:
        for M in enumerate_minors(rect, r + 1):
            for t in minor_terms(M, F, rect):
                out.add(monomial_div(full, t.monomial))
    positions = rect.positions()
    for p1, p2 in itertools.combinations_with_replacement(positions, 2):
        if p1 == p2 and q == 2:
            continue
        if p1[0] == p2[0] or p1[1] == p2[1]:
            mu = list(full)
            mu[rect.slot(*p1)] -= 1
            mu[rect.slot(*p2)] -= 1
            out.add(tuple(mu))
    return out


def is_forbidden_counts(ell, m, r, q):
    """Closed-form counts: (forbidden, non-forbidden, binomials)."""
    ell_prime = m - ell
    forb = sum(math.factorial(i) * math.comb(ell, i) * math.comb(ell_prime, i)
               for i in range(r + 1))
    n = q ** (ell * ell_prime)
    bino = sum((math.factorial(i) - 1) * math.comb(ell, i) * math.comb(ell_prime, i)
               for i in range(r + 1))
    return forb, n - forb, bino

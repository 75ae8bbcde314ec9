"""Minor enumeration and signed Leibniz expansion."""

import itertools
import math

import numpy as np
import pytest

from agcodes.codes import PointEnumeration, evaluate
from agcodes.errors import SizeOutOfRange
from agcodes.field import make_field
from agcodes.minors import (MAX_EXPANSION_SIZE, Minor, enumerate_minors,
                            leading_principal_minor, minor_polynomial,
                            minor_rows, minor_terms)
from agcodes.monomials import Rectangle, term_table


def _det_by_elimination(A, F):
    """Determinant over F_q by fraction-free Gaussian elimination."""
    A = np.array(A, dtype=np.uint8, copy=True)
    n = A.shape[0]
    det = 1
    for c in range(n):
        nz = [r for r in range(c, n) if A[r, c]]
        if not nz:
            return 0
        r = nz[0]
        if r != c:
            A[[c, r]] = A[[r, c]]
            det = int(F.neg(det))
        det = int(F.mul(det, int(A[c, c])))
        inv = int(F.inv_table[A[c, c]])
        for r2 in range(c + 1, n):
            f = int(F.mul(inv, int(A[r2, c])))
            if f:
                A[r2] = F.sub(A[r2], F.mul(f, A[c]))
    return det


class TestMinorType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Minor((1, 2), (1,))
        with pytest.raises(ValueError):
            Minor((2, 1), (1, 2))
        assert str(Minor((1, 2), (1, 3))) == "M[1,2|1,3]"

    def test_enumeration_counts(self):
        rect = Rectangle(2, 3)
        for i in range(3):
            assert len(enumerate_minors(rect, i)) == \
                math.comb(2, i) * math.comb(3, i)
        with pytest.raises(SizeOutOfRange):
            enumerate_minors(rect, 3)

    def test_enumeration_order_is_lex(self):
        rect = Rectangle(2, 2)
        got = [(M.rows, M.cols) for M in enumerate_minors(rect, 1)]
        assert got == [((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,))]

    def test_leading_principal(self):
        rect = Rectangle(3, 4)
        M = leading_principal_minor(rect, 2)
        assert M.rows == (1, 2) and M.cols == (1, 2)
        assert leading_principal_minor(rect, 0).size == 0
        with pytest.raises(SizeOutOfRange):
            leading_principal_minor(rect, 4)


class TestLeibnizExpansion:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_term_count_and_identity_first(self, q):
        F = make_field(q)
        rect = Rectangle(3, 3)
        M = Minor((1, 2, 3), (1, 2, 3))
        terms = minor_terms(M, F, rect)
        assert len(terms) == 6
        assert terms[0].perm == (0, 1, 2) and terms[0].sign == 1

    def test_signs_alternate_with_transpositions(self):
        F = make_field(5)
        rect = Rectangle(2, 2)
        terms = minor_terms(Minor((1, 2), (1, 2)), F, rect)
        assert terms[0].sign == 1
        assert terms[1].sign == int(F.neg(1))

    def test_expansion_size_cap(self):
        big = tuple(range(1, MAX_EXPANSION_SIZE + 2))
        with pytest.raises(SizeOutOfRange, match="term expansion"):
            minor_terms(Minor(big, big), make_field(2), Rectangle(len(big), len(big)))

    def test_empty_minor_is_constant_one(self):
        F = make_field(3)
        rect = Rectangle(2, 2)
        M = Minor((), ())
        f = minor_polynomial(M, F, rect)
        assert f.terms == {(0, 0, 0, 0): 1}

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_polynomial_matches_elimination_determinant(self, q):
        """The symbolic expansion evaluated at random matrices agrees with
        Gaussian elimination."""
        F = make_field(q)
        rect = Rectangle(3, 4)
        rng = np.random.default_rng(q)
        for M in [Minor((1, 2), (2, 4)), Minor((1, 2, 3), (1, 3, 4))]:
            f = minor_polynomial(M, F, rect)
            for _ in range(20):
                P = rng.integers(0, q, size=(3, 4)).astype(np.uint8)
                sub = P[np.ix_([r - 1 for r in M.rows],
                               [c - 1 for c in M.cols])]
                assert f.evaluate_at(tuple(P.reshape(-1))) == \
                    _det_by_elimination(sub, F)

    def test_squarefree_degree_i_monomials(self):
        F = make_field(2)
        rect = Rectangle(2, 3)
        for t in minor_terms(Minor((1, 2), (1, 3)), F, rect):
            assert sum(t.monomial) == 2
            assert all(e <= 1 for e in t.monomial)


class TestMinorRows:
    @pytest.mark.parametrize("ell,lp,r,q", [(1, 1, 1, 2), (2, 2, 0, 3), (2, 2, 2, 3),
                                            (2, 3, 2, 4), (3, 3, 3, 2), (2, 4, 1, 5)])
    def test_matches_the_minor_polynomials(self, ell, lp, r, q):
        """minor_rows holds the minors of size <= r in enumeration order:
        the table and the H that term_table and evaluate give for their
        minor_polynomials, the reference route."""
        F, rect = make_field(q), Rectangle(ell, lp)
        polys = [minor_polynomial(M, F, rect)
                 for i in range(r + 1) for M in enumerate_minors(rect, i)]
        held, walked = minor_rows(F, rect, r), term_table(polys, F, rect)
        assert list(held) == polys and held.reduced
        for name in ("keys", "rows", "mons", "coefs", "pos", "starts"):
            assert np.array_equal(getattr(held, name), getattr(walked, name)), name
        pe = PointEnumeration(rect, F)
        assert np.array_equal(evaluate(held, pe), evaluate(polys, pe))

    def test_cached_and_read_only(self):
        """Every caller gets the one cached table, so none may write it."""
        F, rect = make_field(3), Rectangle(2, 3)
        held = minor_rows(F, rect, 2)
        assert minor_rows(F, rect, 2) is held
        for a in (held.keys, held.rows, held.mons, held.coefs, held.starts, held.pos):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

"""Reduced monomials, sparse polynomials, and univariate basis sets."""

import itertools
import math

import numpy as np
import pytest

from agcodes.errors import DegreeTooLarge, DependentForms
from agcodes.field import make_field
from agcodes.monomials import (Rectangle, SparsePolynomial,
                               all_reduced_monomials, full_product,
                               linear_form_power_basis, monic_split_set,
                               monomial_degree, monomial_div,
                               monomial_divides, monomial_str,
                               multiply_reduced, reduce_exponent,
                               reduce_polynomial)


def _random_poly(F, rect, rng, nterms=5, max_exp=None):
    q = F.q
    hi = max_exp if max_exp is not None else 3 * q
    terms = {}
    for _ in range(nterms):
        mu = tuple(int(e) for e in rng.integers(0, hi, rect.delta))
        terms[mu] = int(rng.integers(1, q))
    return SparsePolynomial(F, rect, terms)


class TestRectangle:
    def test_slots_are_row_major(self):
        rect = Rectangle(2, 3)
        assert [rect.slot(i, j) for (i, j) in rect.positions()] == list(range(6))
        assert rect.m == 5 and rect.delta == 6

    def test_rejects_wide_side_first(self):
        with pytest.raises(ValueError):
            Rectangle(3, 2)


class TestReduction:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_reduce_exponent_range_and_congruence(self, q):
        for alpha in range(4 * q):
            r = reduce_exponent(alpha, q)
            assert 0 <= r <= q - 1
            if alpha >= q:
                assert 1 <= r and (alpha - r) % (q - 1) == 0
            else:
                assert r == alpha

    def test_reduce_exponent_rejects_negative(self):
        with pytest.raises(ValueError):
            reduce_exponent(-1, 3)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_idempotence(self, q):
        F = make_field(q)
        rect = Rectangle(1, 3)
        rng = np.random.default_rng(q)
        for _ in range(10):
            f = _random_poly(F, rect, rng)
            once = reduce_polynomial(f)
            assert once.is_reduced()
            assert reduce_polynomial(once) == once

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_faithfulness_on_all_points(self, q):
        """Reduction preserves the induced function F_q^delta -> F_q."""
        F = make_field(q)
        rect = Rectangle(1, 2)
        rng = np.random.default_rng(100 + q)
        for _ in range(10):
            f = _random_poly(F, rect, rng)
            g = reduce_polynomial(f)
            for pt in itertools.product(range(q), repeat=rect.delta):
                assert f.evaluate_at(pt) == g.evaluate_at(pt)


class TestMonomialUtilities:
    def test_full_product_divisors_are_all_reduced_monomials(self):
        rect = Rectangle(1, 3)
        q = 3
        full = full_product(rect, q)
        divisors = [mu for mu in all_reduced_monomials(rect, q)
                    if monomial_divides(mu, full)]
        assert len(divisors) == q ** rect.delta

    def test_div_and_degree(self):
        assert monomial_div((2, 2, 1), (1, 0, 1)) == (1, 2, 0)
        assert monomial_degree((2, 2, 1)) == 5
        with pytest.raises(ValueError):
            monomial_div((1, 0), (0, 1))

    def test_lex_order(self):
        rect = Rectangle(1, 2)
        mons = list(all_reduced_monomials(rect, 2))
        assert mons == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_monomial_str(self):
        rect = Rectangle(2, 2)
        assert monomial_str((0, 0, 0, 0), rect) == "1"
        assert monomial_str((1, 0, 0, 2), rect) == "X[1,1]*X[2,2]^2"


class TestSparsePolynomial:
    def test_ring_identities(self):
        F = make_field(3)
        rect = Rectangle(1, 2)
        rng = np.random.default_rng(5)
        f = _random_poly(F, rect, rng, max_exp=3)
        g = _random_poly(F, rect, rng, max_exp=3)
        h = _random_poly(F, rect, rng, max_exp=3)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert (f - f).is_zero()
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h

    def test_product_is_reduced(self):
        F = make_field(2)
        rect = Rectangle(1, 1)
        x = SparsePolynomial.variable(F, rect, 1, 1)
        assert (x * x) == x  # X^2 reduces to X over F_2

    def test_evaluate_at_matches_structure(self):
        F = make_field(4)
        rect = Rectangle(2, 2)
        f = SparsePolynomial.variable(F, rect, 1, 1) * \
            SparsePolynomial.variable(F, rect, 2, 2)
        for pt in itertools.product(range(4), repeat=4):
            assert f.evaluate_at(pt) == int(F.mul(pt[0], pt[3]))

    def test_mismatched_rect_rejected(self):
        F = make_field(2)
        a = SparsePolynomial.constant(F, Rectangle(1, 2), 1)
        b = SparsePolynomial.constant(F, Rectangle(1, 3), 1)
        with pytest.raises(ValueError):
            a + b

    def test_scaled_by_zero(self):
        F = make_field(3)
        rect = Rectangle(1, 1)
        f = SparsePolynomial.variable(F, rect, 1, 1)
        assert f.scaled(0).is_zero()


class TestMonicSplitSet:
    @pytest.mark.parametrize("q,d", [(3, 1), (3, 2), (4, 2), (4, 3), (5, 4)])
    def test_count_and_roots(self, q, d):
        F = make_field(q)
        S = monic_split_set(F, d)
        assert len(S) == math.comb(q, d)
        for coeffs in S:
            assert len(coeffs) == d + 1 and coeffs[-1] == 1  # monic
            roots = [a for a in range(q)
                     if sum_eval(coeffs, a, F) == 0]
            assert len(roots) == d

    def test_degree_cap(self):
        F = make_field(3)
        with pytest.raises(DegreeTooLarge):
            monic_split_set(F, 3)


def sum_eval(coeffs, a, F):
    total = 0
    for e, c in enumerate(coeffs):
        total = int(F.add(total, F.mul(c, F.pow(a, e))))
    return total


class TestLinearFormPowerBasis:
    @pytest.mark.parametrize("q,s", [(2, 2), (3, 2), (2, 3)])
    def test_count(self, q, s):
        F = make_field(q)
        forms = np.eye(s, dtype=int).tolist()
        basis = linear_form_power_basis(F, forms)
        assert len(basis) == q ** s
        assert all(f.is_reduced() for f in basis)

    def test_first_powers_are_the_forms(self):
        """Exponents (0, 1) and (1, 0) give L_2 and L_1 themselves, with
        coefficient j of a form on the variable T_(j+1)."""
        F = make_field(3)
        basis = linear_form_power_basis(F, [[1, 2], [0, 1]])
        assert basis[1].terms == {(0, 1): 1}
        assert basis[3].terms == {(1, 0): 1, (0, 1): 2}
        assert basis[6] == basis[3] * basis[3]

    def test_dependent_forms_rejected(self):
        F = make_field(3)
        with pytest.raises(DependentForms):
            linear_form_power_basis(F, [[1, 2], [2, 4 % 3]])

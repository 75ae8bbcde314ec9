"""Point enumeration, code builders, and closed-form parameters."""

import functools
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcodes import codes, dual, linalg
from agcodes.codes import (_BLOCK_CELLS, Code, PointEnumeration,
                           build_affine_grassmann, build_reed_muller, evaluate,
                           gaussian_binomial, rm_theoretical_params, subcode_check,
                           theoretical_params, write_generator)
from agcodes.dual import build_dual_code, dual_basis
from agcodes.errors import (DimensionMismatch, NotPrimePower, OrderOutOfRange,
                            SizeOutOfRange, TooLarge, Unsupported)
from agcodes.field import digits, make_field
from agcodes.monomials import (Rectangle, SparsePolynomial, all_reduced_monomials,
                               monomial_degree, reduce_polynomial)


class TestPointEnumeration:
    @pytest.mark.parametrize("q,ell,lp", [(2, 2, 2), (3, 1, 3), (4, 1, 2)])
    def test_roundtrip(self, q, ell, lp):
        pe = PointEnumeration(Rectangle(ell, lp), make_field(q))
        assert pe.n == q ** (ell * lp)
        for i in range(pe.n):
            assert pe.index_of(pe.point(i)) == i

    def test_slot_one_one_is_least_significant(self):
        pe = PointEnumeration(Rectangle(2, 2), make_field(3))
        assert pe.point(1)[0, 0] == 1 and not pe.point(1).reshape(-1)[1:].any()
        assert pe.point(3)[0, 1] == 1

    def test_points_cover_everything(self):
        pe = PointEnumeration(Rectangle(1, 2), make_field(3))
        seen = {tuple(p) for p in pe.points}
        assert seen == set(itertools.product(range(3), repeat=2))


class TestEvaluate:
    def test_linearity(self):
        F = make_field(3)
        rect = Rectangle(2, 2)
        pe = PointEnumeration(rect, F)
        f = SparsePolynomial.variable(F, rect, 1, 2)
        g = SparsePolynomial.variable(F, rect, 2, 1)
        lhs = evaluate([f + g.scaled(2)], pe)[0]
        rhs = F.add(evaluate([f], pe)[0], F.mul(2, evaluate([g], pe)[0]))
        assert np.array_equal(lhs, rhs)

    def test_matches_pointwise(self):
        F = make_field(4)
        rect = Rectangle(1, 2)
        pe = PointEnumeration(rect, F)
        f = SparsePolynomial(F, rect, {(3, 2): 2, (0, 1): 1, (0, 0): 3})
        ev = evaluate([f], pe)[0]
        for i in range(pe.n):
            assert ev[i] == f.evaluate_at(tuple(pe.points[i]))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_non_reduced_exponents(self, q):
        """Exponents of q and above evaluate as their reductions do."""
        F = make_field(q)
        rect = Rectangle(1, 2)
        pe = PointEnumeration(rect, F)
        f = SparsePolynomial(F, rect, {(q, 0): 1, (2 * q - 1, q + 1): 1, (1, 0): 1})
        ev = evaluate([f], pe)[0]
        assert np.array_equal(ev, evaluate([reduce_polynomial(f)], pe)[0])
        assert ev.tolist() == [f.evaluate_at(tuple(p)) for p in pe.points]

    def test_exponent_past_int64_folds(self):
        F, rect = make_field(3), Rectangle(1, 2)
        pe = PointEnumeration(rect, F)
        f = SparsePolynomial.monomial(F, rect, (2 ** 70, 1))
        ev = evaluate([f], pe)[0]
        assert ev.tolist() == [0, 0, 0, 0, 1, 1, 0, 2, 2]
        assert ev.tolist() == [f.evaluate_at(tuple(p)) for p in pe.points]

    def test_bare_polynomial_rejected(self):
        F, rect = make_field(2), Rectangle(1, 2)
        with pytest.raises(TypeError):
            evaluate(SparsePolynomial.constant(F, rect, 1), PointEnumeration(rect, F))

    def test_builders_evaluate_once_through_the_module_name(self, monkeypatch):
        """Each builder writes its whole matrix with one call of the
        module-level ``evaluate``, so a wrapper installed on codes.evaluate
        and dual.evaluate sees every matrix the package evaluates."""
        C = build_affine_grassmann(2, 4, 2, 2)
        calls = []
        for module in (codes, dual):
            real = module.evaluate
            monkeypatch.setattr(module, "evaluate", lambda polys, pe, real=real:
                                calls.append(len(polys)) or real(polys, pe))
        for build, rows in [(lambda: build_affine_grassmann(2, 4, 2, 2), 6),
                            (lambda: build_reed_muller(1, 3, 2), 4),
                            (lambda: build_dual_code(C), 10)]:
            calls.clear()
            assert build().k == rows
            assert calls == [rows]

    def test_rect_mismatch_rejected(self):
        F = make_field(2)
        pe = PointEnumeration(Rectangle(1, 2), F)
        f = SparsePolynomial.constant(F, Rectangle(1, 3), 1)
        with pytest.raises(DimensionMismatch):
            evaluate([f], pe)


@st.composite
def polynomial_lists(draw):
    """A field, a rectangle with n <= 256 points and a list of sparse
    polynomials: zero ones, repeated monomials, non-reduced exponents."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
    F = make_field(q)
    ell, lp = draw(st.sampled_from([(a, b) for a in (1, 2) for b in range(a, 9)
                                    if q ** (a * b) <= 256]))
    rect = Rectangle(ell, lp)
    exps = st.lists(st.integers(0, 2 * q), min_size=rect.delta, max_size=rect.delta)
    pool = draw(st.lists(exps.map(tuple), min_size=1, max_size=5))
    term = st.tuples(st.sampled_from(pool), st.integers(1, q - 1))
    polys = draw(st.lists(st.lists(term, max_size=4).map(dict), max_size=8))
    return PointEnumeration(rect, F), [SparsePolynomial(F, rect, t) for t in polys]


class TestEvaluateRows:
    @settings(max_examples=80, deadline=None)
    @given(polynomial_lists())
    def test_matches_pointwise(self, case):
        pe, polys = case
        H = evaluate(polys, pe)
        assert H.dtype == np.uint8 and H.shape == (len(polys), pe.n)
        points = [tuple(int(x) for x in p) for p in pe.points]
        assert H.tolist() == [[f.evaluate_at(p) for p in points] for f in polys]

    def test_more_rows_than_one_block(self):
        F = make_field(3)
        rect = Rectangle(1, 5)
        pe = PointEnumeration(rect, F)
        assert _BLOCK_CELLS % pe.n  # the last block is a partial one
        rng = np.random.default_rng(7)
        pool = [tuple(int(e) for e in mu) for mu in rng.integers(0, 5, size=(40, 5))]
        polys = [SparsePolynomial(F, rect, {pool[i]: int(c) for i, c in zip(
                     rng.integers(0, len(pool), size=3), rng.integers(1, 3, size=3))})
                 for _ in range(3 * _BLOCK_CELLS // pe.n + 11)]
        H = evaluate(polys, pe)
        assert np.array_equal(H, np.array([evaluate([f], pe)[0] for f in polys]))
        points = [tuple(int(x) for x in p) for p in pe.points]
        for j in range(0, len(polys), 97):
            assert H[j].tolist() == [polys[j].evaluate_at(p) for p in points]

    @pytest.mark.parametrize("cells", [1, 5, 64])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_patched_block_edges(self, monkeypatch, q, cells):
        """Blocks of 1, 5 and 64 cells (one row per block, or 16, 7 and 4
        rows at n = 4, 9 and 16): rows of 0, 1 and up to 7 terms, with
        non-unit coefficients and unreduced exponents, straddle the block
        edges and still match evaluate and evaluate_at."""
        F, rect = make_field(q), Rectangle(1, 2)
        pe = PointEnumeration(rect, F)
        rng = np.random.default_rng(10 * q + cells)
        polys = []
        for size in [0, 1, 7, 0, 3, 1, 5, 2, 0, 4] * 3:
            exps = rng.integers(0, 3 * q, size=(size, 2))
            coefs = rng.integers(1, q, size=size)
            polys.append(SparsePolynomial(F, rect, {
                tuple(int(e) for e in mu): int(c) for mu, c in zip(exps, coefs)}))
        points = [tuple(int(x) for x in p) for p in pe.points]
        want = [[f.evaluate_at(p) for p in points] for f in polys]
        monkeypatch.setattr(codes, "_BLOCK_CELLS", cells)
        H = evaluate(polys, pe)
        assert H.tolist() == want
        assert np.array_equal(H, np.array([evaluate([f], pe)[0] for f in polys]))

    @pytest.mark.parametrize("q,width", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 1)])
    def test_monomial_value_table(self, q, width):
        """W[key, i] is the product over the slots of x_s^e_s, where the
        e_s are the digits of key and the x_s those of point i."""
        F = make_field(q)
        D = digits(np.arange(q ** width), q, width).tolist()
        want = [[int(functools.reduce(F.mul, map(F.pow, X, E), 1)) for X in D] for E in D]
        assert codes._monomial_values(q, width).tolist() == want

    def test_one_field_multiplication_per_block(self, monkeypatch):
        """Monomial values cost one F.mul per row block, whatever delta."""
        F, rect = make_field(2), Rectangle(3, 3)
        basis = dual_basis(3, 6, 2, 2)
        pe = PointEnumeration(rect, F)
        want = evaluate(basis, pe)  # fills the cached table
        calls = []
        real = type(F).mul
        monkeypatch.setattr(type(F), "mul", lambda *a: calls.append(1) or real(*a))
        assert np.array_equal(evaluate(basis, pe), want)
        assert len(calls) == -(-len(basis) // (_BLOCK_CELLS // pe.n))

    def test_negative_exponent_rejected(self):
        F, rect = make_field(3), Rectangle(1, 2)
        pe = PointEnumeration(rect, F)
        with pytest.raises(ValueError, match="negative exponent"):
            evaluate([SparsePolynomial(F, rect, {(1, -1): 1})], pe)

    def test_empty_list(self):
        pe = PointEnumeration(Rectangle(2, 2), make_field(3))
        H = evaluate([], pe)
        assert H.dtype == np.uint8 and H.shape == (0, 81)

    def test_mismatch_in_a_later_position_rejected(self):
        F = make_field(2)
        pe = PointEnumeration(Rectangle(1, 2), F)
        ok = SparsePolynomial.constant(F, Rectangle(1, 2), 1)
        with pytest.raises(DimensionMismatch):
            evaluate([ok, ok, SparsePolynomial.constant(F, Rectangle(1, 3), 1)], pe)
        with pytest.raises(DimensionMismatch):
            evaluate([ok, SparsePolynomial.constant(make_field(4), Rectangle(1, 2), 1)], pe)

    def test_coefficient_outside_field_rejected(self):
        F = make_field(3)
        rect = Rectangle(1, 2)
        pe = PointEnumeration(rect, F)
        with pytest.raises(ValueError):
            evaluate([SparsePolynomial(F, rect, {(1, 0): 3})], pe)

    @pytest.mark.parametrize("q,ell,m,r", [(2, 3, 6, 2), (3, 2, 5, 2), (4, 2, 4, 2)])
    def test_dual_basis_matches_single_rows(self, q, ell, m, r):
        basis = dual_basis(ell, m, r, q)
        pe = PointEnumeration(Rectangle(ell, m - ell), make_field(q))
        H = evaluate(basis, pe)
        assert np.array_equal(H, np.array([evaluate([f], pe)[0] for f in basis]))


class TestEvaluatedRows:
    """A block of rows and a run of columns of evaluate's matrix, directly
    or through EvaluatedRows, are the slices of the whole matrix."""

    @pytest.mark.parametrize("cells", [1, 37, _BLOCK_CELLS])
    @pytest.mark.parametrize("q,ell,m,r", [(2, 2, 4, 2), (3, 2, 4, 2), (4, 1, 3, 1),
                                           (2, 1, 4, 1)])
    def test_windows_are_slices_of_the_matrix(self, q, ell, m, r, cells, monkeypatch):
        """Windows that start and end inside a run of the high point digit,
        span several runs, are empty or reach past either end, with blocks
        of 1, 37 and 2^16 cells; delta odd (1 x 3) too."""
        basis = dual_basis(ell, m, r, q)
        pe = PointEnumeration(Rectangle(ell, m - ell), make_field(q))
        H = evaluate(basis, pe)
        monkeypatch.setattr(codes, "_BLOCK_CELLS", cells)
        E = codes.EvaluatedRows(basis, pe)
        assert E.shape == H.shape
        k, n = H.shape
        rng = np.random.default_rng(cells + q)
        bounds = [(0, k, 0, n), (0, 0, 0, n), (3, 3, 5, 5), (k - 1, k + 9, n - 1, n + 9),
                  (-2, None, None, 3)]
        for _ in range(6):
            rows, cols = np.sort(rng.integers(0, k + 1, 2)), np.sort(rng.integers(0, n + 1, 2))
            bounds.append((*rows.tolist(), *cols.tolist()))
        for r0, r1, c0, c1 in bounds:
            rows, cols = slice(r0, r1), slice(c0, c1)
            want = H[rows, cols]
            got = evaluate(basis, pe, rows, cols)
            assert got.dtype == np.uint8 and np.array_equal(got, want), (rows, cols)
            assert np.array_equal(E[rows, cols], want) and np.array_equal(E[rows], H[rows])

    def test_slices_of_other_steps_are_refused(self):
        pe = PointEnumeration(Rectangle(1, 2), make_field(3))
        basis = dual_basis(1, 3, 1, 3)
        for rows, cols in [(slice(None, None, 2), slice(None)),
                           (slice(None), slice(None, None, -1))]:
            with pytest.raises(ValueError, match="step 1"):
                evaluate(basis, pe, rows, cols)

    @pytest.mark.parametrize("q,ell,m,r", [(2, 3, 6, 2), (3, 2, 4, 2), (4, 2, 4, 1), (16, 1, 2, 1)])
    def test_nonzero_bound(self, q, ell, m, r):
        """The bound is the sum over the terms of their monomials' weights:
        exact for the monomial rows, an upper bound for the binomials."""
        basis = dual_basis(ell, m, r, q)
        pe = PointEnumeration(Rectangle(ell, m - ell), make_field(q))
        H = evaluate(basis, pe)
        E = codes.EvaluatedRows(basis, pe)
        one = np.bincount(basis.rows, minlength=len(basis)) == 1
        exact = codes.EvaluatedRows([basis[i] for i in np.flatnonzero(one)], pe)
        assert exact.nonzero_bound == np.count_nonzero(H[one])
        assert np.count_nonzero(H) <= E.nonzero_bound
        assert E.nonzero_bound - np.count_nonzero(H) <= 2 * pe.n * int((~one).sum())
        assert E.top == q - 1


class TestGaussianBinomial:
    def test_small_values(self):
        assert gaussian_binomial(2, 1, 2) == 3
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(2, 1, 3) == 4
        assert gaussian_binomial(3, 3, 2) == 1

    def test_subspace_count_brute_force(self):
        """[3,1]_2 counts the lines of F_2^3."""
        vecs = [v for v in itertools.product(range(2), repeat=3) if any(v)]
        assert gaussian_binomial(3, 1, 2) == len(vecs)

    def test_b_above_a_rejected(self):
        with pytest.raises(ValueError):
            gaussian_binomial(2, 3, 2)

    def test_symmetry(self):
        for a in range(6):
            for b in range(a + 1):
                assert gaussian_binomial(a, b, 3) == gaussian_binomial(a, a - b, 3)


class TestTheoreticalParams:
    def test_known_triples(self):
        p = theoretical_params(2, 4, 2, 2)
        assert (p.n, p.k, p.d, p.min_weight_count) == (16, 6, 6, 16)
        p = theoretical_params(3, 6, 2, 2)
        assert (p.n, p.k, p.d) == (512, 19, 192)
        p = theoretical_params(3, 6, 3, 2)
        assert (p.n, p.k, p.d) == (512, 20, 168)

    def test_level_zero_and_one(self):
        p0 = theoretical_params(2, 4, 0, 3)
        assert p0.k == 1 and p0.d == p0.n
        p1 = theoretical_params(2, 4, 1, 3)
        assert p1.k == 5 and p1.d == 2 * 3 ** 3  # (q-1) q^(delta-1)

    @pytest.mark.parametrize("q,error", [(1, NotPrimePower), (0, NotPrimePower),
                                         (6, NotPrimePower), (17, Unsupported)])
    def test_invalid_q(self, q, error):
        """q is rejected as make_field rejects it, before the level or order."""
        with pytest.raises(error):
            theoretical_params(1, 2, 1, q)
        with pytest.raises(error):
            theoretical_params(2, 4, 3, q)  # bad level too
        with pytest.raises(error):
            rm_theoretical_params(0, 1, q)

    def test_invalid_level(self):
        with pytest.raises(SizeOutOfRange):
            theoretical_params(2, 4, 3, 2)
        with pytest.raises(SizeOutOfRange):
            theoretical_params(3, 5, 1, 2)  # ell > ell'


class TestBuildAffineGrassmann:
    @pytest.mark.parametrize("q,ell,m,r", [
        (2, 1, 2, 0), (2, 1, 2, 1), (2, 2, 4, 1), (2, 2, 4, 2),
        (3, 1, 3, 1), (3, 2, 4, 2), (4, 1, 2, 1),
    ])
    def test_dimensions_on_grid(self, q, ell, m, r):
        C = build_affine_grassmann(ell, m, r, q)
        p = theoretical_params(ell, m, r, q)
        assert (C.n, C.k) == (p.n, p.k)
        assert linalg.rank(C.generator, C.field) == C.k

    def test_filtration_by_level(self):
        codes = [build_affine_grassmann(2, 4, r, 2) for r in range(3)]
        assert subcode_check(codes[0], codes[1])
        assert subcode_check(codes[1], codes[2])
        assert not subcode_check(codes[2], codes[1])

    @pytest.mark.parametrize("other", [(2, 5, 1, 2), (2, 4, 1, 3)])
    def test_subcode_check_needs_one_ambient_space(self, other):
        with pytest.raises(DimensionMismatch):
            subcode_check(build_affine_grassmann(2, 4, 1, 2), build_affine_grassmann(*other))

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr("agcodes.codes.DEFAULT_MAX_CELLS", 10)
        with pytest.raises(TooLarge):
            build_affine_grassmann(2, 4, 2, 2)

    def test_meta_recorded(self):
        C = build_affine_grassmann(1, 2, 1, 5)
        assert C.meta["kind"] == "AGC"
        assert (C.meta["ell"], C.meta["m"], C.meta["r"], C.meta["q"]) == (1, 2, 1, 5)


class TestCode:
    def test_contains_and_parity(self):
        C = build_affine_grassmann(2, 4, 2, 2)
        assert C.contains(C.generator[0])
        assert C.contains(np.zeros(C.n, dtype=np.uint8))
        bad = C.generator[0].copy()
        bad[0] ^= 1
        assert not C.contains(bad)
        with pytest.raises(DimensionMismatch):
            C.contains(bad[1:])
        H = C.parity_check()
        assert H.shape == (C.n - C.k, C.n)
        assert not linalg.matmul(H, C.generator.T, C.field).any()

    def test_write_generator_format(self, tmp_path):
        C = build_affine_grassmann(1, 2, 1, 3)
        path = tmp_path / "gen.txt"
        write_generator(C, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "3 3 2"
        assert len(lines) == 3
        G = np.array([[int(x) for x in row.split()] for row in lines[1:]],
                     dtype=np.uint8)
        assert np.array_equal(G, C.generator)


    @pytest.mark.parametrize("generator", [[1, 0, 2], np.ones((1, 2, 2)), 1])
    def test_generator_must_be_a_matrix(self, generator):
        """A vector or a 3-D array is no generator matrix: it is refused
        when the code is built, not when .n or a search reads it."""
        with pytest.raises(DimensionMismatch):
            Code(make_field(3), generator)


class TestReedMuller:
    def test_known_dimensions(self):
        assert build_reed_muller(1, 4, 2).k == 5
        assert build_reed_muller(2, 4, 2).k == 11
        assert rm_theoretical_params(2, 4, 2).min_weight_count == 140

    @pytest.mark.parametrize("q,delta", [(2, 3), (3, 2), (4, 2)])
    def test_dimension_formula_all_orders(self, q, delta):
        for r in range(delta * (q - 1) + 1):
            rm = build_reed_muller(r, delta, q)
            assert rm.k == rm_theoretical_params(r, delta, q).k
            assert linalg.rank(rm.generator, rm.field) == rm.k

    @pytest.mark.parametrize("q,delta", [(2, 4), (3, 3), (4, 2)])
    def test_rows_by_degree_then_lex(self, q, delta):
        """At every order the generator is the evaluation of the reduced
        monomials of degree <= r sorted by degree and then in row-major lex
        order, taken through polynomials as the reference."""
        F, rect = make_field(q), Rectangle(1, delta)
        pe = PointEnumeration(rect, F)
        for r in range(delta * (q - 1) + 1):
            mus = sorted((mu for mu in all_reduced_monomials(rect, q)
                          if monomial_degree(mu) <= r),
                         key=lambda mu: (monomial_degree(mu), mu))
            want = evaluate([SparsePolynomial.monomial(F, rect, mu) for mu in mus], pe)
            assert np.array_equal(build_reed_muller(r, delta, q).generator, want)

    def test_huge_delta_rejected_before_any_point(self):
        """The size cap is read off the closed-form dimension, so no
        monomial or point of the 2^40-point space is listed."""
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            build_reed_muller(1, 40, 2)
        assert time.perf_counter() - t0 < 1.0

    def test_top_order_is_whole_space(self):
        rm = build_reed_muller(4, 2, 3)
        assert rm.k == rm.n == 9

    def test_order_out_of_range(self):
        with pytest.raises(OrderOutOfRange):
            build_reed_muller(5, 2, 3)
        with pytest.raises(OrderOutOfRange):
            rm_theoretical_params(-1, 2, 3)

    def test_field_checked_before_order(self):
        """build_reed_muller rejects its arguments as rm_theoretical_params
        does: q first, then the order."""
        for call in (build_reed_muller, rm_theoretical_params):
            with pytest.raises(NotPrimePower):
                call(99, 2, 6)

    def test_rm_orders_nest(self):
        r1 = build_reed_muller(1, 3, 2)
        r2 = build_reed_muller(2, 3, 2)
        assert subcode_check(r1, r2)

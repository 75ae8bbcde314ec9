"""Forbidden monomials, minor binomials, dual bases, and witnesses."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import agcodes
from agcodes import linalg
from agcodes.codes import (PointEnumeration, build_affine_grassmann,
                           evaluate, theoretical_params)
from agcodes.dual import (SELF_ORTH_EXCEPTIONS, binomials, build_dual_code,
                          char_sum, check_dual_basis, dual_basis,
                          dual_min_weight_witness, forbidden_monomials,
                          is_forbidden_counts, maximal_nonforbidden,
                          self_orthogonality_check)
from agcodes.errors import (DimensionMismatch, InvalidWitnessParams,
                            OrthogonalityViolation, SizeOutOfRange, TooLarge)
from agcodes.field import make_field
from agcodes.monomials import (Rectangle, SparsePolynomial, TermRows,
                               all_reduced_monomials, full_product,
                               monomial_divides)

GRID = [(ell, ell + lp, r, q)
        for q in (2, 3)
        for ell in (1, 2)
        for lp in range(1, 4)
        if ell <= lp
        for r in range(ell + 1)]


class TestForbiddenMonomials:
    @pytest.mark.parametrize("ell,m,r,q", GRID)
    def test_closed_form_count(self, ell, m, r, q):
        forb = forbidden_monomials(ell, m, r, q)
        expected = sum(math.factorial(i) * math.comb(ell, i)
                       * math.comb(m - ell, i) for i in range(r + 1))
        assert len(forb) == expected
        assert is_forbidden_counts(ell, m, r, q)[0] == expected

    def test_all_divide_full_product(self):
        forb = forbidden_monomials(2, 4, 2, 3)
        full = full_product(Rectangle(2, 2), 3)
        assert all(monomial_divides(mu, full) for mu in forb)

    def test_membership_protocol(self):
        forb = forbidden_monomials(2, 4, 1, 2)
        full = full_product(Rectangle(2, 2), 2)
        assert isinstance(forb, frozenset)
        assert full in forb  # size-0 minor contributes full/1
        assert (0, 0, 0, 0) not in forb

    def test_invalid_params(self):
        with pytest.raises(SizeOutOfRange):
            forbidden_monomials(2, 4, 3, 2)


class TestBinomials:
    @pytest.mark.parametrize("ell,m,r,q", [(2, 4, 2, 2), (2, 4, 2, 3),
                                           (2, 5, 2, 3), (2, 4, 2, 4)])
    def test_count_and_shape(self, ell, m, r, q):
        bs = binomials(ell, m, r, q)
        expected = sum((math.factorial(i) - 1) * math.comb(ell, i)
                       * math.comb(m - ell, i) for i in range(r + 1))
        assert len(bs) == expected
        F = make_field(q)
        for b in bs:
            terms = b.poly.sorted_terms()
            assert len(terms) == 2
            coeffs = sorted(c for _, c in terms)
            # two unit-magnitude coefficients: +1 and -sgn(sigma)
            assert all(c in (1, int(F.neg(1))) for c in coeffs)
            assert b.perm != tuple(range(b.minor.size))

    def test_r_below_two_has_no_binomials(self):
        assert binomials(2, 4, 1, 2) == []
        assert binomials(1, 3, 1, 5) == []

    def test_binomials_orthogonal_to_code(self):
        C = build_affine_grassmann(2, 4, 2, 3)
        pe = PointEnumeration(C.rect, C.field)
        for b in binomials(2, 4, 2, 3):
            ev = evaluate([b.poly], pe)[0]
            assert not linalg.matmul(C.generator, ev[:, None], C.field).any()


class TestDualBasis:
    @pytest.mark.parametrize("ell,m,r,q", GRID)
    def test_grid_orthogonality_and_count(self, ell, m, r, q):
        """G_dual . G^T = 0 exactly and |basis| = n - k_r on the whole grid."""
        C = build_affine_grassmann(ell, m, r, q)
        p = theoretical_params(ell, m, r, q)
        basis = dual_basis(ell, m, r, q)
        assert len(basis) == p.n - p.k
        D = build_dual_code(C)  # raises OrthogonalityViolation on any mismatch
        assert D.k == p.n - p.k
        assert not linalg.matmul(D.generator, C.generator.T, C.field).any()

    def test_dual_meta_links_primal(self):
        C = build_affine_grassmann(2, 4, 2, 2)
        D = build_dual_code(C)
        assert D.meta["dual_of"] is C
        assert np.array_equal(D.parity_check(), C.generator)

    def test_rejects_non_agc(self):
        from agcodes.codes import build_reed_muller
        with pytest.raises(ValueError):
            build_dual_code(build_reed_muller(1, 2, 2))

    def test_size_cap_comes_before_any_point(self):
        """dual_basis(5, 10, 2, 2) has n = 2^25 points of 25 digits.  Under
        a 2 GiB address-space limit it raises TooLarge at once, before it
        forms any point; a subprocess keeps a regression from exhausting
        the machine."""
        code = ("import resource, time\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                "from agcodes.dual import dual_basis\n"
                "from agcodes.errors import TooLarge\n"
                "t = time.perf_counter()\n"
                "try:\n"
                "    dual_basis(5, 10, 2, 2)\n"
                "except TooLarge:\n"
                "    print(time.perf_counter() - t)\n")
        src = str(Path(agcodes.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, timeout=60)
        assert res.returncode == 0 and res.stdout, res.stderr
        assert float(res.stdout) < 1.0


def _dense_verdict(basis, C):
    """The dense route, kept here as the reference: the Gram matrix
    H G^T and the rank of H."""
    H = evaluate(basis, PointEnumeration(C.rect, C.field))
    if linalg.matmul(H, C.generator.T, C.field).any():
        return "orthogonality"
    if len(basis) and linalg.rank(H, C.field) != len(basis):
        return "dependent"
    return "ok"


def _symbolic_verdict(basis, ell, m, r, q):
    try:
        check_dual_basis(basis, ell, m, r, q)
    except OrthogonalityViolation:
        return "orthogonality"
    except AssertionError:
        return "dependent"
    return "ok"


def _mutants(basis, ell, m, r, q, rng, count=4):
    """Bases with one row replaced by a random reduced monomial or a random
    binomial with random coefficients."""
    F, rect = make_field(q), Rectangle(ell, m - ell)

    def monomial(c=1):
        mu = tuple(int(e) for e in rng.integers(0, q, rect.delta))
        return SparsePolynomial.monomial(F, rect, mu, c)

    for _ in range(count):
        i = int(rng.integers(len(basis)))
        row = monomial()
        if rng.integers(2):
            row = row + monomial(int(rng.integers(1, q)))
        yield basis[:i] + [row] + basis[i + 1:]


# q in {2, 3, 4, 5, 7, 8, 9, 16}; n <= 729 keeps the dense reference cheap
DIFFERENTIAL = [(1, 4, 1, 2), (2, 4, 2, 2), (2, 5, 2, 2), (3, 6, 3, 2),
                (1, 2, 0, 3), (2, 4, 2, 3), (2, 5, 1, 3), (2, 4, 2, 4),
                (1, 3, 1, 5), (2, 4, 2, 5), (1, 3, 1, 7), (1, 4, 1, 7),
                (1, 3, 1, 8), (1, 3, 1, 9), (1, 2, 1, 16), (1, 3, 1, 16)]


class TestSymbolicCheck:
    @pytest.mark.parametrize("ell,m,r,q", DIFFERENTIAL)
    def test_agrees_with_dense_route(self, ell, m, r, q):
        """On the paper's basis and with one row replaced at random, the
        symbolic check and the dense Gram and rank reach the same verdict."""
        C = build_affine_grassmann(ell, m, r, q)
        basis = dual_basis(ell, m, r, q)
        assert _symbolic_verdict(basis, ell, m, r, q) == "ok"
        assert _dense_verdict(basis, C) == "ok"
        rng = np.random.default_rng(ell * 100 + m * 10 + r + q)
        for mutant in _mutants(basis, ell, m, r, q, rng):
            assert _symbolic_verdict(mutant, ell, m, r, q) == _dense_verdict(mutant, C)

    def test_agrees_with_dense_route_at_n_4096(self):
        C = build_affine_grassmann(3, 7, 2, 2)
        basis = dual_basis(3, 7, 2, 2)
        assert _symbolic_verdict(basis, 3, 7, 2, 2) == _dense_verdict(basis, C) == "ok"

    @pytest.mark.parametrize("ell,m,r,q", [(2, 4, 2, 2), (2, 4, 2, 3),
                                           (2, 4, 2, 4), (3, 6, 3, 2)])
    def test_forbidden_monomial_breaks_orthogonality(self, ell, m, r, q):
        C = build_affine_grassmann(ell, m, r, q)
        F, rect = make_field(q), Rectangle(ell, m - ell)
        basis = dual_basis(ell, m, r, q)
        for mu in sorted(forbidden_monomials(ell, m, r, q)):
            bad = [SparsePolynomial.monomial(F, rect, mu)] + basis[1:]
            with pytest.raises(OrthogonalityViolation):
                check_dual_basis(bad, ell, m, r, q)
            assert _dense_verdict(bad, C) == "orthogonality"

    @pytest.mark.parametrize("ell,m,r,q", [(2, 4, 2, 2), (2, 5, 2, 3),
                                           (3, 6, 3, 2), (2, 4, 2, 4)])
    def test_dependent_binomials_are_caught(self, ell, m, r, q):
        C = build_affine_grassmann(ell, m, r, q)
        basis = dual_basis(ell, m, r, q)
        nb = len(binomials(ell, m, r, q))
        first = len(basis) - nb
        # the first binomial repeated in place of the last monomial
        bad = [basis[:first - 1] + [basis[first]] + basis[first:]]
        if nb >= 3:
            bad.append(basis[:first] + [basis[first + 1] + basis[first + 2]]
                       + basis[first + 1:])
        for b in bad:
            with pytest.raises(AssertionError, match="dependent"):
                check_dual_basis(b, ell, m, r, q)
            assert _dense_verdict(b, C) == "dependent"

    @pytest.mark.parametrize("ell,m,r,q", [(3, 6, 3, 3), (4, 8, 2, 2)])
    def test_beyond_the_dense_route(self, ell, m, r, q):
        """n = 19683 and 65536, where H would not fit the size cap.  Over
        F_3, flipping the sign of either kind of binomial (odd and even
        permutations of a 3 x 3 minor) must break orthogonality."""
        basis = dual_basis(ell, m, r, q)
        check_dual_basis(basis, ell, m, r, q)
        if q == 2:  # -1 = 1: no sign to flip
            return
        F = make_field(q)
        for i in range(len(basis) - 5, len(basis)):
            (mu1, c1), (mu2, c2) = basis[i].terms.items()
            flipped = SparsePolynomial(F, basis[i].rect,
                                       {mu1: c1, mu2: int(F.neg(c2))})
            with pytest.raises(OrthogonalityViolation):
                check_dual_basis(basis[:i] + [flipped] + basis[i + 1:],
                                 ell, m, r, q)

    def test_unreduced_exponent_rejected(self):
        F, rect = make_field(3), Rectangle(1, 2)
        basis = dual_basis(1, 3, 1, 3)
        for mu in [(3, 0), (2 ** 70, 1)]:  # the second is past int64
            bad = [SparsePolynomial.monomial(F, rect, mu)] + basis[1:]
            with pytest.raises(AssertionError, match="unreduced"):
                check_dual_basis(bad, 1, 3, 1, 3)

    def test_negative_exponent_rejected(self):
        F, rect = make_field(3), Rectangle(1, 2)
        bad = [SparsePolynomial.monomial(F, rect, (1, -1))] + dual_basis(1, 3, 1, 3)[1:]
        with pytest.raises(ValueError, match="negative exponent"):
            check_dual_basis(bad, 1, 3, 1, 3)

    @pytest.mark.parametrize("c", [3, -1, 7])
    def test_coefficient_outside_field_rejected(self, c):
        """A coefficient that is not a nonzero element of F_3 stops the
        proof and the evaluation of the same basis with one ValueError."""
        F, rect = make_field(3), Rectangle(2, 2)
        basis = dual_basis(2, 4, 2, 3)
        (mu, _), = basis[0].terms.items()
        bad = [SparsePolynomial(F, rect, {mu: c})] + basis[1:]
        with pytest.raises(ValueError, match="not a nonzero element of F_3"):
            check_dual_basis(bad, 2, 4, 2, 3)
        with pytest.raises(ValueError, match="not a nonzero element of F_3"):
            evaluate(bad, PointEnumeration(rect, F))

    def test_zero_row_is_dependent(self):
        F, rect = make_field(2), Rectangle(2, 2)
        basis = dual_basis(2, 4, 2, 2)
        with pytest.raises(AssertionError, match="dependent"):
            check_dual_basis([SparsePolynomial.zero(F, rect)] + basis[1:],
                             2, 4, 2, 2)

    def test_no_dense_product_or_rank_of_h(self, monkeypatch):
        """build_dual_code hands linalg no operand with n - k rows or n
        columns: it never forms H G^T and never ranks H."""
        C = build_affine_grassmann(3, 7, 2, 2)
        n, k = C.n, C.k
        shapes = []
        for name in ("matmul", "rank"):
            real = getattr(linalg, name)

            def spy(*args, real=real):
                shapes.extend(np.shape(a) for a in args[:2]
                              if isinstance(a, np.ndarray))
                return real(*args)
            monkeypatch.setattr(linalg, name, spy)
        D = build_dual_code(C)
        assert D.k == n - k
        assert shapes
        assert all(s[0] != n - k and s[-1] != n for s in shapes), shapes

    def test_size_cap_raises_before_any_basis(self, monkeypatch):
        import agcodes.dual as dual_mod
        # calling it would raise TypeError, not TooLarge
        monkeypatch.setattr(dual_mod, "dual_basis", None)
        C = build_affine_grassmann(4, 8, 2, 2)
        with pytest.raises(TooLarge):
            build_dual_code(C)


def _altered(basis, **arrays):
    """The TermRows of basis with some of its arrays replaced."""
    parts = dict(keys=basis.keys, rows=basis.rows, mons=basis.mons, coefs=basis.coefs)
    return TermRows(basis.field, basis.rect, len(basis), **{**parts, **arrays})


class TestArrayRoute:
    """dual_basis holds the basis as key arrays; the polynomial entry
    points take the list of its rows through term_table."""

    @pytest.mark.parametrize("ell,m,r,q", DIFFERENTIAL + [(3, 7, 2, 2)])
    def test_matches_the_polynomial_route(self, ell, m, r, q):
        """The rows are the paper's, in order: the non-forbidden monomials
        in row-major lex order, then the binomials.  H and the proof's
        verdict are the same on both routes, for the basis and for bases
        with a forbidden monomial, a repeated monomial (one key index, or
        one key value at a new index) or, in odd characteristic, a
        binomial of the wrong sign."""
        F, rect = make_field(q), Rectangle(ell, m - ell)
        basis = dual_basis(ell, m, r, q)
        rows = list(basis)
        forb = forbidden_monomials(ell, m, r, q)
        assert rows == ([SparsePolynomial.monomial(F, rect, mu)
                         for mu in all_reduced_monomials(rect, q) if mu not in forb]
                        + [b.poly for b in binomials(ell, m, r, q)])
        pe = PointEnumeration(rect, F)
        assert np.array_equal(evaluate(basis, pe), evaluate(rows, pe))
        keys, mons, coefs = basis.keys, basis.mons, basis.coefs
        mutants = [(basis, "ok")]
        if len(basis) >= 2:  # row 0 the full product (forbidden), or row 1's monomial
            full = _altered(basis, keys=np.r_[keys, q ** rect.delta - 1],
                            mons=np.r_[len(keys), mons[1:]])
            again = _altered(basis, keys=np.r_[keys, keys[mons[1]]],
                             mons=np.r_[len(keys), mons[1:]])
            mutants += [(full, "orthogonality"),
                        (_altered(basis, mons=np.r_[mons[1], mons[1:]]), "dependent"),
                        (again, "dependent")]
        if F.p > 2 and binomials(ell, m, r, q):  # -1 != 1: a sign to flip
            flipped = np.r_[coefs[:-1], F.neg(coefs[-1])].astype(np.uint8)
            mutants.append((_altered(basis, coefs=flipped), "orthogonality"))
        for held, verdict in mutants:
            assert _symbolic_verdict(held, ell, m, r, q) == verdict
            assert _symbolic_verdict(list(held), ell, m, r, q) == verdict

    @pytest.mark.parametrize("ell,m,r,q", [(2, 4, 2, 2), (2, 4, 2, 3)])
    def test_malformed_keys_rejected(self, ell, m, r, q):
        """Arrays that no list of reduced polynomials gives are refused: a
        key at or past q^delta, a negative key, and a binomial whose two
        terms are one monomial, here with coefficients summing to 0."""
        F, rect = make_field(q), Rectangle(ell, m - ell)
        basis = dual_basis(ell, m, r, q)
        keys, mons, coefs = basis.keys, basis.mons, basis.coefs
        size = q ** rect.delta
        zero = np.r_[coefs[:-1], F.neg(coefs[-2])].astype(np.uint8)
        for held in (_altered(basis, keys=np.r_[keys[:-1], keys[-1] + size]),
                     _altered(basis, keys=np.r_[keys[:-1], -1 - keys[-1]]),
                     _altered(basis, mons=np.r_[mons[:-1], mons[-2]], coefs=zero)):
            with pytest.raises(AssertionError):
                check_dual_basis(held, ell, m, r, q)

    def test_rows_are_a_sequence(self):
        """Indexing forms one row, from either end; a slice is a list, and
        an index past either end raises IndexError."""
        basis = dual_basis(2, 4, 2, 3)
        rows = list(basis)
        assert basis[-1] == rows[-1] and basis[3] == rows[3]
        assert basis[2:5] == rows[2:5] and basis[::-7] == rows[::-7]
        for i in (len(basis), -len(basis) - 1):
            with pytest.raises(IndexError):
                basis[i]

    def test_builds_no_polynomial_per_row(self, monkeypatch):
        """build_dual_code proves and evaluates the basis from its arrays:
        no SparsePolynomial is made, and the proof and evaluate each take
        the held TermRows through term_table, spied on where each caller
        looks the name up."""
        import agcodes.codes as codes_mod
        import agcodes.dual as dual_mod
        C = build_affine_grassmann(3, 7, 2, 2)
        want = build_dual_code(C).generator
        made, tables = [], []
        real_init = SparsePolynomial.__init__
        monkeypatch.setattr(SparsePolynomial, "__init__",
                            lambda self, *a: made.append(1) or real_init(self, *a))
        for module in (codes_mod, dual_mod):
            monkeypatch.setattr(module, "term_table", lambda polys, *a, real=module.term_table:
                                tables.append(type(polys)) or real(polys, *a))
        assert np.array_equal(build_dual_code(C).generator, want)
        assert tables == [TermRows, TermRows] and made == []

    def test_mismatched_rows_rejected(self):
        basis = dual_basis(2, 4, 2, 3)
        with pytest.raises(DimensionMismatch):
            evaluate(basis, PointEnumeration(Rectangle(1, 4), make_field(3)))
        with pytest.raises(DimensionMismatch):
            check_dual_basis(basis, 2, 4, 2, 5)


class TestWitnesses:
    @pytest.mark.parametrize("ell,m,r,q", [(1, 2, 1, 3), (2, 4, 1, 3),
                                           (2, 4, 2, 3), (1, 2, 1, 4),
                                           (2, 4, 2, 5)])
    def test_g_weight_three_in_dual(self, ell, m, r, q):
        C = build_affine_grassmann(ell, m, r, q)
        D = build_dual_code(C)
        pe = PointEnumeration(C.rect, C.field)
        g = dual_min_weight_witness(ell, m, r, q, ("g", 1, 2))
        ev = evaluate([g], pe)[0]
        assert int(np.count_nonzero(ev)) == 3
        assert D.contains(ev)

    @pytest.mark.parametrize("ell,m,r", [(1, 3, 1), (2, 4, 1), (2, 4, 2),
                                         (2, 5, 2)])
    def test_h_weight_four_in_dual(self, ell, m, r):
        C = build_affine_grassmann(ell, m, r, 2)
        D = build_dual_code(C)
        pe = PointEnumeration(C.rect, C.field)
        p2 = (1, 2)
        h = dual_min_weight_witness(ell, m, r, 2, ("h", (1, 1), p2))
        ev = evaluate([h], pe)[0]
        assert int(np.count_nonzero(ev)) == 4
        assert D.contains(ev)

    def test_invalid_witness_params(self):
        with pytest.raises(InvalidWitnessParams):
            dual_min_weight_witness(2, 4, 2, 2, ("g", 1, 2))  # g needs q > 2
        with pytest.raises(InvalidWitnessParams):
            dual_min_weight_witness(2, 4, 2, 3, ("g", 1, 1))  # equal roots
        with pytest.raises(InvalidWitnessParams):
            dual_min_weight_witness(2, 4, 2, 3, ("g", 0, 1))  # zero root
        with pytest.raises(InvalidWitnessParams):
            dual_min_weight_witness(2, 4, 2, 3, ("h", (1, 1), (1, 2)))
        with pytest.raises(InvalidWitnessParams):
            dual_min_weight_witness(1, 2, 1, 2, ("h", (1, 1), (1, 2)))  # l'=1
        with pytest.raises(InvalidWitnessParams):
            dual_min_weight_witness(2, 4, 2, 2, ("h", (1, 1), (2, 2)))  # diag
        with pytest.raises(InvalidWitnessParams):
            dual_min_weight_witness(2, 4, 0, 2, ("h", (1, 1), (1, 2)))
        with pytest.raises(InvalidWitnessParams, match="unknown witness kind"):
            dual_min_weight_witness(2, 4, 2, 2, ("k", 1, 2))


def _self_orth_grid():
    grid = []
    for q in (2, 3, 4):
        for ell in range(1, 4):
            for lp in range(ell, 13):
                delta = ell * lp
                if delta * (q - 1) > 12:
                    continue
                for r in range(1, ell + 1):
                    grid.append((ell, ell + lp, r, q))
    return grid


class TestSelfOrthogonality:
    @pytest.mark.parametrize("ell,m,r,q", _self_orth_grid())
    def test_classification_matches_theorem(self, ell, m, r, q):
        res = self_orthogonality_check(ell, m, r, q)
        assert res["selfOrthogonal"] == res["expectedByTheorem"]

    def test_exception_list(self):
        assert SELF_ORTH_EXCEPTIONS == {(1, 2, 1, 2), (1, 2, 1, 3), (1, 3, 1, 2)}
        for (ell, m, r, q) in SELF_ORTH_EXCEPTIONS:
            assert not self_orthogonality_check(ell, m, r, q)["selfOrthogonal"]


class TestCharSum:
    @pytest.mark.parametrize("q,ell,lp", [(2, 2, 2), (3, 1, 2), (4, 1, 2),
                                          (3, 2, 2)])
    def test_dichotomy(self, q, ell, lp):
        """The point sum of a reduced monomial vanishes unless it is the
        full product, where it equals (-1)^delta."""
        F = make_field(q)
        rect = Rectangle(ell, lp)
        pe = PointEnumeration(rect, F)
        full = full_product(rect, q)
        expected_full = int(F.neg(1)) if rect.delta % 2 else 1
        for mu in all_reduced_monomials(rect, q):
            s = char_sum(mu, pe)
            assert s == (expected_full if mu == full else 0)


class TestMaximalNonForbidden:
    def test_count_for_2_4_2_over_f2(self):
        out = maximal_nonforbidden(2, 4, 2, 2)
        assert len(out) == 4

    @pytest.mark.parametrize("ell,m,r,q", [(2, 4, 1, 2), (2, 4, 2, 2),
                                           (2, 4, 2, 3), (1, 3, 1, 3)])
    def test_exhaustive_maximality(self, ell, m, r, q):
        """Every listed monomial is non-forbidden, and every reduced monomial
        strictly above it (in divisibility) is forbidden; conversely every
        maximal non-forbidden monomial is listed."""
        rect = Rectangle(ell, m - ell)
        forb = forbidden_monomials(ell, m, r, q)
        claimed = maximal_nonforbidden(ell, m, r, q)
        nonforb = [mu for mu in all_reduced_monomials(rect, q)
                   if mu not in forb]
        full = full_product(rect, q)

        def strictly_above(mu):
            return [nu for nu in nonforb
                    if nu != mu and monomial_divides(mu, nu)]

        maximal = {mu for mu in nonforb if not strictly_above(mu)}
        assert claimed == maximal
        assert full not in maximal  # the full product itself is forbidden

    def test_needs_positive_level(self):
        with pytest.raises(SizeOutOfRange):
            maximal_nonforbidden(2, 4, 0, 2)

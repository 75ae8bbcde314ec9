"""Acceptance gate: eleven exact criteria, one pass/fail line each.

Every target is an exact integer identity; there are no tolerances.  Time
budgets are asserted where a criterion carries one.  The weight-4 count of
the big duals is a regression constant pinned from the first run of the
pair-collision search.
"""

import itertools
import math
import time

import numpy as np
import pytest

from agcodes import analysis, linalg
from agcodes import transforms as tr
from agcodes.codes import (PointEnumeration, build_affine_grassmann,
                           build_reed_muller, evaluate, rm_theoretical_params,
                           theoretical_params)
from agcodes.dual import (SELF_ORTH_EXCEPTIONS, build_dual_code, char_sum,
                          dual_basis, dual_min_weight_witness,
                          self_orthogonality_check)
from agcodes.field import make_field
from agcodes.monomials import (Rectangle, SparsePolynomial,
                               all_reduced_monomials, full_product,
                               linear_form_power_basis, monic_split_set,
                               reduce_polynomial)

# Weight-4 codeword count of the [512, 493] and [512, 492] duals, pinned
# from the first run of the support search (criterion 4 regression value).
WEIGHT4_COUNT_512 = 68992


def _record(log, num, ok, text):
    log.append(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def big_codes():
    C2 = build_affine_grassmann(3, 6, 2, 2)
    C3 = build_affine_grassmann(3, 6, 3, 2)
    return C2, C3, build_dual_code(C2), build_dual_code(C3)


def test_criterion_01_small_code_parameters(acceptance_log):
    C = build_affine_grassmann(2, 4, 2, 2)
    elapsed = math.inf
    for _ in range(5):  # best of 5: one run is at the mercy of scheduler noise
        t0 = time.perf_counter()
        rep = analysis.min_distance_exhaustive(C)
        elapsed = min(elapsed, time.perf_counter() - t0)
    p = theoretical_params(2, 4, 2, 2)
    ok = ((C.n, C.k) == (16, 6)
          and rep.min_distance == 6 == p.d
          and rep.min_weight_count == 16 == p.min_weight_count
          and rep.enumerated == 63
          and elapsed < 0.001)
    _record(acceptance_log, 1, ok,
            f"AGC(2,4;2)/F2 = [16,6,6], 16 min-weight words "
            f"({elapsed * 1e6:.0f} us for 63 codewords)")


def test_criterion_02_512_19_192_and_dual(acceptance_log, big_codes):
    C2, _, D2, _ = big_codes
    t0 = time.perf_counter()
    rep = analysis.min_distance_exhaustive(C2)
    lw = analysis.low_weight_dual_search(C2, w_max=4)
    elapsed = time.perf_counter() - t0
    ok = ((C2.n, C2.k) == (512, 19)
          and rep.min_distance == 192
          and (D2.n, D2.k) == (512, 493)
          and lw.min_distance == 4
          and elapsed < 5.0)
    _record(acceptance_log, 2, ok,
            f"AGC(3,6;2)/F2 = [512,19,192], dual [512,493,4] "
            f"({elapsed:.2f}s, budget 5s)")


def test_criterion_03_512_20_168_and_dual(acceptance_log, big_codes):
    _, C3, _, D3 = big_codes
    t0 = time.perf_counter()
    rep = analysis.min_distance_exhaustive(C3)
    lw = analysis.low_weight_dual_search(C3, w_max=4)
    elapsed = time.perf_counter() - t0
    p = theoretical_params(3, 6, 3, 2)
    ok = ((C3.n, C3.k) == (512, 20)
          and rep.min_distance == 168 == p.d
          and rep.min_weight_count == p.min_weight_count == 512
          and (D3.n, D3.k) == (512, 492)
          and lw.min_distance == 4
          and elapsed < 10.0)
    _record(acceptance_log, 3, ok,
            f"AGC(3,6;3)/F2 = [512,20,168], dual [512,492,4] "
            f"({elapsed:.2f}s, budget 10s)")


def test_criterion_04_weight4_counts_equal(acceptance_log, big_codes, macwilliams):
    C2, C3, _, _ = big_codes
    t0 = time.perf_counter()
    lw2 = analysis.low_weight_dual_search(C2, w_max=4)
    lw3 = analysis.low_weight_dual_search(C3, w_max=4)
    elapsed = time.perf_counter() - t0
    # second route, outside the timed region: MacWilliams on the primal
    # weight distributions of the full enumeration
    B4 = [macwilliams({0: 1, **analysis.min_distance_exhaustive(C).weight_counts},
                      C.n, 2, C.k, 4)[4] for C in (C2, C3)]
    ok = (lw2.weight_counts[4] == lw3.weight_counts[4] == WEIGHT4_COUNT_512
          and B4 == [WEIGHT4_COUNT_512] * 2
          and elapsed < 1.0)
    _record(acceptance_log, 4, ok,
            f"weight-4 counts of both duals equal the pinned "
            f"{WEIGHT4_COUNT_512} and their MacWilliams B_4 "
            f"({elapsed:.2f}s, budget 1s)")


def test_criterion_05_span_tests(acceptance_log, big_codes):
    C2, _, D2, D3 = big_codes
    t0 = time.perf_counter()
    C = build_affine_grassmann(2, 4, 2, 2)
    D = build_dual_code(C)
    mw = analysis.min_weight_codewords(C, 6)
    res_primal = analysis.span_generation_test(C, mw)
    w4_small = analysis.dual_codewords_of_weight(C, 4)
    res_small = analysis.span_generation_test(D, w4_small)
    w4_big = analysis.dual_codewords_of_weight(C2, 4)
    res_big = analysis.span_generation_test(D2, w4_big)
    elapsed = time.perf_counter() - t0
    ok = (res_primal == {"rank": 6, "generates": True}
          and res_small == {"rank": 10, "generates": True}
          and res_big["rank"] == 492 == D3.k
          and res_big["rank"] < D2.k
          and not res_big["generates"])
    _record(acceptance_log, 5, ok,
            "min-weight spans: rank 6 (primal), 10 (small dual), "
            f"492 = dim AGC(3,6;3)^perp < 493 (big dual) ({elapsed:.2f}s)")


def test_criterion_06_dual_basis_grid(acceptance_log):
    ok = True
    tested = 0
    for q in (2, 3):
        for ell in (1, 2):
            for lp in range(1, 4):
                if ell > lp:
                    continue
                m = ell + lp
                for r in range(ell + 1):
                    C = build_affine_grassmann(ell, m, r, q)
                    p = theoretical_params(ell, m, r, q)
                    basis = dual_basis(ell, m, r, q)
                    D = build_dual_code(C)  # raises on inexact orthogonality
                    ok &= (len(basis) == p.n - p.k == D.k)
                    ok &= not linalg.matmul(D.generator, C.generator.T,
                                            C.field).any()
                    tested += 1
    _record(acceptance_log, 6, ok,
            f"dual-basis orthogonality and |basis| = n - k on "
            f"{tested} grid points (q in {{2,3}}, l <= 2, l' <= 3, all r)")


def test_criterion_07_self_orthogonality_classification(acceptance_log):
    ok = True
    failures = set()
    tested = 0
    for q in (2, 3, 4):
        for ell in range(1, 4):
            for lp in range(ell, 13):
                if ell * lp * (q - 1) > 12:
                    continue
                m = ell + lp
                for r in range(1, ell + 1):
                    res = self_orthogonality_check(ell, m, r, q)
                    ok &= res["selfOrthogonal"] == res["expectedByTheorem"]
                    if not res["selfOrthogonal"]:
                        failures.add((ell, m, r, q))
                    tested += 1
    ok &= failures == SELF_ORTH_EXCEPTIONS
    _record(acceptance_log, 7, ok,
            f"self-orthogonality fails exactly at (1,2;1;2), (1,2;1;3), "
            f"(1,3;1;2) over {tested} grid points")


def test_criterion_08_dual_minimum_distance(acceptance_log):
    ok = True
    # q > 2: distance 3 plus a weight-3 witness g
    for (ell, m, r, q) in [(1, 2, 1, 3), (1, 3, 1, 3), (2, 4, 1, 3),
                           (2, 4, 2, 3), (1, 2, 1, 4), (1, 2, 1, 5)]:
        C = build_affine_grassmann(ell, m, r, q)
        D = build_dual_code(C)
        lw = analysis.low_weight_dual_search(C, w_max=3)
        ok &= lw.min_distance == 3
        ok &= lw.weight_counts[1] == 0 and lw.weight_counts[2] == 0
        g = dual_min_weight_witness(ell, m, r, q, ("g", 1, 2))
        ev = evaluate([g], PointEnumeration(C.rect, C.field))[0]
        ok &= int(np.count_nonzero(ev)) == 3 and D.contains(ev)
    # q = 2, l' > 1: distance 4 plus a weight-4 witness h
    for (ell, m, r) in [(1, 3, 1), (2, 4, 1), (2, 4, 2), (2, 5, 2)]:
        C = build_affine_grassmann(ell, m, r, 2)
        D = build_dual_code(C)
        lw = analysis.low_weight_dual_search(C, w_max=4)
        ok &= lw.min_distance == 4
        ok &= all(lw.weight_counts[w] == 0 for w in (1, 2, 3))
        h = dual_min_weight_witness(ell, m, r, 2, ("h", (1, 1), (1, 2)))
        ev = evaluate([h], PointEnumeration(C.rect, C.field))[0]
        ok &= int(np.count_nonzero(ev)) == 4 and D.contains(ev)
    _record(acceptance_log, 8, ok,
            "dual distance 3 (q > 2, witness g) and 4 (q = 2, l' > 1, "
            "witness h), no lower-weight words")


def test_criterion_09_reed_muller_cross_checks(acceptance_log):
    ok = True
    # level-1 codes coincide with first-order Reed-Muller codes
    for (ell, m, q) in [(2, 4, 2), (2, 4, 3), (1, 3, 2), (2, 5, 2)]:
        C1 = build_affine_grassmann(ell, m, 1, q)
        rm1 = build_reed_muller(1, ell * (m - ell), q)
        ok &= linalg.rowspace_equal(C1.generator, rm1.generator, C1.field)
    # RM(2,4)/F_2: distance 4 with 140 minimum-weight words
    rm24 = build_reed_muller(2, 4, 2)
    rep = analysis.min_distance_exhaustive(rm24)
    p24 = rm_theoretical_params(2, 4, 2)
    ok &= (rep.min_distance, rep.min_weight_count) == (4, 140)
    ok &= (p24.d, p24.min_weight_count) == (4, 140)
    # RM duality over the delta(q-1) <= 8 grid
    pairs = 0
    for q, delta in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                     (3, 2), (3, 3), (3, 4), (4, 2), (5, 2)]:
        F = make_field(q)
        top = delta * (q - 1)
        for r in range(top):
            rm = build_reed_muller(r, delta, q)
            rm_dual = build_reed_muller(top - r - 1, delta, q)
            H = linalg.nullspace(rm.generator, F)
            ok &= linalg.rowspace_equal(H, rm_dual.generator, F)
            pairs += 1
    _record(acceptance_log, 9, ok,
            f"AGC(l,m;1) = RM(1,delta); RM(2,4)/F2 = [16,11,4] with 140 "
            f"min words; RM duality on {pairs} (r, delta, q) pairs")


def test_criterion_10_automorphism_suite(acceptance_log):
    ok = True
    rng = np.random.default_rng(2024)
    # 200 random affine maps preserve the code and its dual
    grid = [(2, 4, 2, 2), (2, 4, 1, 2), (2, 4, 2, 3), (1, 3, 1, 4)]
    for (ell, m, r, q) in grid:
        C = build_affine_grassmann(ell, m, r, q)
        D = build_dual_code(C)
        pe = PointEnumeration(C.rect, C.field)
        for _ in range(50):
            T = tr.random_transform(C.rect, C.field, rng)
            perm = tr.induced_permutation(T, pe)
            ok &= tr.is_automorphism(C, perm)
            ok &= tr.is_automorphism(D, perm)
    # the induced-permutation map is a homomorphism
    F3 = make_field(3)
    rect = Rectangle(1, 2)
    pe3 = PointEnumeration(rect, F3)
    for _ in range(100):
        T1 = tr.random_transform(rect, F3, rng)
        T2 = tr.random_transform(rect, F3, rng)
        lhs = tr.induced_permutation(tr.compose(T1, T2), pe3)
        rhs = tr.induced_permutation(T1, pe3).compose(
            tr.induced_permutation(T2, pe3))
        ok &= lhs == rhs
    # (2,4,q=2): exactly 576 distinct induced permutations; transpose is an
    # automorphism lying outside that subgroup
    C = build_affine_grassmann(2, 4, 2, 2)
    pe = PointEnumeration(C.rect, C.field)
    perms = tr.all_induced_permutations(C.rect, C.field, pe)
    ok &= len(perms) == 576 == tr.subgroup_order_bound(2, 4, 2)
    tp = tr.transpose_permutation(pe)
    ok &= tr.is_automorphism(C, tp) and tp not in perms
    _record(acceptance_log, 10, ok,
            "200 random affine automorphisms, homomorphism on 100 pairs, "
            "576 distinct maps for (2,4;q=2), transpose outside the subgroup")


def test_criterion_11_property_suites(acceptance_log):
    ok = True
    rng = np.random.default_rng(11)
    # reduction idempotence and faithfulness
    for q in (2, 3, 4):
        F = make_field(q)
        rect = Rectangle(1, 2)
        for _ in range(10):
            terms = {tuple(int(e) for e in rng.integers(0, 3 * q, 2)):
                     int(rng.integers(1, q)) for _ in range(4)}
            f = SparsePolynomial(F, rect, terms)
            g = reduce_polynomial(f)
            ok &= g.is_reduced() and reduce_polynomial(g) == g
            for pt in itertools.product(range(q), repeat=2):
                ok &= f.evaluate_at(pt) == g.evaluate_at(pt)
    # evaluation injectivity on reduced polynomials: the monomial
    # evaluation matrix has full rank q^delta
    for q, delta in [(2, 4), (2, 8), (3, 4), (4, 2), (5, 2)]:
        F = make_field(q)
        rect = Rectangle(1, delta)
        pe = PointEnumeration(rect, F)
        E = evaluate([SparsePolynomial.monomial(F, rect, mu)
                      for mu in all_reduced_monomials(rect, q)], pe)
        ok &= linalg.rank(E, F) == q ** delta
    # char-sum dichotomy
    for q, ell, lp in [(2, 2, 2), (3, 1, 2), (4, 1, 2)]:
        F = make_field(q)
        rect = Rectangle(ell, lp)
        pe = PointEnumeration(rect, F)
        full = full_product(rect, q)
        want = int(F.neg(1)) if rect.delta % 2 else 1
        for mu in all_reduced_monomials(rect, q):
            ok &= char_sum(mu, pe) == (want if mu == full else 0)
    # monic split sets: M_d[T] spans degree <= d (rank d+1) and M_{q-1}[T]
    # is a basis of the univariate reduced polynomials (q of them, rank q)
    for q in (3, 4, 5):
        F = make_field(q)
        for d in range(1, q):
            S = monic_split_set(F, d)
            M = np.zeros((len(S), d + 1), dtype=np.uint8)
            for i, coeffs in enumerate(S):
                M[i, :len(coeffs)] = coeffs
            ok &= len(S) == math.comb(q, d)
            ok &= linalg.rank(M, F) == d + 1
        ok &= len(monic_split_set(F, q - 1)) == q
    # linear-form power bases have full rank q^s for s <= 4
    for q, s in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
        F = make_field(q)
        forms = np.eye(s, dtype=int)
        forms[0] = 1  # still triangular, hence independent
        basis = linear_form_power_basis(F, forms.tolist())
        pe = PointEnumeration(Rectangle(1, s), F)
        E = evaluate(basis, pe)
        ok &= linalg.rank(E, F) == q ** s
    _record(acceptance_log, 11, ok,
            "reduction, injectivity, char-sum dichotomy, split-set and "
            "linear-form basis ranks all exact")

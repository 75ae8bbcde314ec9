"""Weight analysis: enumeration, support search, spans, counterexample."""

import hashlib
import itertools
import json
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcodes import analysis, linalg, transforms
from agcodes.codes import (Code, build_affine_grassmann, build_reed_muller,
                           rm_theoretical_params, theoretical_params)
from agcodes.dual import build_dual_code
from agcodes.errors import (DimensionMismatch, RankTooLow, TooLarge,
                            Unsupported, WMaxUnsupported, WordNotInCode)
from agcodes.field import make_field, undigits


def _brute_force_dual_words(C, w):
    """Every dual word of weight w, in order of support, then coefficients:
    every support times every nonzero coefficient vector on it, checked
    against the generator."""
    F, G = C.field, C.generator
    coeffs = np.array(list(itertools.product(range(1, F.q), repeat=w)),
                      dtype=np.uint8).reshape(-1, w)
    # multiples[j, c - 1] = c times column j
    multiples = F.mul(np.arange(1, F.q, dtype=np.uint8)[None, :, None], G.T[:, None, :])
    words = [np.zeros((0, C.n), dtype=np.uint8)]
    for supp in itertools.combinations(range(C.n), w):
        acc = np.zeros((1, C.k), dtype=np.uint8)
        for j in supp:  # the sums for every coefficient vector, in coeffs' order
            acc = F.add(acc[:, None], multiples[j][None, :]).reshape(-1, C.k)
        found = coeffs[~acc.any(axis=1)]
        block = np.zeros((len(found), C.n), dtype=np.uint8)
        block[:, list(supp)] = found
        words.append(block)
    return np.concatenate(words)


def _brute_force_counts(C, w_max):
    """Number of dual words of each weight 1..w_max, by brute force."""
    return {w: len(_brute_force_dual_words(C, w)) for w in range(1, w_max + 1)}


def _first_nonzero(words):
    """The first nonzero entry of each row."""
    return words[np.arange(len(words)), np.argmax(words != 0, axis=1)]


def _class_name(F, col):
    """A projective class, named by the smallest of its nonzero multiples."""
    return min(tuple(F.mul(t, np.asarray(col, dtype=np.uint8)).tolist())
               for t in range(1, F.q))


def _class_sizes(C):
    """Sizes of the projective classes of the nonzero columns."""
    sizes = {}
    for col in C.generator.T:
        if col.any():
            name = _class_name(C.field, col)
            sizes[name] = sizes.get(name, 0) + 1
    return list(sizes.values())


def _brute_force_words(C):
    """The codeword of every nonzero message, from F.add and F.mul alone."""
    F, G = C.field, C.generator
    msgs = np.array(list(itertools.product(range(F.q), repeat=C.k))[1:],
                    dtype=np.uint8).reshape(-1, C.k)
    words = np.zeros((len(msgs), C.n), dtype=np.uint8)
    for j in range(C.k):
        words = F.add(words, F.mul(msgs[:, j][:, None], G[j][None, :]))
    return words


@st.composite
def small_generators(draw):
    """Small generators over q <= 16: either pairwise non-proportional
    nonzero columns plus a few zero columns, or columns that are random,
    zero, or a nonzero multiple of an earlier column."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
    F = make_field(q)
    n_max = 7 if q >= 8 else 9
    distinct = draw(st.booleans())
    k = draw(st.integers(2 if distinct else 1, 4))
    vec = st.lists(st.integers(0, q - 1), min_size=k, max_size=k)
    if distinct:
        cols = draw(st.lists(vec.filter(any), min_size=3, max_size=n_max,
                             unique_by=lambda v: _class_name(F, v)))
        cols += [[0] * k] * draw(st.integers(0, min(2, n_max - len(cols))))
        cols = draw(st.permutations(cols))
    else:
        cols = []
        for _ in range(draw(st.integers(1, n_max))):
            kind = draw(st.sampled_from(["random", "zero", "multiple"]))
            if kind == "zero":
                cols.append([0] * k)
            elif kind == "multiple" and cols:
                t = draw(st.integers(1, q - 1))
                cols.append(F.mul(t, np.array(draw(st.sampled_from(cols)),
                                              dtype=np.uint8)).tolist())
            else:
                cols.append(draw(vec))
    return Code(field=F, generator=np.array(cols, dtype=np.uint8).T)


@st.composite
def generators_with_all_ones_row(draw):
    """Random generators with the all-ones row at a random position, and
    perhaps a duplicate of it and a zero row, over q = 2 (drawn more
    often) and q > 2; n crosses one 64-coordinate word."""
    q = draw(st.sampled_from([2, 2, 2, 3, 4, 5, 7, 8, 9, 16]))
    k = draw(st.integers(0, {2: 6, 3: 5, 4: 4, 5: 3}.get(q, 2)))
    n = draw(st.integers(0, 70))
    rows = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(0, q, (k, n))
    extra = [np.ones(n)] + draw(st.lists(st.sampled_from([np.ones(n), np.zeros(n)]),
                                         max_size=2))
    for row in extra:
        rows = np.insert(rows, draw(st.integers(0, len(rows))), row, axis=0)
    return Code(field=make_field(q), generator=rows.astype(np.uint8))


class TestExhaustiveEnumeration:
    @pytest.mark.parametrize("q,ell,m,r", [(2, 2, 4, 1), (2, 2, 4, 2),
                                           (3, 1, 2, 1), (3, 2, 4, 1),
                                           (4, 1, 2, 1)])
    def test_matches_theory(self, q, ell, m, r):
        C = build_affine_grassmann(ell, m, r, q)
        rep = analysis.min_distance_exhaustive(C)
        p = theoretical_params(ell, m, r, q)
        assert rep.min_distance == p.d
        assert rep.enumerated == q ** C.k - 1
        if p.min_weight_count is not None:
            assert rep.min_weight_count == p.min_weight_count

    @settings(max_examples=80, deadline=None)
    @given(small_generators(), st.integers(0, 9))
    def test_matches_brute_force(self, C, keep):
        """Weight distribution and the words of one weight, against every
        message combined with F.add and F.mul alone."""
        words = _brute_force_words(C)
        weights = np.count_nonzero(words, axis=1).tolist()
        rep = analysis.min_distance_exhaustive(C)
        assert rep.weight_counts == Counter(weights)
        assert rep.min_distance == min(weights)
        assert rep.min_weight_count == weights.count(rep.min_distance)
        got = analysis.min_weight_codewords(C, keep)
        listed = np.array(weights) == keep
        if keep:  # one word per projective class
            listed &= _first_nonzero(words) == 1
        assert sorted(w.tobytes() for w in got) == \
            sorted(w.tobytes() for w in words[listed])

    @settings(max_examples=80, deadline=None)
    @given(generators_with_all_ones_row())
    def test_classes_match_brute_force(self, C):
        """The fold of the all-ones row over F_2 and the scalar classes over
        q > 2 are exact on messages, with dependent, duplicate and zero
        rows."""
        weights = np.count_nonzero(_brute_force_words(C), axis=1).tolist()
        rep = analysis.min_distance_exhaustive(C)
        assert rep.weight_counts == Counter(weights)
        assert (rep.min_distance, rep.min_weight_count) == \
            (min(weights), weights.count(min(weights)))
        assert (rep.method, rep.enumerated) == ("full-enumeration", len(weights))

    @pytest.mark.parametrize("q,ell,m,r", [(2, 2, 4, 2), (2, 2, 4, 1), (2, 3, 6, 2),
                                           (3, 2, 5, 2), (4, 2, 4, 2), (9, 2, 4, 1)])
    def test_one_message_per_class(self, q, ell, m, r, monkeypatch):
        """The enumeration meets one message of each class.  Over F_2 the
        all-ones row 0 of an AGC generator is left out, so the table rows
        times the -h met are 2^(k-1), half of the messages.  Over q > 2 the
        table meets the zero -h and one of each class of q - 1 nonzero
        multiples: 1 + (q^(k-lo) - 1) / (q - 1) of the q^(k-lo)."""
        C = build_affine_grassmann(ell, m, r, q)
        rows, combinations = [], analysis._combinations

        def counting(F, M, classes=False):
            out = list(combinations(F, M, classes))
            rows.append(sum(map(len, out)))
            return iter(out)
        monkeypatch.setattr(analysis, "_combinations", counting)
        rep = analysis.min_distance_exhaustive(C)
        assert rep.enumerated == sum(rep.weight_counts.values()) == q ** C.k - 1
        low, met = rows  # the table of the first rows, then the -h side
        if q == 2:
            assert low * met == 2 ** (C.k - 1)
        else:
            assert (q - 1) * (met - 1) == q ** C.k // low - 1

    def test_large_q_within_budget(self):
        """AGC(2,4;1)/F9 (k = 5, n = 6561) walks the table against one -h
        of each scalar class: best of 3 within 0.12 s."""
        C = build_affine_grassmann(2, 4, 1, 9)
        elapsed = math.inf
        for _ in range(3):  # best of 3: one run is at the mercy of scheduler noise
            t0 = time.perf_counter()
            rep = analysis.min_distance_exhaustive(C)
            elapsed = min(elapsed, time.perf_counter() - t0)
        # level 1 is first-order RM(1, 4): the min-weight words are the
        # q (q^4 - 1) nonconstant affine functions vanishing on a hyperplane
        assert (rep.min_distance, rep.min_weight_count) == \
            (theoretical_params(2, 4, 1, 9).d, 9 * (9 ** 4 - 1))
        assert elapsed < 0.12, f"{elapsed:.3f} s"

    def test_no_rows(self):
        C = Code(field=make_field(3), generator=np.zeros((0, 5), dtype=np.uint8))
        rep = analysis.min_distance_exhaustive(C)
        assert (rep.min_distance, rep.min_weight_count, rep.enumerated,
                rep.weight_counts) == (None, 0, 0, {})
        words = analysis.min_weight_codewords(C, 0)
        assert words.shape == (0, 5) and words.dtype == np.uint8

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_repeated_rows_give_weight_zero(self, q):
        G = np.array([[1, 1, 0, 1], [1, 1, 0, 1], [0, 1, 1, 1]], dtype=np.uint8)
        C = Code(field=make_field(q), generator=G)
        rep = analysis.min_distance_exhaustive(C)
        assert (rep.min_distance, rep.min_weight_count) == (0, q - 1)
        assert sum(rep.weight_counts.values()) == rep.enumerated == q ** 3 - 1
        zeros = analysis.min_weight_codewords(C, 0)
        assert len(zeros) == q - 1 and not np.any(zeros)

    @pytest.mark.parametrize("q,ell,m,r", [(2, 2, 4, 1), (3, 2, 4, 2),
                                           (4, 2, 4, 2), (16, 1, 2, 1),
                                           (2, 2, 6, 1), (2, 2, 6, 2),
                                           (2, 3, 6, 2)])
    def test_macwilliams_matches_support_search(self, q, ell, m, r, macwilliams):
        """The dual counts B_1..B_4 by the MacWilliams transform of the full
        weight distribution, a route that shares no code with the search."""
        C = build_affine_grassmann(ell, m, r, q)
        A = analysis.min_distance_exhaustive(C).weight_counts
        assert 0 not in A and sum(A.values()) == q ** C.k - 1
        dual = macwilliams({0: 1, **A}, C.n, q, C.k, 4)
        assert dual == analysis.low_weight_dual_search(C, 4).weight_counts

    def test_cap(self, monkeypatch):
        C = build_affine_grassmann(3, 6, 3, 2)
        monkeypatch.setattr(analysis, "DEFAULT_ENUM_CAP", 1000)
        with pytest.raises(TooLarge):
            analysis.min_distance_exhaustive(C)

    def test_report_json_schema(self):
        C = build_affine_grassmann(1, 2, 1, 2)
        rep = analysis.min_distance_exhaustive(C)
        data = json.loads(rep.to_json())
        assert set(data) == {"d", "count", "method", "enumerated"}
        assert data["method"] == "full-enumeration"

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_bit_planes_across_words_and_blocks(self, q, n, monkeypatch):
        """Weights and words against brute force when a row spans several
        uint64 words, the last one partial, and _BLOCK_CELLS is patched to
        the table-size thresholds (8 b W q^j bytes, and 1.5 times that), so
        the low table is built in several chunks, the -h side comes in
        several blocks, and batches of -h end part-way through a block."""
        F = make_field(q)
        k = {2: 8, 3: 5, 4: 4, 5: 4}.get(q, 3)
        G = np.random.default_rng(1000 * q + n).integers(0, q, (k, n)).astype(np.uint8)
        C = Code(field=F, generator=G)
        # row 0's coefficient varies fastest, as in the enumeration's order
        words = _brute_force_words(Code(field=F, generator=G[::-1]))
        weights = np.count_nonzero(words, axis=1)
        light, common = int(weights.min()), int(np.bincount(weights).argmax())
        b, nwords = (q - 1).bit_length(), -(-n // 64)
        blocks, combinations = [], analysis._combinations

        def counting(F, M, classes=False):
            out = list(combinations(F, M, classes))
            blocks.append(len(out))
            return iter(out)
        monkeypatch.setattr(analysis, "_combinations", counting)
        split = False
        for cap in sorted({f * b * nwords * q ** j for j in range(1, k) for f in (8, 12)}):
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cap)
            blocks.clear()
            assert analysis.min_distance_exhaustive(C).weight_counts == \
                Counter(weights.tolist())
            split |= min(blocks) >= 2  # the low table and the -h side
            for d in (light, common):
                listed = weights == d
                if q > 2:  # one word per projective class
                    listed &= _first_nonzero(words) == 1
                assert np.array_equal(analysis.min_weight_codewords(C, d), words[listed])
        assert split


class TestLowWeightSearch:
    @pytest.mark.parametrize("q,ell,m,r", [(2, 2, 4, 1), (2, 2, 4, 2),
                                           (3, 1, 2, 1), (3, 1, 3, 1),
                                           (4, 1, 2, 1)])
    def test_counts_match_dual_enumeration(self, q, ell, m, r):
        """The search on the primal counts exactly the low-weight words that
        full enumeration of the dual finds."""
        C = build_affine_grassmann(ell, m, r, q)
        D = build_dual_code(C)
        rep = analysis.low_weight_dual_search(C, w_max=4)
        # enumerate the dual completely and histogram weights 1..4
        hist = {w: 0 for w in range(1, 5)}
        F = D.field
        total = q ** D.k
        assert total <= 2 ** 16
        digits = np.zeros(D.k, dtype=np.int64)
        acc = np.zeros(D.n, dtype=np.uint8)
        for _ in range(total - 1):
            j = 0
            while digits[j] == q - 1:
                acc = F.sub(acc, F.mul(int(digits[j]), D.generator[j]))
                digits[j] = 0
                j += 1
            acc = F.sub(acc, F.mul(int(digits[j]), D.generator[j]))
            digits[j] += 1
            acc = F.add(acc, F.mul(int(digits[j]), D.generator[j]))
            w = int(np.count_nonzero(acc))
            if w <= 4:
                hist[w] += 1
        assert rep.weight_counts == hist

    @settings(max_examples=120, deadline=None)
    @given(small_generators())
    def test_counts_match_brute_force(self, C):
        """Exact counts, or Unsupported only for proportional columns in
        more than one projective class; weights <= 2 are always exact."""
        expected = _brute_force_counts(C, 4)
        sizes = _class_sizes(C)
        low = analysis.low_weight_dual_search(C, w_max=2).weight_counts
        assert low == {w: expected[w] for w in (1, 2)}
        try:
            rep = analysis.low_weight_dual_search(C, w_max=4)
        except Unsupported:
            assert len(sizes) > 1 and max(sizes) > 1
            return
        assert not (len(sizes) > 1 and max(sizes) > 1)
        assert rep.weight_counts == expected

    @settings(max_examples=120, deadline=None)
    @given(small_generators())
    def test_collect_yields_dual_words_of_stated_weight(self, C):
        """Listing the words of weight w raises Unsupported exactly when the
        generator has a zero column (w >= 2) or two proportional columns
        (w >= 3)."""
        F = C.field
        zero = not C.generator.any(axis=0).all()
        degenerate = zero or max(_class_sizes(C)) > 1
        for w in range(1, 5):
            try:
                words = analysis.dual_codewords_of_weight(C, w)
            except Unsupported:
                assert (zero and w >= 2) or (degenerate and w >= 3)
                continue
            assert not ((zero and w >= 2) or (degenerate and w >= 3))
            assert words.dtype == np.uint8 and words.shape[1:] == (C.n,)
            assert (np.count_nonzero(words, axis=1) == w).all()
            assert not linalg.matmul(C.generator, words.T, F).any()
            assert (_first_nonzero(words) == 1).all()  # one word per class
            count = analysis.low_weight_dual_search(C, w_max=w).weight_counts[w]
            assert len(words) * (F.q - 1) == count

    @pytest.mark.parametrize("q,ell,m,r", [(q, 1, 2, 1) for q in (2, 3, 4, 5, 7, 8, 9, 16)]
                             + [(3, 1, 3, 1), (4, 1, 3, 1), (2, 2, 4, 1), (2, 2, 4, 2)])
    def test_words_match_brute_force_on_agc(self, q, ell, m, r):
        """The words of each weight are exactly the brute-force dual words
        whose first nonzero entry is 1, in the same order.  On
        AGC(1,2;1)/F_q all columns lie on one projective line, so each
        4-column support has a 2-dimensional kernel and carries q - 3
        words: its q + 1 projective points less one zero per column."""
        C = build_affine_grassmann(ell, m, r, q)
        for w in range(1, 5):
            expected = _brute_force_dual_words(C, w)
            expected = expected[_first_nonzero(expected) == 1]
            assert np.array_equal(analysis.dual_codewords_of_weight(C, w), expected)

    @settings(max_examples=60, deadline=None)
    @given(small_generators())
    def test_words_match_brute_force(self, C):
        """The same, on small generators, for every weight the search lists."""
        for w in range(1, 5):
            try:
                words = analysis.dual_codewords_of_weight(C, w)
            except Unsupported:
                continue
            expected = _brute_force_dual_words(C, w)
            assert np.array_equal(words, expected[_first_nonzero(expected) == 1])

    def test_weight_four_words_within_budget(self):
        """AGC(2,4;1)/F3 has 63180 projective weight-4 dual words."""
        C = build_affine_grassmann(2, 4, 1, 3)
        t0 = time.perf_counter()
        words = analysis.dual_codewords_of_weight(C, 4)
        assert time.perf_counter() - t0 < 2.0
        assert len(words) * 2 == analysis.low_weight_dual_search(C).weight_counts[4]

    @pytest.mark.parametrize("code,w", [
        ((2, 2, 4, 2), 4), ((3, 2, 4, 2), 3), ((4, 1, 2, 1), 4),
        ([[0, 1, 0, 2], [1, 0, 2, 0]], 2), ([[0, 1, 0], [0, 0, 1]], 1),
    ], ids=["agc-f2-w4", "agc-f3-w3", "agc-f4-w4", "proportional-w2", "zero-w1"])
    def test_word_matrix_cap(self, code, w, monkeypatch):
        """A word matrix above MAX_WORD_CELLS raises TooLarge before any
        word is formed; one at the cap is listed.  _pair_words reads the
        supports off the kernel's sorted keys at w >= 3, _ranges off the
        column runs at w = 2 (at w >= 3 the kernel counts with it), and
        _words forms the matrix."""
        if isinstance(code, tuple):
            q, ell, m, r = code
            C = build_affine_grassmann(ell, m, r, q)
        else:
            C = Code(field=make_field(3), generator=np.array(code, dtype=np.uint8))
        cells = analysis.dual_codewords_of_weight(C, w).size
        assert cells
        monkeypatch.setattr(analysis, "MAX_WORD_CELLS", cells)
        assert analysis.dual_codewords_of_weight(C, w).size == cells
        monkeypatch.setattr(analysis, "MAX_WORD_CELLS", cells - 1)

        def forbidden(*args):
            raise AssertionError("words formed above the cap")
        monkeypatch.setattr(analysis, "_words", forbidden)
        monkeypatch.setattr(analysis, "_pair_words", forbidden)
        if w == 2:
            monkeypatch.setattr(analysis, "_ranges", forbidden)
        with pytest.raises(TooLarge):
            analysis.dual_codewords_of_weight(C, w)

    @pytest.mark.parametrize("q,ell,m,r", [(2, 2, 4, 1), (3, 2, 4, 2), (4, 1, 3, 1)])
    def test_kernel_looks_up_no_pair(self, q, ell, m, r, monkeypatch):
        """The kernel sorts the pair keys and looks the column keys up in
        them: _find, the orbit route's lookup, is never called, whether it
        counts or lists."""
        C = build_affine_grassmann(ell, m, r, q)
        expected = analysis.low_weight_dual_search(C).weight_counts
        copy = Code(field=C.field, generator=np.array(C.generator))

        def forbidden(*args):
            raise AssertionError("_find called by the kernel")
        monkeypatch.setattr(analysis, "_find", forbidden)
        for w in (3, 4):
            rep = analysis.low_weight_dual_search(copy, w_max=w)
            assert rep.method == "support-search"
            assert rep.weight_counts == {v: expected[v] for v in range(1, w + 1)}
            words = analysis.dual_codewords_of_weight(copy, w)
            assert len(words) == expected[w] // (q - 1)

    @pytest.mark.parametrize("q,ell,m,r", [(2, 2, 4, 1), (3, 2, 4, 2), (4, 1, 3, 1)])
    def test_counts_over_tiny_blocks(self, q, ell, m, r, monkeypatch):
        """With _BLOCK_CELLS at 5, the pair keys are formed one row at a
        time and sum C(g, 2) is taken over many blocks, each extended to
        the end of the run it cuts; the counts and words do not change."""
        C = build_affine_grassmann(ell, m, r, q)
        copy = Code(field=C.field, generator=np.array(C.generator))
        expected = analysis.low_weight_dual_search(copy).weight_counts
        words = analysis.dual_codewords_of_weight(copy, 4)
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 5)
        assert analysis.low_weight_dual_search(copy).weight_counts == expected
        assert np.array_equal(analysis.dual_codewords_of_weight(copy, 4), words)

    def test_level_zero_counts(self):
        rep = analysis.low_weight_dual_search(build_affine_grassmann(2, 4, 0, 2))
        assert rep.weight_counts == {1: 0, 2: 120, 3: 0, 4: 1820}
        C = build_affine_grassmann(2, 4, 0, 3)
        t0 = time.perf_counter()
        rep = analysis.low_weight_dual_search(C, w_max=4)
        assert time.perf_counter() - t0 < 1.0
        assert rep.weight_counts[4] == math.comb(81, 4) * (2 ** 4 + 2) // 3

    def test_mixed_proportional_columns_unsupported(self):
        F = make_field(3)
        G = np.array([[1, 2, 0, 1], [0, 0, 1, 1]], dtype=np.uint8)
        C = Code(field=F, generator=G)
        assert analysis.low_weight_dual_search(C, w_max=2).weight_counts == {1: 0, 2: 2}
        with pytest.raises(Unsupported):
            analysis.low_weight_dual_search(C, w_max=3)

    def test_key_and_size_limits(self):
        F = make_field(2)
        wide = Code(field=F, generator=np.eye(64, dtype=np.uint8))
        with pytest.raises(Unsupported):
            analysis.low_weight_dual_search(wide, w_max=3)
        n = 8200  # (q-1) C(n, 2) > MAX_PAIR_COMBINATIONS
        bits = (np.arange(1, n + 1)[None, :] >> np.arange(14)[:, None]) & 1
        long = Code(field=F, generator=bits.astype(np.uint8))
        with pytest.raises(TooLarge):
            analysis.low_weight_dual_search(long, w_max=3)

    def test_columns_past_63_bits_count_to_weight_2(self):
        """RM(15, 1) over F_16 has k = 16: q^k = 2^64 keys no column in
        int64.  Without meta it takes the kernel, which needs no pair key
        at w_max <= 2 and groups the columns by their bytes."""
        R = build_reed_muller(15, 1, 16)
        F, G = R.field, R.generator
        plain = Code(field=F, generator=G)
        assert analysis.low_weight_dual_search(plain, w_max=1).weight_counts == {1: 0}
        assert analysis.low_weight_dual_search(plain, w_max=2).weight_counts == {1: 0, 2: 0}
        with pytest.raises(Unsupported):
            analysis.low_weight_dual_search(plain, w_max=3)
        t = 7  # column 16 is t times column 3
        prop = Code(field=F, generator=np.c_[G, F.mul(t, G[:, 3])])
        words = analysis.dual_codewords_of_weight(prop, 2)
        expected = np.zeros((1, 17), dtype=np.uint8)
        expected[0, 3], expected[0, 16] = 1, F.neg(F.inv_table[t])
        assert words.tolist() == expected.tolist()
        assert analysis.low_weight_dual_search(prop, w_max=2).weight_counts == {1: 0, 2: 15}
        # one zero column (z = 1) and one class of 2 (B'_2 = (q-1) C(2, 2)):
        # B_1 = (q-1) B'_0 and B_2 = B'_2 + (q-1) B'_1
        both = Code(field=F, generator=np.c_[prop.generator, np.zeros(16, dtype=np.uint8)])
        assert analysis.low_weight_dual_search(both, w_max=2).weight_counts == {1: 15, 2: 15}
        assert analysis.dual_codewords_of_weight(both, 1).tolist() == [[0] * 17 + [1]]

    def test_wmax_validation(self):
        C = build_affine_grassmann(2, 4, 2, 2)
        with pytest.raises(WMaxUnsupported):
            analysis.low_weight_dual_search(C, w_max=5)
        with pytest.raises(WMaxUnsupported):
            analysis.low_weight_dual_search(C, w_max=0)

    @pytest.mark.parametrize("w", [3.0, 2.0, True, False, "3", None])
    def test_wmax_must_be_an_int(self, w):
        """A float, a bool or a string is no weight: it raises
        WMaxUnsupported instead of failing inside the search (True would
        otherwise be read as 1)."""
        C = build_affine_grassmann(2, 4, 2, 3)
        with pytest.raises(WMaxUnsupported):
            analysis.low_weight_dual_search(C, w_max=w)
        with pytest.raises(WMaxUnsupported):
            analysis.dual_codewords_of_weight(C, w)
        assert analysis.low_weight_dual_search(C, w_max=np.int64(3)).weight_counts == \
            analysis.low_weight_dual_search(C, w_max=3).weight_counts

    def test_collect_returns_valid_dual_words(self):
        C = build_affine_grassmann(2, 4, 2, 2)
        D = build_dual_code(C)
        rep = analysis.low_weight_dual_search(C, w_max=4)
        words = analysis.dual_codewords_of_weight(C, 4)
        assert rep.min_distance == 4
        assert len(words) == rep.min_weight_count  # q = 2: one word each
        assert all(D.contains(vec) for vec in words)

    @pytest.mark.parametrize("q,ell,m,r", [(2, 2, 4, 2), (2, 3, 6, 2), (3, 1, 3, 1)])
    def test_dense_words_in_support_order(self, q, ell, m, r):
        """dual_codewords_of_weight returns one C-contiguous uint8 matrix
        ((0, n) when there are no words) whose rows are distinct and sorted
        by support."""
        C = build_affine_grassmann(ell, m, r, q)
        for w in (2, 3, 4):
            words = analysis.dual_codewords_of_weight(C, w)
            assert isinstance(words, np.ndarray) and words.dtype == np.uint8
            assert words.ndim == 2 and words.shape[1] == C.n
            assert words.flags.c_contiguous
            supports = np.nonzero(words)[1].reshape(len(words), w).tolist()
            assert supports == sorted(supports)
            assert len({x.tobytes() for x in words}) == len(words)
        assert analysis.dual_codewords_of_weight(C, 2).shape == (0, C.n)

    def test_proportional_pairs_collected_in_support_order(self):
        F = make_field(3)
        # classes {1, 3} (key 1) and {0, 2} (key 3): key order is not support order
        C = Code(field=F, generator=np.array([[0, 1, 0, 2], [1, 0, 2, 0]], dtype=np.uint8))
        assert analysis.dual_codewords_of_weight(C, 1).shape == (0, 4)
        assert np.array_equal(analysis.dual_codewords_of_weight(C, 2),
                              [[1, 0, 1, 0], [0, 1, 0, 1]])

    @pytest.mark.parametrize("q", [3, 4, 16])
    def test_entries_outside_the_field_rejected(self, q):
        """An entry >= q would index past the field's tables.  Code
        rejects it, and so does the search, as min_distance_exhaustive
        does, on a generator that was changed after construction."""
        bad = np.array([[1, 0, 1], [1, q, 1]], dtype=np.uint8)
        with pytest.raises(ValueError):
            Code(field=make_field(q), generator=bad)
        C = Code(field=make_field(q), generator=np.zeros_like(bad))
        C.generator[:] = bad
        for call in [lambda: analysis.low_weight_dual_search(C, w_max=4),
                     lambda: analysis.dual_codewords_of_weight(C, 4),
                     lambda: analysis.dual_codewords_of_weight(C, 3),
                     lambda: analysis.min_distance_exhaustive(C)]:
            with pytest.raises(ValueError):
                call()

    def test_detects_planted_low_weight_words(self):
        """A hand-built generator with a zero column and two dependent
        column triples must be reported at weights 1 and 3."""
        F = make_field(2)
        G = np.array([
            [1, 1, 0, 0, 1, 0],
            [0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 1],
        ], dtype=np.uint8)
        # column 3 is zero; {0,1,2} and {0,4,5} are dependent triples
        C = Code(field=F, generator=G)
        rep = analysis.low_weight_dual_search(C, w_max=3)
        assert rep.weight_counts == {1: 1, 2: 0, 3: 2}
        assert rep.min_distance == 1

    def test_generic_field_weights(self):
        F = make_field(3)
        G = np.array([
            [1, 2, 0, 1],
            [0, 0, 0, 2],
        ], dtype=np.uint8)
        # columns 0 and 1 are proportional; column 2 is zero
        C = Code(field=F, generator=G)
        rep = analysis.low_weight_dual_search(C, w_max=2)
        assert rep.weight_counts[1] == 2  # q - 1 words on the zero column
        assert rep.weight_counts[2] == 2  # q - 1 words on the pair


@pytest.mark.parametrize("q", [3, 16])
@pytest.mark.parametrize("shape", [(40, 5), (7, 3, 6), (5, 0), (30, 16), (30, 41)])
def test_normalize_lead_is_the_first_nonzero_digit(q, shape):
    """_normalize's lead is the first nonzero digit of each vector, or 1
    for a zero vector, on any number of axes, at k = 0 and past the 63-bit
    integer key; the scaled vector times the lead is the vector, and every
    nonzero multiple of a vector has its key."""
    F = make_field(q)
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    V = (rng.integers(0, q, size=shape) * (rng.random(shape) < 0.3)).astype(np.uint8)
    flat = V.reshape(math.prod(shape[:-1]), shape[-1])
    flat[::4] = 0  # zero vectors
    scaled, lead, key = analysis._normalize(F, V)
    want = [next((x for x in row if x), 1) for row in flat.tolist()]
    assert lead.shape == key.shape == shape[:-1] and lead.ravel().tolist() == want
    assert np.array_equal(F.mul(lead[..., None], scaled), V)
    assert (key.dtype.kind == "V") == (q ** shape[-1] > 2 ** 63)
    for t in (2, q - 1):
        assert np.array_equal(analysis._normalize(F, F.mul(t, V))[2], key)


def test_xor_keys_find_the_column_of_a_sum():
    """Over F_2 with integer keys _combine XORs the column keys and forms
    no vector; _find then gives, on axes (b, t_1, t_2), the column c with
    D_0 + D_a + D_b = D_c, or -1."""
    C = build_affine_grassmann(3, 6, 2, 2)
    D = np.ascontiguousarray(C.generator.T)
    keys = undigits(D, 2)
    order = np.argsort(keys)
    b = np.arange(2, C.n)
    for a in (1, 7, 100):
        combined = analysis._combine(C.field, D[:, None], keys, 0, a, b)
        found = analysis._find((keys[order], order), combined[1])
        assert found.shape == combined[0].shape == (C.n - 2, 1, 1)
        want = [next((c for c in range(C.n) if not (D[0] ^ D[a] ^ D[x] ^ D[c]).any()), -1)
                for x in b.tolist()]
        assert found.ravel().tolist() == want


def _kernel(C, w_max):
    """The sort-and-group kernel's report on C's generator: a Code
    without meta never takes the orbit route."""
    rep = analysis.low_weight_dual_search(Code(C.field, C.generator), w_max)
    assert rep.method == "support-search"
    return rep


# Every level r >= 1 of AGC(l, m) for each q, and some RM codes, all within
# the kernel's pair cap (n <= 4096) and fast enough for it.
_ORBIT_CODES = (
    [("AGC", ell, m, r, q) for ell, m, q in [(2, 4, 2), (2, 6, 2), (3, 6, 2), (2, 4, 3),
                                            (2, 5, 3), (2, 4, 4), (1, 4, 4), (2, 4, 5),
                                            (1, 3, 7), (1, 4, 7), (1, 3, 8), (1, 4, 8),
                                            (1, 3, 9), (1, 4, 9), (1, 2, 16), (1, 3, 16)]
     for r in range(1, ell + 1)]
    + [("RM", r, delta, q) for r, delta, q in [(1, 3, 2), (2, 4, 2), (3, 5, 2), (1, 2, 3),
                                              (2, 3, 3), (3, 2, 4), (1, 2, 5), (4, 2, 7)]])


def _build(spec):
    kind, *args = spec
    return build_affine_grassmann(*args) if kind == "AGC" else build_reed_muller(*args)


# Every F_2 AGC and RM code of length n <= 512 at every level r >= 1.
_F2_CODES = ([("AGC", ell, m, r, 2) for ell, m in [(1, m) for m in range(2, 11)]
              + [(2, 4), (2, 5), (2, 6), (3, 6)] for r in range(1, ell + 1)]
             + [("RM", r, delta, 2) for delta in range(1, 10) for r in range(1, delta + 1)])


def _listed(C, w):
    """dual_codewords_of_weight(C, w), or the type of the refusal."""
    try:
        return analysis.dual_codewords_of_weight(C, w)
    except (TooLarge, Unsupported) as err:
        return type(err)


def _plane_calls(monkeypatch):
    """Count the calls of analysis._plane_words."""
    calls, real = [], analysis._plane_words

    def counting(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(analysis, "_plane_words", counting)
    return calls


class TestOrbitRoute:
    @pytest.mark.parametrize("spec", _ORBIT_CODES, ids=lambda s: "-".join(map(str, s)))
    def test_counts_match_the_kernel(self, spec):
        """A built code at r >= 1 takes the orbit route, and its counts
        are the kernel's at every w_max; lookups number (q-1) per class
        at weight 3 and (q-1)^2 (n-2) more at weight 4."""
        C = _build(spec)
        q, n = C.field.q, C.n
        classes = len(transforms.rank_classes(C.rect, q))
        for w in (1, 2, 3, 4):
            rep, kernel = analysis.low_weight_dual_search(C, w), _kernel(C, w)
            assert rep.method == "orbit"
            assert rep.weight_counts == kernel.weight_counts
            assert (rep.min_distance, rep.min_weight_count) == \
                (kernel.min_distance, kernel.min_weight_count)
            lookups = classes * ((q - 1) * (w >= 3) + (q - 1) ** 2 * (n - 2) * (w >= 4))
            assert rep.enumerated == lookups

    @pytest.mark.parametrize("ell,m,r,q,b3,b4", [
        (2, 4, 2, 9, 48988800, 596108315520),
        (3, 6, 2, 3, 2217618, 1437016464),
        (4, 8, 2, 2, 0, 197836800),
        (4, 8, 3, 2, 0, 197836800),
        (4, 8, 4, 2, 0, 197836800),
    ])
    def test_counts_beyond_the_kernel_cap(self, ell, m, r, q, b3, b4):
        """Codes whose pair keys pass MAX_PAIR_COMBINATIONS (n = 6561,
        19683, 65536) are counted by the orbit route alone: AGC(4,8;2)/F2
        (k = 53) on integer column keys, AGC(4,8;3) and AGC(4,8;4) (k = 69
        and 70) on byte keys."""
        C = build_affine_grassmann(ell, m, r, q)
        t0 = time.perf_counter()
        rep = analysis.low_weight_dual_search(C, w_max=4)
        assert time.perf_counter() - t0 < 3.0
        assert rep.weight_counts == {1: 0, 2: 0, 3: b3, 4: b4}
        with pytest.raises((TooLarge, Unsupported)):
            _kernel(C, 4)

    @pytest.mark.parametrize("ell,m,q", [(2, 4, 2), (3, 6, 2), (3, 7, 2), (4, 8, 2),
                                         (2, 4, 3), (2, 5, 3), (2, 4, 4), (1, 3, 5),
                                         (1, 4, 7), (1, 3, 8), (2, 4, 9), (1, 3, 16)])
    def test_level_one_closed_form(self, ell, m, q):
        """Level 1 is RM(1, delta), whose dual RM(delta(q-1) - 2, delta)
        has its minimum distance and minimum-weight count in closed form:
        a second route that shares no code with the search."""
        delta = ell * (m - ell)
        p = rm_theoretical_params(delta * (q - 1) - 2, delta, q)
        rep = analysis.low_weight_dual_search(build_affine_grassmann(ell, m, 1, q), w_max=4)
        assert rep.method == "orbit"
        assert (rep.min_distance, rep.min_weight_count) == (p.d, p.min_weight_count)
        if (ell, m, q) == (4, 8, 2):  # 2^14 [16 choose 2]_2, the affine planes of F_2^16
            assert rep.min_weight_count == 11727587164160

    def test_build_functions_return_read_only_generators(self):
        for C in (build_affine_grassmann(2, 4, 2, 3), build_reed_muller(2, 3, 3)):
            with pytest.raises(ValueError):
                C.generator[0, 0] = 0

    def test_changed_generator_takes_the_kernel(self):
        """A generator made writeable again and changed is no longer the
        code that was built: the kernel counts it."""
        C = build_affine_grassmann(2, 4, 2, 3)
        before = analysis.low_weight_dual_search(C, w_max=4).weight_counts
        C.generator.flags.writeable = True
        C.generator[-1, 0] = 1  # a 2 x 2 minor of 1 at the zero point
        rep = analysis.low_weight_dual_search(C, w_max=4)
        assert rep.method == "support-search"
        assert rep.weight_counts == _kernel(C, 4).weight_counts != before

    def test_permuted_copy_with_meta_takes_the_kernel(self):
        """Column-permuted generators carrying AGC meta, as a copy or as a
        read-only view, reach the kernel: the group acts on the point order
        of the built code only."""
        C = build_affine_grassmann(2, 4, 2, 3)
        want = analysis.low_weight_dual_search(C, w_max=4).weight_counts
        perm = np.random.default_rng(0).permutation(C.n)
        for G in (C.generator[:, perm], C.generator[:, ::-1]):
            P = Code(C.field, G, meta=dict(C.meta), rect=C.rect)
            rep = analysis.low_weight_dual_search(P, w_max=4)
            assert rep.method == "support-search"
            assert rep.weight_counts == want  # a permutation keeps every weight

    def test_code_without_meta_takes_the_kernel(self):
        """The kernel keeps criterion 4's pin on the two n = 512 codes."""
        for r in (2, 3):
            C = build_affine_grassmann(3, 6, r, 2)
            assert _kernel(C, 4).weight_counts[4] == 68992
            assert analysis.low_weight_dual_search(C, 4).weight_counts[4] == 68992

    @pytest.mark.parametrize("spec", _F2_CODES, ids=lambda s: "-".join(map(str, s)))
    def test_plane_words_match_the_kernel(self, spec, monkeypatch):
        """An F_2 code at r >= 1 with integer column keys lists its weight-4
        words as affine planes, and they are the kernel's words on a plain
        copy byte for byte, or both refuse alike: TooLarge past
        MAX_WORD_CELLS, Unsupported on byte keys (k > 63).  Past 2^24
        cells (the 690,880 words of RM(1, 8)) the supports that the shared
        _words receives are compared, sorted, in place of the matrix."""
        C = _build(spec)
        copy = Code(C.field, np.array(C.generator))
        calls = _plane_calls(monkeypatch)
        if analysis.low_weight_dual_search(C, 4).weight_counts[4] * C.n > 2 ** 24:
            monkeypatch.setattr(analysis, "_words", lambda F, lead, supports, coeffs:
                                supports[np.lexsort(supports.T[::-1])])
        planes = _listed(C, 4)
        assert len(calls) == isinstance(planes, np.ndarray) == (C.k <= 63 and planes is not TooLarge)
        kernel = _listed(copy, 4)
        assert len(calls) <= 1  # the copy takes the kernel
        if isinstance(planes, np.ndarray):
            assert isinstance(kernel, np.ndarray) and planes.dtype == kernel.dtype
            assert np.array_equal(planes, kernel)
        else:
            assert planes is kernel

    def test_plane_route_needs_no_pair_search(self, monkeypatch):
        """The built codes list their weight-4 words with _pair_search
        replaced by a function that raises; the words are the kernel's on
        a plain copy, and the 68,992 of criterion 4 at n = 512."""
        codes = [build_affine_grassmann(3, 6, 2, 2), build_affine_grassmann(2, 5, 2, 2),
                 build_reed_muller(1, 5, 2)]
        expected = [analysis.dual_codewords_of_weight(Code(C.field, np.array(C.generator)), 4)
                    for C in codes]

        def forbidden(*args):
            raise AssertionError("_pair_search called")
        monkeypatch.setattr(analysis, "_pair_search", forbidden)
        for C, words in zip(codes, expected):
            assert np.array_equal(analysis.dual_codewords_of_weight(C, 4), words)
        assert len(expected[0]) == 68992
        with pytest.raises(AssertionError, match="_pair_search"):
            analysis.dual_codewords_of_weight(Code(codes[0].field, np.array(codes[0].generator)), 4)

    def test_mutant_the_translations_do_not_fix_raises(self):
        """A generator with one column changed to a new nonzero column, held
        read-only with the built code's meta, shape and rect, passes the
        admission of _orbit_classes, but the translations no longer fix it:
        listing its weight-4 words raises AssertionError (the orbit counts
        or the plane check) and returns no words, for every column."""
        for ell, m, r in [(2, 4, 2), (2, 5, 2)]:
            C = build_affine_grassmann(ell, m, r, 2)
            present = set(undigits(C.generator.T, 2).tolist())
            spare = next(v for v in range(1, 2 ** C.k) if v not in present)
            for c in range(C.n):
                G = np.array(C.generator)
                G[:, c] = (spare >> np.arange(C.k)) & 1
                G.flags.writeable = False
                mutant = Code(C.field, G, meta=dict(C.meta), rect=C.rect)
                assert analysis._orbit_classes(mutant) is not None
                with pytest.raises(AssertionError, match="group does not fix"):
                    analysis.dual_codewords_of_weight(mutant, 4)

    def test_plane_check_refuses_what_does_not_match(self):
        """_plane_words checks, by one rank, that the unit translations
        and the affine functions keep G's row space, then every listed
        word against the keys and their number against the orbit count:
        a generator one translation does not fix, a key changed at one
        point, or a count off by one, raises AssertionError."""
        C = build_affine_grassmann(2, 5, 2, 2)
        G, keys = C.generator, undigits(C.generator.T, 2)
        count = analysis.low_weight_dual_search(C, 4).weight_counts[4]
        supports, coeffs = analysis._plane_words(G, keys, count)
        assert coeffs is None and supports.shape == (count, 4)
        assert (np.diff(supports, axis=1) > 0).all()
        for wrong in (count - 1, count + 1):
            with pytest.raises(AssertionError, match="plane words"):
                analysis._plane_words(G, keys, wrong)
        for point in (0, 5, C.n - 1):
            changed = keys.copy()
            changed[point] ^= 1 << (C.k - 1)
            with pytest.raises(AssertionError, match="plane words"):
                analysis._plane_words(G, changed, count)
        moved = np.array(G)
        moved[:, [0, 1]] = moved[:, [1, 0]]  # the map swapping points 0 and 1 alone
        with pytest.raises(AssertionError, match="translations"):
            analysis._plane_words(moved, keys, count)

    def test_permuted_and_changed_f2_copies_list_on_the_kernel(self, monkeypatch):
        """Over F_2, a column-permuted copy with the built code's meta and a
        changed generator list their weight-4 words on the kernel, never as
        planes: the permuted words are the built code's, permuted."""
        C = build_affine_grassmann(2, 5, 2, 2)
        words = analysis.dual_codewords_of_weight(C, 4)
        calls = _plane_calls(monkeypatch)
        perm = np.random.default_rng(1).permutation(C.n)
        for G in (C.generator[:, perm], np.ascontiguousarray(C.generator[:, perm])):
            P = Code(C.field, G, meta=dict(C.meta), rect=C.rect)
            listed = analysis.dual_codewords_of_weight(P, 4)
            assert sorted(x.tobytes() for x in listed) == \
                sorted(x.tobytes() for x in words[:, perm])
        changed = build_affine_grassmann(2, 5, 2, 2)
        changed.generator.flags.writeable = True
        changed.generator[-1, 0] = 1
        listed = analysis.dual_codewords_of_weight(changed, 4)
        assert not linalg.matmul(changed.generator, listed.T, C.field).any()
        assert len(listed) == analysis.low_weight_dual_search(changed, 4).weight_counts[4]
        assert calls == []

    @pytest.mark.parametrize("meta", [{"kind": "AGC", "ell": 2, "m": 4, "r": 2, "q": 2},
                                      {"kind": "AGC", "ell": 2, "m": 4, "r": 0, "q": 3},
                                      {"kind": "AGC", "ell": 2, "m": 4, "r": 1, "q": 3}],
                             ids=["other-q", "level-0", "other-shape"])
    def test_meta_that_does_not_name_the_code_takes_the_kernel(self, meta):
        C = build_affine_grassmann(2, 4, 2, 3)
        rep = analysis.low_weight_dual_search(Code(C.field, C.generator, meta=meta), 4)
        assert rep.method == "support-search"


@pytest.mark.parametrize("w", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3])
def test_words_of_a_code_of_length_zero(q, w):
    """A code with no coordinates has no word, or dual word, of any
    positive weight."""
    C = Code(make_field(q), np.zeros((2, 0), dtype=np.uint8))
    assert analysis.dual_codewords_of_weight(C, w).shape == (0, 0)
    assert analysis.min_weight_codewords(C, w).shape == (0, 0)


class TestMinWeightWords:
    def test_small_code_words(self):
        C = build_affine_grassmann(2, 4, 2, 2)
        words = analysis.min_weight_codewords(C, 6)
        assert len(words) == 16
        assert all(int(np.count_nonzero(w)) == 6 for w in words)

    def test_words_of_a_weight_above_the_minimum(self):
        C = build_affine_grassmann(2, 4, 2, 2)
        words = analysis.min_weight_codewords(C, 8)
        assert len(words) == 30
        assert len({w.tobytes() for w in words}) == 30
        assert all(int(np.count_nonzero(w)) == 8 and C.contains(w) for w in words)
        C3 = build_affine_grassmann(1, 3, 1, 3)  # minimum weight 6
        words = analysis.min_weight_codewords(C3, 9)
        assert words.tolist() == [[1] * 9]  # the constants, one per class

    def test_dual_route_when_too_large(self, monkeypatch):
        C = build_affine_grassmann(3, 6, 2, 2)
        D = build_dual_code(C)
        monkeypatch.setattr(analysis, "DEFAULT_ENUM_CAP", 2 ** 10)
        words = analysis.min_weight_codewords(D, 4)
        assert len(words) > 0
        assert all(int(np.count_nonzero(w)) == 4 for w in words)

    def test_returns_one_uint8_matrix(self, monkeypatch):
        """Both routes return a C-contiguous (m, n) uint8 matrix, (0, n)
        when no word has the weight."""
        C = build_affine_grassmann(2, 4, 2, 2)
        D = build_dual_code(build_affine_grassmann(3, 6, 2, 2))
        full = analysis.DEFAULT_ENUM_CAP
        for code, d, cap, m in [(C, 6, full, 16), (C, 5, full, 0),
                                (D, 4, 2 ** 10, 68992), (D, 3, 2 ** 10, 0)]:
            monkeypatch.setattr(analysis, "DEFAULT_ENUM_CAP", cap)
            words = analysis.min_weight_codewords(code, d)
            assert isinstance(words, np.ndarray) and words.dtype == np.uint8
            assert words.shape == (m, code.n) and words.flags.c_contiguous

    def test_large_q_forms_only_the_words_it_keeps(self):
        """AGC(2,4;1)/F9 has 59,040 words of weight 5832 (387 MB), one in
        q - 1 = 8 of them with first entry 1.  min_weight_codewords reads
        each hit's first entry from the bit-planes and forms only those
        7,380: the traced peak stays under 160 MiB (forming every multiple
        first peaked at about 740 MiB), and the words, in message order,
        have the digest of that route."""
        C = build_affine_grassmann(2, 4, 1, 9)
        tracemalloc.start()
        try:
            words = analysis.min_weight_codewords(C, 5832)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert words.shape == (7380, 6561) and (_first_nonzero(words) == 1).all()
        assert (np.count_nonzero(words, axis=1) == 5832).all()
        assert hashlib.sha256(words.tobytes()).hexdigest() == \
            "1ec13d6a676e529e0dd7851c26ec8a4974c745d67b0ac340a479095923d5740e"
        assert peak < 160 * 2 ** 20, f"{peak / 2 ** 20:.0f} MiB"

    @pytest.mark.parametrize("q,ell,m,r,d", [(3, 1, 2, 1, 3), (3, 1, 3, 1, 3),
                                             (3, 1, 3, 1, 4), (2, 2, 4, 2, 4)])
    def test_both_routes_list_the_same_words(self, q, ell, m, r, d, monkeypatch):
        """Enumeration and the support search list the same set of rows,
        one per projective class (first nonzero entry 1); on the dual of
        AGC(1,2;1)/F3 that is the one row [1, 1, 1]."""
        D = build_dual_code(build_affine_grassmann(ell, m, r, q))
        full = analysis.min_weight_codewords(D, d)
        monkeypatch.setattr(analysis, "DEFAULT_ENUM_CAP", 1)
        search = analysis.min_weight_codewords(D, d)
        assert len(full) and (_first_nonzero(full) == 1).all()
        assert sorted(w.tobytes() for w in full) == sorted(w.tobytes() for w in search)

    @pytest.mark.parametrize("q", [2, 3])
    def test_negative_weight_has_no_words(self, q, monkeypatch):
        """d < 0, like d > n, gives the empty (0, n) matrix on both routes,
        before any enumeration or search."""
        C = build_affine_grassmann(1, 2, 1, q)
        D = build_dual_code(C)
        for code, cap in [(C, analysis.DEFAULT_ENUM_CAP), (D, analysis.DEFAULT_ENUM_CAP),
                          (D, 1)]:
            monkeypatch.setattr(analysis, "DEFAULT_ENUM_CAP", cap)
            for d in (-1, -5, code.n + 1):
                words = analysis.min_weight_codewords(code, d)
                assert words.dtype == np.uint8 and words.shape == (0, code.n)

    def test_no_route_raises(self, monkeypatch):
        C = build_affine_grassmann(3, 6, 2, 2)
        D = build_dual_code(C)
        monkeypatch.setattr(analysis, "DEFAULT_ENUM_CAP", 2 ** 10)
        with pytest.raises(TooLarge):
            analysis.min_weight_codewords(D, 5)

    @pytest.mark.parametrize("d", [True, 2.0, 2.5, "2", None])
    def test_weight_must_be_an_int(self, d, monkeypatch):
        """A bool, float or anything else is refused on both routes, where
        True and 2.0 would read as 1 and 2, and 2.5 as no words; a numpy
        int is an int."""
        C = build_affine_grassmann(1, 2, 1, 3)
        D = build_dual_code(C)
        for code, cap in [(C, analysis.DEFAULT_ENUM_CAP), (D, analysis.DEFAULT_ENUM_CAP),
                          (D, 1)]:
            monkeypatch.setattr(analysis, "DEFAULT_ENUM_CAP", cap)
            with pytest.raises(TypeError):
                analysis.min_weight_codewords(code, d)
            d_min = 6 if code is C else 3
            assert (analysis.min_weight_codewords(code, np.int64(d_min)).tolist()
                    == analysis.min_weight_codewords(code, d_min).tolist())


def test_enumeration_takes_no_matrix_product(monkeypatch):
    """Full enumeration builds its tables by field lookups: it runs with
    linalg.matmul replaced by a spy that raises."""
    codes = [build_affine_grassmann(2, 5, 2, 3), build_affine_grassmann(3, 6, 2, 2)]
    expected = [(432, 2106), (192, 784)]  # d of theoretical_params; criterion 2

    def no_product(*args, **kwargs):
        raise AssertionError("linalg.matmul called")
    monkeypatch.setattr(linalg, "matmul", no_product)
    for C, (d, count) in zip(codes, expected):
        rep = analysis.min_distance_exhaustive(C)
        assert (rep.min_distance, rep.min_weight_count) == (d, count)
        words = analysis.min_weight_codewords(C, d)
        assert len(words) == count // (C.field.q - 1)
        assert (np.count_nonzero(words, axis=1) == d).all()


class TestSpanGeneration:
    def test_generator_rows_generate(self):
        C = build_affine_grassmann(2, 4, 2, 2)
        res = analysis.span_generation_test(C, list(C.generator))
        assert res == {"rank": 6, "generates": True}

    def test_partial_span(self):
        C = build_affine_grassmann(2, 4, 2, 2)
        res = analysis.span_generation_test(C, list(C.generator[:3]))
        assert res["rank"] == 3 and not res["generates"]

    def test_word_outside_code_rejected(self):
        C = build_affine_grassmann(2, 4, 2, 2)
        bad = np.zeros(C.n, dtype=np.uint8)
        bad[0] = 1
        with pytest.raises(WordNotInCode):
            analysis.span_generation_test(C, [bad])

    def test_bad_word_last_in_a_later_syndrome_block(self):
        """Every word is tested, up to the last one of each syndrome block."""
        D = build_dual_code(build_affine_grassmann(3, 6, 2, 2))
        step = 2 ** 22 // D.n  # rows per syndrome block of the certificate
        words = D.generator[np.arange(2 * step + 5) % D.k]
        assert analysis.span_generation_test(D, words)["rank"] == D.k
        words[2 * step - 1, 0] ^= 1
        with pytest.raises(WordNotInCode):
            analysis.span_generation_test(D, words)

    def test_word_matrix_is_not_copied(self):
        """On the 68992 weight-4 words of AGC(3,6;2)/F2 (33.7 MiB) the span
        test allocates less than half of what a copy of the words would."""
        C = build_affine_grassmann(3, 6, 2, 2)
        D = build_dual_code(C)
        words = analysis.dual_codewords_of_weight(C, 4)
        D.parity_check()
        tracemalloc.start()
        try:
            res = analysis.span_generation_test(D, words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res["rank"] == 492
        assert peak < words.nbytes / 2

    def test_no_rank_of_the_word_matrix(self, monkeypatch):
        """The 68992 weight-4 words of AGC(3,6;2)/F2 get their rank from
        the certificate: linalg.rank never sees a matrix of that many
        rows."""
        C = build_affine_grassmann(3, 6, 2, 2)
        D = build_dual_code(C)
        words = analysis.dual_codewords_of_weight(C, 4)
        real = linalg.rank
        rows = []
        monkeypatch.setattr(linalg, "rank", lambda M, F: rows.append(len(M)) or real(M, F))
        assert analysis.span_generation_test(D, words)["rank"] == 492
        assert len(words) == 68992 and max(rows, default=0) < len(words)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_rank_matches_linalg_rank(self, q, monkeypatch):
        """The rank is linalg.rank of the words, for AGC(2,4;1)/F_q and its
        dual, on sets of random codewords, and on one whose strided sample
        (every second row of 4n) is one word repeated, so the syndrome
        pass finds rows outside its span and runs again."""
        kernel = "_gf2_kernel" if q == 2 else "nullspace"
        for C in (build_affine_grassmann(2, 4, 1, q),
                  build_dual_code(build_affine_grassmann(2, 4, 1, q))):
            F, n = C.field, C.n
            C.parity_check()  # cached now, so the spy below counts only the certificate
            rng = np.random.default_rng(q)

            def codewords(m):
                return linalg.matmul(rng.integers(0, q, (m, C.k)), C.generator, F)
            for m in (1, 3, 2 * n + 7, 5 * n):
                M = codewords(m)
                assert analysis.span_generation_test(C, M)["rank"] == linalg.rank(M, F)
            M = codewords(4 * n)
            M[::2] = M[0]
            calls = []
            real = getattr(linalg, kernel)
            monkeypatch.setattr(linalg, kernel, lambda *a: calls.append(1) or real(*a))
            res = analysis.span_generation_test(C, M)
            monkeypatch.setattr(linalg, kernel, real)
            assert len(calls) >= 2
            assert res == {"rank": linalg.rank(M, F), "generates": linalg.rank(M, F) == C.k}

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_word_outside_the_sample_rejected(self, q):
        """A word outside the code at an odd row of 4n rows, which the
        strided sample (every second row) misses, raises WordNotInCode."""
        for C in (build_affine_grassmann(2, 4, 1, q),
                  build_dual_code(build_affine_grassmann(2, 4, 1, q))):
            F = C.field
            rng = np.random.default_rng(q)
            M = linalg.matmul(rng.integers(0, q, (4 * C.n, C.k)), C.generator, F)
            M[2 * C.n + 1, 0] = F.add(M[2 * C.n + 1, 0], 1)
            with pytest.raises(WordNotInCode):
                analysis.span_generation_test(C, M)

    @pytest.mark.parametrize("q,ell,m,r,rank", [(3, 2, 4, 1, 76), (3, 2, 4, 2, 75),
                                                (4, 1, 3, 1, 13), (4, 2, 4, 2, 250),
                                                (16, 1, 2, 1, 14)])
    def test_weight_three_words_generate_the_dual(self, q, ell, m, r, rank):
        """For q > 2 the dual has minimum weight 3 and is generated by its
        weight-3 words (one per projective class is enough)."""
        C = build_affine_grassmann(ell, m, r, q)
        D = build_dual_code(C)
        words = analysis.dual_codewords_of_weight(C, 3)
        assert rank == D.k == C.n - C.k
        assert analysis.span_generation_test(D, words) == {"rank": rank, "generates": True}

    @pytest.mark.parametrize("cut", [lambda G: G[0], lambda G: G[:, :-1], lambda G: G[:0, :-1]],
                             ids=["one-1d-word", "rows-too-short", "no-rows-too-short"])
    def test_word_shape_checked(self, cut):
        """A single 1-D word, or rows whose length is not n, are rejected
        as Code.contains rejects them."""
        C = build_affine_grassmann(2, 4, 2, 2)
        with pytest.raises(DimensionMismatch):
            analysis.span_generation_test(C, cut(C.generator))

    def test_empty_word_list(self):
        """No words generate only the zero code, whatever its row count."""
        C = build_affine_grassmann(2, 4, 2, 2)
        assert analysis.span_generation_test(C, []) == \
            {"rank": 0, "generates": False}
        Z = Code(make_field(2), np.zeros((2, 3), dtype=np.uint8))
        assert analysis.span_generation_test(Z, []) == {"rank": 0, "generates": True}

    def test_repeated_generator_rows_generate(self):
        """A generator with dependent rows is generated by its own rows:
        generation compares with the rank of G, not its row count."""
        G = [[1, 1, 0], [1, 1, 0]]
        res = analysis.span_generation_test(Code(make_field(2), G), G)
        assert res == {"rank": 1, "generates": True}

    def test_dual_dimension_needs_no_rank_of_its_generator(self, monkeypatch):
        """For a dual from build_dual_code, dim is n - rank of the primal's
        generator: linalg.rank never sees the (n - k) x n generator."""
        C = build_affine_grassmann(2, 4, 2, 3)
        D = build_dual_code(C)
        words = analysis.dual_codewords_of_weight(C, 3)
        real = linalg.rank
        seen = []
        monkeypatch.setattr(linalg, "rank", lambda M, F: seen.append(M) or real(M, F))
        assert analysis.span_generation_test(D, words) == {"rank": D.k, "generates": True}
        assert not any(M is D.generator for M in seen)


class TestRankCounterexample:
    def test_rank_two_coefficients_flagged(self):
        c = [[1, 0], [0, 1]]
        assert analysis.rank_counterexample_check(2, 2, 2, c)

    def test_rank_one_rejected(self):
        with pytest.raises(RankTooLow):
            analysis.rank_counterexample_check(2, 2, 2, [[1, 1], [1, 1]])
        with pytest.raises(RankTooLow):
            analysis.rank_counterexample_check(2, 1, 2, [[1, 1]])

    def test_shape_must_be_the_grid(self):
        """The rank test and the polynomial read the same l x l' matrix:
        a 3 x 3 c on a 2 x 2 grid, whose leading block has rank 1, is
        refused rather than judged by its full rank 2."""
        for c in [[[1, 0, 0], [0, 0, 0], [0, 0, 1]], [[1, 0], [0, 1], [0, 0]], [1, 0, 0, 1]]:
            with pytest.raises(DimensionMismatch):
                analysis.rank_counterexample_check(2, 2, 2, c)
        with pytest.raises(ValueError):
            analysis.rank_counterexample_check(2, 2, 2, [[1, 0], [0, 3]])

    @pytest.mark.parametrize("q", [2, 3])
    def test_larger_grid(self, q):
        c = np.zeros((2, 3), dtype=int)
        c[0, 0] = 1
        c[1, 1] = 1
        assert analysis.rank_counterexample_check(q, 2, 3, c)

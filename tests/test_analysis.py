"""Weight analysis: enumeration, support search, spans, counterexample."""

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

from agcodes import analysis, linalg
from agcodes.codes import (Code, build_affine_grassmann, build_reed_muller,
                           theoretical_params)
from agcodes.dual import build_dual_code
from agcodes.errors import (DimensionMismatch, RankTooLow, TooLarge,
                            Unsupported, WMaxUnsupported, WordNotInCode)
from agcodes.field import make_field


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

        def counting(F, M):
            out = list(combinations(F, M))
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
        word is formed; one at the cap is listed."""
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
        monkeypatch.setattr(analysis, "_group_pairs", forbidden)
        with pytest.raises(TooLarge):
            analysis.dual_codewords_of_weight(C, w)

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
        step = 2 ** 22 // D.n  # rows per syndrome block of Code._contains_rows
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

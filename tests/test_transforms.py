"""Affine transforms, induced permutations, and automorphism checks."""

import numpy as np
import pytest

from agcodes import linalg, transforms as tr
from agcodes.codes import PointEnumeration, build_affine_grassmann
from agcodes.dual import build_dual_code
from agcodes.errors import DimensionMismatch, NotSquare, SingularMatrix
from agcodes.field import make_field
from agcodes.monomials import Rectangle


@pytest.fixture(scope="module")
def setup_224():
    C = build_affine_grassmann(2, 4, 2, 2)
    pe = PointEnumeration(C.rect, C.field)
    return C, pe


class TestPermutation:
    def test_apply_and_compose(self):
        p = tr.Permutation(np.array([2, 0, 1]))
        q = tr.Permutation(np.array([1, 2, 0]))
        word = np.array([10, 20, 30])
        assert list(p.apply(word)) == [30, 10, 20]
        # (p o q)(i) = p(q(i))
        pq = p.compose(q)
        assert list(pq.map) == [int(p.map[q.map[i]]) for i in range(3)]

    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            tr.Permutation(np.array([0, 0, 1]))

    def test_non_integral_map_rejected(self):
        """The int64 cast would read [1.7, 0.2] as the bijection [1, 0]."""
        with pytest.raises(ValueError, match="non-integral"):
            tr.Permutation([1.7, 0.2])
        for bad in [[1 + 1j, 0], [np.inf, 0], [np.nan, 0]]:  # no cast warning either
            with pytest.raises(ValueError, match="non-integral"):
                tr.Permutation(bad)
        assert tr.Permutation([1.0, 0.0]) == tr.Permutation([1, 0])

    def test_map_and_word_shapes_checked(self):
        """A map that is not 1-D is refused, and apply takes only a word of
        length n: [5, 6, 7][[1, 0]] would drop the 7."""
        with pytest.raises(DimensionMismatch):
            tr.Permutation([[1, 0]])
        p = tr.Permutation([1, 0])
        for word in [[5, 6, 7], [5], [[5, 6]]]:
            with pytest.raises(DimensionMismatch):
                p.apply(word)

    def test_hash_and_text(self):
        p = tr.Permutation(np.array([1, 0]))
        assert p == tr.Permutation(np.array([1, 0]))
        assert len({p, tr.Permutation(np.array([1, 0]))}) == 1
        assert p.as_text() == "1 0"


class TestAffineTransform:
    def test_singular_rejected(self):
        F = make_field(2)
        with pytest.raises(SingularMatrix):
            tr.AffineTransform(B=np.zeros((2, 2), dtype=np.uint8),
                               A=np.eye(2, dtype=np.uint8),
                               u=np.zeros((2, 2), dtype=np.uint8), field=F)

    @pytest.mark.parametrize("u", [[[3, 0]], [[0, -1]]])
    def test_translation_outside_field_rejected(self, u):
        """An entry of u outside F_3 raises; read through the flat add
        table, 3 would act as another element."""
        F = make_field(3)
        with pytest.raises(ValueError, match="not an element of F_3"):
            tr.AffineTransform(B=np.eye(1, dtype=np.uint8),
                               A=np.eye(2, dtype=np.uint8), u=u, field=F)

    @pytest.mark.parametrize("u", [[[1]], [[0, 0, 0]], [[0], [0]]])
    def test_translation_of_wrong_shape_rejected(self, u):
        """u = [[1]] on a 1 x 2 grid would broadcast to [[1, 1]]."""
        with pytest.raises(DimensionMismatch):
            tr.AffineTransform(B=np.eye(1, dtype=np.uint8), A=np.eye(2, dtype=np.uint8),
                               u=u, field=make_field(3))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_inverse_roundtrip(self, q):
        F = make_field(q)
        rect = Rectangle(2, 3)
        rng = np.random.default_rng(q)
        T = tr.random_transform(rect, F, rng)
        Tinv = T.inverse()
        P = rng.integers(0, q, size=(2, 3)).astype(np.uint8)
        assert np.array_equal(Tinv.apply(T.apply(P)), P)
        assert np.array_equal(T.apply(Tinv.apply(P)), P)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_inverse_inverts_no_matrix(self, q, monkeypatch):
        """inverse() reuses the inverses the transform already holds: it
        calls linalg.inv_matrix 0 times, and the round trip still holds."""
        F = make_field(q)
        rng = np.random.default_rng(20 + q)
        T = tr.random_transform(Rectangle(2, 3), F, rng)
        calls = []
        real = linalg.inv_matrix
        monkeypatch.setattr(linalg, "inv_matrix", lambda *a: calls.append(a) or real(*a))
        Tinv = T.inverse()
        assert calls == []
        P = rng.integers(0, q, size=(2, 3)).astype(np.uint8)
        assert np.array_equal(Tinv.apply(T.apply(P)), P)
        assert np.array_equal(T.apply(Tinv.apply(P)), P)
        assert np.array_equal(Tinv.inverse().apply(P), T.apply(P))
        assert calls == []

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_composition_law(self, q):
        F = make_field(q)
        rect = Rectangle(2, 2)
        rng = np.random.default_rng(10 + q)
        T1 = tr.random_transform(rect, F, rng)
        T2 = tr.random_transform(rect, F, rng)
        T12 = tr.compose(T1, T2)
        P = rng.integers(0, q, size=(2, 2)).astype(np.uint8)
        assert np.array_equal(T12.apply(P), T1.apply(T2.apply(P)))


class TestInducedPermutation:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_matches_pointwise_application(self, q):
        """The one product over F_q against T.apply at every point, on a
        square rectangle and on non-square ones, where a swapped factor
        order would fail.  Each rectangle also takes a map whose B and A
        are upper unitriangular, hence not symmetric, so that a transposed
        Kronecker factor fails too."""
        F = make_field(q)
        rng = np.random.default_rng(20 + q)
        rects = [Rectangle(2, 2) if q <= 9 else Rectangle(1, 2), Rectangle(1, 3)]
        if q <= 3:
            rects.append(Rectangle(2, 3))
        upper = lambda size: np.triu(np.ones((size, size), dtype=np.uint8))
        for rect in rects:
            pe = PointEnumeration(rect, F)
            u = rng.integers(0, q, size=(rect.ell, rect.ell_prime)).astype(np.uint8)
            for T in (tr.random_transform(rect, F, rng),
                      tr.AffineTransform(B=upper(rect.ell), A=upper(rect.ell_prime),
                                         u=u, field=F)):
                perm = tr.induced_permutation(T, pe)
                for i in range(pe.n):
                    assert perm.map[i] == pe.index_of(T.apply(pe.point(i)))

    def test_homomorphism_on_random_pairs(self):
        F = make_field(3)
        rect = Rectangle(1, 2)
        pe = PointEnumeration(rect, F)
        rng = np.random.default_rng(3)
        for _ in range(25):
            T1 = tr.random_transform(rect, F, rng)
            T2 = tr.random_transform(rect, F, rng)
            lhs = tr.induced_permutation(tr.compose(T1, T2), pe)
            rhs = tr.induced_permutation(T1, pe).compose(
                tr.induced_permutation(T2, pe))
            assert lhs == rhs

    def test_identity_transform_is_identity(self):
        F = make_field(2)
        rect = Rectangle(2, 2)
        pe = PointEnumeration(rect, F)
        perm = tr.induced_permutation(tr.identity_transform(rect, F), pe)
        assert np.array_equal(perm.map, np.arange(pe.n))

    def test_shape_mismatch_rejected(self):
        F = make_field(2)
        pe = PointEnumeration(Rectangle(2, 3), F)
        T = tr.identity_transform(Rectangle(2, 2), F)
        with pytest.raises(DimensionMismatch):
            tr.induced_permutation(T, pe)

    def test_transforms_over_different_fields_rejected(self):
        """compose and induced_permutation name both fields rather than
        mixing one field's codes into the other's arithmetic."""
        rect = Rectangle(1, 2)
        F2, F4 = make_field(2), make_field(4)
        T2, T4 = tr.identity_transform(rect, F2), tr.identity_transform(rect, F4)
        for call in [lambda: tr.compose(T4, T2), lambda: tr.compose(T2, T4),
                     lambda: tr.induced_permutation(T2, PointEnumeration(rect, F4)),
                     lambda: tr.induced_permutation(T4, PointEnumeration(rect, F2))]:
            with pytest.raises(DimensionMismatch, match=r"F_(2|4)\b.*F_(2|4)\b"):
                call()


class TestAutomorphisms:
    def test_random_transforms_preserve_code_and_dual(self, setup_224):
        C, pe = setup_224
        D = build_dual_code(C)
        rng = np.random.default_rng(0)
        for _ in range(30):
            T = tr.random_transform(C.rect, C.field, rng)
            perm = tr.induced_permutation(T, pe)
            assert tr.is_automorphism(C, perm)
            assert tr.is_automorphism(D, perm)

    def test_non_automorphism_detected(self, setup_224):
        C, pe = setup_224
        # swapping just two coordinates of a distance-6 code cannot
        # preserve it
        m = np.arange(C.n)
        m[0], m[1] = 1, 0
        assert not tr.is_automorphism(C, tr.Permutation(m))

    @pytest.mark.parametrize("ell,m,r,q", [(2, 4, 2, 2), (3, 7, 2, 2),
                                           (2, 5, 2, 3), (1, 3, 1, 4)])
    def test_membership_on_the_smaller_side(self, ell, m, r, q, monkeypatch):
        """The primal (k <= n - k) is tested through its generator, and so
        is the dual, whose automorphisms are the primal's: no product with
        the n - k rows of H is formed.  A true automorphism passes on both
        and a cyclic shift fails on both, as the rank of the stacked
        generators says; the primal's nullspace is never built."""
        C = build_affine_grassmann(ell, m, r, q)
        D = build_dual_code(C)
        pe = PointEnumeration(C.rect, C.field)
        rng = np.random.default_rng(q)
        auto = tr.induced_permutation(tr.random_transform(C.rect, C.field, rng), pe)
        shift = tr.Permutation(np.roll(np.arange(C.n), 1))
        for perm, expected in [(auto, True), (shift, False)]:
            assert linalg.rowspace_equal(
                C.generator, C.generator[:, perm.map], C.field) is expected
            assert tr.is_automorphism(C, perm) is expected
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "matmul", None)  # any product would fail
                assert tr.is_automorphism(D, perm) is expected
        for code in (C, D):  # both have minimum distance >= 3
            word = code.generator[-1].copy()
            assert code.contains(word)
            word[0] = C.field.add(word[0], 1)
            assert not code.contains(word)
        assert C._parity is None

    def test_generator_ranked_once(self, monkeypatch):
        """A code caches the rank of its generator: 20 automorphism tests
        rank 20 stacked matrices and the generator once."""
        C = build_affine_grassmann(3, 6, 2, 2)
        pe = PointEnumeration(C.rect, C.field)
        rng = np.random.default_rng(20)
        perms = [tr.induced_permutation(tr.random_transform(C.rect, C.field, rng), pe)
                 for _ in range(20)]
        calls, real = [], linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda *a: calls.append(1) or real(*a))
        assert all(tr.is_automorphism(C, perm) for perm in perms)
        assert len(calls) == 21

    def test_subgroup_order_bound_values(self):
        assert tr.subgroup_order_bound(2, 4, 2) == 576
        assert tr.subgroup_order_bound(1, 2, 3) == (3 * 2 * 2) // 2

    def test_transpose_is_automorphism_outside_subgroup(self, setup_224):
        C, pe = setup_224
        tp = tr.transpose_permutation(pe)
        assert tr.is_automorphism(C, tp)
        perms = tr.all_induced_permutations(C.rect, C.field, pe)
        assert len(perms) == 576
        assert tp not in perms

    def test_transpose_needs_square(self):
        pe = PointEnumeration(Rectangle(2, 3), make_field(2))
        with pytest.raises(NotSquare):
            tr.transpose_permutation(pe)

    def test_permutation_length_checked(self, setup_224):
        C, _ = setup_224
        with pytest.raises(DimensionMismatch):
            tr.is_automorphism(C, tr.Permutation(np.arange(4)))

    def test_needs_a_permutation(self, setup_224):
        """An index array has no n; the error names the type to pass."""
        C, _ = setup_224
        with pytest.raises(TypeError, match="Permutation"):
            tr.is_automorphism(C, np.arange(C.n))


class TestRankClasses:
    @pytest.mark.parametrize("ell,ell_prime,q", [(1, 1, 2), (1, 3, 3), (2, 2, 2), (2, 3, 2),
                                                 (2, 2, 3), (3, 3, 2), (1, 2, 4), (2, 2, 4)])
    def test_classes_are_the_ranks_of_the_points(self, ell, ell_prime, q):
        """Class rho holds the points of rank rho, as many as the rank of
        every point says, and a_rho = [I_rho 0; 0 0] represents it."""
        F, rect = make_field(q), Rectangle(ell, ell_prime)
        pe = PointEnumeration(rect, F)
        ranks = [linalg.rank(pe.point(i), F) for i in range(pe.n)]
        classes = tr.rank_classes(rect, q)
        assert [size for _, size in classes] == \
            [ranks.count(rho) for rho in range(1, min(ell, ell_prime) + 1)]
        for rho, (index, _) in enumerate(classes, start=1):
            a = np.zeros((ell, ell_prime), dtype=np.uint8)
            a[range(rho), range(rho)] = 1
            assert np.array_equal(pe.point(index), a)

    def test_sizes_are_not_floored_factor_by_factor(self):
        """At l = l' = 3 over F_2, N_2 = 49 * 36 / 6; flooring 49 / 3
        first gives another size and a wrong B_4."""
        assert [size for _, size in tr.rank_classes(Rectangle(3, 3), 2)] == [49, 294, 168]

    @pytest.mark.parametrize("delta,q", [(1, 2), (4, 2), (5, 3), (2, 16)])
    def test_reed_muller_rectangle_has_one_class(self, delta, q):
        assert tr.rank_classes(Rectangle(1, delta), q) == [(1, q ** delta - 1)]

"""Affine maps P -> B P A^{-1} + u and their coordinate permutations.

Every such map permutes the point set and the induced permutation is an
automorphism of the level-r code for every r.  Permutations are stored as
index arrays: perm[i] is the point index of the image of P_i, and applying
a permutation to a codeword c gives c[perm].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotSquare, SingularMatrix
from .field import undigits


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1} as an index array."""

    map: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.map, dtype=np.int64)
        object.__setattr__(self, "map", arr)
        if not np.array_equal(np.sort(arr), np.arange(arr.size)):
            raise ValueError("not a bijection")

    @property
    def n(self):
        return self.map.size

    def apply(self, word):
        return np.asarray(word)[self.map]

    def compose(self, other):
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(self.map[other.map])

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.map, other.map)

    def __hash__(self):
        return hash(self.map.tobytes())

    def as_text(self):
        return " ".join(str(int(i)) for i in self.map)


@dataclass(eq=False)
class AffineTransform:
    """The map P -> B P A^{-1} + u; B and A invertible, u's entries in F_q."""

    B: np.ndarray
    A: np.ndarray
    u: np.ndarray
    field: object

    def __post_init__(self):
        self.B = self.field.elements(self.B)
        self.A = self.field.elements(self.A)
        self.u = self.field.elements(self.u)
        if self.u.shape != (len(self.B), len(self.A)):  # a smaller u would broadcast
            raise DimensionMismatch("u must be l x l', as B is l x l and A l' x l'")
        for M in (self.B, self.A):
            if not linalg.is_invertible(M, self.field):
                raise SingularMatrix("transform matrix is singular")
        self.A_inv = linalg.inv_matrix(self.A, self.field)

    def apply(self, P):
        F = self.field
        BP = linalg.matmul(self.B, P, F)
        return F.add(linalg.matmul(BP, self.A_inv, F), self.u)

    def inverse(self):
        F = self.field
        B_inv = linalg.inv_matrix(self.B, F)
        u_prime = F.neg(linalg.matmul(linalg.matmul(B_inv, self.u, F), self.A, F))
        return AffineTransform(B=B_inv, A=self.A_inv, u=u_prime, field=F)


def identity_transform(rect, F):
    return AffineTransform(B=np.eye(rect.ell, dtype=np.uint8),
                           A=np.eye(rect.ell_prime, dtype=np.uint8),
                           u=np.zeros((rect.ell, rect.ell_prime), dtype=np.uint8),
                           field=F)


def compose(T1, T2):
    """(u,A,B) o (v,A',B') = (B v A^{-1} + u, A A', B B')."""
    F = T1.field
    if T2.field.q != F.q:
        raise DimensionMismatch(f"transforms over F_{F.q} and F_{T2.field.q}")
    w = F.add(linalg.matmul(linalg.matmul(T1.B, T2.u, F), T1.A_inv, F), T1.u)
    return AffineTransform(B=linalg.matmul(T1.B, T2.B, F),
                           A=linalg.matmul(T1.A, T2.A, F),
                           u=w, field=F)


def induced_permutation(T, pe):
    """The permutation with P_{sigma(i)} equal to the image of P_i.

    For the row-major digit vector p of P, the image B P A^{-1} + u has
    digit vector p (B^T kron A^{-1}) + u, so all n images are one product
    over F_q of the points by a delta x delta matrix."""
    rect, F = pe.rect, pe.field
    if T.field.q != F.q:
        raise DimensionMismatch(f"a transform over F_{T.field.q} and points over F_{F.q}")
    if T.B.shape != (rect.ell, rect.ell) or T.A.shape != (rect.ell_prime, rect.ell_prime):
        raise DimensionMismatch("transform shapes do not match the rectangle")
    kron = F.mul(T.B.T[:, None, :, None], T.A_inv[None, :, None, :])
    imgs = F.add(linalg.matmul(pe.points, kron.reshape(rect.delta, rect.delta), F),
                 T.u.reshape(-1))
    return Permutation(undigits(imgs, F.q))


def transpose_permutation(pe):
    """Permutation induced by P -> P^T; requires a square rectangle."""
    rect = pe.rect
    if rect.ell != rect.ell_prime:
        raise NotSquare("transpose needs ell = ell'")
    pts = pe.points.reshape(-1, rect.ell, rect.ell)
    return Permutation(undigits(np.swapaxes(pts, 1, 2).reshape(pts.shape[0], -1),
                                pe.field.q))


def is_automorphism(C, perm):
    """True iff permuting the coordinates of every generator row stays in
    the code.  A permutation fixes a code exactly when it fixes the dual,
    so a dual whose primal has the lower dimension tests the primal; the
    code tested then has k <= n - k and takes the rank test, with no
    product by a parity check."""
    if perm.n != C.n:
        raise DimensionMismatch("permutation length mismatch")
    primal = C.meta.get("dual_of")
    if primal is not None and primal.k < C.k:
        C = primal
    return C._contains_rows(C.generator[:, perm.map])


def subgroup_order_bound(ell, m, q):
    """Order of the known automorphism subgroup:
    q^delta/(q-1) * |GL_ell| * |GL_ell'|."""
    ell_prime = m - ell
    delta = ell * ell_prime
    gl = lambda s: int(np.prod([q ** s - q ** j for j in range(s)], dtype=object))
    return q ** delta * gl(ell) * gl(ell_prime) // (q - 1)


def random_invertible(size, F, rng):
    while True:
        M = rng.integers(0, F.q, size=(size, size)).astype(np.uint8)
        if linalg.is_invertible(M, F):
            return M


def random_transform(rect, F, rng):
    return AffineTransform(
        B=random_invertible(rect.ell, F, rng),
        A=random_invertible(rect.ell_prime, F, rng),
        u=rng.integers(0, F.q, size=(rect.ell, rect.ell_prime)).astype(np.uint8),
        field=F)


def all_invertible(size, F):
    """Brute-force enumeration of GL_size(F_q); desk scale only."""
    import itertools

    out = []
    for entries in itertools.product(range(F.q), repeat=size * size):
        M = np.array(entries, dtype=np.uint8).reshape(size, size)
        if linalg.is_invertible(M, F):
            out.append(M)
    return out


def all_induced_permutations(rect, F, pe):
    """Distinct permutations over every (u, A, B); desk scale only."""
    import itertools

    perms = set()
    gls_B = all_invertible(rect.ell, F)
    gls_A = all_invertible(rect.ell_prime, F)
    for B in gls_B:
        for A in gls_A:
            for entries in itertools.product(range(F.q), repeat=rect.delta):
                u = np.array(entries, dtype=np.uint8).reshape(rect.ell, rect.ell_prime)
                T = AffineTransform(B=B, A=A, u=u, field=F)
                perms.add(induced_permutation(T, pe))
    return perms

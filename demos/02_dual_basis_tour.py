"""Tour of the explicit dual basis.

The dual of the level-r code has a concrete basis: evaluations of the
non-forbidden reduced monomials (a monomial is forbidden when it is the
full product divided by a term of a minor of size <= r), completed by one
binomial per pair (minor of size 2..r, non-identity permutation).
"""

from agcodes import (binomials, build_affine_grassmann, build_dual_code,
                     export_parity_alist, forbidden_monomials,
                     is_forbidden_counts, maximal_nonforbidden)
from agcodes.monomials import monomial_str
from agcodes.monomials import Rectangle

ell, m, r, q = 2, 4, 2, 2
rect = Rectangle(ell, m - ell)

forb = forbidden_monomials(ell, m, r, q)
nf, nonf, nb = is_forbidden_counts(ell, m, r, q)
print(f"AGC({ell},{m};{r}) over F_{q}:")
print(f"  forbidden monomials: {len(forb)} (formula {nf})")
for mu in sorted(forb):
    print("   ", monomial_str(mu, rect))

print(f"  non-forbidden: {nonf}, completing binomials: {nb}")
for b in binomials(ell, m, r, q):
    print(f"  binomial for {b.minor}, permutation {b.perm}: {b.poly}")

print("  maximal non-forbidden monomials:")
for mu in sorted(maximal_nonforbidden(ell, m, r, q)):
    print("   ", monomial_str(mu, rect))

C = build_affine_grassmann(ell, m, r, q)
D = build_dual_code(C)  # verifies exact orthogonality internally
print(f"  dual code: [{D.n},{D.k}] (n - k = {C.n - C.k})")

export_parity_alist(D.generator, "/tmp/agc_2_4_2.alist", q)
print("  parity check written to /tmp/agc_2_4_2.alist")

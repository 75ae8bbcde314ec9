"""Dual minimum distances: search plus explicit witness polynomials.

The dual of every level-r code (r >= 1) has minimum distance exactly 3
when q > 2 and exactly 4 when q = 2 with l' > 1.  The low-weight search
treats dual words as column dependencies of the primal generator matrix,
so it never enumerates the huge dual; witnesses certify the upper bound.
For q > 2 the dual is generated by its weight-3 words, one per projective
class as dual_codewords_of_weight lists them.
"""

import numpy as np

from agcodes import (build_affine_grassmann, build_dual_code,
                     dual_min_weight_witness, evaluate,
                     low_weight_dual_search, span_generation_test)
from agcodes.analysis import dual_codewords_of_weight
from agcodes.codes import PointEnumeration

for (ell, m, r, q) in [(2, 4, 2, 3), (2, 4, 2, 2), (3, 6, 2, 2)]:
    C = build_affine_grassmann(ell, m, r, q)
    D = build_dual_code(C)
    rep = low_weight_dual_search(C, w_max=4)
    print(f"AGC({ell},{m};{r})/F_{q} dual [{D.n},{D.k}]: "
          f"weight counts {rep.weight_counts} -> d = {rep.min_distance}")

    pe = PointEnumeration(C.rect, C.field)
    if q > 2:
        w = dual_min_weight_witness(ell, m, r, q, ("g", 1, 2))
        label = "g(1,2)"
    else:
        w = dual_min_weight_witness(ell, m, r, q, ("h", (1, 1), (1, 2)))
        label = "h((1,1),(1,2))"
    ev = evaluate([w], pe)[0]
    print(f"  witness {label}: weight {int(np.count_nonzero(ev))}, "
          f"in dual: {D.contains(ev)}")
    if q > 2:
        span = span_generation_test(D, dual_codewords_of_weight(C, 3))
        print(f"  weight-3 words span rank {span['rank']} "
              f"(n - k = {C.n - C.k}): generates the dual: {span['generates']}")

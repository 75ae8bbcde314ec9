"""Affine Grassmann codes: construction, explicit duals, exact verification."""

from .field import FieldSpec, make_field
from .monomials import (Rectangle, SparsePolynomial, all_reduced_monomials,
                        full_product, linear_form_power_basis, monic_split_set,
                        reduce_exponent, reduce_polynomial)
from .minors import Minor, enumerate_minors, leading_principal_minor, minor_polynomial
from .codes import (Code, CodeParams, PointEnumeration, build_affine_grassmann,
                    build_reed_muller, evaluate, gaussian_binomial,
                    rm_theoretical_params, subcode_check, theoretical_params,
                    write_generator)
from .dual import (MinorBinomial, binomials, build_dual_code, char_sum,
                   dual_basis, dual_min_weight_witness, forbidden_monomials,
                   is_forbidden_counts, maximal_nonforbidden,
                   self_orthogonality_check)
from .transforms import (AffineTransform, Permutation, compose,
                         induced_permutation, is_automorphism,
                         random_transform, subgroup_order_bound,
                         transpose_permutation)
from .analysis import (WeightReport, low_weight_dual_search,
                       min_distance_exhaustive, min_weight_codewords,
                       span_generation_test)
from .alist import export_parity_alist, read_alist, write_alist

__version__ = "0.1.0"

"""Exact integer and F_p linear algebra with f.g. abelian group arithmetic."""

from .ring import GF, RingTag, ZZ, check_same_ring
from .matrices import (IntMatrix, Lattice, SnfResult, block_matrix, hcat,
                       kernel_basis, kernel_lattice, kron, smith_diagonal, snf,
                       solve, span_lattice)
from .groups import (FgAbGroup, GroupHom, Subgroup, SubquotientData,
                     cokernel, cokernel_projection, direct_sum, exact_at,
                     free_group, full_subgroup,
                     group_from_orders, group_from_presentation, hom,
                     hom_functor, hom_group, identity_hom, image, induced_hom,
                     is_injective, is_isomorphism, is_surjective, kernel,
                     multiplication_hom, quotient, solve_hom_constraints,
                     subgroup_from_columns, subquotient, trivial_group,
                     zero_hom, zero_subgroup)

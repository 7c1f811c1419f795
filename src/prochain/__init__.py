"""Exact truncation calculus, towers, and spectral sequences for bounded
chain complexes over Z and F_p."""

from .exactalg.ring import GF, RingTag, ZZ
from .exactalg.matrices import IntMatrix, SnfResult, snf
from .exactalg.groups import (FgAbGroup, GroupHom, cokernel, group_from_orders,
                              group_from_presentation, hom, hom_group, image,
                              is_isomorphism, kernel, solve_hom_constraints,
                              subquotient)
from .chain import (ChainComplex, ChainMap, chain_map, cone, derived_hom,
                    hom_complex, homology, induced_homology_map, make_complex,
                    moore_complex, random_complex, shift, validate)
from .tstruct import (MapClassification, TruncationTower, classify_map,
                      cohomology_with_coefficients, factor_n, find_lift,
                      heart_homology, is_co_n_equivalence, is_n_equivalence,
                      layer_triangle_check, pushout_product_check,
                      truncate_above, truncate_below_free, truncation_tower)
from .pro import (Lim1Verdict, ProMap, TailPolicy, Tower, UnknownValue, colim,
                  compose_pro, constant_tower, is_pro_isomorphism, level_map,
                  lim_lim1, pro_hom, reindex_cofinal, repeat_tower)
from .prohomotopy import (HStarVerdict, heart_hom, hom_from_constant,
                          hom_to_constant, is_hstar_fibrant,
                          is_hstar_weak_equivalence, is_levelwise_cofibration,
                          postnikov_replacement)
from .ahss import (ConvergenceReport, ExactCouple, Page, SpectralSequence,
                   abutment_filtration, build_exact_couple, convergence_check,
                   e2_identification_check, pro_ahss, run_to_stable)
from .workspace import Workspace, parse_workspace, serialize_workspace

from . import ahss as _ahss, chain as _chain, tstruct as _tstruct
from .exactalg import groups as _groups, matrices as _matrices

# every lru_cache table of the package, each with a bounded size
_CACHES = (_matrices.snf, _groups.group_from_presentation, _groups.free_group,
           _groups.hom_group, _chain.cone, _chain.homology_data,
           _chain.hom_complex, _tstruct.truncate_above,
           _tstruct.coefficient_complex, _ahss.adapted_complex)


def cache_clear() -> None:
    """Empty every cache of the package."""
    for table in _CACHES:
        table.cache_clear()


__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

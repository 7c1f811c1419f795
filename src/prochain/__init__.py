"""Exact truncation calculus, towers, and spectral sequences for bounded
chain complexes over Z and F_p.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562).
"""

import importlib
import sys

# submodule -> the public names it defines
_EXPORTS = {
    "exactalg.ring": ("GF", "RingTag", "ZZ"),
    "exactalg.matrices": ("IntMatrix", "SnfResult", "snf"),
    "exactalg.groups": ("FgAbGroup", "GroupHom", "cokernel", "group_from_orders",
                        "group_from_presentation", "hom", "hom_group", "image",
                        "is_isomorphism", "kernel", "solve_hom_constraints",
                        "subquotient"),
    "chain": ("ChainComplex", "ChainMap", "chain_map", "cone", "derived_hom",
              "hom_complex", "homology", "induced_homology_map", "make_complex",
              "moore_complex", "random_complex", "shift", "validate"),
    "tstruct": ("MapClassification", "TruncationTower", "classify_map",
                "cohomology_with_coefficients", "factor_n", "find_lift",
                "heart_homology", "is_co_n_equivalence", "is_n_equivalence",
                "layer_triangle_check", "pushout_product_check",
                "truncate_above", "truncate_below_free", "truncation_tower"),
    "pro": ("Lim1Verdict", "ProMap", "TailPolicy", "Tower", "UnknownValue",
            "colim", "compose_pro", "constant_tower", "is_pro_isomorphism",
            "level_map", "lim_lim1", "pro_hom", "reindex_cofinal",
            "repeat_tower"),
    "prohomotopy": ("HStarVerdict", "heart_hom", "hom_from_constant",
                    "hom_to_constant", "is_hstar_fibrant",
                    "is_hstar_weak_equivalence", "is_levelwise_cofibration",
                    "postnikov_replacement"),
    "ahss": ("ConvergenceReport", "ExactCouple", "Page", "SpectralSequence",
             "abutment_filtration", "build_exact_couple", "convergence_check",
             "e2_identification_check", "pro_ahss", "run_to_stable"),
    "workspace": ("Workspace", "parse_workspace", "serialize_workspace"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {module.split(".")[0] for module in _EXPORTS} | {"errors"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


def cache_clear() -> None:
    """Empty every cache of the package.  Only loaded modules can hold
    cached entries, so this loads none."""
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{__name__}.") and module is not None:
            for value in vars(module).values():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    value.cache_clear()


__all__ = sorted([*_SOURCE, *_SUBMODULES, "cache_clear"])
__version__ = "0.1.0"

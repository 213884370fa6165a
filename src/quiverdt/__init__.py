"""Exact computation of refined DT invariants of quivers via flow trees.

The public names below are loaded from their modules on first use, so
importing one module (say ``quiverdt.lattice``) loads only what that
module needs.
"""

from importlib import import_module

_EXPORTS = {
    "algebra": ("BiLaurent", "LaurentPoly", "RatFunc", "kappa"),
    "dt": (
        "AttractorTable",
        "Decomposition",
        "FCache",
        "assemble_dt",
        "dt_integer_value",
        "enumerate_decompositions",
        "integer_from_rational",
        "rational_from_integer",
    ),
    "flow": ("BracketContext", "check_joint_consistency", "flow_tree_scalar"),
    "lattice": (
        "AuxLattice",
        "Quiver",
        "SkewForm",
        "build_aux",
        "euler_skew",
        "is_gamma_generic",
    ),
    "scattering": (
        "GradedLie",
        "Rank2Diagram",
        "dt_from_rank2",
        "reconstruct_rank2",
    ),
    "trees": ("enumerate_trees", "render_tree", "tree_count"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

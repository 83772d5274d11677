"""Rhombic and zonotopal tilings of the polygon E(w).

The tilings encode the commutation classes of reduced words of w; on top
of that sit hexagon flips, the coarsening poset of zonotopal tilings,
Poincare polynomials, and light/dark colorings realizing torus-fixed
points.

The package is a lazy namespace (PEP 562): `import elnitsky` loads no
submodule, and each public name imports its module on first access, so a
process pays only for the modules it uses.  `_EXPORTS` is the one table of
public names by module; the submodules themselves are attributes too.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bott_samelson": (
        "DARK", "LIGHT", "Coloring", "FixedPoint", "QPolynomial",
        "all_colorings", "fixed_point_image_count", "fixed_point_images",
        "image_permutation", "poincare", "q_factorial", "realize_fixed_point",
        "stratum_dimension",
    ),
    "errors": ("LENGTH_GUARD", "ZONO_RANK_GUARD", "GuardExceeded", "NotReducedError"),
    "flips": (
        "INTERIOR_AC", "INTERIOR_B", "FlipGraph", "FlipSite", "apply_flip",
        "coarsen_flip", "flip_graph", "flip_sites", "is_connected", "to_dot",
    ),
    "growth": (),
    "io_cli": (
        "PolygonGeometry", "RenderSpec", "main", "parse_permutation",
        "parse_tiling", "parse_word", "render_svg", "vertex_position",
    ),
    "oracle": (
        "CommutationClass", "commutation_class_of", "commutation_classes",
        "commutation_equivalent", "reduced_words",
    ),
    "permutations": (
        "Permutation", "Word", "apply_simple", "bruhat_leq", "contains_pattern",
        "evaluate", "inversions", "weak_leq",
    ),
    "tilings": (
        "RhombicTiling", "ZonoTile", "ZonoTiling", "all_words",
        "enumerate_rhombic", "enumerate_zonotopal", "from_rhombic",
        "peeling_orders", "tiling_digest", "tiling_to_word", "to_rhombic",
        "validate", "validation_error", "vertices_of", "word_to_tiling",
    ),
    "zonotopal": (
        "ZonoPoset", "has_unique_max", "maximal_elements", "minimal_elements",
        "minimal_upper_bounds", "poset", "refinements", "zono_leq",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})

"""Rhombic and zonotopal tilings of the polygon E(w).

The tilings encode the commutation classes of reduced words of w; on top
of that sit hexagon flips, the coarsening poset of zonotopal tilings,
Poincare polynomials, and light/dark colorings realizing torus-fixed
points.
"""
from .bott_samelson import (
    DARK,
    LIGHT,
    Coloring,
    FixedPoint,
    QPolynomial,
    all_colorings,
    fixed_point_images,
    image_permutation,
    poincare,
    q_factorial,
    realize_fixed_point,
    stratum_dimension,
)
from .errors import LENGTH_GUARD, ZONO_RANK_GUARD, GuardExceeded, NotReducedError
from .flips import (
    INTERIOR_AC,
    INTERIOR_B,
    FlipGraph,
    FlipSite,
    apply_flip,
    coarsen_flip,
    flip_graph,
    flip_sites,
    is_connected,
    to_dot,
)
from .io_cli import (
    PolygonGeometry,
    RenderSpec,
    main,
    parse_permutation,
    parse_tiling,
    parse_word,
    render_svg,
    vertex_position,
)
from .oracle import (
    CommutationClass,
    commutation_class_of,
    commutation_classes,
    commutation_equivalent,
    reduced_words,
)
from .permutations import (
    Permutation,
    Word,
    apply_simple,
    bruhat_leq,
    contains_pattern,
    evaluate,
    inversions,
    weak_leq,
)
from .tilings import (
    RhombicTiling,
    ZonoTile,
    ZonoTiling,
    all_words,
    enumerate_rhombic,
    enumerate_zonotopal,
    peeling_orders,
    tiling_digest,
    tiling_to_word,
    validate,
    validation_error,
    vertices_of,
    word_to_tiling,
)
from .zonotopal import (
    ZonoPoset,
    from_rhombic,
    has_unique_max,
    maximal_elements,
    minimal_elements,
    minimal_upper_bounds,
    poset,
    refinements,
    to_rhombic,
    zono_leq,
)

__version__ = "0.1.0"

"""The package namespace: every public name, loaded lazily from its module."""
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import elnitsky

SRC = str(Path(elnitsky.__file__).resolve().parent.parent)
# the public names of the package, as it exported them when every module was
# imported eagerly
EXPORTED = [
    "Coloring", "CommutationClass", "DARK", "FixedPoint", "FlipGraph",
    "FlipSite", "GuardExceeded", "INTERIOR_AC", "INTERIOR_B", "LENGTH_GUARD",
    "LIGHT", "NotReducedError", "Permutation", "PolygonGeometry",
    "QPolynomial", "RenderSpec", "RhombicTiling", "Word", "ZONO_RANK_GUARD",
    "ZonoPoset", "ZonoTile", "ZonoTiling", "all_colorings", "all_words",
    "apply_flip", "apply_simple", "bruhat_leq", "coarsen_flip",
    "commutation_class_of", "commutation_classes", "commutation_equivalent",
    "contains_pattern", "enumerate_rhombic", "enumerate_zonotopal",
    "evaluate", "fixed_point_image_count", "fixed_point_images", "flip_graph",
    "flip_sites",
    "from_rhombic", "has_unique_max", "image_permutation", "inversions",
    "is_connected", "main", "maximal_elements", "minimal_elements",
    "minimal_upper_bounds", "parse_permutation", "parse_tiling", "parse_word",
    "peeling_orders", "poincare", "poset", "q_factorial",
    "realize_fixed_point", "reduced_words", "refinements", "render_svg",
    "stratum_dimension", "tiling_digest", "tiling_to_word", "to_dot",
    "to_rhombic", "validate", "validation_error", "vertex_position",
    "vertices_of", "weak_leq", "word_to_tiling", "zono_leq",
]
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(elnitsky.__path__))


def test_all_is_the_pinned_list():
    assert len(EXPORTED) == 71
    assert sorted(elnitsky.__all__) == EXPORTED


def test_each_name_is_its_defining_modules_object():
    """The one module whose `__all__` lists a name defines it."""
    modules = [import_module(f"elnitsky.{m}") for m in SUBMODULES]
    wrong = []
    for name in EXPORTED:
        owners = [m for m in modules if name in m.__all__]
        if len(owners) != 1 or getattr(elnitsky, name) is not getattr(owners[0], name):
            wrong.append((name, [m.__name__ for m in owners]))
    assert wrong == []


def test_star_import_binds_every_name():
    namespace = {}
    exec("from elnitsky import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTED


def test_dir_lists_every_name_and_submodule():
    assert set(EXPORTED) | set(SUBMODULES) <= set(dir(elnitsky))


def test_bare_import_loads_no_submodule_until_one_is_used():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import elnitsky; "
        "print([m for m in sys.modules if m.startswith('elnitsky.')], "
        "elnitsky.tilings.__name__, elnitsky.Word.__module__)"
    )
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[] elnitsky.tilings elnitsky.permutations\n"


def test_unknown_name_raises_attribute_error_naming_the_module():
    message = "module 'elnitsky' has no attribute 'nope'"
    with pytest.raises(AttributeError, match=message):
        elnitsky.nope
    assert not hasattr(elnitsky, "LabelSet")

"""Value semantics of the package's record classes.

Equality means the same class and equal fields, the hash is the hash of
the fields' tuple, assigning or deleting a field raises `AttributeError`, and the reprs are pinned (some reach stderr).  The one
mutable record, `FixedPoint`, compares by its field and is unhashable.
"""
import pytest

from elnitsky import (
    CommutationClass,
    Coloring,
    FixedPoint,
    FlipSite,
    Permutation,
    PolygonGeometry,
    QPolynomial,
    RenderSpec,
    RhombicTiling,
    Word,
    ZonoTile,
    ZonoTiling,
    commutation_class_of,
    flip_graph,
    poset,
    realize_fixed_point,
    word_to_tiling,
)

W321 = Permutation.from_string("321")
T121 = word_to_tiling(Word((1, 2, 1), 3))
T212 = word_to_tiling(Word((2, 1, 2), 3))
DARK = frozenset({ZonoTile((1, 2), ()), ZonoTile((2, 3), ())})


# name: (make, make a different value, field names, exact repr)
RECORDS = {
    "Permutation": (
        lambda: Permutation((3, 2, 1)), lambda: Permutation((2, 1, 3)),
        ("values",), "Permutation('321')",
    ),
    "Word": (
        lambda: Word((1, 2, 1), 3), lambda: Word((1, 2, 1), 4),
        ("letters", "n"), "Word('1,2,1', n=3)",
    ),
    "ZonoTiling": (
        lambda: ZonoTiling(W321, set(T121.tiles)), lambda: ZonoTiling(W321, T212.tiles),
        ("w", "tiles"), "ZonoTiling(w=321, 3 tiles)",
    ),
    "RhombicTiling": (
        lambda: RhombicTiling(w=W321, tiles=list(T121.tiles)), lambda: T212,
        ("w", "tiles"), "RhombicTiling(w=321, 3 tiles)",
    ),
    "FlipSite": (
        lambda: FlipSite((1, 2, 3), [], "interior-b"),
        lambda: FlipSite((1, 2, 3), (), "interior-ac"),
        ("labels", "base", "orientation"),
        "FlipSite(labels=(1, 2, 3), base=frozenset(), orientation='interior-b')",
    ),
    "FlipGraph": (
        lambda: flip_graph(W321), lambda: flip_graph(Permutation((2, 1, 3))),
        ("w", "digests", "masks", "tiles", "arcs"), "FlipGraph(w=321, 2 nodes, 1 arcs)",
    ),
    "ZonoPoset": (
        lambda: poset(W321), lambda: poset(Permutation((2, 1, 3))),
        ("w", "digests", "masks", "tiles"), "ZonoPoset(w=321, 3 tilings)",
    ),
    "QPolynomial": (
        lambda: QPolynomial((1, 2, 1, 0)), lambda: QPolynomial((1, 2)),
        ("coeffs",), "QPolynomial((1, 2, 1))",
    ),
    "Coloring": (
        lambda: Coloring(T121, set(DARK)), lambda: Coloring.all_dark(T121),
        ("tiling", "dark"),
        "Coloring(tiling=RhombicTiling(w=321, 3 tiles),"
        " dark=frozenset({ZonoTile((1, 2), {}), ZonoTile((2, 3), {})}))",
    ),
    "PolygonGeometry": (
        lambda: PolygonGeometry(3), lambda: PolygonGeometry(4),
        ("n",), "PolygonGeometry(n=3)",
    ),
    "RenderSpec": (
        lambda: RenderSpec(), lambda: RenderSpec(scale=36.0, show_vertex_labels=False),
        ("scale", "show_vertex_labels", "coloring", "light_fill", "dark_fill"),
        "RenderSpec(scale=72.0, show_vertex_labels=True, coloring=None,"
        " light_fill='#f2ede3', dark_fill='#7d6b52')",
    ),
    "CommutationClass": (
        lambda: commutation_class_of(Word((1, 2, 1), 3)),
        lambda: commutation_class_of(Word((2, 1, 2), 3)),
        ("representative", "members"),
        "CommutationClass(representative=Word('1,2,1', n=3),"
        " members=frozenset({Word('1,2,1', n=3)}))",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_and_hash_by_their_fields(name):
    make, other, fields, _ = RECORDS[name]
    a, b, c = make(), make(), other()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
    assert a != c and not a == c
    assert a != object() and a != tuple(getattr(a, f) for f in fields)
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_refuse_assignment(name):
    make, _, fields, _ = RECORDS[name]
    a = make()
    before = tuple(getattr(a, f) for f in fields)
    with pytest.raises(AttributeError):
        setattr(a, fields[0], before[0])
    with pytest.raises(AttributeError):
        delattr(a, fields[-1])
    assert tuple(getattr(a, f) for f in fields) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_reprs(name):
    make, _, _, text = RECORDS[name]
    assert repr(make()) == text


def test_rhombic_and_zonotopal_tilings_of_the_same_tiles_differ():
    R = RhombicTiling(W321, T121.tiles)
    Z = ZonoTiling(W321, T121.tiles)
    assert R != Z and Z != R and not R == Z
    assert hash(R) == hash(Z)
    assert len({R, Z}) == 2


def test_fixed_point_is_mutable_and_unhashable():
    fp = realize_fixed_point(T121, Coloring.from_bits(T121, "101"))
    same = FixedPoint(dict(fp.assignment))
    assert fp == same and fp != FixedPoint({}) and fp != object()
    with pytest.raises(TypeError):
        hash(fp)
    same.assignment = {}
    assert same == FixedPoint({}) and repr(same) == "FixedPoint(assignment={})"


def test_render_spec_checks_its_scale():
    assert RenderSpec().scale == 72.0
    with pytest.raises(ValueError, match="scale must be positive, got 0"):
        RenderSpec(scale=0)


def test_records_normalise_their_fields():
    assert ZonoTiling(W321, list(T121.tiles)).tiles == T121.tiles
    assert type(FlipSite((1, 2, 3), {4}, "interior-b").base) is frozenset
    assert QPolynomial((0, 0)).coeffs == ()
    assert type(Coloring(T121, list(DARK)).dark) is frozenset
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 1))
    with pytest.raises(ValueError, match="outside 1..2"):
        Word((3,), 3)


def test_cached_properties_are_computed_once():
    g = flip_graph(W321)
    assert "nodes" not in vars(g)
    assert g.nodes is g.nodes and vars(g)["nodes"] == g.nodes
    p = poset(W321)
    assert "elements" not in vars(p)
    assert p.elements is p.elements and len(p.elements) == 3

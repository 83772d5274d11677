import time

import pytest
from hypothesis import given, settings, strategies as st

from elnitsky import (
    INTERIOR_AC,
    INTERIOR_B,
    FlipSite,
    Permutation,
    RhombicTiling,
    Word,
    ZonoTile,
    ZonoTiling,
    apply_flip,
    coarsen_flip,
    enumerate_rhombic,
    enumerate_zonotopal,
    flip_graph,
    flip_sites,
    from_rhombic,
    is_connected,
    parse_tiling,
    poset,
    refinements,
    tiling_digest,
    tiling_to_word,
    to_dot,
    to_rhombic,
    validate,
    vertices_of,
    word_to_tiling,
)
from elnitsky.tilings import polygon_vertices

from helpers import flip_arcs_by_pairs, symmetric_group, unit_edges

T121 = word_to_tiling(Word((1, 2, 1), 3))
T212 = word_to_tiling(Word((2, 1, 2), 3))


def degree(v, edges):
    return sum(1 for tail, label in edges if v in (tail, tail | {label}))


def test_site_validation():
    with pytest.raises(ValueError):
        FlipSite((2, 1, 3), frozenset(), INTERIOR_B)
    with pytest.raises(ValueError):
        FlipSite((1, 2, 3), frozenset({2}), INTERIOR_B)
    with pytest.raises(ValueError):
        FlipSite((1, 2, 3), frozenset(), "sideways")


def test_site_tiles_and_interior_vertex():
    f = FlipSite((1, 2, 3), frozenset(), INTERIOR_B)
    assert f.interior_vertex() == frozenset({2})
    assert f.flipped().orientation == INTERIOR_AC
    assert f.flipped().interior_vertex() == frozenset({1, 3})
    assert f.flipped_tiles() != f.tiles()
    assert len(f.tiles()) == 3
    # flipping twice restores the site itself
    assert f.flipped().flipped() == f


def test_hexagon_tilings_each_have_one_site():
    (f121,) = flip_sites(T121)
    (f212,) = flip_sites(T212)
    assert f121.labels == f212.labels == (1, 2, 3)
    assert f121.base == f212.base == frozenset()
    assert {f121.orientation, f212.orientation} == {INTERIOR_B, INTERIOR_AC}


def test_single_tile_has_no_sites():
    assert flip_sites(word_to_tiling(Word((1,), 2))) == frozenset()


def test_flip_exchanges_the_two_hexagon_tilings():
    (f,) = flip_sites(T121)
    assert apply_flip(T121, f) == T212
    assert apply_flip(T212, f) == T121


def test_flip_invariants_exhaustive_s4():
    for w in symmetric_group(4):
        tilings = enumerate_rhombic(w)
        for T in tilings:
            for f in flip_sites(T):
                T2 = apply_flip(T, f)
                assert T2 != T
                assert validate(T2)
                assert T2 in tilings
                assert len(T.tiles ^ T2.tiles) == 6
                assert vertices_of(T) - vertices_of(T2) == {f.interior_vertex()}
                assert vertices_of(T2) - vertices_of(T) == {
                    f.flipped().interior_vertex()
                }
                # same site object undoes the flip
                assert apply_flip(T2, f) == T


def test_sites_are_the_degree_three_interior_vertices():
    for w in symmetric_group(4):
        for T in enumerate_rhombic(w):
            edges = unit_edges(T)
            interior = vertices_of(T) - polygon_vertices(w)
            degree_three = {v for v in interior if degree(v, edges) == 3}
            assert {f.interior_vertex() for f in flip_sites(T)} == degree_three
            assert len(flip_sites(T)) == len(degree_three)


def test_flip_graph_shapes():
    g3 = flip_graph(Permutation((3, 2, 1)))
    assert len(g3.nodes) == 2
    assert len(g3.arcs) == 1
    assert is_connected(g3)

    g4 = flip_graph(Permutation.longest(4))
    assert len(g4.nodes) == 8
    assert len(g4.arcs) == 8
    assert is_connected(g4)

    g_flat = flip_graph(Permutation((2, 1, 4, 3)))
    assert len(g_flat.nodes) == 1
    assert g_flat.arcs == frozenset()
    assert is_connected(g_flat)

    g_id = flip_graph(Permutation.identity(3))
    assert len(g_id.nodes) == 1
    assert is_connected(g_id)


def test_flip_graph_connected_all_s4():
    for w in symmetric_group(4):
        assert is_connected(flip_graph(w))


def test_adjacency_is_symmetric():
    g = flip_graph(Permutation.longest(4))
    adj = g.adjacency
    assert set(adj) == set(g.by_digest)
    for d, nbrs in adj.items():
        for d2 in nbrs:
            assert d in adj[d2]
    assert sum(len(nbrs) for nbrs in adj.values()) == 2 * len(g.arcs)


def test_apply_flip_rejects_absent_site():
    T = word_to_tiling(Word((1,), 3))
    with pytest.raises(ValueError):
        apply_flip(T, FlipSite((1, 2, 3), frozenset(), INTERIOR_B))


def test_coarsen_flip_hexagon():
    (f,) = flip_sites(T121)
    Z = coarsen_flip(T121, f)
    assert Z.tiles == {ZonoTile((1, 2, 3), frozenset())}
    # both partners coarsen to the same tiling, using the same site
    assert coarsen_flip(T212, f) == Z
    assert refinements(Z) == {T121, T212}


def test_coarsen_flip_inside_a_larger_tiling():
    for T in enumerate_rhombic(Permutation.longest(4)):
        for f in flip_sites(T):
            Z = coarsen_flip(T, f)
            assert validate(Z)
            assert len(Z.tiles) == len(T.tiles) - 2
            assert refinements(Z) == {T, apply_flip(T, f)}


def test_to_dot_output():
    g = flip_graph(Permutation((3, 2, 1)))
    dot = to_dot(g)
    lines = dot.splitlines()
    assert lines[0] == 'graph "321" {'
    assert lines[-1] == "}"
    assert dot.endswith("}\n")
    for d in g.by_digest:
        assert f'"{d}";' in dot
    a, b = sorted(g.by_digest)
    assert f'"{a}" -- "{b}";' in dot


def test_graph_nodes_are_digest_sorted():
    g = flip_graph(Permutation.longest(4))
    digests = [tiling_digest(T) for T in g.nodes]
    assert digests == sorted(digests)
    assert g.digests == tuple(digests)


def same_tiling(A, B):
    """Equal as values, with the same tiling class and JSON, and made of
    plain `ZonoTile`s."""
    classes = {type(t) for t in A.tiles | B.tiles}
    return A == B and classes <= {ZonoTile} and A.to_json() == B.to_json()


def test_reread_tilings_agree_with_the_engines_on_s1_to_s5():
    # parse_tiling builds fresh tiles, not the engines' shared objects
    for n in range(1, 6):
        for w in symmetric_group(n):
            for T in enumerate_rhombic(w):
                R = parse_tiling(T.to_json())
                assert not {id(t) for t in R.tiles} & {id(t) for t in T.tiles}
                assert same_tiling(R, T)
                sites = flip_sites(T)
                assert flip_sites(R) == sites
                for f in sites:
                    flipped = apply_flip(R, f)
                    assert same_tiling(flipped, apply_flip(T, f))
                    assert same_tiling(coarsen_flip(R, f), coarsen_flip(T, f))
                Z = from_rhombic(R)
                assert type(Z) is ZonoTiling and same_tiling(Z, from_rhombic(T))
                assert Z in enumerate_zonotopal(w)
                assert same_tiling(to_rhombic(Z), T)
            for Z in enumerate_zonotopal(w):
                if all(t.size == 2 for t in Z.tiles):
                    R = to_rhombic(parse_tiling(Z.to_json()))
                    assert type(R) is RhombicTiling and R in enumerate_rhombic(w)
                    assert same_tiling(R, to_rhombic(Z))


def test_every_producer_builds_shared_plain_tiles_on_s1_to_s5():
    """Every tile is exactly a `ZonoTile`, whichever function made it, and
    one enumeration shares one object per distinct tile, which the cached
    `key` and `json_lists` rely on."""
    produced = []
    for n in range(1, 6):
        for w in symmetric_group(n):
            rhombic, zonotopal = enumerate_rhombic(w), enumerate_zonotopal(w)
            for result in (rhombic, zonotopal):
                tiles = [t for T in result for t in T.tiles]
                assert len({id(t) for t in tiles}) == len(set(tiles))
                produced.extend(result)
            for T in rhombic:
                produced += [word_to_tiling(tiling_to_word(T)), from_rhombic(T)]
                produced.append(parse_tiling(T.to_json()))
                for f in flip_sites(T):
                    produced += [apply_flip(T, f), coarsen_flip(T, f)]
                    produced.append(ZonoTiling(w, f.tiles() | f.flipped_tiles()))
            for Z in zonotopal:
                produced += [parse_tiling(Z.to_json()), *refinements(Z)]
                if all(t.size == 2 for t in Z.tiles):
                    produced.append(to_rhombic(Z))
    assert {type(t) for T in produced for t in T.tiles} == {ZonoTile}


def test_flip_graph_matches_the_pairwise_arcs_on_s1_to_s5():
    """Nodes, digests and arcs against the enumeration and the pairwise
    definition of a flip."""
    for n in range(1, 6):
        for w in symmetric_group(n):
            g = flip_graph(w)
            tilings = enumerate_rhombic(w)
            assert frozenset(g.nodes) == tilings
            assert g.digests == tuple(sorted(tiling_digest(T) for T in tilings))
            assert g.arcs == flip_arcs_by_pairs(g.nodes)


def test_flip_graph_of_w0_6_matches_the_pairwise_arcs():
    g = flip_graph(Permutation.longest(6))
    assert len(g.nodes) == 908  # OEIS A006245
    assert len(g.arcs) == 2144
    assert g.arcs == flip_arcs_by_pairs(g.nodes)


def test_flip_graph_cost_does_not_grow_with_fixed_points():
    """7654312 padded with the fixed points 8..400 has the 6,888 tilings and
    20,990 arcs of rank 7.  Hexagons found from their {a, c} rhombus read no
    label beyond c, and each tiling visits only its own diagonals: on a
    2-CPU host this took about 0.2 s, and 7-9 s when each rhombus scanned
    every label up to the rank."""
    w = Permutation((7, 6, 5, 4, 3, 1, 2) + tuple(range(8, 401)))
    start = time.perf_counter()
    g = flip_graph(w)
    elapsed = time.perf_counter() - start
    assert (len(g.nodes), len(g.arcs)) == (6888, 20990)
    assert elapsed < 3


@st.composite
def longest_element_words(draw):
    """A random reduced word of w0 in S5 or S6: from the identity, swap any
    increasing adjacent pair until none is left."""
    n = draw(st.sampled_from((5, 6)))
    values = list(range(1, n + 1))
    letters = []
    while ascents := [i for i in range(1, n) if values[i - 1] < values[i]]:
        i = draw(st.sampled_from(ascents))
        values[i - 1], values[i] = values[i], values[i - 1]
        letters.append(i)
    return Word(tuple(letters), n)


@given(longest_element_words())
@settings(max_examples=40, deadline=None)
def test_coarsened_flip_sites_refine_to_both_partners_property(word):
    T = word_to_tiling(word)
    assert T.w == Permutation.longest(word.n)
    assert refinements(from_rhombic(T)) == {T}
    for f in flip_sites(T):
        assert refinements(coarsen_flip(T, f)) == {T, apply_flip(T, f)}


@pytest.mark.parametrize(
    "w, arcs",
    [
        ("4321", 8),
        ("54321", 100),
        ("7463512", 800),
        ("654321", 2144),
        pytest.param("7654312", 20990, marks=pytest.mark.long),
    ],
)
def test_flip_arcs_are_the_lower_covers_of_one_hexagon_tilings(w, arcs):
    """A flip arc is exactly one zonotopal tiling with one hexagon and all
    other tiles rhombi, the tilings of l(w) - 2 tiles, and that tiling's two
    lower covers are the arc's two rhombic tilings.  Compared as pairs of
    tile sets: rhombic and zonotopal JSON spell the labels key differently,
    so their digests differ.  654321 takes about 0.3 s."""
    w = Permutation.from_string(w)
    g = flip_graph(w)
    flips = {frozenset(g.by_digest[d].tiles for d in arc) for arc in g.arcs}
    p = poset(w)
    lowers = {}
    for i, j in p.cover_indices:
        lowers.setdefault(j, []).append(p.elements[i].tiles)
    hexagons = [j for j, Z in enumerate(p.elements) if len(Z.tiles) == w.length() - 2]
    assert all(len(lowers[j]) == 2 for j in hexagons)
    covered = {frozenset(lowers[j]) for j in hexagons}
    assert len(g.arcs) == len(flips) == len(hexagons) == len(covered) == arcs
    assert covered == flips

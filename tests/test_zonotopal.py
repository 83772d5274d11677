import random
import time

import pytest

from elnitsky import (
    GuardExceeded,
    Permutation,
    RhombicTiling,
    Word,
    ZonoPoset,
    ZonoTile,
    ZonoTiling,
    contains_pattern,
    enumerate_rhombic,
    enumerate_zonotopal,
    from_rhombic,
    has_unique_max,
    maximal_elements,
    minimal_elements,
    minimal_upper_bounds,
    poset,
    refinements,
    tiling_digest,
    to_rhombic,
    validate,
    word_to_tiling,
    zono_leq,
)
from elnitsky import zonotopal
from elnitsky.flips import apply_flip, coarsen_flip, flip_sites
from elnitsky.tilings import validation_error
from elnitsky.zonotopal import _coatoms, _relabel

from helpers import (
    coarsening_order_by_pairs,
    minimal_upper_bounds_by_edges,
    mobius_from_added_bottom,
    sample_permutations,
    symmetric_group,
    unit_edges,
    zonotopal_tile_sets,
)

HEX_TILING = ZonoTiling(
    Permutation((3, 2, 1)), frozenset({ZonoTile((1, 2, 3), frozenset())})
)
OCT_TILING = ZonoTiling(
    Permutation.longest(4), frozenset({ZonoTile((1, 2, 3, 4), frozenset())})
)

PATTERNS_FOR_UNIQUE_MAX = (
    Permutation((4, 2, 3, 1)),
    Permutation((4, 3, 1, 2)),
    Permutation((3, 4, 2, 1)),
)


def avoids_the_three(w):
    if w.n < 4:
        return True
    return not any(contains_pattern(w, p) for p in PATTERNS_FOR_UNIQUE_MAX)


def test_tile_validation():
    with pytest.raises(ValueError):
        ZonoTile((3,), frozenset())
    with pytest.raises(ValueError):
        ZonoTile((1, 1, 2), frozenset())
    t = ZonoTile((3, 1, 2), frozenset())
    assert t.labels == (1, 2, 3)
    assert t.size == 3


def test_tile_vertices_and_edges():
    hexagon = ZonoTile((1, 2, 3), frozenset())
    assert len(set(hexagon.corners())) == 6
    assert frozenset({2}) not in set(hexagon.corners())

    square = ZonoTile((1, 2), frozenset({3}))
    assert len(set(square.corners())) == 4
    for tile in (hexagon, square):
        corners = tile.corners()
        # consecutive corners, cyclically, are the ends of one unit edge
        assert all(len(corners[i - 1] ^ corners[i]) == 1 for i in range(len(corners)))


def test_rhombic_round_trip():
    for w in symmetric_group(4):
        for T in enumerate_rhombic(w):
            Z = from_rhombic(T)
            assert to_rhombic(Z) == T
            assert validate(Z)
    with pytest.raises(ValueError):
        to_rhombic(HEX_TILING)


def test_enumerate_small():
    assert len(enumerate_zonotopal(Permutation((2, 1)))) == 1
    (only,) = enumerate_zonotopal(Permutation.identity(4))
    assert only.tiles == frozenset()

    z3 = enumerate_zonotopal(Permutation((3, 2, 1)))
    assert len(z3) == 3
    assert HEX_TILING in z3

    z4 = enumerate_zonotopal(Permutation.longest(4))
    assert len(z4) == 17
    assert OCT_TILING in z4


def tile_sets(tilings):
    return {frozenset((t.labels, t.base) for t in Z.tiles) for Z in tilings}


def check_against_the_memoized_search(w):
    expected = zonotopal_tile_sets(w)
    assert tile_sets(enumerate_zonotopal(w)) == expected
    rhombic = {s for s in expected if all(len(labels) == 2 for labels, _ in s)}
    assert tile_sets(enumerate_rhombic(w)) == rhombic


def test_enumeration_matches_the_memoized_search_on_s1_to_s5():
    for n in range(1, 6):
        for w in symmetric_group(n):
            check_against_the_memoized_search(w)


@pytest.mark.long
def test_enumeration_matches_the_memoized_search_sampled_s6():
    for w in sample_permutations(6, 12, seed=20261018) + [Permutation.longest(6)]:
        check_against_the_memoized_search(w)


def test_enumerate_guards():
    with pytest.raises(GuardExceeded):
        enumerate_zonotopal(Permutation.from_string("2,1,3,4,5,6,7,8,9"))
    with pytest.raises(GuardExceeded):
        enumerate_zonotopal(Permutation.longest(7))


def test_leq_basics():
    rhombics = sorted(enumerate_rhombic(Permutation((3, 2, 1))), key=tiling_digest)
    Z1, Z2 = (from_rhombic(T) for T in rhombics)
    assert zono_leq(Z1, Z1)
    assert zono_leq(Z1, HEX_TILING)
    assert zono_leq(Z2, HEX_TILING)
    assert not zono_leq(HEX_TILING, Z1)
    assert not zono_leq(Z1, Z2)
    assert not zono_leq(Z2, Z1)
    with pytest.raises(ValueError):
        zono_leq(Z1, OCT_TILING)


def test_leq_is_edge_inclusion_on_s1_to_s5():
    enumerate_zonotopal.cache_clear()
    start = time.perf_counter()
    pairs = 0
    for n in range(1, 6):
        for w in symmetric_group(n):
            tilings = enumerate_zonotopal(w)
            edges = {z: unit_edges(z) for z in tilings}
            for lo in tilings:
                for hi in tilings:
                    assert zono_leq(lo, hi) == (edges[lo] >= edges[hi])
                    pairs += 1
    assert pairs == 62001
    assert time.perf_counter() - start < 3


def test_poset_of_one_hexagon():
    p = poset(Permutation((3, 2, 1)))
    assert len(p) == 3
    assert len(p.covers) == 2
    assert all(upper == HEX_TILING for _, upper in p.covers)
    assert maximal_elements(p) == frozenset({HEX_TILING})
    assert len(minimal_elements(p)) == 2


def test_poset_of_the_longest_element_of_rank_four():
    p = poset(Permutation.longest(4))
    assert len(p) == 17
    assert len(p.covers) == 24
    assert maximal_elements(p) == frozenset({OCT_TILING})
    assert len(minimal_elements(p)) == 8
    digests = tuple(tiling_digest(z) for z in p.elements)
    assert p.digests == digests == tuple(sorted(digests))


def test_covers_are_strict_and_gapless():
    p = poset(Permutation.longest(4))
    for lo, hi in p.covers:
        assert lo != hi
        assert zono_leq(lo, hi)
        for mid in p.elements:
            if mid not in (lo, hi):
                assert not (zono_leq(lo, mid) and zono_leq(mid, hi))


def local_order(p):
    return p.covers, maximal_elements(p), minimal_elements(p)


def test_local_covers_match_the_pairwise_order_on_s1_to_s5():
    for n in range(1, 6):
        for w in symmetric_group(n):
            p = poset(w)
            assert local_order(p) == coarsening_order_by_pairs(p)
            # by upper, then the replaced tile's place in the key-sorted table
            replaced = [(j, p.masks[j] & ~p.masks[i]) for i, j in p.cover_indices]
            assert replaced == sorted(replaced)
            assert len(set(p.cover_indices)) == len(p.cover_indices)


def test_poset_digests_are_its_elements_digests_on_s1_to_s5():
    """The digests hashed from the growth graph's lines are those of the
    tilings the masks give, sorted, and those tilings are E(w)'s."""
    for n in range(1, 6):
        for w in symmetric_group(n):
            p = poset(w)
            digests = tuple(tiling_digest(z) for z in p.elements)
            assert p.digests == digests == tuple(sorted(digests))
            assert frozenset(p.elements) == enumerate_zonotopal(w)


def test_coatom_tables():
    """Each per-k entry holds the coatoms and the rhombic tilings of E(w0(k)),
    and the coatoms again as the positions of their labels and bases."""
    assert [len(_coatoms(k)[0]) for k in range(2, 7)] == [0, 2, 8, 40, 324]
    assert [len(_coatoms(k)[1]) for k in range(2, 7)] == [1, 2, 8, 62, 908]
    for k in range(3, 6):
        w0 = Permutation.longest(k)
        p = poset(w0)
        (top,) = maximal_elements(p)
        (tile,) = top.tiles
        covers, _, _ = coarsening_order_by_pairs(p)
        below = {lo.tiles for lo, hi in covers if hi == top}
        coatoms, rhombic, positions = _coatoms(k)
        assert {_relabel(C, tile) for C in coatoms} == below
        assert [
            {(tuple(a + 1 for a in x), frozenset(b + 1 for b in y)) for x, y in C}
            for C in positions
        ] == list(coatoms)
        assert set(rhombic) == {T.tiles for T in enumerate_rhombic(w0)}


@pytest.mark.parametrize(
    "n, size, covers", [(3, 3, 2), (4, 17, 24), (5, 203, 440), (6, 5161, 15588)]
)
def test_coarsening_order_of_the_2n_gon_is_a_sphere(n, size, covers):
    """The zonotopal tilings of E(w0(n)) other than the single 2n-gon form a
    poset homotopy equivalent to S^(n-3) (Sturmfels and Ziegler, "Extension
    spaces of oriented matroids", 1993; Reiner, "The generalized Baues
    problem", 1999).  So with a bottom 0 added, mu(0, top) = (-1)^(n-3), top
    being the 2n-gon.  This checks the order, not whether each cover is
    minimal; n = 6 takes about 0.3 s."""
    p = poset(Permutation.longest(n))
    assert (len(p), len(p.cover_indices)) == (size, covers)
    (top,) = {j for _, j in p.cover_indices} - {i for i, _ in p.cover_indices}
    assert len(p.elements[top].tiles) == 1
    assert mobius_from_added_bottom(len(p), p.cover_indices)[top] == (-1) ** (n - 3)


def test_poset_at_the_rank_six_edge():
    enumerate_zonotopal.cache_clear()
    _coatoms.cache_clear()
    start = time.perf_counter()
    p = poset(Permutation.longest(6))
    assert len(p) == 5161
    assert len(p.covers) == 15588
    assert len(maximal_elements(p)) == 1
    assert time.perf_counter() - start < 15


def test_minimal_elements_are_the_rhombic_tilings():
    for w in symmetric_group(4):
        p = poset(w)
        expected = frozenset(from_rhombic(T) for T in enumerate_rhombic(w))
        assert minimal_elements(p) == expected


def test_unique_max_examples():
    assert has_unique_max(Permutation.identity(4))
    assert has_unique_max(Permutation((2, 1, 4, 3)))
    assert has_unique_max(Permutation((3, 2, 1)))
    assert has_unique_max(Permutation.longest(4))
    assert not has_unique_max(Permutation((4, 2, 3, 1)))
    assert not has_unique_max(Permutation((4, 3, 1, 2)))
    assert not has_unique_max(Permutation((3, 4, 2, 1)))


def test_extremal_elements_build_no_other_tiling(monkeypatch):
    """The extremal elements are built from their masks alone, and
    `has_unique_max` counts indices: neither fills a poset's `elements`."""
    w = Permutation.longest(5)
    p = poset(w)
    assert (len(maximal_elements(p)), len(minimal_elements(p))) == (1, 62)
    assert "elements" not in vars(p)
    made = []
    monkeypatch.setattr(zonotopal, "poset", lambda w: made.append(poset(w)) or made[-1])
    assert has_unique_max(w)
    (fresh,) = made
    assert "elements" not in vars(fresh)


def test_unique_max_iff_pattern_avoidance_s4():
    for w in symmetric_group(4):
        assert has_unique_max(w) == avoids_the_three(w)


def test_single_tiling_iff_no_321_s4():
    p321 = Permutation((3, 2, 1))
    for w in symmetric_group(4):
        single = len(enumerate_zonotopal(w)) == 1
        assert single == (not contains_pattern(w, p321))


def test_avoider_counts_match_known_sequences():
    catalan = [1, 2, 5, 14, 42, 132]
    triple = [1, 2, 6, 21, 78, 298]
    p321 = Permutation((3, 2, 1))
    for n in range(1, 7):
        group = list(symmetric_group(n))
        no321 = sum(
            1 for w in group if w.n < 3 or not contains_pattern(w, p321)
        )
        assert no321 == catalan[n - 1]
        assert sum(1 for w in group if avoids_the_three(w)) == triple[n - 1]


def test_minimal_upper_bound_of_a_tiling_with_itself():
    Z = from_rhombic(next(iter(enumerate_rhombic(Permutation((3, 2, 1))))))
    assert minimal_upper_bounds(Z, Z) == frozenset({Z})


def clear_enumeration_caches():
    enumerate_rhombic.cache_clear()
    enumerate_zonotopal.cache_clear()


def assert_enumeration_caches_empty():
    assert enumerate_rhombic.cache_info().currsize == 0
    assert enumerate_zonotopal.cache_info().currsize == 0


def test_minimal_upper_bound_of_the_two_hexagon_halves():
    """Read off the tile table: no enumeration cache is filled."""
    clear_enumeration_caches()
    Z1, Z2 = (from_rhombic(word_to_tiling(Word(x, 3))) for x in [(1, 2, 1), (2, 1, 2)])
    assert minimal_upper_bounds(Z1, Z2) == frozenset({HEX_TILING})
    assert_enumeration_caches_empty()


def test_minimal_upper_bound_of_flip_partners_is_the_coarsening():
    for w in symmetric_group(4):
        for T in enumerate_rhombic(w):
            for f in flip_sites(T):
                mub = minimal_upper_bounds(
                    from_rhombic(T), from_rhombic(apply_flip(T, f))
                )
                assert mub == frozenset({coarsen_flip(T, f)})


def test_minimal_upper_bounds_match_edge_inclusion_on_s1_to_s4():
    pairs = 0
    for n in range(1, 5):
        for w in symmetric_group(n):
            tilings = enumerate_zonotopal(w)
            for Z1 in tilings:
                for Z2 in tilings:
                    expected = minimal_upper_bounds_by_edges(Z1, Z2, tilings)
                    assert minimal_upper_bounds(Z1, Z2) == expected
                    pairs += 1
    assert pairs == 449


def test_minimal_upper_bounds_match_edge_inclusion_on_54321():
    """40 seeded pairs of E(54321)'s 203 tilings, and the 26 flip partners of
    8 seeded rhombic ones, against the edge oracle: the 66 calls take about
    0.26 s, the oracle 0.33 s (2 shared CPUs)."""
    w = Permutation.longest(5)
    tilings = enumerate_zonotopal(w)
    rng = random.Random(20261020)
    ordered = sorted(tilings, key=tiling_digest)
    pairs = [rng.sample(ordered, 2) for _ in range(40)]
    for T in rng.sample(sorted(enumerate_rhombic(w), key=tiling_digest), 8):
        for f in flip_sites(T):
            pairs.append([from_rhombic(T), from_rhombic(apply_flip(T, f))])
    assert len(pairs) == 66
    expected = [minimal_upper_bounds_by_edges(Z1, Z2, tilings) for Z1, Z2 in pairs]
    start = time.perf_counter()
    assert [minimal_upper_bounds(Z1, Z2) for Z1, Z2 in pairs] == expected
    assert time.perf_counter() - start < 1


def test_minimal_upper_bound_rejects_different_polygons():
    with pytest.raises(ValueError):
        minimal_upper_bounds(HEX_TILING, OCT_TILING)


def test_refinements():
    """Read off the `_coatoms` entries: no enumeration cache is filled."""
    clear_enumeration_caches()
    rhombic = from_rhombic(word_to_tiling(Word((1, 2, 1), 3)))
    assert refinements(rhombic) == {to_rhombic(rhombic)}
    assert len(refinements(HEX_TILING)) == 2
    octagon = refinements(OCT_TILING)
    assert_enumeration_caches_empty()
    assert octagon == enumerate_rhombic(Permutation.longest(4))


def test_refinements_are_exactly_the_rhombic_tilings_below():
    for w in symmetric_group(4):
        rhombic = enumerate_rhombic(w)
        for Z in enumerate_zonotopal(w):
            below = {T for T in rhombic if zono_leq(from_rhombic(T), Z)}
            assert refinements(Z) == below


def test_tile_size_census():
    for w in symmetric_group(4):
        for Z in enumerate_zonotopal(w):
            total = sum(t.size * (t.size - 1) // 2 for t in Z.tiles)
            assert total == w.length()


def test_validation_errors():
    w321 = Permutation((3, 2, 1))
    assert validation_error(HEX_TILING) is None
    assert validate(OCT_TILING)

    doubled = ZonoTiling(
        w321,
        frozenset({ZonoTile((1, 2), frozenset()), ZonoTile((1, 2, 3), frozenset())}),
    )
    assert "more than one" in validation_error(doubled)

    not_inv = ZonoTiling(
        Permutation((2, 1, 3)), frozenset({ZonoTile((1, 3), frozenset())})
    )
    assert "not an inversion" in validation_error(not_inv)

    missing = ZonoTiling(w321, frozenset({ZonoTile((1, 2), frozenset())}))
    assert "not covered" in validation_error(missing)

    no_peel = ZonoTiling(
        Permutation((3, 1, 2)),
        frozenset({ZonoTile((1, 3), frozenset()), ZonoTile((2, 3), frozenset())}),
    )
    assert "peeling" in validation_error(no_peel)

    overlap = ZonoTiling(w321, frozenset({ZonoTile((1, 2), frozenset({1}))}))
    assert "disjoint" in validation_error(overlap)

    out_of_range = ZonoTiling(
        Permutation((2, 1)), frozenset({ZonoTile((1, 5), frozenset())})
    )
    assert "outside" in validation_error(out_of_range)


@pytest.mark.parametrize("kind", [ZonoTiling, RhombicTiling])
def test_validation_reports_the_least_bad_pair_first(kind):
    """With several bad pairs, the least is named; a pair that is both
    outside inv(w) and doubled is named as not an inversion."""

    def tiling(w, *tiles):
        return kind(Permutation(w), frozenset(ZonoTile(*t) for t in tiles))

    e = frozenset()
    same = tiling((1, 2, 3), ((1, 2), e), ((1, 2), {3}))
    assert validation_error(same) == "pair (1, 2) is not an inversion of 123"
    extra_first = tiling((1, 3, 2), ((1, 2), e), ((2, 3), e), ((2, 3), {1}))
    assert validation_error(extra_first) == "pair (1, 2) is not an inversion of 132"
    doubled_first = tiling((2, 1, 3), ((1, 2), e), ((1, 2), {3}), ((1, 3), e))
    assert validation_error(doubled_first) == "pair (1, 2) covered by more than one tile"


def test_enumerated_tilings_all_validate():
    for w in symmetric_group(4):
        for Z in enumerate_zonotopal(w):
            assert validate(Z)


def test_json_uses_labels_key():
    text = HEX_TILING.to_json()
    expected = '{"n": 3, "w": [3, 2, 1], "tiles": [{"labels": [1, 2, 3], "base": []}]}'
    assert text == expected


@pytest.mark.long
def test_local_covers_match_the_pairwise_order_sampled_s6():
    for w in sample_permutations(6, 12, seed=20261017):
        p = poset(w)
        assert local_order(p) == coarsening_order_by_pairs(p)
    p = poset(Permutation.from_string("7463512"))
    assert local_order(p) == coarsening_order_by_pairs(p)
    assert (len(p), len(p.covers), len(maximal_elements(p))) == (2115, 6706, 56)


@pytest.mark.long
def test_unique_max_iff_pattern_avoidance_sampled_s6():
    chosen = set(sample_permutations(6, 40, seed=20260822))
    chosen.add(Permutation.longest(6))
    for p in PATTERNS_FOR_UNIQUE_MAX:
        chosen.add(Permutation(p.values + (5, 6)))
    for w in sorted(chosen, key=lambda w: w.values):
        assert has_unique_max(w) == avoids_the_three(w)
        single = len(enumerate_zonotopal(w)) == 1
        assert single == (not contains_pattern(w, Permutation((3, 2, 1))))
        for Z in enumerate_zonotopal(w):
            total = sum(t.size * (t.size - 1) // 2 for t in Z.tiles)
            assert total == w.length()

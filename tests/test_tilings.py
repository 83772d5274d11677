import copy
import gc
import hashlib
import json
import pickle
import random
import time
import tracemalloc
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from elnitsky import (
    Coloring,
    GuardExceeded,
    NotReducedError,
    Permutation,
    RhombicTiling,
    Word,
    ZonoTile,
    ZonoTiling,
    all_words,
    commutation_classes,
    enumerate_rhombic,
    enumerate_zonotopal,
    fixed_point_image_count,
    fixed_point_images,
    inversions,
    parse_tiling,
    peeling_orders,
    realize_fixed_point,
    reduced_words,
    tiling_digest,
    tiling_to_word,
    validate,
    validation_error,
    vertices_of,
    word_to_tiling,
)
from elnitsky.growth import _block_graph
from elnitsky.tilings import canonical_lines, polygon_vertices, prefix_sets

from helpers import (
    canonical_json_by_dumps,
    class_size_by_growth,
    inversions_by_pairs,
    peel_order_by_search,
    peeling_orders_by_search,
    reduced_words_by_descents,
    sample_permutations,
    some_reduced_word,
    staircase_words_by_hooks,
    symmetric_group,
    tilings_by_canonical_growth,
    unpeelable_pairs_tiling,
    zonotopal_tile_sets,
)

LONG_WORD = Word((3, 4, 2, 5, 6, 5, 3, 4, 3, 2, 1, 5, 2, 3, 6, 4, 5), 7)
PEEL_REFUSAL = "tiles do not admit any peeling order from the base boundary"
L20_TILING = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "l20.json"


def tilings_of(n):
    for w in symmetric_group(n):
        for T in enumerate_rhombic(w):
            yield T


def test_rhombus_normalizes_pair():
    t = ZonoTile((4, 2), {1})
    assert t.labels == (2, 4)
    assert t == ZonoTile((2, 4), frozenset({1}))
    with pytest.raises(ValueError):
        ZonoTile((3, 3), frozenset())


def engine_tiles_of_s1_to_s5():
    """Every distinct tile object of every rhombic and zonotopal tiling of
    S1-S5 (the engines share one object per tile within an enumeration)."""
    tiles = {}
    for n in range(1, 6):
        for w in symmetric_group(n):
            for T in (*enumerate_rhombic(w), *enumerate_zonotopal(w)):
                tiles.update((id(t), t) for t in T.tiles)
    return list(tiles.values())


def test_a_tile_is_its_labels_and_base_on_s1_to_s5():
    tiles = engine_tiles_of_s1_to_s5()
    assert {type(t) for t in tiles} == {ZonoTile}
    for t in tiles:
        pair = (t.labels, t.base)
        assert t == pair and hash(t) == hash(pair)
        for again in (pickle.loads(pickle.dumps(t)), copy.copy(t)):
            assert type(again) is type(t) and again == pair
        base = ", ".join(map(str, sorted(t.base)))
        assert repr(t) == f"{type(t).__name__}({t.labels}, {{{base}}})"


def test_tile_repr_and_plain_pair_lookup():
    assert repr(ZonoTile((2, 1), {3})) == "ZonoTile((1, 2), {3})"
    assert repr(ZonoTile((3, 1, 2), set())) == "ZonoTile((1, 2, 3), {})"
    assert ((1, 2), frozenset({3})) in {ZonoTile((2, 1), {3})}


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ZonoTile((1,), frozenset()), "at least 2 labels"),
        (lambda: ZonoTile((2, 1, 2), frozenset()), "repeated tile label"),
        (lambda: ZonoTile((3, 3), frozenset()), "repeated tile label"),
    ],
)
def test_tile_construction_still_checks_labels(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_growth_single_tile():
    T = word_to_tiling(Word((1,), 2))
    assert T.w == Permutation((2, 1))
    assert T.tiles == {ZonoTile((1, 2), frozenset())}


def test_growth_rejects_unreduced_word_naming_position():
    with pytest.raises(NotReducedError) as err:
        word_to_tiling(Word((1, 2, 1, 1), 3))
    assert err.value.position == 4
    assert err.value.letter == 1
    with pytest.raises(NotReducedError) as err:
        word_to_tiling(Word((1, 1), 3))
    assert err.value.position == 2


def test_growth_on_the_17_letter_word():
    T = word_to_tiling(LONG_WORD)
    assert T.w == Permutation.from_string("7456312")
    assert len(T.tiles) == 17
    assert ZonoTile((3, 4), frozenset({1, 2})) in T.tiles
    assert validate(T)


def test_commutation_invariance_exhaustive_s4():
    for w in symmetric_group(4):
        for c in commutation_classes(w):
            tilings = {word_to_tiling(word) for word in c.members}
            assert len(tilings) == 1
        # distinct classes produce distinct tile sets
        all_tilings = [
            word_to_tiling(c.representative) for c in commutation_classes(w)
        ]
        assert len(set(all_tilings)) == len(all_tilings)


def test_peeling_round_trip_and_lex_min():
    for T in tilings_of(4):
        word = tiling_to_word(T)
        assert word_to_tiling(word) == T
        words = all_words(T)
        assert word == min(words, key=lambda v: v.letters)


def test_all_words_equals_oracle_class():
    for w in symmetric_group(4):
        for T in enumerate_rhombic(w):
            classes = commutation_classes(w)
            matching = [c for c in classes if tiling_to_word(T) in c]
            assert len(matching) == 1
            assert all_words(T) == matching[0].members


def test_all_words_examples():
    assert all_words(word_to_tiling(Word((1, 3), 4))) == {
        Word((1, 3), 4),
        Word((3, 1), 4),
    }
    assert all_words(word_to_tiling(Word((1, 2, 1), 3))) == {Word((1, 2, 1), 3)}


def test_enumerate_counts():
    assert len(enumerate_rhombic(Permutation.identity(3))) == 1
    assert len(enumerate_rhombic(Permutation((3, 2, 1)))) == 2
    assert len(enumerate_rhombic(Permutation.longest(4))) == 8
    (empty,) = enumerate_rhombic(Permutation.identity(4))
    assert empty.tiles == frozenset()


def grown_from_each_class(w):
    return {word_to_tiling(c.representative) for c in commutation_classes(w)}


def test_enumeration_matches_oracle_bijection_s1_to_s5():
    for n in range(1, 6):
        for w in symmetric_group(n):
            assert enumerate_rhombic(w) == grown_from_each_class(w)


@pytest.mark.long
def test_enumeration_matches_oracle_bijection_sampled_s6():
    for w in sample_permutations(6, 12, seed=20261018):
        assert enumerate_rhombic(w) == grown_from_each_class(w)


@pytest.mark.parametrize("w", ["654321", "7463512"])
def test_enumerations_match_the_canonical_growth(w):
    w = Permutation.from_string(w)
    assert enumerate_rhombic(w) == tilings_by_canonical_growth(w)
    assert enumerate_zonotopal(w) == tilings_by_canonical_growth(w, zonotopal=True)


@pytest.mark.long
def test_enumerations_match_the_canonical_growth_at_7654312():
    w = Permutation.from_string("7654312")
    assert enumerate_rhombic(w) == tilings_by_canonical_growth(w)
    assert enumerate_zonotopal(w) == tilings_by_canonical_growth(w, zonotopal=True)


@pytest.mark.parametrize("w", ["654321", "7463512"])
@pytest.mark.parametrize("zonotopal", [False, True])
def test_the_merge_grows_each_tiling_once(w, zonotopal):
    """One block each, whose graph's paths are distinct tile sets, one per
    tiling: equal states merge into one node, and the canonical-order test
    lets one placement order of each tile set through, so no path repeats."""
    w = Permutation.from_string(w)
    fits = [0] * (w.n + 1)
    for a, b in inversions(w):
        fits[a] |= 1 << b
    root = _block_graph(w.values, 0, fits, w.n if zonotopal else 2, [], [])

    def paths(node):
        """Each path's tiles; a move's label holds its tile."""
        if not node:
            yield frozenset()
        for (tile,), after in node:
            for rest in paths(after):
                yield rest | {tile}

    tile_sets = list(paths(root))
    enumerate_tilings = enumerate_zonotopal if zonotopal else enumerate_rhombic
    assert len(tile_sets) == len(set(tile_sets)) == len(enumerate_tilings(w))
    assert set(tile_sets) == {T.tiles for T in enumerate_tilings(w)}


@pytest.mark.parametrize("enumerate_tilings", [enumerate_rhombic, enumerate_zonotopal])
def test_enumeration_leaves_no_reference_cycles(enumerate_tilings):
    """The growth graph is freed by reference counting as soon as the walk
    ends, not kept alive until the cyclic collector runs."""
    w = Permutation.from_string("7463512")
    gc.collect()
    gc.disable()
    try:
        enumerate_tilings.__wrapped__(w)
        assert gc.collect() == 0
    finally:
        gc.enable()


def traced_peak(f, *args):
    """The peak of memory traced while f(*args) runs, in bytes."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def direct_sum(w, v):
    """w on 1..m followed by v on m+1..m+n: a pinch vertex at m."""
    return Permutation(w.values + tuple(x + w.n for x in v.values))


def check_direct_sums(max_rhombic_length):
    """Both enumerations of w + v, for w and v in S1-S4, against the
    memoized zonotopal search, and the rhombic one against one tiling per
    commutation class where l(w) + l(v) <= max_rhombic_length."""
    small = [w for n in range(1, 5) for w in symmetric_group(n)]
    for a in small:
        for b in small:
            w = direct_sum(a, b)
            zonotopal = enumerate_zonotopal(w)
            assert {Z.tiles for Z in zonotopal} == zonotopal_tile_sets(w)
            assert len(zonotopal) == len(enumerate_zonotopal(a)) * len(
                enumerate_zonotopal(b)
            )
            if w.length() <= max_rhombic_length:
                assert enumerate_rhombic(w) == grown_from_each_class(w)


def test_direct_sums_match_the_oracles():
    check_direct_sums(max_rhombic_length=7)


@pytest.mark.long
def test_direct_sums_match_the_oracles_at_every_length():
    check_direct_sums(max_rhombic_length=12)


@pytest.mark.parametrize("k", [16, 20])
def test_commuting_pairs_enumerate_within_budget(k):
    """2,1,4,3,...,2k,2k-1: k commuting inversions, one tiling."""
    w = Permutation(tuple(v for i in range(1, k + 1) for v in (2 * i, 2 * i - 1)))
    start = time.perf_counter()
    tilings = enumerate_rhombic.__wrapped__(w)
    assert time.perf_counter() - start < 0.1
    assert tilings == {word_to_tiling(Word(tuple(range(1, 2 * k, 2)), 2 * k))}
    assert enumerate_rhombic(w) == tilings


def test_an_indecomposable_sparse_word_enumerates_within_budget():
    """One tiling, no pinch vertex, and nothing to merge: each of the
    10,945 boundaries below w is reached by one partial tiling.  Best of
    three calls under 0.5 s; on a 2-CPU host a call takes about 0.1 s."""
    T = word_to_tiling(Word(tuple(range(1, 20, 2)) + tuple(range(2, 19, 2)), 20))
    assert T.w.values == (2, 4, 1, 6, 3, 8, 5, 10, 7, 12, 9, 14, 11, 16, 13, 18, 15, 20, 17, 19)
    assert len(T.tiles) == 19
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        tilings = enumerate_rhombic.__wrapped__(T.w)
        best = min(best, time.perf_counter() - start)
    assert best < 0.5
    assert tilings == {T}


def test_an_indecomposable_sparse_word_enumerates_within_memory():
    """Nothing merges, so the memo keeps all 10,945 states below w: about
    6 MB traced."""
    w = word_to_tiling(Word(tuple(range(1, 20, 2)) + tuple(range(2, 19, 2)), 20)).w
    assert traced_peak(enumerate_rhombic.__wrapped__, w) < 12_000_000


@pytest.mark.long
def test_zonotopal_enumeration_at_the_length_guard_within_memory():
    """66,191 tilings of 7654312: about 70 MB traced."""
    w = Permutation.from_string("7654312")
    assert traced_peak(enumerate_zonotopal.__wrapped__, w) < 76_000_000


def test_enumeration_guard():
    """`canonical_lines` refuses by the same guard as the enumerations,
    zonotopal rank before length; the two-digit-label polygon has rank 12."""
    for w, zonotopal in [
        ("7654321", False),
        ("87654321", True),
        ("987654321", True),
        ("3,2,1,4,5,6,7,8,12,11,10,9", True),
    ]:
        w = Permutation.from_string(w)
        with pytest.raises(GuardExceeded) as by_tilings:
            (enumerate_zonotopal if zonotopal else enumerate_rhombic)(w)
        with pytest.raises(GuardExceeded) as by_lines:
            canonical_lines(w, zonotopal)
        assert str(by_lines.value) == str(by_tilings.value)


def test_enumeration_guard_refuses_a_long_permutation_at_once():
    """The guard compares l(w) with its bound, so counting the inversions
    is all the work before a refusal: at rank 80,000, with 3.2e9 of them,
    well under 0.5 s (about 0.2 s on a 2-CPU host)."""
    w = Permutation.longest(80_000)
    start = time.perf_counter()
    with pytest.raises(GuardExceeded):
        enumerate_rhombic(w)
    assert time.perf_counter() - start < 0.5


def test_all_words_guard():
    big = word_to_tiling(some_reduced_word(Permutation.longest(7)))
    assert len(big.tiles) == 21
    with pytest.raises(GuardExceeded):
        all_words(big)
    with pytest.raises(GuardExceeded):
        peeling_orders(big)  # at the call, before anything is yielded


def test_all_words_refuses_an_unpeelable_tile_set_at_once():
    T = unpeelable_pairs_tiling(10)
    assert len(T.tiles) == 10
    assert validation_error(T) == PEEL_REFUSAL
    with pytest.raises(ValueError, match="no tile sits on the boundary"):
        tiling_to_word(T)
    start = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        all_words(T)
    assert time.perf_counter() - start < 0.1
    assert str(refused.value) == "malformed tiling: no complete peeling order exists"
    with pytest.raises(ValueError, match="no complete peeling order exists"):
        peeling_orders(T)


def walk_matching_search(T):
    """T's peeling orders, checked to come out as the search's, sorted."""
    orders = list(peeling_orders(T))
    assert orders == sorted(peeling_orders_by_search(T))
    return orders


def test_peeling_orders_match_the_search_on_s1_to_s5():
    tilings = [T for n in range(1, 6) for T in tilings_of(n)]
    assert len(tilings) == 529
    for T in tilings:
        words = walk_matching_search(T)
        assert words[0] == tiling_to_word(T).letters


def test_peeling_orders_match_the_search_at_l20():
    T = parse_tiling(L20_TILING.read_text(encoding="utf-8"))
    assert len(T.tiles) == 20
    assert len(walk_matching_search(T)) == 10180


@pytest.mark.parametrize("k", range(2, 8))
def test_peeling_orders_of_commuting_letters(k):
    T = word_to_tiling(Word(tuple(range(1, 2 * k, 2)), 2 * k))
    assert len(walk_matching_search(T)) == factorial(k)


@pytest.mark.long
def test_peeling_orders_match_the_search_sampled_s6():
    # the 908 tilings of 654321 hold all 292,864 of its reduced words
    sample = sample_permutations(6, 12, seed=20261018) + [Permutation.longest(6)]
    words = {
        w: sum(len(walk_matching_search(T)) for T in enumerate_rhombic(w))
        for w in sample
    }
    assert words[Permutation.longest(6)] == 292864


@pytest.mark.long
def test_peeling_orders_match_the_search_near_the_length_guard():
    """Seeded tilings of six S7 permutations with 18 <= l <= 20; with this
    seed the classes hold 286 to 342,940 words."""
    rng = random.Random(20261019)
    near = [w for w in symmetric_group(7) if 18 <= w.length() <= 20]
    for w in rng.sample(near, 6):
        T = rng.choice(sorted(enumerate_rhombic(w), key=tiling_digest))
        assert walk_matching_search(T)[0] == tiling_to_word(T).letters


def test_peeling_orders_hold_no_boundary_of_rank_n():
    """The walk's DAG is keyed by masks of tiles peeled: ten commuting
    letters at rank 5,000 take under 4 MB before the first word, where a
    DAG keyed by boundaries would hold 1,024 of them, 5,000 values each."""
    T = word_to_tiling(Word(tuple(range(1, 20, 2)), 5000))
    tracemalloc.start()
    try:
        first = next(peeling_orders(T))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == tuple(range(1, 20, 2))
    assert peak < 4_000_000


def test_all_words_of_eight_commuting_letters_within_budget():
    # best of three calls, so one burst of load on the host does not decide it
    T = word_to_tiling(Word(tuple(range(1, 16, 2)), 16))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        words = all_words(T)
        best = min(best, time.perf_counter() - start)
    assert len(words) == factorial(8)
    assert best < 0.3


def test_peeling_orders_at_rank_100000_within_budget():
    T = word_to_tiling(Word((1, 3), 100000))
    start = time.perf_counter()
    orders = list(peeling_orders(T))
    assert time.perf_counter() - start < 0.5
    assert orders == [(1, 3), (3, 1)]


def test_word_to_tiling_at_rank_200000_within_budget():
    word = Word(tuple(range(1, 40, 2)), 200000)
    start = time.perf_counter()
    T = word_to_tiling(word)
    assert time.perf_counter() - start < 0.25
    assert T.w.values[:40] == tuple(v for i in range(1, 21) for v in (2 * i, 2 * i - 1))
    assert T.w.values[40:] == tuple(range(41, 200001))
    assert T.tiles == {
        ZonoTile((2 * i - 1, 2 * i), frozenset(range(1, 2 * i - 1))) for i in range(1, 21)
    }


def test_word_functions_refuse_tiles_larger_than_a_rhombus():
    hexagon = ZonoTiling(
        Permutation((3, 2, 1)), frozenset({ZonoTile((1, 2, 3), frozenset())})
    )
    refusals = [
        tiling_to_word,
        all_words,
        peeling_orders,
        fixed_point_images,
        fixed_point_image_count,
        lambda T: realize_fixed_point(T, Coloring.all_light(T)),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError) as refused:
            refuse(hexagon)
        assert str(refused.value) == (
            "not a rhombic tiling: tile ZonoTile((1, 2, 3), {}) has 3 labels"
        )
    coarse = [
        Z
        for n in range(3, 5)
        for w in symmetric_group(n)
        for Z in enumerate_zonotopal(w)
        if any(t.size > 2 for t in Z.tiles)
    ]
    assert coarse
    for Z in coarse:
        for refuse in (tiling_to_word, all_words, peeling_orders):
            with pytest.raises(ValueError, match="not a rhombic tiling"):
                refuse(Z)


def test_tile_count_is_length():
    for T in tilings_of(4):
        assert len(T.tiles) == T.w.length()
        assert {t.labels for t in T.tiles} == inversions(T.w)


def test_validate_rejects_bad_tilings():
    bad_base = RhombicTiling(
        Permutation((2, 1)), frozenset({ZonoTile((1, 2), frozenset({1}))})
    )
    assert not validate(bad_base)
    assert "disjoint" in validation_error(bad_base)

    w312 = Permutation((3, 1, 2))
    overlap = RhombicTiling(
        w312,
        frozenset({ZonoTile((1, 3), frozenset()), ZonoTile((2, 3), frozenset())}),
    )
    assert not validate(overlap)
    assert "peeling" in validation_error(overlap)

    not_inversion = RhombicTiling(
        Permutation((2, 1, 3)), frozenset({ZonoTile((1, 3), frozenset())})
    )
    assert "not an inversion" in validation_error(not_inversion)

    missing = RhombicTiling(Permutation((3, 2, 1)), frozenset())
    assert "not covered" in validation_error(missing)

    out_of_range = RhombicTiling(
        Permutation((2, 1)), frozenset({ZonoTile((1, 5), frozenset())})
    )
    assert "outside" in validation_error(out_of_range)


@st.composite
def mutated_zonotopal_tilings(draw):
    """A zonotopal tiling of a random permutation of S3-S6, left as it is,
    with one tile moved to another base disjoint from its labels, or with
    the labels of two same-size tiles exchanged.  (Changing one tile's
    labels alone always changes the pairs it covers.)"""
    n = draw(st.integers(3, 6))
    w = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    tilings = sorted(enumerate_zonotopal(w), key=tiling_digest)
    tiles = list(draw(st.sampled_from(tilings)).canonical_tiles())
    kind = draw(st.sampled_from(("none", "base", "labels")))
    if kind == "base" and tiles:
        i = draw(st.integers(0, len(tiles) - 1))
        others = [x for x in range(1, n + 1) if x not in tiles[i].labels]
        keep = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
        base = frozenset(x for x, kept in zip(others, keep) if kept)
        tiles[i] = ZonoTile(tiles[i].labels, base)
    elif kind == "labels" and len(tiles) >= 2:
        index = st.integers(0, len(tiles) - 1)
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        assume(tiles[i].size == tiles[j].size)
        a, b = tiles[i], tiles[j]
        tiles[i], tiles[j] = ZonoTile(b.labels, a.base), ZonoTile(a.labels, b.base)
    return ZonoTiling(w, frozenset(tiles))


def passes_pair_checks(T):
    """Every base disjoint from its labels, and every inversion of w covered
    by exactly one tile and nothing else covered."""
    pairs = sorted(pair for t in T.tiles for pair in combinations(t.labels, 2))
    return all(t.base.isdisjoint(t.labels) for t in T.tiles) and pairs == sorted(
        inversions_by_pairs(T.w)
    )


@given(mutated_zonotopal_tilings())
@settings(max_examples=300, deadline=None)
def test_greedy_validation_matches_the_backtracking_search(T):
    assume(passes_pair_checks(T))
    peelable = peel_order_by_search(T.n, {(t.labels, t.base) for t in T.tiles})
    assert validate(T) == peelable
    assert validation_error(T) == (None if peelable else PEEL_REFUSAL)


def test_validate_accepts_every_growth_output():
    for T in tilings_of(4):
        assert validation_error(T) is None


def test_validate_accepts_one_rank_2000_tile_without_listing_its_pairs():
    """E(w0(2000)) as its one 4000-gon: a peel of every tile that reaches w
    accepts it with none of the tile's 1,999,000 pairs listed."""
    n = 2000
    T = ZonoTiling(Permutation.longest(n), frozenset({ZonoTile(range(1, n + 1), ())}))
    start = time.perf_counter()
    assert validation_error(T) is None
    assert time.perf_counter() - start < 0.3
    assert traced_peak(validation_error, T) < 10 * 2**20


def test_edges_and_vertices_of_single_tile():
    T = word_to_tiling(Word((1,), 2))
    assert len(vertices_of(T)) == 4


def test_seven_vertices_in_any_hexagon_tiling():
    for T in enumerate_rhombic(Permutation((3, 2, 1))):
        assert len(vertices_of(T)) == 7


def test_boundary_vertices_always_present():
    for T in tilings_of(4):
        assert polygon_vertices(T.w) <= vertices_of(T)


def test_long_word_tiling_has_both_boundary_apex_sets():
    T = word_to_tiling(LONG_WORD)
    verts = vertices_of(T)
    assert frozenset({1, 2, 3, 4, 5, 6}) in verts
    assert frozenset({7, 4, 5, 6, 3, 1}) in verts
    assert prefix_sets(T.w)[6] == frozenset({7, 4, 5, 6, 3, 1})


def test_degenerate_polygons_keep_boundary_data():
    # identity boundary and w boundary share vertices where prefixes agree
    for w in (Permutation((2, 1, 3)), Permutation((1, 3, 2, 4))):
        for T in enumerate_rhombic(w):
            assert polygon_vertices(w) <= vertices_of(T)
            assert validate(T)


def test_json_golden_form():
    T = word_to_tiling(Word((1, 2, 1), 3))
    expected = (
        '{"n": 3, "w": [3, 2, 1], "tiles": ['
        '{"pair": [1, 2], "base": []}, '
        '{"pair": [1, 3], "base": [2]}, '
        '{"pair": [2, 3], "base": []}]}'
    )
    assert T.to_json() == expected
    assert json.loads(T.to_json())["w"] == [3, 2, 1]


def lines_by_dumps(w, zonotopal):
    """The sorted canonical JSON of E(w)'s tilings by `json.dumps`."""
    tilings = (enumerate_zonotopal if zonotopal else enumerate_rhombic)(w)
    return sorted(canonical_json_by_dumps(T) for T in tilings)


def test_to_json_matches_json_dumps_on_s1_to_s5():
    for n in range(1, 6):
        for w in symmetric_group(n):
            for T in enumerate_rhombic(w) | enumerate_zonotopal(w):
                assert T.to_json() == canonical_json_by_dumps(T)
            for zonotopal in (False, True):
                assert canonical_lines(w, zonotopal) == lines_by_dumps(w, zonotopal)


@pytest.mark.parametrize(
    "w, zonotopal",
    [
        ("3,2,1,4,5,6,7,8,12,11,10,9", False),
        # one block, of values 298..300, above what a byte holds
        (",".join(map(str, [*range(1, 298), 300, 299, 298])), False),
        # three blocks split by pinch vertices, and tiles of 2 and 3 labels
        ("3,2,1,6,5,4,8,7", True),
        ("7463512", False),
        ("7463512", True),
        ("7456312", False),
        ("7456312", True),
        ("7654312", False),
        pytest.param("7654312", True, marks=pytest.mark.long),
    ],
)
def test_canonical_lines_match_json_dumps(w, zonotopal):
    """The lines written from the growth graph's paths, against `json.dumps`
    of every enumerated tiling; compared by SHA-256 over the lines."""
    w = Permutation.from_string(w)

    def digest(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    assert digest(canonical_lines(w, zonotopal)) == digest(lines_by_dumps(w, zonotopal))


def test_canonical_lines_at_the_length_guard_within_memory():
    """6,888 lines of 7654312 and its growth graph: about 7 MB traced,
    where sorting `to_json` of the enumerated tilings traces about 22 MB."""
    w = Permutation.from_string("7654312")
    assert traced_peak(canonical_lines, w) < 12_000_000


@pytest.mark.long
def test_zonotopal_canonical_lines_at_the_length_guard_within_memory():
    """66,191 lines of 7654312: about 49 MB traced, where sorting `to_json`
    of the enumerated tilings traces about 111 MB."""
    w = Permutation.from_string("7654312")
    assert traced_peak(canonical_lines, w, True) < 70_000_000


def class_sizes(w):
    """The commutation class size of each rhombic tiling of E(w), counted
    by growth from its tiles as `canonical_lines` writes them."""
    for line in canonical_lines(w):
        tiles = {(tuple(t["pair"]), frozenset(t["base"])) for t in json.loads(line)["tiles"]}
        yield class_size_by_growth(w, tiles)


@pytest.mark.parametrize("n, words", [(5, 768), (6, 292_864)])
def test_class_sizes_of_w0_sum_to_the_hook_length_count(n, words):
    """The rhombic tilings of E(w) are the commutation classes of w, so their
    class sizes sum to R(w), here R(w0(n)) by the hook-length formula."""
    assert staircase_words_by_hooks(n) == words
    assert sum(class_sizes(Permutation.longest(n))) == words


def test_class_sizes_at_the_length_guard_sum_to_the_descent_count():
    """As above at 7654312, whose R(w) the descent recursion gives."""
    w = Permutation.from_string("7654312")
    assert reduced_words_by_descents(w) == 141_892_608
    assert sum(class_sizes(w)) == 141_892_608


@pytest.mark.long
def test_class_sizes_sum_to_the_descent_count_on_s7():
    """As above for all 5,039 w of S7 within the length guard, l(w) <= 20:
    every w of S7 but w0(7)."""
    checked = 0
    for w in symmetric_group(7):
        if w.length() <= 20:
            assert sum(class_sizes(w)) == reduced_words_by_descents(w), w.to_string()
            checked += 1
    assert checked == 5039


def test_to_json_matches_json_dumps_with_two_digit_labels():
    # 1,2,1 and the w0 of 9..12 commute; labels and bases mix one and two digits
    T = word_to_tiling(Word((1, 2, 1, 9, 10, 11, 9, 10, 9), 12))
    assert T.w.values == (3, 2, 1, 4, 5, 6, 7, 8, 12, 11, 10, 9)
    assert '"pair": [10, 12], "base": [1, 2, 3, 4, 5, 6, 7, 8, 11]' in T.to_json()
    assert T.to_json() == canonical_json_by_dumps(T)


def test_to_json_spells_tiles_by_the_tiling_not_the_tile():
    T = word_to_tiling(LONG_WORD)
    Z = ZonoTiling(T.w, T.tiles)
    assert all(type(t) is ZonoTile for t in Z.tiles)
    assert Z.to_json() == canonical_json_by_dumps(Z)
    assert Z.to_json() == T.to_json().replace('"pair"', '"labels"')


def test_digest_is_short_and_stable():
    T = word_to_tiling(Word((1, 2, 1), 3))
    again = word_to_tiling(Word((1, 2, 1), 3))
    assert tiling_digest(T) == tiling_digest(again)
    assert len(tiling_digest(T)) == 12
    assert int(tiling_digest(T), 16) >= 0


_word_pool = sorted(
    (word for w in symmetric_group(4) for word in reduced_words(w)),
    key=lambda v: v.letters,
)


@given(st.sampled_from(_word_pool))
@settings(max_examples=60, deadline=None)
def test_growth_peeling_round_trip_property(word):
    T = word_to_tiling(word)
    assert len(T.tiles) == len(word)
    assert word in all_words(T)
    assert word_to_tiling(tiling_to_word(T)) == T


def test_rhombic_tilings_of_w0_match_oeis_a006245():
    counts = [len(enumerate_rhombic(Permutation.longest(n))) for n in range(1, 7)]
    assert counts == [1, 1, 2, 8, 62, 908]

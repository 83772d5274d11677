import json

import pytest
from hypothesis import given, settings, strategies as st

from elnitsky import (
    Edge,
    GuardExceeded,
    NotReducedError,
    Permutation,
    RhombicTiling,
    Rhombus,
    Word,
    all_words,
    commutation_classes,
    edges_of,
    enumerate_rhombic,
    inversions,
    reduced_words,
    tiling_digest,
    tiling_to_word,
    validate,
    validation_error,
    vertices_of,
    word_to_tiling,
)
from elnitsky.tilings import polygon_vertices, prefix_sets

from helpers import sample_permutations, some_reduced_word, symmetric_group

LONG_WORD = Word((3, 4, 2, 5, 6, 5, 3, 4, 3, 2, 1, 5, 2, 3, 6, 4, 5), 7)


def tilings_of(n):
    for w in symmetric_group(n):
        for T in enumerate_rhombic(w):
            yield T


def test_rhombus_normalizes_pair():
    t = Rhombus((4, 2), frozenset({1}))
    assert t.pair == (2, 4)
    assert t == Rhombus((2, 4), {1})
    with pytest.raises(ValueError):
        Rhombus((3, 3), frozenset())


def test_edge_rejects_label_in_tail():
    with pytest.raises(ValueError):
        Edge(frozenset({2}), 2)
    assert Edge(frozenset(), 2).head == frozenset({2})


def test_growth_single_tile():
    T = word_to_tiling(Word((1,), 2))
    assert T.w == Permutation((2, 1))
    assert T.tiles == {Rhombus((1, 2), frozenset())}


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
    assert Rhombus((3, 4), frozenset({1, 2})) in T.tiles
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


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        enumerate_rhombic(Permutation.longest(7))


def test_all_words_guard():
    big = word_to_tiling(some_reduced_word(Permutation.longest(7)))
    assert len(big.tiles) == 21
    with pytest.raises(GuardExceeded):
        all_words(big)


def test_tile_count_is_length():
    for T in tilings_of(4):
        assert len(T.tiles) == T.w.length()
        assert {t.pair for t in T.tiles} == inversions(T.w)


def test_validate_rejects_bad_tilings():
    bad_base = RhombicTiling(
        Permutation((2, 1)), frozenset({Rhombus((1, 2), frozenset({1}))})
    )
    assert not validate(bad_base)
    assert "disjoint" in validation_error(bad_base)

    w312 = Permutation((3, 1, 2))
    overlap = RhombicTiling(
        w312,
        frozenset({Rhombus((1, 3), frozenset()), Rhombus((2, 3), frozenset())}),
    )
    assert not validate(overlap)
    assert "peeling" in validation_error(overlap)

    not_inversion = RhombicTiling(
        Permutation((2, 1, 3)), frozenset({Rhombus((1, 3), frozenset())})
    )
    assert "not an inversion" in validation_error(not_inversion)

    missing = RhombicTiling(Permutation((3, 2, 1)), frozenset())
    assert "not covered" in validation_error(missing)

    out_of_range = RhombicTiling(
        Permutation((2, 1)), frozenset({Rhombus((1, 5), frozenset())})
    )
    assert "outside" in validation_error(out_of_range)


def test_validate_accepts_every_growth_output():
    for T in tilings_of(4):
        assert validation_error(T) is None


def test_edges_and_vertices_of_single_tile():
    T = word_to_tiling(Word((1,), 2))
    assert len(edges_of(T)) == 4
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

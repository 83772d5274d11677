import time
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from elnitsky import (
    Coloring,
    GuardExceeded,
    Permutation,
    QPolynomial,
    Word,
    ZonoTile,
    ZonoTiling,
    all_colorings,
    all_words,
    bruhat_leq,
    coarsen_flip,
    enumerate_rhombic,
    fixed_point_image_count,
    fixed_point_images,
    flip_sites,
    image_permutation,
    poincare,
    q_factorial,
    realize_fixed_point,
    stratum_dimension,
    tiling_digest,
    vertices_of,
    word_to_tiling,
)
from elnitsky.bott_samelson import _image_from, _propagate
from elnitsky.tilings import ZonoTile, _greedy_peel, prefix_sets

from helpers import (
    bruhat_interval,
    some_reduced_word,
    symmetric_group,
    unit_edges,
    wiring_image,
)

T21 = word_to_tiling(Word((1,), 2))
T121 = word_to_tiling(Word((1, 2, 1), 3))


def test_qpolynomial_normalization_and_arithmetic():
    assert QPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPolynomial((0,)).coeffs == ()
    assert QPolynomial.one().coeffs == (1,)
    assert QPolynomial.one().degree == 0

    p = QPolynomial((1, 1))
    assert (p * p).coeffs == (1, 2, 1)
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert (p**0) == QPolynomial.one()
    with pytest.raises(ValueError):
        p ** (-1)

    assert p(1) == 2
    assert (p**3)(2) == 27
    assert QPolynomial((1, 2, 1)).is_palindromic()
    assert not QPolynomial((1, 2)).is_palindromic()


def test_q_factorial_small_values():
    assert q_factorial(1).coeffs == (1,)
    assert q_factorial(2).coeffs == (1, 1)
    assert q_factorial(3).coeffs == (1, 2, 2, 1)
    assert q_factorial(4).coeffs == (1, 3, 5, 6, 5, 3, 1)
    with pytest.raises(ValueError):
        q_factorial(0)
    for i in range(1, 7):
        assert q_factorial(i).degree == comb(i, 2)
        assert q_factorial(i)(1) == factorial(i)
        assert q_factorial(i).is_palindromic()


def test_q_factorial_is_the_product_of_q_integers():
    product = QPolynomial.one()
    for k in range(1, 13):
        product = product * QPolynomial((1,) * k)
        assert q_factorial(k) == product


def test_q_factorial_of_a_large_tile_within_budget():
    """[120]_q! has degree 7,140.  Multiplying by each [j]_q as a window sum
    took about 0.03 s on a 2-CPU host, and 5-6 s as a general product."""
    start = time.perf_counter()
    p = q_factorial(120)
    assert time.perf_counter() - start < 0.5
    assert p.degree == comb(120, 2)
    assert p(1) == factorial(120)


def test_q_factorial_is_the_length_generating_function():
    for n in range(2, 6):
        histogram = Counter(w.length() for w in symmetric_group(n))
        coeffs = tuple(histogram[d] for d in range(max(histogram) + 1))
        assert q_factorial(n).coeffs == coeffs


def test_poincare_of_rhombic_tilings():
    assert poincare(word_to_tiling(Word((), 3))) == QPolynomial.one()
    assert poincare(T121).coeffs == (1, 3, 3, 1)
    for w in symmetric_group(4):
        for T in enumerate_rhombic(w):
            p = poincare(T)
            assert p.coeffs == (QPolynomial((1, 1)) ** w.length()).coeffs


def test_poincare_of_single_large_tiles():
    for n in range(2, 5):
        w = Permutation.longest(n)
        Z = ZonoTiling(w, frozenset({ZonoTile(tuple(range(1, n + 1)), frozenset())}))
        assert poincare(Z) == q_factorial(n)


def test_poincare_of_a_mixed_tiling():
    T = next(iter(enumerate_rhombic(Permutation.longest(4))))
    f = next(iter(flip_sites(T)))
    Z = coarsen_flip(T, f)
    p = poincare(Z)
    assert p == q_factorial(3) * QPolynomial((1, 1)) ** 3
    assert p.degree == 6
    assert p.is_palindromic()
    assert p(1) == 48


def test_poincare_degree_and_symmetry_for_all_s4_tilings():
    from elnitsky import enumerate_zonotopal

    for w in symmetric_group(4):
        for Z in enumerate_zonotopal(w):
            p = poincare(Z)
            assert p.degree == w.length()
            assert p.is_palindromic()


def test_coloring_construction_and_bits():
    c = Coloring.all_light(T121)
    assert c.bits() == "000"
    assert stratum_dimension(c) == 0
    d = Coloring.all_dark(T121)
    assert d.bits() == "111"
    assert stratum_dimension(d) == 3

    mixed = Coloring.from_bits(T121, "010")
    assert mixed.bits() == "010"
    tiles = T121.canonical_tiles()
    assert not mixed.is_dark(tiles[0])
    assert mixed.is_dark(tiles[1])
    assert mixed.shade(tiles[1]) == "dark"
    assert mixed.shade(tiles[0]) == "light"

    with pytest.raises(ValueError):
        Coloring.from_bits(T121, "01")
    with pytest.raises(ValueError):
        Coloring.from_bits(T121, "01x")
    foreign = ZonoTile((1, 3), frozenset())
    with pytest.raises(ValueError):
        Coloring(T121, frozenset({foreign}))
    with pytest.raises(ValueError):
        Coloring.all_light(T121).shade(foreign)


def test_all_colorings_order_and_count():
    cs = list(all_colorings(T121))
    assert len(cs) == 8
    assert [c.bits() for c in cs] == [format(k, "03b") for k in range(8)]


def test_guards_on_large_tilings():
    big = word_to_tiling(some_reduced_word(Permutation.longest(7)))
    with pytest.raises(GuardExceeded):
        next(all_colorings(big))
    with pytest.raises(GuardExceeded):
        fixed_point_images(big)
    with pytest.raises(GuardExceeded):
        fixed_point_image_count(big)


def test_fixed_point_on_the_single_tile():
    dark = realize_fixed_point(T21, Coloring.all_dark(T21))
    assert dark.assignment[frozenset({2})] == frozenset({2})
    light = realize_fixed_point(T21, Coloring.all_light(T21))
    assert light.assignment[frozenset({2})] == frozenset({1})
    assert image_permutation(T21, Coloring.all_dark(T21)) == Permutation((2, 1))
    assert image_permutation(T21, Coloring.all_light(T21)) == Permutation((1, 2))


def test_fixed_point_assignment_invariants():
    for w in symmetric_group(4):
        for T in enumerate_rhombic(w):
            verts = vertices_of(T)
            edges = unit_edges(T)
            identity_path = prefix_sets(Permutation.identity(T.n))
            for c in all_colorings(T):
                fp = realize_fixed_point(T, c)
                assert set(fp.assignment) == verts
                for v, s in fp.assignment.items():
                    assert len(s) == len(v)
                    assert s <= frozenset(range(1, T.n + 1))
                for tail, label in edges:
                    assert fp.assignment[tail] < fp.assignment[tail | {label}]
                for flag in identity_path:
                    assert fp.assignment[flag] == flag


W0_4_TILING = min(enumerate_rhombic(Permutation.longest(4)), key=tiling_digest)


def sorted_words(T):
    return sorted(all_words(T), key=lambda v: v.letters)


@st.composite
def colored_tilings_with_words(draw):
    """A random rhombic tiling of S4 or S5, a random coloring of it and a few
    random words of its commutation class."""
    n = draw(st.integers(4, 5))
    w = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    T = draw(st.sampled_from(sorted(enumerate_rhombic(w), key=tiling_digest)))
    l = len(T.tiles)
    bits = "".join(draw(st.lists(st.sampled_from("01"), min_size=l, max_size=l)))
    words = draw(st.lists(st.sampled_from(sorted_words(T)), min_size=1, max_size=4))
    return T, bits, words


@given(colored_tilings_with_words())
@example((T121, "111", sorted_words(T121)))
@example((T121, "101", sorted_words(T121)))
@example((W0_4_TILING, "111111", sorted_words(W0_4_TILING)))
@example((W0_4_TILING, "101010", sorted_words(W0_4_TILING)))
@settings(max_examples=100, deadline=None)
def test_realization_is_independent_of_the_growth_order(case):
    T, bits, words = case
    c = Coloring.from_bits(T, bits)
    reference = realize_fixed_point(T, c).assignment
    for word in words:
        assert realize_fixed_point(T, c, peel_order=word).assignment == reference


def test_realization_rejects_mismatched_input():
    c = Coloring.all_dark(T121)
    with pytest.raises(ValueError):
        realize_fixed_point(T21, c)
    with pytest.raises(ValueError):
        realize_fixed_point(T121, c, peel_order=Word((2, 1, 2), 3))


def test_images_cover_the_bruhat_interval():
    assert fixed_point_images(T21) == {Permutation((1, 2)), Permutation((2, 1))}
    assert len(fixed_point_images(T121)) == 6
    for w in symmetric_group(4):
        interval = bruhat_interval(w)
        for T in enumerate_rhombic(w):
            assert fixed_point_images(T) == interval
            assert image_permutation(T, Coloring.all_light(T)).is_identity()
            assert image_permutation(T, Coloring.all_dark(T)) == w


def test_images_agree_with_the_wiring_model():
    for w in symmetric_group(4):
        for T in enumerate_rhombic(w):
            for c in all_colorings(T):
                image = image_permutation(T, c)
                assert image == wiring_image(T, c)
                assert bruhat_leq(image, w)


def test_dark_count_histogram_matches_poincare():
    for T in (T121, next(iter(enumerate_rhombic(Permutation.longest(4))))):
        histogram = Counter(stratum_dimension(c) for c in all_colorings(T))
        coeffs = tuple(histogram[d] for d in range(max(histogram) + 1))
        assert poincare(T).coeffs == coeffs


def replayed_images(T):
    """The per-coloring definition: `image_permutation` for each of the
    2^l(w) colorings, with the tiles peeled once, not per coloring."""
    tiles, _ = _greedy_peel(T)
    base = prefix_sets(Permutation.identity(T.n))
    return frozenset(
        _image_from(_propagate(tiles, base, c.dark), T.w) for c in all_colorings(T)
    )


def test_images_match_the_per_coloring_replay_on_s1_to_s5():
    checked = 0
    for n in range(1, 6):
        for w in symmetric_group(n):
            for T in enumerate_rhombic(w):
                replay = replayed_images(T)
                if n <= 4:
                    assert replay == {image_permutation(T, c) for c in all_colorings(T)}
                assert fixed_point_images(T) == replay
                assert fixed_point_image_count(T) == len(replay)
                checked += 1
    assert checked == 529


def test_image_permutation_over_all_colorings_peels_the_tiling_once():
    """The 1,024 colorings of a w0(5) tiling, one `image_permutation` call
    each, within 0.1 s (best of three).  On a 2-CPU host this took about
    0.04 s with the growth order computed once per tiling, and 0.17 s when
    the tiling was peeled per coloring."""
    T = min(enumerate_rhombic(Permutation.longest(5)), key=tiling_digest)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        images = {image_permutation(T, c) for c in all_colorings(T)}
        best = min(best, time.perf_counter() - start)
    assert images == fixed_point_images(T)
    assert best < 0.1


@pytest.mark.long
def test_images_fill_the_bruhat_interval_on_every_tiling_of_7456312():
    w = Permutation.from_string("7456312")
    interval = bruhat_interval(w)
    assert len(interval) == 3432
    tilings = enumerate_rhombic(w)
    assert len(tilings) == 216
    for T in tilings:
        assert fixed_point_images(T) == interval


def test_images_at_the_length_guard_edge():
    w = Permutation.from_string("7654312")
    T = word_to_tiling(some_reduced_word(w))
    assert len(T.tiles) == 20
    start = time.perf_counter()
    images = fixed_point_images(T)
    assert time.perf_counter() - start < 2
    assert len(images) == fixed_point_image_count(T) == 4320
    assert images == bruhat_interval(w)

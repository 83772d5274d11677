"""One test per shipped guarantee; each also holds its stated time budget."""
import math
import time
import timeit
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from elnitsky import (
    Coloring,
    Permutation,
    QPolynomial,
    RenderSpec,
    Word,
    all_colorings,
    apply_flip,
    commutation_classes,
    contains_pattern,
    enumerate_rhombic,
    enumerate_zonotopal,
    fixed_point_images,
    flip_graph,
    flip_sites,
    from_rhombic,
    has_unique_max,
    image_permutation,
    is_connected,
    minimal_elements,
    parse_tiling,
    poincare,
    poset,
    q_factorial,
    render_svg,
    stratum_dimension,
    tiling_digest,
    tiling_to_word,
    validate,
    word_to_tiling,
)

from helpers import (
    bruhat_interval,
    census_tiling,
    sample_permutations,
    symmetric_group,
)

LONG_WORD = Word((3, 4, 2, 5, 6, 5, 3, 4, 3, 2, 1, 5, 2, 3, 6, 4, 5), 7)
LONG_WORD_TWIN = Word((3, 4, 2, 5, 6, 5, 3, 4, 3, 2, 1, 5, 2, 6, 3, 4, 5), 7)


def test_criterion_1_long_word_round_trip():
    T = word_to_tiling(LONG_WORD)
    assert T.w == Permutation.from_string("7456312")
    assert len(T.tiles) == 17
    assert validate(T)
    assert word_to_tiling(LONG_WORD_TWIN) == T

    best = min(timeit.repeat(lambda: word_to_tiling(LONG_WORD), number=1, repeat=5))
    assert best < 0.001


def test_criterion_2_bijection_with_commutation_classes():
    start = time.perf_counter()
    pool = symmetric_group(4) + sample_permutations(5, 20, seed=1729)
    assert len(pool) >= 44
    for w in pool:
        tilings = enumerate_rhombic(w)
        assert len(tilings) == len(commutation_classes(w))
        for T in tilings:
            assert word_to_tiling(tiling_to_word(T)) == T
    assert time.perf_counter() - start < 30


def test_criterion_3_flip_graphs_connected():
    start = time.perf_counter()
    for w in symmetric_group(4) + symmetric_group(5):
        g = flip_graph(w)
        assert is_connected(g)
        for T in g.nodes:
            for f in flip_sites(T):
                T2 = apply_flip(T, f)
                assert len(T.tiles ^ T2.tiles) == 6
                assert len(T.tiles - T2.tiles) == 3
                assert apply_flip(T2, f) == T
    assert time.perf_counter() - start < 60


def test_criterion_4_zonotopal_structure_on_s5():
    start = time.perf_counter()
    p321 = Permutation((3, 2, 1))
    blockers = (
        Permutation((4, 2, 3, 1)),
        Permutation((4, 3, 1, 2)),
        Permutation((3, 4, 2, 1)),
    )
    for w in symmetric_group(5):
        tilings = enumerate_zonotopal(w)
        for Z in tilings:
            assert validate(Z)
            assert sum(t.size * (t.size - 1) // 2 for t in Z.tiles) == w.length()

        avoids = not any(contains_pattern(w, p) for p in blockers)
        assert has_unique_max(w) == avoids

        assert (len(tilings) == 1) == (not contains_pattern(w, p321))

        expected_minimal = frozenset(from_rhombic(T) for T in enumerate_rhombic(w))
        assert minimal_elements(poset(w)) == expected_minimal
    assert time.perf_counter() - start < 300


def test_criterion_5_poincare_data():
    start = time.perf_counter()
    big = census_tiling(Permutation.from_string("87465312"), {4: 1, 3: 3, 2: 10})
    assert big is not None
    assert validate(big)
    sizes = Counter(t.size for t in big.tiles)
    assert sizes == {4: 1, 3: 3, 2: 10}
    p = poincare(big)
    assert p == q_factorial(4) * q_factorial(3) ** 3 * QPolynomial((1, 1)) ** 10
    assert p.degree == 25
    assert p.is_palindromic()
    assert p(1) == 5308416

    one_plus_q = QPolynomial((1, 1))
    for w in symmetric_group(4):
        for T in enumerate_rhombic(w):
            assert poincare(T) == one_plus_q ** w.length()

    for n in range(2, 5):
        w0 = Permutation.longest(n)
        top = min(enumerate_zonotopal(w0), key=lambda Z: len(Z.tiles))
        assert len(top.tiles) == 1
        histogram = Counter(v.length() for v in symmetric_group(n))
        coeffs = tuple(histogram[d] for d in range(max(histogram) + 1))
        assert poincare(top).coeffs == coeffs
        assert poincare(top) == q_factorial(n)
    assert time.perf_counter() - start < 1


def test_criterion_6_fixed_points_fill_bruhat_intervals():
    start = time.perf_counter()
    for w in symmetric_group(4):
        interval = bruhat_interval(w)
        for T in enumerate_rhombic(w):
            assert image_permutation(T, Coloring.all_light(T)).is_identity()
            assert image_permutation(T, Coloring.all_dark(T)) == w
            assert fixed_point_images(T) == interval

            histogram = Counter(stratum_dimension(c) for c in all_colorings(T))
            coeffs = tuple(
                histogram[d] for d in range(max(histogram) + 1)
            )
            assert poincare(T).coeffs == coeffs
    assert time.perf_counter() - start < 60


def check_corner_geometry(svg, scale):
    root = ET.fromstring(svg)
    polys = root.findall("{http://www.w3.org/2000/svg}polygon")
    assert polys
    for poly in polys:
        pts = [
            tuple(map(float, chunk.split(",")))
            for chunk in poly.get("points").split()
        ]
        k = len(pts) // 2
        assert len(pts) == 2 * k and k >= 2
        deltas = [
            (b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:] + pts[:1])
        ]
        # written at 4 decimals, so compare at that grain
        grain = 1e-3
        for dx, dy in deltas:
            assert math.hypot(dx, dy) == pytest.approx(scale, abs=grain)
        for j in range(k):
            dx1, dy1 = deltas[j]
            dx2, dy2 = deltas[j + k]
            assert dx1 == pytest.approx(-dx2, abs=grain)
            assert dy1 == pytest.approx(-dy2, abs=grain)


def test_criterion_7_serialization_and_rendering():
    start = time.perf_counter()
    for n in range(1, 6):
        for w in symmetric_group(n):
            for T in enumerate_rhombic(w):
                text = T.to_json()
                back = parse_tiling(text)
                assert back == T
                assert back.to_json() == text
                assert tiling_digest(back) == tiling_digest(T)
            for Z in enumerate_zonotopal(w):
                text = Z.to_json()
                back = parse_tiling(text)
                if not Z.tiles:
                    # an empty tile list carries no kind marker; it parses
                    # as the (equivalent) empty rhombic tiling
                    back = from_rhombic(back)
                assert back == Z
                assert back.to_json() == text

    spec = RenderSpec()
    samples = [
        word_to_tiling(Word((1, 2, 1), 3)),
        word_to_tiling(LONG_WORD),
        min(enumerate_zonotopal(Permutation.longest(4)), key=lambda Z: len(Z.tiles)),
        census_tiling(Permutation.from_string("87465312"), {4: 1, 3: 3, 2: 10}),
    ]
    for tiling in samples:
        check_corner_geometry(render_svg(tiling, spec), spec.scale)
    assert time.perf_counter() - start < 30

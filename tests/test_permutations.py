import tracemalloc

import pytest
from hypothesis import given, strategies as st

from elnitsky import (
    Permutation,
    Word,
    apply_simple,
    bruhat_leq,
    contains_pattern,
    evaluate,
    inversions,
    weak_leq,
)

from helpers import (
    bruhat_leq_by_subwords,
    inversions_by_pairs,
    naive_contains,
    symmetric_group,
)

perms = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(
        lambda vals: Permutation(tuple(vals))
    )
)


def test_construction_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())


def test_call_is_one_indexed():
    w = Permutation((3, 1, 2))
    assert (w(1), w(2), w(3)) == (3, 1, 2)
    with pytest.raises(ValueError):
        w(0)
    with pytest.raises(ValueError):
        w(4)


def test_string_round_trip_digits_and_commas():
    assert Permutation.from_string("7456312").values == (7, 4, 5, 6, 3, 1, 2)
    assert Permutation.from_string("3,1,2").values == (3, 1, 2)
    w10 = Permutation(tuple([10] + list(range(1, 10))))
    assert Permutation.from_string(w10.to_string()) == w10
    assert "," in w10.to_string()
    assert Permutation.from_string("321").to_string() == "321"


def test_from_string_rejects_garbage():
    for text in ("", "1x2", "122", "0,1", "1,2,4"):
        with pytest.raises(ValueError):
            Permutation.from_string(text)


@given(perms)
def test_inverse_round_trip(w):
    assert w.inverse().inverse() == w
    for i in range(1, w.n + 1):
        assert w.inverse()(w(i)) == i


def test_inversions_examples():
    assert inversions(Permutation((1, 2, 3))) == frozenset()
    assert inversions(Permutation((2, 1, 3))) == {(1, 2)}
    assert inversions(Permutation((3, 2, 1))) == {(1, 2), (1, 3), (2, 3)}
    assert len(inversions(Permutation.from_string("7456312"))) == 17


def test_inversions_and_length_match_every_pair_tested_on_s1_to_s6():
    for n in range(1, 7):
        for w in symmetric_group(n):
            expected = inversions_by_pairs(w)
            assert inversions(w) == expected
            assert w.length() == len(expected)
            assert w.inversion_table() == [
                sum(1 for a, _ in expected if a == v) for v in range(1, n + 1)
            ]


@given(perms)
def test_inversions_define_length(w):
    assert w.length() == len(inversions(w))
    reverse = Permutation(tuple(reversed(w.values)))
    assert inversions(w) | inversions(reverse) == inversions(Permutation.longest(w.n))
    assert not inversions(w) & inversions(reverse)


def test_apply_simple_swaps_positions():
    w = Permutation((2, 3, 1))
    assert apply_simple(w, 1).values == (3, 2, 1)
    assert apply_simple(w, 2).values == (2, 1, 3)
    with pytest.raises(ValueError):
        apply_simple(w, 0)
    with pytest.raises(ValueError):
        apply_simple(w, 3)


@given(perms, st.data())
def test_apply_simple_changes_length_by_one(w, data):
    i = data.draw(st.integers(1, w.n - 1))
    u = apply_simple(w, i)
    assert abs(u.length() - w.length()) == 1
    assert apply_simple(u, i) == w


def test_evaluate_reduced_and_unreduced():
    w, reduced = evaluate(Word((1, 2, 1), 3))
    assert w == Permutation((3, 2, 1)) and reduced
    w, reduced = evaluate(Word((1, 1), 3))
    assert w == Permutation((1, 2, 3)) and not reduced
    w, reduced = evaluate(Word((), 4))
    assert w == Permutation.identity(4) and reduced


def test_evaluate_seventeen_letter_word():
    word = Word((3, 4, 2, 5, 6, 5, 3, 4, 3, 2, 1, 5, 2, 3, 6, 4, 5), 7)
    w, reduced = evaluate(word)
    assert w == Permutation.from_string("7456312")
    assert reduced and w.length() == 17


def test_word_validates_letters():
    with pytest.raises(ValueError):
        Word((0,), 3)
    with pytest.raises(ValueError):
        Word((3,), 3)
    assert Word((1, 2), 3).to_string() == "1,2"


def test_contains_pattern_examples():
    assert contains_pattern(Permutation((4, 2, 3, 1)), Permutation((4, 2, 3, 1)))
    assert not contains_pattern(Permutation((1, 2, 3, 4)), Permutation((3, 2, 1)))
    assert not contains_pattern(Permutation((4, 3, 2, 1)), Permutation((4, 2, 3, 1)))
    with pytest.raises(ValueError):
        contains_pattern(Permutation((2, 1)), Permutation((3, 2, 1)))


def test_contains_pattern_matches_brute_force():
    patterns = [
        Permutation(p)
        for p in ((3, 2, 1), (2, 3, 1), (4, 2, 3, 1), (4, 3, 1, 2), (3, 4, 2, 1))
    ]
    for w in symmetric_group(5):
        for p in patterns:
            assert contains_pattern(w, p) == naive_contains(w, p)


def test_weak_leq():
    w = Permutation.from_string("7456312")
    assert weak_leq(Permutation.from_string("1243567"), w)
    assert weak_leq(Permutation.identity(7), w)
    assert not weak_leq(Permutation((2, 1)), Permutation((1, 2)))
    with pytest.raises(ValueError):
        weak_leq(Permutation((2, 1)), Permutation((3, 2, 1)))


def test_bruhat_leq_examples():
    assert bruhat_leq(Permutation((2, 1, 4, 3)), Permutation((3, 1, 4, 2)))
    assert bruhat_leq(Permutation((1, 2, 3)), Permutation((3, 2, 1)))
    assert not bruhat_leq(Permutation((3, 2, 1)), Permutation((2, 3, 1)))


def test_bruhat_leq_matches_subword_property():
    for w in symmetric_group(4):
        for v in symmetric_group(4):
            assert bruhat_leq(v, w) == bruhat_leq_by_subwords(v, w)


@pytest.mark.long
def test_bruhat_leq_matches_subword_property_on_s5():
    for w in symmetric_group(5):
        for v in symmetric_group(5):
            assert bruhat_leq(v, w) == bruhat_leq_by_subwords(v, w)


def test_bruhat_leq_memory_does_not_grow_with_the_square_of_the_rank():
    """The sorted prefixes take O(n) memory: under 1 MB traced at rank 2,000,
    where an (n+1) x (n+1) count table took 154 MB."""
    e, w0 = Permutation.identity(2000), Permutation.longest(2000)
    tracemalloc.start()
    try:
        below = bruhat_leq(e, w0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert below and not bruhat_leq(w0, e)
    assert peak < 1_000_000


def test_weak_implies_bruhat():
    for u in symmetric_group(4):
        for w in symmetric_group(4):
            if weak_leq(u, w):
                assert bruhat_leq(u, w)
    assert not bruhat_leq(Permutation((2, 3, 1)), Permutation((3, 1, 2)))

import gc
import tracemalloc

import pytest

from elnitsky import (
    GuardExceeded,
    Permutation,
    Word,
    commutation_class_of,
    commutation_classes,
    commutation_equivalent,
    evaluate,
    reduced_words,
)

from helpers import symmetric_group

LONG_WORD = Word((3, 4, 2, 5, 6, 5, 3, 4, 3, 2, 1, 5, 2, 3, 6, 4, 5), 7)
LONG_WORD_TWIN = Word((3, 4, 2, 5, 6, 5, 3, 4, 3, 2, 1, 5, 2, 6, 3, 4, 5), 7)


def test_reduced_words_small():
    assert reduced_words(Permutation.identity(3)) == {Word((), 3)}
    assert reduced_words(Permutation((2, 1))) == {Word((1,), 2)}
    assert reduced_words(Permutation((3, 2, 1))) == {
        Word((1, 2, 1), 3),
        Word((2, 1, 2), 3),
    }
    assert len(reduced_words(Permutation.longest(4))) == 16


def test_reduced_words_are_reduced_and_evaluate_back():
    for w in symmetric_group(4):
        for word in reduced_words(w):
            value, reduced = evaluate(word)
            assert reduced and value == w and len(word) == w.length()


def test_reduced_words_guard():
    with pytest.raises(GuardExceeded):
        reduced_words(Permutation.longest(7))


def test_reduced_words_keep_no_memo_after_the_call():
    """The memo of permutations below w lives for one call: once the words
    are dropped, under 0.05 MB stays traced (a process-wide cache of the
    120 permutations of rank 5 kept about 0.5 MB)."""
    w = Permutation.longest(5)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        words = reduced_words(w)
        assert len(words) == 768
        del words
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 50_000


def test_classes_partition_the_words():
    for w in symmetric_group(4):
        words = reduced_words(w)
        classes = commutation_classes(w)
        assert frozenset().union(*(c.members for c in classes)) == words
        assert sum(len(c) for c in classes) == len(words)
        for c in classes:
            assert c.representative == min(c.members, key=lambda v: v.letters)
            assert c.representative in c


def test_class_counts():
    assert len(commutation_classes(Permutation((3, 2, 1)))) == 2
    assert len(commutation_classes(Permutation((2, 1, 4, 3)))) == 1
    assert len(commutation_classes(Permutation.longest(4))) == 8
    assert len(commutation_classes(Permutation.longest(5))) == 62


def test_commutation_class_of_closure():
    word = Word((1, 3), 4)
    assert commutation_class_of(word).members == {Word((1, 3), 4), Word((3, 1), 4)}
    singleton = commutation_class_of(Word((1, 2, 1), 3))
    assert singleton.members == {Word((1, 2, 1), 3)}
    with pytest.raises(ValueError):
        commutation_class_of(Word((1, 1), 3))


def test_equivalence_matches_closure_membership():
    for w in symmetric_group(4):
        classes = commutation_classes(w)
        words = sorted(
            (word for c in classes for word in c.members), key=lambda v: v.letters
        )
        by_word = {word: c for c in classes for word in c.members}
        for i, v in enumerate(words):
            for u in words[i:]:
                assert commutation_equivalent(v, u) == (by_word[v] is by_word[u])


def test_equivalence_beyond_the_enumeration_guard():
    # a 17-letter pair relatable by one far-apart commutation move
    assert commutation_equivalent(LONG_WORD, LONG_WORD_TWIN)
    # the same word after one braid move (343 -> 434 at positions 7..9):
    # still reduced with the same value, but in another class
    braided = Word((3, 4, 2, 5, 6, 5, 4, 3, 4, 2, 1, 5, 2, 3, 6, 4, 5), 7)
    value, reduced = evaluate(braided)
    assert reduced and value == evaluate(LONG_WORD)[0]
    assert not commutation_equivalent(LONG_WORD, braided)


def test_equivalence_rejects_words_of_different_targets():
    assert not commutation_equivalent(Word((1,), 3), Word((2,), 3))
    assert not commutation_equivalent(Word((1, 2), 3), Word((2, 1), 3))

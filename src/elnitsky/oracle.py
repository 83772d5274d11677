"""Brute-force ground truth for reduced words and commutation classes.

Two reduced words are commutation equivalent when one can be turned into the
other by repeatedly swapping adjacent letters i, j with |i - j| > 1.  This
module enumerates the full set of reduced words of a permutation, partitions
it into commutation classes by breadth-first closure, and offers an
independent equivalence test (letter-pair projections) that never builds a
closure at all.
"""
from __future__ import annotations

from collections import deque

from .errors import check_length_guard
from .permutations import Permutation, Record, Word, apply_simple, evaluate

__all__ = [
    "CommutationClass",
    "reduced_words",
    "commutation_classes",
    "commutation_class_of",
    "commutation_equivalent",
]


class CommutationClass(Record):
    """A commutation class: its lexicographically least word and all members."""

    representative: Word
    members: frozenset[Word]

    def __contains__(self, word: Word) -> bool:
        return word in self.members

    def __len__(self) -> int:
        return len(self.members)


def reduced_words(w: Permutation) -> frozenset[Word]:
    """All reduced words of w, by descending recursion on right descents.

    >>> sorted(x.letters for x in reduced_words(Permutation.from_string("321")))
    [(1, 2, 1), (2, 1, 2)]
    """
    check_length_guard(w.length(), "reduced word enumeration")
    return frozenset(Word(x, w.n) for x in _reduced_letter_seqs(w.values, {}))


def _reduced_letter_seqs(values: tuple, memo: dict) -> frozenset[tuple[int, ...]]:
    """The letters of every reduced word of `values`.  `memo` maps each
    permutation below it already done to its words; it lives for one
    `reduced_words` call, so nothing stays cached after it."""
    seqs = memo.get(values)
    if seqs is None:
        w = Permutation(values)
        seqs = {()} if w.is_identity() else set()
        for i in w.right_descents():
            for prefix in _reduced_letter_seqs(apply_simple(w, i).values, memo):
                seqs.add(prefix + (i,))
        seqs = memo[values] = frozenset(seqs)
    return seqs


def _commutation_neighbors(letters: tuple[int, ...]):
    for k in range(len(letters) - 1):
        if abs(letters[k] - letters[k + 1]) > 1:
            yield letters[:k] + (letters[k + 1], letters[k]) + letters[k + 2 :]


def commutation_class_of(word: Word) -> CommutationClass:
    """Breadth-first closure of one reduced word under commutation moves."""
    _, reduced = evaluate(word)
    if not reduced:
        raise ValueError(f"not a reduced word: {word!r}")
    seen = {word.letters}
    queue = deque([word.letters])
    while queue:
        current = queue.popleft()
        for neighbor in _commutation_neighbors(current):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    members = frozenset(Word(x, word.n) for x in seen)
    return CommutationClass(Word(min(seen), word.n), members)


def commutation_classes(w: Permutation) -> frozenset[CommutationClass]:
    """Partition of reduced_words(w) into closures under commutation moves.

    >>> len(commutation_classes(Permutation.from_string("4321")))
    8
    """
    remaining = {word.letters for word in reduced_words(w)}
    classes = []
    while remaining:
        seed = min(remaining)
        cls = commutation_class_of(Word(seed, w.n))
        classes.append(cls)
        remaining -= {m.letters for m in cls.members}
    return frozenset(classes)


def commutation_equivalent(v: Word, u: Word) -> bool:
    """Decide commutation equivalence without computing any closure.

    Two words over a partially commutative alphabet are equivalent iff their
    projections to every pair of non-commuting letters agree; here s_a and
    s_b fail to commute exactly when |a - b| <= 1.  Linear scans per letter
    pair, so this works even when the closure itself is astronomically large.
    """
    if v.n != u.n:
        raise ValueError(f"rank mismatch: {v.n} vs {u.n}")
    alphabet = sorted(set(v.letters) | set(u.letters))
    for i, a in enumerate(alphabet):
        for b in alphabet[i:]:
            if b - a > 1:
                continue
            proj_v = [x for x in v.letters if x in (a, b)]
            proj_u = [x for x in u.letters if x in (a, b)]
            if proj_v != proj_u:
                return False
    return True

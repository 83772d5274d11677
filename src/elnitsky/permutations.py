"""Permutations in one-line notation and words in the simple transpositions.

Everything is 1-indexed: a permutation w of rank n has values w(1), ..., w(n),
and the letter i (with 1 <= i <= n-1) acts on the right by swapping the values
at positions i and i+1.  This makes a word (i_1, ..., i_k) act left to right:
the product s_{i_1} s_{i_2} ... s_{i_k} is evaluated by applying the letters in
order to the identity.
"""
from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Iterator

__all__ = [
    "Permutation",
    "Word",
    "InversionSet",
    "inversions",
    "apply_simple",
    "evaluate",
    "contains_pattern",
    "weak_leq",
    "bruhat_leq",
]

# Inversions of w: pairs (a, b) with a < b whose order w reverses.
InversionSet = frozenset[tuple[int, int]]


class Record:
    """The base of the package's value classes, in place of a frozen
    dataclass.  A subclass's fields are its own annotated names, in order,
    or else its base's; a class attribute of a field's name is its default.
    `__init__` sets the fields, by position or name, then runs
    `__post_init__`, which may normalise them with `object.__setattr__`.
    Two records are equal iff they are of one class with equal fields, the
    hash is that of the fields' tuple, the repr lists the fields by name,
    and no attribute can be assigned or deleted.  `cached_property` still
    works: it writes the instance's `__dict__` directly."""

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # its own only: {} if it annotates nothing
        if own:
            cls._fields = fields = tuple(own)
            get = attrgetter(*fields)
            # the fields as one tuple, even when there is one field
            cls._values = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __init__(self, *values, **named):
        fields = self._fields
        if len(values) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields")
        state = vars(self)
        state.update(zip(fields, values))
        if len(values) < len(fields) or named:
            for name in fields[len(values) :]:
                if name in named:
                    state[name] = named.pop(name)
                elif hasattr(type(self), name):
                    state[name] = getattr(type(self), name)
                else:
                    raise TypeError(f"{type(self).__name__} needs the field {name!r}")
            if named:
                raise TypeError(f"{type(self).__name__} has no field {next(iter(named))!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    @classmethod
    def _make(cls, *values):
        """A record of these field values, set without `__post_init__`."""
        self = object.__new__(cls)
        vars(self).update(zip(cls._fields, values))
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        values = zip(self._fields, self._values(self))
        fields = ", ".join(f"{name}={value!r}" for name, value in values)
        return f"{type(self).__qualname__}({fields})"


class Permutation(Record):
    """A permutation of {1, ..., n} in one-line notation.

    >>> w = Permutation.from_string("7456312")
    >>> w(1), w.n, w.length()
    (7, 7, 17)
    """

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if n == 0 or sorted(self.values) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.values!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        """Value at position i, 1-indexed."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} outside 1..{self.n}")
        return self.values[i - 1]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))

    @classmethod
    def from_string(cls, text: str) -> "Permutation":
        """Parse "7456312" (single digits) or "10,2,3,..." (comma-separated)."""
        text = text.strip()
        if not text:
            raise ValueError("empty permutation string")
        if "," in text:
            parts = [p.strip() for p in text.split(",")]
        else:
            parts = list(text)
        try:
            values = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"cannot parse permutation from {text!r}") from None
        return cls(values)

    def to_string(self) -> str:
        """Digit string for n <= 9, comma-separated otherwise."""
        if self.n <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.values, 1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.values, 1))

    def length(self) -> int:
        """Coxeter length = number of inversions, counted without listing
        them: the sum of the inversion table."""
        return sum(self.inversion_table())

    def inversion_table(self) -> list[int]:
        """Entry v - 1 counts the larger values before v, the inversions
        (v, b) of w; in O(n log n), as the values seen less the smaller
        ones, which a Fenwick tree over the values counts."""
        n = self.n
        tree = [0] * (n + 1)
        table = [0] * n
        for i, v in enumerate(self.values):
            larger = i
            x = v
            while x:
                larger -= tree[x]
                x &= x - 1
            table[v - 1] = larger
            while v <= n:
                tree[v] += 1
                v += v & -v
        return table

    def right_descents(self) -> tuple[int, ...]:
        """Positions i with w(i) > w(i+1)."""
        return tuple(
            i for i in range(1, self.n) if self.values[i - 1] > self.values[i]
        )

    def __repr__(self) -> str:
        return f"Permutation({self.to_string()!r})"


class Word(Record):
    """A word in the letters 1..n-1, each letter naming a simple transposition."""

    letters: tuple[int, ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"rank must be positive, got {self.n}")
        for k, letter in enumerate(self.letters, 1):
            if not 1 <= letter <= self.n - 1:
                raise ValueError(
                    f"letter {letter} at position {k} outside 1..{self.n - 1}"
                )

    def to_string(self) -> str:
        return ",".join(str(x) for x in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.to_string()!r}, n={self.n})"


def inversions(w: Permutation) -> InversionSet:
    """All pairs (a, b), a < b, appearing out of order in w.

    >>> sorted(inversions(Permutation.from_string("321")))
    [(1, 2), (1, 3), (2, 3)]
    """
    # insertion sort of w's values: each value steps left past exactly the
    # larger values before it, so the work is O(n + l(w))
    out = []
    seen: list[int] = []
    for v in w.values:
        j = len(seen)
        seen.append(v)
        while j and seen[j - 1] > v:
            out.append((v, seen[j - 1]))
            seen[j] = seen[j - 1]
            j -= 1
        seen[j] = v
    return frozenset(out)


def apply_simple(u: Permutation, i: int) -> Permutation:
    """Right-multiply by the simple transposition at position i (swap i, i+1)."""
    if not 1 <= i <= u.n - 1:
        raise ValueError(f"letter {i} outside 1..{u.n - 1}")
    vals = list(u.values)
    vals[i - 1], vals[i] = vals[i], vals[i - 1]
    return Permutation(tuple(vals))


def evaluate(word: Word) -> tuple[Permutation, bool]:
    """Product of the word's letters applied to the identity.

    The second component is True iff the word is reduced, i.e. every letter
    increases the length by one (swaps an ascent).
    """
    u = Permutation.identity(word.n)
    reduced = True
    for letter in word:
        if u(letter) > u(letter + 1):
            reduced = False
        u = apply_simple(u, letter)
    return u, reduced


def contains_pattern(w: Permutation, p: Permutation) -> bool:
    """True iff some subsequence of w is order-isomorphic to p.

    Backtracking search: pattern positions are matched left to right, keeping
    only partial matches whose values realize the pattern's relative order.
    """
    if p.n > w.n:
        raise ValueError(f"pattern of rank {p.n} longer than word of rank {w.n}")

    pvals = p.values
    wvals = w.values

    def extend(start: int, chosen: tuple[int, ...]) -> bool:
        t = len(chosen)
        if t == len(pvals):
            return True
        for j in range(start, len(wvals) - (len(pvals) - t) + 1):
            v = wvals[j]
            # v must compare to each chosen value the way pvals[t] compares
            # to the corresponding pattern entry
            if all(
                (v > c) == (pvals[t] > pvals[s]) for s, c in enumerate(chosen)
            ):
                if extend(j + 1, chosen + (v,)):
                    return True
        return False

    return extend(0, ())


def _check_same_rank(u: Permutation, w: Permutation) -> None:
    if u.n != w.n:
        raise ValueError(f"rank mismatch: {u.n} vs {w.n}")


def weak_leq(u: Permutation, w: Permutation) -> bool:
    """Right weak order: u <= w iff inversions(u) is a subset of inversions(w)."""
    _check_same_rank(u, w)
    return inversions(u) <= inversions(w)


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Strong Bruhat order by Ehresmann's tableau criterion: u <= w iff, for
    every i, sorted u(1..i) lies entrywise at or below sorted w(1..i)."""
    _check_same_rank(u, w)
    uprefix: list[int] = []
    wprefix: list[int] = []
    for x, y in zip(u.values, w.values):
        insort(uprefix, x)
        insort(wprefix, y)
        if any(a > b for a, b in zip(uprefix, wprefix)):
            return False
    return True

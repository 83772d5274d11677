"""Numerical and fixed-point data carried by a tiling.

A tiling with t_k tiles of 2k sides has Poincare polynomial
prod_k [k]_q!^{t_k}, where [i]_q = 1 + q + ... + q^{i-1}.  For a rhombic
tiling this is (1+q)^{l(w)}; its 2^{l(w)} light/dark colorings index
torus-fixed points, and a sweep over distinct boundary flags finds their
images, the Bruhat interval [e, w], in about l(w) |[e, w]| steps.  Its
merge keeps one state per flag that some colorings reach, and its lift
swaps a flag only at an ascent, since a descent leads back into the
interval already found (see `_image_flags`).  `fixed_point_image_count`
counts the images without building a `Permutation`.  A fixed point is
realized one rhombus at a time, in growth order, and each rhombus's four
vertices are read off its `corners()`, the one tile geometry.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from operator import sub

from .errors import check_length_guard
from .permutations import Permutation, Record, Word
from .tilings import (
    LabelSet,
    RhombicTiling,
    ZonoTile,
    grow_word,
    prefix_sets,
    tiling_to_word,
)

__all__ = [
    "QPolynomial",
    "q_factorial",
    "poincare",
    "LIGHT",
    "DARK",
    "Coloring",
    "FixedPoint",
    "realize_fixed_point",
    "image_permutation",
    "fixed_point_images",
    "fixed_point_image_count",
    "stratum_dimension",
    "all_colorings",
]


class QPolynomial(Record):
    """Polynomial in q with integer coefficients, ascending by degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not self.coeffs or not other.coeffs:
            return QPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(tuple(out))

    def __pow__(self, k: int) -> "QPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = QPolynomial.one()
        for _ in range(k):
            result = result * self
        return result

    def __call__(self, x):
        """Evaluate at x by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

    def __repr__(self) -> str:
        return f"QPolynomial({self.coeffs})"


def q_factorial(i: int) -> QPolynomial:
    """[i]_q! = [i]_q [i-1]_q ... [1]_q; degree i(i-1)/2, value i! at q=1."""
    if i < 1:
        raise ValueError(f"q-factorial needs a positive integer, got {i}")
    coeffs = [1]
    for j in range(2, i + 1):
        # times [j]_q = (1 - q^j) / (1 - q): subtract the shift by j, then sum
        coeffs = list(accumulate(map(sub, coeffs + [0] * (j - 1), [0] * j + coeffs)))
    return QPolynomial(tuple(coeffs))


def poincare(Z) -> QPolynomial:
    """prod over tiles of [k]_q! for a rhombic or zonotopal tiling Z.

    Degree l(w); palindromic; (1+q)^{l(w)} when every tile is a rhombus.
    """
    result = QPolynomial.one()
    for tile in Z.tiles:
        result = result * q_factorial(tile.size)
    return result


# ---------------------------------------------------------------------------
# colorings and torus-fixed points

LIGHT = "light"
DARK = "dark"


class Coloring(Record):
    """A light/dark shade for every rhombus of one tiling.

    Dark tiles are the ones whose two same-dimension subspaces differ (the
    strand-crossing case); the two colors are not interchangeable.  The bit
    string form writes '1' for dark in canonical tile order.
    """

    tiling: RhombicTiling
    dark: frozenset[ZonoTile]

    def __post_init__(self):
        dark = frozenset(self.dark)
        object.__setattr__(self, "dark", dark)
        if not dark <= self.tiling.tiles:
            stray = next(iter(dark - self.tiling.tiles))
            raise ValueError(f"colored tile {stray!r} is not in the tiling")

    @classmethod
    def all_light(cls, T: RhombicTiling) -> "Coloring":
        return cls(T, frozenset())

    @classmethod
    def all_dark(cls, T: RhombicTiling) -> "Coloring":
        return cls(T, T.tiles)

    @classmethod
    def from_bits(cls, T: RhombicTiling, bits: str) -> "Coloring":
        tiles = T.canonical_tiles()
        if len(bits) != len(tiles) or set(bits) - {"0", "1"}:
            raise ValueError(
                f"need {len(tiles)} bits of 0/1 for this tiling, got {bits!r}"
            )
        return cls(T, frozenset(t for t, bit in zip(tiles, bits) if bit == "1"))

    def is_dark(self, tile: ZonoTile) -> bool:
        return tile in self.dark

    def shade(self, tile: ZonoTile) -> str:
        if tile not in self.tiling.tiles:
            raise ValueError(f"tile {tile!r} is not in the tiling")
        return DARK if tile in self.dark else LIGHT

    def bits(self) -> str:
        return "".join(
            "1" if t in self.dark else "0" for t in self.tiling.canonical_tiles()
        )


def stratum_dimension(c: Coloring) -> int:
    """Dimension of the coloring's stratum: its number of dark tiles."""
    return len(c.dark)


def all_colorings(T: RhombicTiling):
    """Yield all 2^{l(w)} colorings of T, in bit-string order."""
    check_length_guard(len(T.tiles), "coloring sweep")
    tiles = T.canonical_tiles()
    for picks in product((False, True), repeat=len(tiles)):
        yield Coloring(T, frozenset(t for t, d in zip(tiles, picks) if d))


class FixedPoint(Record):
    """Index sets spanning the subspace at every vertex of a tiling.

    assignment maps each vertex label set x to a subset of {1..n} of size
    |x|, nested along every edge; the left boundary always carries the base
    flag {1..j}.  The one mutable record: it can be assigned, and so has
    no hash.
    """

    assignment: dict[LabelSet, LabelSet]

    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


def _propagate(tiles, base_vertices, dark) -> dict[LabelSet, LabelSet]:
    """Index sets at every vertex, crossing `tiles` in growth order from the
    identity boundary `base_vertices`; each rhombus's corners() are its
    bottom, old middle, top and new middle."""
    assignment = {v: v for v in base_vertices}
    for tile in tiles:
        bottom, middle_old, top, middle_new = tile.corners()
        P = assignment[bottom]
        M = assignment[middle_old]
        Q = assignment[top]
        if tile in dark:
            assignment[middle_new] = P | (Q - M)
        else:
            assignment[middle_new] = M
    return assignment


def realize_fixed_point(
    T: RhombicTiling, c: Coloring, peel_order: Word | None = None
) -> FixedPoint:
    """Propagate index sets across T for the coloring c.

    Sweeping tile by tile from the identity boundary, in the growth order of
    `peel_order` (by default T's least word): a light tile copies the old
    middle subspace to the new middle vertex, a dark tile picks the
    complementary index instead.  The result does not depend on which
    growth order `peel_order` picks.
    """
    if c.tiling != T:
        raise ValueError("coloring belongs to a different tiling")
    tiles = _growth_order(T, peel_order)
    base = prefix_sets(Permutation.identity(T.n))
    return FixedPoint(_propagate(tiles, base, c.dark))


@lru_cache(maxsize=64)
def _growth_order(T: RhombicTiling, peel_order: Word | None) -> tuple[ZonoTile, ...]:
    """T's rhombi in the growth order of `peel_order`, by default T's least
    word, checked to grow T.  Cached, so a loop over T's colorings peels and
    regrows T once, not once per coloring."""
    word = tiling_to_word(T) if peel_order is None else peel_order
    w, tiles = grow_word(word)
    if w != T.w or frozenset(tiles) != T.tiles:
        raise ValueError("peel order does not grow this tiling")
    return tuple(tiles)


def image_permutation(T: RhombicTiling, c: Coloring) -> Permutation:
    """The permutation read off the right-boundary chain of the fixed point."""
    fp = realize_fixed_point(T, c)
    return _image_from(fp.assignment, T.w)


def _image_from(assignment, w: Permutation) -> Permutation:
    values = []
    prev: LabelSet = frozenset()
    for vertex in prefix_sets(w)[1:]:
        cur = assignment[vertex]
        (x,) = cur - prev
        values.append(x)
        prev = cur
    return Permutation(tuple(values))


def fixed_point_images(T: RhombicTiling) -> frozenset[Permutation]:
    """Images of all 2^{l(w)} colorings: the Bruhat interval below w.
    Each flag of `_image_flags` is a permutation by construction, swaps of
    the identity, so it is made by `Permutation._make`, without the check."""
    return frozenset(map(Permutation._make, _image_flags(T)))


def fixed_point_image_count(T: RhombicTiling) -> int:
    """The number of images of T's colorings, |[e, w]|, with no
    `Permutation` built."""
    return len(_image_flags(T))


def _image_flags(T: RhombicTiling) -> set[tuple[int, ...]]:
    """The images of all 2^{l(w)} colorings of T, as one-line tuples.

    `_propagate` reads only the boundary around each tile, whose index sets
    form a flag: a permutation v, the identity first and the image last.  A
    light tile at letter j keeps v; a dark one, P | (Q - M), swaps v(j) and
    v(j+1).  So the sweep, letter by letter along T's least word, merges
    the colorings that reach one flag and keeps distinct flags only:
    states |= {v s_j}.

    Only the flags with an ascent at j are swapped.  After a prefix of the
    word, the states are the products of its subwords; the prefix is
    reduced, so by the subword property they are the Bruhat interval
    [e, u] below its product u, a down-set.  If v(j) > v(j+1), then
    v s_j < v <= u, so v s_j is a state already: only ascents lift."""
    check_length_guard(len(T.tiles), "fixed-point sweep")
    states = {tuple(range(1, T.n + 1))}
    for letter in tiling_to_word(T):
        i = letter - 1
        states |= {v[:i] + (v[i + 1], v[i]) + v[i + 2 :] for v in states if v[i] < v[i + 1]}
    return states

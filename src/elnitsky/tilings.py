"""Tilings of the polygon E(w) by 2k-gon tiles, encoded without coordinates.

The 2n-gon E(w) has unit sides labeled 1..n up the left half and, reading the
right half from bottom to top, w(1)..w(n); same-labeled sides are parallel.
Every vertex of a tiling is identified with a subset of {1..n}: the labels of
any shortest edge path reaching it from the bottom vertex.  A tile is then
the pair (labels, base) of k >= 2 labels and the base subset at its lowest
vertex, as a value: it hashes and compares as that pair, so a plain pair
finds it in a tile set.  A tiling is a set of such tiles.  A rhombus is
simply the two-label `ZonoTile`, the only tile class, so rhombic and
zonotopal tilings share one tile model, one growth engine, one validator
and one tile geometry here; `RhombicTiling` differs from `ZonoTiling` only
in spelling each tile's labels "pair" in JSON.  This encoding makes the
bijection with commutation classes of reduced words mechanical:

* growing a tiling from a word sweeps a boundary (a permutation u, read off
  the edge labels from the bottom vertex) from the identity to w, emitting
  one rhombus per letter;
* enumeration grows every tiling at once, each by its one canonical
  placement order, as the paths of one graph of growth states: the
  module `growth`, which `enumerate_rhombic`, `enumerate_zonotopal` and
  `canonical_lines` import only once `_guard` passes, so that a refusal,
  and every process that enumerates nothing, never compiles it;
* peeling a tiling reads letters back off the boundary u, one per tile
  that sits on it: whose base is the set of values before position
  len(base) and whose labels continue u there in increasing order.
  Validation and word extraction share one greedy peel, smallest position
  first: a sitting tile stays sitting until it is peeled, so greedy gets
  stuck iff no peeling order exists (see `_greedy_peel`);
* `peeling_orders` walks the whole commutation class as the linear
  extensions of the heap of the greedy peel's word.  A rhombus peels at
  position len(base) in every order, so each tile has one letter and needs
  the latest earlier tiles of letters one apart or equal; the walk's nodes
  are the down-sets of that order, int masks of the tiles peeled, each
  reached once.  A down-set's moves have distinct letters and are taken in
  increasing order, and all words have the same length, so the words
  stream out in lexicographic order.  The same DAG, its moves labelled
  with prebuilt text, gives `words --all` its lines (`peeling_lines`), and
  `all_words` makes `Word`s of the letters without checking them again.

Tile-set equality is the canonical form of a commutation class: two reduced
words grow the same tile set iff they differ by commutation moves.  Its
canonical JSON lists the tiles sorted by their `key`, (labels, sorted base),
never as tuples; each tile computes that key and its JSON text once, and
one layout (`_json_writer`) joins those texts, byte for byte what
`json.dumps` would write.  `to_json` sorts one tiling's tiles by key on
each call.  `growth` writes each enumerated tiling's line straight off
its path, with no sort per tiling; `zonotopal` and `flips` read E(w) off
its masks, and no package code calls the cached `enumerate_*`, which
build tilings.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import (
    ZONO_RANK_GUARD,
    GuardExceeded,
    NotReducedError,
    check_length_guard,
)
from .permutations import Permutation, Record, Word

__all__ = [
    "LabelSet",
    "ZonoTile",
    "ZonoTiling",
    "RhombicTiling",
    "from_rhombic",
    "to_rhombic",
    "word_to_tiling",
    "tiling_to_word",
    "all_words",
    "peeling_orders",
    "peeling_lines",
    "enumerate_rhombic",
    "enumerate_zonotopal",
    "canonical_lines",
    "validate",
    "validation_error",
    "vertices_of",
    "tiling_digest",
]

LabelSet = frozenset[int]


class ZonoTile(NamedTuple("ZonoTile", [("labels", tuple), ("base", LabelSet)])):
    """A 2k-gon tile: k >= 2 edge labels plus the base subset at its lowest
    vertex, as the value (labels, base); a rhombus is the tile with two
    labels.  Sort tiles by `key`, never as tuples, whose order compares
    bases by inclusion.  Boundary vertices are the base joined with labels
    taken in increasing order (lower path) or decreasing order (upper path).

    The base is not required to be disjoint from the labels at construction
    time, so that malformed input can be represented and rejected by
    `validate`.
    """

    def __new__(cls, labels, base):
        labels = tuple(sorted(labels))
        if len(labels) < 2:
            raise ValueError(f"tile needs at least 2 labels, got {list(labels)}")
        if len(set(labels)) < len(labels):
            raise ValueError(f"repeated tile label in {list(labels)}")
        return super().__new__(cls, labels, frozenset(base))

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def key(self) -> tuple:
        """The canonical sort key (labels, sorted base), computed once."""
        return (self.labels, tuple(sorted(self.base)))

    @cached_property
    def json_tail(self) -> str:
        """The JSON text after the labels key, `[1, 2], "base": [3]`, written once."""
        return f'{list(self.labels)}, "base": {list(self.key[1])}'

    def corners(self) -> tuple[LabelSet, ...]:
        """The 2k corners in cyclic order, the tile's one geometry: up the
        increasing side from the base to the top, adding labels smallest
        first, then back down the decreasing side, removing them smallest
        first.  Consecutive corners are the ends of the tile's unit edges."""
        out = [self.base]
        for x in self.labels:
            out.append(out[-1] | {x})
        for x in self.labels[:-1]:
            out.append(out[-1] - {x})
        return tuple(out)

    def __repr__(self) -> str:
        base = ", ".join(map(str, sorted(self.base)))
        return f"{type(self).__name__}({self.labels}, {{{base}}})"


class ZonoTiling(Record):
    """A set of 2k-gon tiles tiling E(w); equality is tile-set equality."""

    w: Permutation
    tiles: frozenset[ZonoTile]

    # not a field: the JSON key of a tile's labels, which RhombicTiling changes
    json_key = "labels"

    def __post_init__(self):
        object.__setattr__(self, "tiles", frozenset(self.tiles))

    @property
    def n(self) -> int:
        return self.w.n

    def canonical_tiles(self) -> tuple[ZonoTile, ...]:
        return tuple(sorted(self.tiles, key=attrgetter("key")))

    def to_json(self) -> str:
        """`json.dumps` of {"n", "w", "tiles": [{json_key, "base"}, ...]} with
        the tiles in canonical order: `_json_writer`'s one layout, joining
        their cached `json_tail`s.  It sorts the tiles on every call."""
        write = _json_writer(self.w, self.json_key)
        return write([t.json_tail for t in self.canonical_tiles()])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(w={self.w.to_string()}, {len(self.tiles)} tiles)"


class RhombicTiling(ZonoTiling):
    """A tiling by rhombi; its JSON spells each tile's labels as "pair"."""

    json_key = "pair"


def _json_writer(w: Permutation, json_key: str):
    """The one canonical JSON layout of a tiling of E(w), `json.dumps` of
    {"n", "w", "tiles": [{json_key: labels, "base": base}, ...]}: a function
    of the tiles' `json_tail`s, in canonical order, that joins them once."""
    prefix = f'{{"n": {w.n}, "w": {list(w.values)}, "tiles": ['
    head = f'{{"{json_key}": '
    between = "}, " + head

    def write(tails) -> str:
        tiles = between.join(tails)
        return f"{prefix}{head}{tiles}}}]}}" if tiles else prefix + "]}"

    return write


def from_rhombic(T: RhombicTiling) -> ZonoTiling:
    """View a rhombic tiling as a zonotopal one (every tile has k = 2)."""
    return ZonoTiling(T.w, T.tiles)


def to_rhombic(Z: ZonoTiling) -> RhombicTiling:
    """Z as a RhombicTiling; rejects tilings with any tile larger than a rhombus."""
    if isinstance(Z, RhombicTiling):
        return Z
    _require_rhombi(Z)
    return RhombicTiling(Z.w, Z.tiles)


def _require_rhombi(T: ZonoTiling) -> None:
    """Refuse T if any tile is larger than a rhombus: a letter peels two labels."""
    for t in T.tiles:
        if t.size != 2:
            raise ValueError(f"not a rhombic tiling: tile {t!r} has {t.size} labels")


def tiling_digest(tiling: ZonoTiling) -> str:
    """Short stable digest of the canonical JSON form (rhombic or zonotopal)."""
    return _line_digest(tiling.to_json())


def _line_digest(line: str) -> str:
    """The digest of one canonical JSON line: its SHA-256, first 12 hex digits."""
    import hashlib  # here, so that processes that take no digest never load it

    return hashlib.sha256(line.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# boundaries
#
# A boundary is a permutation u: the path from the bottom vertex to the top
# whose j-th vertex is the prefix set {u(1), ..., u(j)}.  The base boundary
# is the identity; growth ends at u = w.

def prefix_sets(u: Permutation) -> tuple[LabelSet, ...]:
    """The n+1 vertices of the boundary u, from empty to full."""
    out = [frozenset()]
    for v in u.values:
        out.append(out[-1] | {v})
    return tuple(out)


def polygon_vertices(w: Permutation) -> frozenset[LabelSet]:
    """Both boundary paths of E(w): the identity side and the w side."""
    return frozenset(prefix_sets(Permutation.identity(w.n))) | frozenset(
        prefix_sets(w)
    )


# ---------------------------------------------------------------------------
# growth: word -> tiling

def word_to_tiling(word: Word) -> RhombicTiling:
    """Grow the tiling of a reduced word, one rhombus per letter (see `grow_word`)."""
    w, tiles = grow_word(word)
    return RhombicTiling(w=w, tiles=frozenset(tiles))


def grow_word(word: Word) -> tuple[Permutation, list[ZonoTile]]:
    """The boundary a reduced word reaches and its rhombi in growth order.

    At boundary u, the letter i contributes the rhombus with pair
    {u(i), u(i+1)} based at the prefix {u(1), ..., u(i-1)}, after which the
    boundary advances by swapping positions i and i+1.  Raises
    NotReducedError at the first letter that would swap a descent.  `Word`
    bounds the letters, so u is a plain list until the end.
    """
    u = list(range(1, word.n + 1))
    tiles = []
    for k, letter in enumerate(word, 1):
        a, b = u[letter - 1], u[letter]
        if a > b:
            raise NotReducedError(position=k, letter=letter)
        tiles.append(ZonoTile((a, b), u[: letter - 1]))
        u[letter - 1], u[letter] = b, a
    return Permutation(tuple(u)), tiles


# ---------------------------------------------------------------------------
# peeling: tiling -> word
#
# A boundary is a tuple of values.  A tile sits on u when its base is the
# set of values before position p = len(base) and its labels continue u
# there in increasing order; peeling it reverses that segment.

def _greedy_peel(T: ZonoTiling) -> tuple[list[ZonoTile], tuple[int, ...]]:
    """Peel the sitting tile at the smallest position until none sits.

    Returns the tiles peeled, in order, and the boundary reached.  The tiles
    are sorted once by the position p where each can sit; a tile's k labels
    are compared with u[p:p+k], and only on a match is its base checked to
    hold the p values u[:p] (so to equal them).  A peeled tile's labels stay
    out of order (see below), so it never sits again.  Some order peels
    every tile iff this one does, with no hypothesis on the tiles:

    * A peel reverses an increasing run, so it inverts pairs of values and
      never un-inverts one: once b precedes a < b, it does for good.
    * Let A sit at position p, labels l1 < ... < lk, and let s be a complete
      order.  The first peel C in s that touches A's segment p..p+k-1 is A:
      earlier peels lie wholly left or right of it, so A still sits there
      when C comes.  If C != A covered two positions of the segment, it
      would invert two of A's labels.  Otherwise C meets the segment in one
      end.  Ending at p, it moves l1 ahead of the smaller value at p-1,
      which is in A's base and must precede l1.  Starting at p+k-1, it moves
      a value larger than lk, in neither A's base nor its labels, ahead of
      lk.  Either way A could never sit again.
    * The peels before A in s miss its segment, so peeling A first changes
      neither their positions nor their bases: A, then s without A, is
      complete too.

    So any sitting tile may be peeled first, and greedy gets stuck iff no
    peeling order exists.
    """
    by_position = sorted(((len(t.base), t) for t in T.tiles), key=itemgetter(0))
    u = tuple(range(1, T.n + 1))
    peeled = []
    while True:
        for p, t in by_position:
            if u[p : p + len(t.labels)] == t.labels and t.base.issuperset(u[:p]):
                break
        else:
            return peeled, u
        peeled.append(t)
        u = u[:p] + t.labels[::-1] + u[p + t.size :]


def tiling_to_word(T: RhombicTiling) -> Word:
    """Peel tiles off the base boundary, smallest letter first.

    The result is the lexicographically least reduced word of T's commutation
    class, and word_to_tiling(result) == T.
    """
    _require_rhombi(T)
    peeled, u = _greedy_peel(T)
    if len(peeled) < len(T.tiles):
        boundary = Permutation(u).to_string()
        raise ValueError(f"malformed tiling: no tile sits on the boundary {boundary}")
    return Word(tuple(len(t.base) + 1 for t in peeled), T.n)


def peeling_orders(T: RhombicTiling) -> Iterator[tuple[int, ...]]:
    """The letters of every peeling order of T, in lexicographic order: the
    commutation class of T's words, streamed.

    Refuses before it yields anything: a tile larger than a rhombus, more
    tiles than the length guard allows, or a tile set no order peels (the
    greedy peel gets stuck).  Otherwise the greedy order reads a word that
    grows T, and T's words are its commutation class: the linear extensions
    of its heap, where letters a and b with |a - b| <= 1 keep their order
    and all others commute (Viennot, "Heaps of pieces I"; Stembridge).  A
    rhombus peels at position len(base) in every order, so each tile has
    one letter and needs only the latest earlier tiles of letters a - 1, a
    and a + 1, a mask of tile bits.  The DAG's nodes are the heap's
    down-sets, int masks of the tiles peeled, each recorded once; the moves
    at one (letter, next node) are the unpeeled tiles whose needs it holds.
    The later of two tiles of one letter needs the earlier, so the moves
    have distinct letters; taken in increasing order, with every order
    len(T.tiles) letters long, they yield the words in lexicographic order.
    `_walk` streams them: its cost follows its output, and it holds the
    DAG and one path, no boundary of rank n.
    """
    return _walk(_peeling_dag(T, _letter, _letter))


def peeling_lines(T: RhombicTiling) -> Iterator[str]:
    """The letters of every peeling order of T as text, `"3,1,2"`, in the
    order of `peeling_orders`; the identity's one empty order is `""`.
    Refuses as `peeling_orders` does.  The same walk adds each move's
    prebuilt text, `"3,"` inside a word and `"3"` at its end, to the text
    before it, so a line costs one concatenation, not a `str` and a join
    per letter."""
    return _walk(_peeling_dag(T, "{},".format, str), "")


def _letter(a: int) -> tuple[int]:
    return (a,)


def _peeling_dag(T: RhombicTiling, inner: Callable, last: Callable) -> list:
    """The root of the down-set DAG of `peeling_orders`, refusing first:
    each move's label is `inner(a)` for its letter a, or `last(a)` on the
    move that peels the last tile."""
    _require_rhombi(T)
    check_length_guard(len(T.tiles), "peeling-order enumeration")
    peeled = _greedy_peel(T)[0]
    if len(peeled) < len(T.tiles):
        raise ValueError("malformed tiling: no complete peeling order exists")
    latest: dict[int, int] = {}
    tiles = []
    for k, t in enumerate(peeled):
        a = len(t.base) + 1
        need = latest.get(a - 1, 0) | latest.get(a, 0) | latest.get(a + 1, 0)
        tiles.append((a, 1 << k, need, inner(a), last(a)))
        latest[a] = 1 << k
    tiles.sort()
    full = (1 << len(tiles)) - 1
    moves: dict[int, list] = {0: []}
    todo = [0]
    while todo:
        done = todo.pop()
        out = moves[done]
        for a, bit, need, inside, end in tiles:
            if not done & bit and not need & ~done:
                after = done | bit
                if after not in moves:
                    moves[after] = []
                    todo.append(after)
                out.append((end if after == full else inside, moves[after]))
    return moves[0]


def _walk(root: list, start=()) -> Iterator:
    """Every path from `root` to a node with no moves, depth first in move
    order, as `start` plus its labels in turn, by `+`; a node is its list
    of moves (label, next node).  Labels are 1-tuples for a tuple of
    labels, or strings for text."""
    if not root:
        yield start
        return
    prefix = start
    stack = []
    moves = iter(root)
    while True:
        for label, after in moves:
            if not after:
                yield prefix + label
            else:
                stack.append((moves, prefix))
                prefix += label
                moves = iter(after)
                break
        else:
            if not stack:
                return
            moves, prefix = stack.pop()


def all_words(T: RhombicTiling) -> frozenset[Word]:
    """All peeling orders of T: the full commutation class of its words
    (see `peeling_orders`).  The walk's letters lie in 1..n-1, so the words
    are made without `Word`'s letter check."""
    return frozenset(map(Word._make, peeling_orders(T), repeat(T.n)))


# ---------------------------------------------------------------------------
# enumeration and validation

@lru_cache(maxsize=256)
def enumerate_rhombic(w: Permutation) -> frozenset[RhombicTiling]:
    """All rhombic tilings of E(w): boundary growth by runs of length 2."""
    guarded = _guard(w, zonotopal=False)
    from .growth import _grow

    return _grow(w, *guarded)


@lru_cache(maxsize=256)
def enumerate_zonotopal(w: Permutation) -> frozenset[ZonoTiling]:
    """All zonotopal tilings of E(w): boundary growth by runs of any length."""
    guarded = _guard(w, zonotopal=True)
    from .growth import _grow

    return _grow(w, *guarded)


def canonical_lines(w: Permutation, zonotopal: bool = False) -> list[str]:
    """The canonical JSON of every rhombic (or zonotopal) tiling of E(w),
    sorted: `sorted(T.to_json() for T in enumerate_rhombic(w))`, written
    straight from the growth graph's paths without building a tiling.

    Refuses as `enumerate_rhombic` (or `enumerate_zonotopal`) does.
    """
    guarded = _guard(w, zonotopal)
    from .growth import _canonical_paths

    _, write, paths = _canonical_paths(w, *guarded)
    return sorted([write(slots) for _, slots in paths()])


def _guard(w: Permutation, zonotopal: bool) -> tuple[int, type[ZonoTiling]]:
    """The largest tile and the tiling class of an enumeration of E(w),
    once its guards pass: for zonotopal tilings the rank, then the length.
    Raises GuardExceeded naming the guard that refused.  Every entry to
    the `growth` engine calls it first and passes on what it returns."""
    if not zonotopal:
        check_length_guard(w.length(), "rhombic tiling enumeration")
        return 2, RhombicTiling
    if w.n > ZONO_RANK_GUARD:
        raise GuardExceeded(
            f"zonotopal enumeration refused: rank {w.n} exceeds the guard {ZONO_RANK_GUARD}"
        )
    check_length_guard(w.length(), "zonotopal tiling enumeration")
    return w.n, ZonoTiling


def validation_error(T: ZonoTiling) -> str | None:
    """Reason T is not a tiling of E(w) by its tiles, or None if it is."""
    n = T.n
    for tile in T.tiles:
        if not (1 <= tile.labels[0] and tile.labels[-1] <= n):
            return f"tile labels {list(tile.labels)} outside 1..{n}"
        if not all(1 <= x <= n for x in tile.base):
            return f"tile base {sorted(tile.base)} outside 1..{n}"
        if not tile.base.isdisjoint(tile.labels):
            return (
                f"tile base {sorted(tile.base)} not disjoint from labels"
                f" {list(tile.labels)}"
            )
    position = [0] * (n + 1)
    for i, v in enumerate(T.w.values):
        position[v] = i
    covered = Counter(pair for t in T.tiles for pair in combinations(t.labels, 2))
    for pair, count in sorted(covered.items()):
        if position[pair[0]] < position[pair[1]]:
            return f"pair {pair} is not an inversion of {T.w.to_string()}"
        if count > 1:
            return f"pair {pair} covered by more than one tile"
    # each covered pair is now an inversion, covered once
    if len(covered) < T.w.length():
        return f"inversion {_least_uncovered(T.w, covered)} not covered by any tile"
    if len(_greedy_peel(T)[0]) < len(T.tiles):
        return "tiles do not admit any peeling order from the base boundary"
    return None


def _least_uncovered(w: Permutation, covered) -> tuple[int, int]:
    """The least inversion (a, b) of w not in `covered`, a set of w's
    inversions that lacks one, found without listing them: a is the least
    value with more inversions (a, b), by w's inversion table, than
    `covered` holds, and b the least larger value before a not paired."""
    held = Counter(a for a, _ in covered)
    table = w.inversion_table()
    a = next(v for v, count in enumerate(table, 1) if count > held[v])
    before = w.values[: w.values.index(a)]
    return a, min(b for b in before if b > a and (a, b) not in covered)


def validate(T: ZonoTiling) -> bool:
    """True iff T's tiles cover inversions(w) once each and a peeling order exists."""
    return validation_error(T) is None


# ---------------------------------------------------------------------------
# incidence data

def vertices_of(T: ZonoTiling) -> frozenset[LabelSet]:
    """All vertices of T, including every boundary vertex of E(w)."""
    vertices = set(polygon_vertices(T.w))
    for tile in T.tiles:
        vertices.update(tile.corners())
    return frozenset(vertices)

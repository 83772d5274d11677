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
  placement order.  How a partial tiling may go on depends only on its
  boundary u and on where its latest tiles start, so each such state is
  one node of a graph of placements, expanded once, and the tilings are
  the graph's paths.  w is first split at its pinch vertices, where no
  tile crosses, and each block's graph ends in the next one's root (see
  `_growth_graph` and `_block_graph`);
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
each call.  The tiles of one tiling share no inversion pair of w, so their
key order is that of their leading pairs, their two smallest labels: one
fixed order of l(w) slots, one per pair.  `_canonical_paths` walks the
growth graph once, each move writing its tile's text into the slot of its
leading pair and "" into its other pairs' slots, so every path fills every
slot and the walk never undoes a write; a path's line is its slots joined,
and its mask over the key-sorted tile table the OR of its tiles' bits.
The walk follows each run of nodes with one move without stacking them.
Only `canonical_lines`, which sorts the lines, and `_digest_table`, which
digests them into the one digest-sorted E(w) whose flips and covers
`_replaced` finds in one scan, write lines.  `zonotopal` reads masks alone;
no package code calls the cached `enumerate_*`, which build tilings.
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
from .permutations import Permutation, Record, Word, inversions

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
    return _grow(w, RhombicTiling, zonotopal=False)


@lru_cache(maxsize=256)
def enumerate_zonotopal(w: Permutation) -> frozenset[ZonoTiling]:
    """All zonotopal tilings of E(w): boundary growth by runs of any length."""
    return _grow(w, ZonoTiling, zonotopal=True)


def canonical_lines(w: Permutation, zonotopal: bool = False) -> list[str]:
    """The canonical JSON of every rhombic (or zonotopal) tiling of E(w),
    sorted: `sorted(T.to_json() for T in enumerate_rhombic(w))`, written
    straight from the growth graph's paths without building a tiling.

    Refuses as `enumerate_rhombic` (or `enumerate_zonotopal`) does.
    """
    _, write, paths = _canonical_paths(w, zonotopal)
    return sorted([write(slots) for _, slots in paths()])


def _canonical_paths(w: Permutation, zonotopal: bool) -> tuple[list, Callable, Callable]:
    """The tile table of E(w)'s growth graph, sorted by `key`; `write`, which
    gives a tiling's canonical JSON line from its slots; and `paths`, whose
    call `paths(banned)` yields (mask, slots) for each tiling, one per path,
    with no tile of a bit in `banned`: its mask over the table and its l(w)
    slots of JSON text, one per inversion pair in lex order (see above).

    Refuses as `enumerate_rhombic` (or `enumerate_zonotopal`) does, before
    it returns.  Each tile's label in the graph is rewritten once, in place,
    to its bit and its writes, (slot, text) pairs: its `json_tail` into its
    leading pair's slot and "" into its other pairs'.  `slots` is the walk's
    one list, to be read before the next path; only callers that print or
    digest a line call `write`.  Banned tiles are cut from a copy of the
    graph with the dead ends they leave (`_without`), so the walk visits
    only the paths it yields.
    """
    max_run, tiling_type = _guard(w, zonotopal)
    labels, root = _growth_graph(w, max_run)
    labels.sort(key=lambda label: label[0].key)
    tiles = [label[0] for label in labels]
    slot = {pair: s for s, pair in enumerate(sorted(inversions(w)))}
    for r, (label, t) in enumerate(zip(labels, tiles)):
        lead, *rest = (slot[pair] for pair in combinations(t.labels, 2))
        label[:] = 1 << r, ((lead, t.json_tail), *((s, "") for s in rest))
    line = _json_writer(w, tiling_type.json_key)
    # a rhombus fills only its leading pair's slot, so no slot is left blank
    write = line if max_run == 2 else lambda slots: line(filter(None, slots))

    def paths(banned: int = 0) -> Iterator[tuple[int, list]]:
        start = _without(root, banned, {}) if banned else root
        return iter(()) if start is None else _fill_slots(start, len(slot))

    return tiles, write, paths


def _fill_slots(root: list, size: int) -> Iterator[tuple[int, list]]:
    """(mask, slots) for each path from `root` to the end, depth first in
    move order, over a growth graph whose labels are (bits, writes): the OR
    of the path's bits, and `size` slots, each last set by one of the
    path's writes, (slot, text) pairs (see `_canonical_paths`).  A run of
    nodes of one move is followed on the spot, so the walk stacks only
    where paths branch: at 7654312 most of the nodes a path meets have one
    move."""
    slots = [""] * size
    if not root:
        yield 0, slots
        return
    mask = 0
    stack = []
    node = iter(root)
    while True:
        for (bits, writes), after in node:
            for s, text in writes:
                slots[s] = text
            while len(after) == 1:
                (more, writes), after = after[0]
                for s, text in writes:
                    slots[s] = text
                bits |= more
            if after:
                stack.append((node, mask))
                mask |= bits
                node = iter(after)
                break
            yield mask | bits, slots
        else:
            if not stack:
                return
            node, mask = stack.pop()


def _without(node: list, banned: int, memo: dict) -> list | None:
    """A copy of the growth graph from `node` without the moves whose
    label has a bit in `banned`, or the nodes then left with no way to the
    end (None); `memo` maps the ids of the nodes seen, all alive, to their
    copies."""
    if not node:
        return node
    out = memo.get(id(node), False)
    if out is False:
        out = []
        for label, after in node:
            if not label[0] & banned:
                after = _without(after, banned, memo)
                if after is not None:
                    out.append((label, after))
        out = memo[id(node)] = out or None
    return out


def _digest_table(w: Permutation, zonotopal: bool) -> tuple[tuple, tuple, tuple]:
    """The rhombic (or zonotopal) tilings of E(w), each line of
    `_canonical_paths` hashed once and no tiling built: their digests,
    sorted, their masks over the tile table in that order, and the table."""
    tiles, write, paths = _canonical_paths(w, zonotopal)
    rows = [(_line_digest(write(slots)), mask) for mask, slots in paths()]
    digests, masks = zip(*sorted(rows, key=itemgetter(0)))
    return digests, masks, tuple(tiles)


def _replaced(masks, rules) -> Iterator[tuple[int, int]]:
    """(i, j), by j, for each rule that fires in `masks[j]` = m, visiting
    only m's trigger bits: `rules` maps a trigger tile's bit to (patch, news)
    mask pairs, and m holding the patch too has `masks[i]` = m ^ patch | c."""
    index = {m: i for i, m in enumerate(masks)}
    triggers = sum(rules)
    for j, m in enumerate(masks):
        rest = m & triggers
        while rest:
            low = rest & -rest
            rest ^= low
            for patch, news in rules[low]:
                if m & patch == patch:
                    for c in news:
                        yield index[m ^ patch | c], j


def _tiles_of(mask: int, tiles) -> frozenset[ZonoTile]:
    """The tiles whose bits `mask` sets."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(tiles[low.bit_length() - 1])
    return frozenset(out)


def _guard(w: Permutation, zonotopal: bool) -> tuple[int, type[ZonoTiling]]:
    """The largest tile and the tiling class of an enumeration of E(w),
    once its guards pass: for zonotopal tilings the rank, then the length.
    Raises GuardExceeded naming the guard that refused."""
    if not zonotopal:
        check_length_guard(w.length(), "rhombic tiling enumeration")
        return 2, RhombicTiling
    if w.n > ZONO_RANK_GUARD:
        raise GuardExceeded(
            f"zonotopal enumeration refused: rank {w.n} exceeds the guard {ZONO_RANK_GUARD}"
        )
    check_length_guard(w.length(), "zonotopal tiling enumeration")
    return w.n, ZonoTiling


def _grow(w: Permutation, tiling_type: type[ZonoTiling], zonotopal: bool) -> frozenset:
    """All rhombic (or zonotopal) tilings of E(w): each path of
    `_canonical_paths`, its mask's tiles looked up, as one `tiling_type`."""
    tiles, _, paths = _canonical_paths(w, zonotopal)
    return frozenset(tiling_type(w, _tiles_of(mask, tiles)) for mask, _ in paths())


def _growth_graph(w: Permutation, max_run: int) -> tuple[list[list], list]:
    """The tile labels and the root of the growth graph of E(w) by tiles
    of at most `max_run` labels, whose paths to the end list every tiling
    once.  A label is a list holding one tile, made with the tile and shared
    by every move that places it, so that a caller can rewrite it once, in
    place, into what its walk reads (see `_canonical_paths`).

    w is split at its pinch vertices, the j with min w(j+1..n) = j+1 (so
    w({1..j}) = {1..j}), found right to left by one running minimum.  No
    inversion of w crosses a pinch vertex, so no tile does, and every tile
    between pinch vertices i < j has {1..i} in its base: a tiling of E(w)
    is one tiling of each block in turn.  Blocks of one value hold no tile.
    Each block's graph is built as the scan reaches it, ending in the next
    block's root, so the paths from the root run through every block.
    """
    fits = [0] * (w.n + 1)
    for a, b in inversions(w):
        fits[a] |= 1 << b
    table: list[list] = []
    root: list = []
    hi = low = w.n
    for lo in reversed(range(w.n)):
        low = min(low, w.values[lo])
        if low == lo + 1:
            if hi - lo > 1:
                root = _block_graph(w.values[lo:hi], lo, fits, max_run, table, root)
            hi = lo
    return table, root


def _block_graph(target: tuple, lo: int, fits: list, max_run: int, table: list, end: list):
    """The root of the growth graph of one block of w: the values lo+1..hi
    that w puts at positions lo+1..hi, grown from the identity to `target`.
    A node is its list of moves (label, next node), each label the list
    `[tile]` that its first move appends to `table`; the node at `target` is
    `end`, and the paths to it list each tiling once.

    At boundary u a tile fits over positions p..q when u increases there
    through values whose every pair is an inversion of w; placing it
    reverses that segment.  On an increasing run w puts the values in
    decreasing position order, so only neighbours need checking, one bit
    test each in the inversion table: bit y of fits[x] is set iff x < y and
    w inverts (x, y).  Each boundary carries `fitting`, whose bit r is set
    iff its neighbours at r and r+1 pass that test, so tiles are sought
    only where one can start.  A placement over p..q clears bits p..q-1,
    where the values now decrease, and may set bits p-1 and q, never clear
    them: inversions of w are transitive, so a < b < c with (a, b) and
    (b, c) inverted has (a, c) inverted too.  A tile's code, the bits of
    u[:p] (gathered as p grows; their count is how far) over its label
    bits, finds its label.

    Each tile set is grown by one placement order only.  Two tiles can be
    placed in either order iff their segments are disjoint (a tile's base is
    the set of values before it, not their order, and overlapping segments
    share a position whose value the first reversal moves).  So the
    placement orders of one tile set differ by swaps of adjacent disjoint
    tiles, and exactly one of them lists the tile positions in
    lexicographically least order: the one in which, looking back from the
    tile over p..q, the latest tile ending at or after p overlaps it,
    because a disjoint one would lie to its right and could swap with it.
    `reach[r]` is where the latest tile ending at or after r starts (0
    while there is none), so the test is reach[p] <= q.

    Which tiles may still be placed, and which of them keep the order
    canonical, depend on the state (u, reach) alone, not on the tiles that
    reached it.  So each state is one node, expanded once (see `_expand`).
    A state is one `bytes`, reach then u, whose hash is computed once: u
    holds values less lo, 1..size, and reach positions, 0..size-1.  A block
    of size k is connected, so it has at least k - 1 inversions and the
    length guard keeps k <= 21, whatever lo is.
    """
    size = len(target)
    fits = [fits[lo + x] >> lo for x in range(size + 1)]
    fitting = sum((fits[x] >> x + 1 & 1) << x - 1 for x in range(1, size))
    runs = [range(p + 1, min(p + max_run, size)) for p in range(size - 1)]
    marks = [[bytes((p,)) * (q + 1) for q in range(size)] for p in range(size)]
    below = frozenset(range(1, lo + 1))
    goal = bytes(x - lo for x in target)
    block = goal, end, fits, runs, marks, size, lo, below, table, {}, {}
    return _expand(bytes(size) + bytes(range(1, size + 1)), fitting, block)


def _expand(state: bytes, fitting: int, block: tuple):
    """The node of `state`, reach then u (see `_block_graph`), depth first:
    its moves to states with a canonical way on to the target, or None if
    there are none.  A move is (label, next node), where the label is a
    list holding the tile, one per tile (see `_growth_graph`).  u[i] is
    `state[size + i]`, so a placement over p..q is reach[:q+1] set to p,
    then the bytes up to u[p], then u[p..q] reversed, then the rest.  The
    depth is at most the block's tiles.  `block` holds what one
    `_block_graph` shares, among it the memo from states to nodes (None
    too, so a miss is False); a plain function, not a closure over itself,
    leaves no reference cycle to keep the graph alive."""
    goal, end, fits, runs, marks, size, lo, below, table, codes, memo = block
    if state.endswith(goal):
        return end
    moves = []
    starts = fitting
    base = 0
    while starts:
        low = starts & -starts
        starts ^= low
        p = low.bit_length() - 1
        reach = state[p]
        mark = marks[p]
        up = size + p
        labels = 1 << state[up]
        for q in runs[p]:
            if not fitting >> q - 1 & 1:
                break
            uq = size + q
            labels |= 1 << state[uq]
            if reach > q:
                continue
            v = mark[q] + state[q + 1 : up] + state[uq : up - 1 : -1] + state[uq + 1 :]
            after = memo.get(v, False)
            if after is False:
                refit = fitting & ~((1 << q) - low)
                if p and fits[v[up - 1]] >> v[up] & 1:
                    refit |= low >> 1
                if q + 1 < size and fits[v[uq]] >> v[uq + 1] & 1:
                    refit |= 1 << q
                after = memo[v] = _expand(v, refit, block)
            if after is None:
                continue
            for x in state[size + base.bit_count() : up]:
                base |= 1 << x
            code = base << size + 1 | labels
            label = codes.get(code)
            if label is None:
                under = below.union([lo + x for x in state[size:up]])
                label = codes[code] = [ZonoTile([lo + x for x in state[up : uq + 1]], under)]
                table.append(label)
            moves.append((label, after))
    return moves or None


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

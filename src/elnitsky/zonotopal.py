"""Zonotopal tilings: coarsenings of rhombic tilings by larger 2k-gon tiles.

A tile carries k >= 2 labels; its shape is the centrally symmetric 2k-gon
swept by those k edge directions, and a rhombus is the k = 2 case.  The
tile model, the validator, the conversions to and from rhombic tilings
and the one guarded way into the growth engine live in `tilings`, shared
with rhombic tilings; this module adds the coarsening order and refinement.
The tilings of E(w) by such tiles form a poset under reverse edge
inclusion (more edges = finer = smaller), whose minimal elements are
exactly the rhombic tilings.  The order is computed tile-wise, from tile
bases and tops only: Z <= Y iff Z `_fills` every tile of Y, which is
reverse edge inclusion by the argument in `ZonoPoset`.  Below Y each tile
is refined on its own, by a tiling of E(w0(k)) carried in by `_relabel`:
the rhombic ones give `refinements` and the coatoms the covers, both from
one cached entry per k (`_coatoms`), which keeps each coatom's label and
base positions too, so a cover rule looks its tiles up with none built.
Everything here reads E(w) off the key-ranked tile table of
`tilings._table`, as int masks, never through the cached enumerations:
`poset` off its digest-sorted form, which `flips.flip_graph` shares
(covers are found on the masks by the flips' scan, `tilings._replaced`,
and no tiling is built until `elements` is read), and
`minimal_upper_bounds` walking only the moves of tiles both tilings fill,
so it meets and builds only the common coarsenings.
"""
from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import product
from math import comb

from .permutations import Permutation, Record
from .tilings import RhombicTiling, ZonoTile, ZonoTiling
from .tilings import _digest_table, _replaced, _table, _tiles_of

__all__ = [
    "ZonoPoset",
    "zono_leq",
    "poset",
    "maximal_elements",
    "minimal_elements",
    "has_unique_max",
    "minimal_upper_bounds",
    "refinements",
]


def zono_leq(Z1: ZonoTiling, Z2: ZonoTiling) -> bool:
    """Z1 <= Z2 iff Z1 refines Z2, computed tile-wise: Z1 `_fills` every
    tile of Z2.  This is reverse edge inclusion, Z1 having every unit edge
    of Z2, by the argument in `ZonoPoset`."""
    _same_polygon(Z1, Z2)
    return all(_fills(Z1, t) for t in Z2.tiles)


def _fills(Z: ZonoTiling, tile: ZonoTile) -> bool:
    """Do the tiles of Z inside `tile` fill it?  A tile lies inside the one
    with base S and top T when S is within its base and its top within T,
    and those tiles fill it when their areas C(k, 2) sum to `tile`'s."""
    labels, S = tile
    T = S.union(labels)
    area = sum(comb(len(x), 2) for x, base in Z.tiles if S <= base <= T and T.issuperset(x))
    return area == comb(len(labels), 2)


def _same_polygon(Z1: ZonoTiling, Z2: ZonoTiling) -> None:
    if Z1.w != Z2.w:
        raise ValueError(
            f"tilings of different polygons: {Z1.w.to_string()} vs {Z2.w.to_string()}"
        )


class ZonoPoset(Record):
    """All zonotopal tilings of one E(w) under reverse edge inclusion.

    Elements are digest-sorted for reproducible output, and `digests` holds
    their digests in the same order.  Each element is kept as an int mask
    over `tiles`, the growth graph's tile table in `key` order; `elements`
    builds the tilings, and `cover_indices` the covers, on first use.

    Why relabelled coatoms give exactly the covers.  Reverse edge inclusion
    is tile-wise refinement: Z <= Y iff every tile of Y is a union of tiles
    of Z, because no edge of Y crosses the interior of a tile of Z when Z
    has all of Y's edges, and the unit edges on a tile's boundary are edges
    of the tiles inside it.  If Z < Y, merging the tiles of Z inside a tile
    t of Y that Z lacks gives a tiling in (Z, Y]; so Y covers Z only if they
    differ in one tile t, which Z tiles by a group G.  The tilings between
    keep Y's other tiles, so Y covers Z iff t covers G among the tilings of
    t, which depends only on G.  `_relabel` renames labels 1..k to t's and
    adds t's base, an order isomorphism from the tilings of E(w0(k)) onto
    those of t.  So the lower covers of Y replace one tile t of k >= 3
    labels by `_relabel(C, t)`, for each coatom C of E(w0(k)): a tiling
    that the single 2k-gon covers.  On masks, the lower covers of m at the
    bit b of such a tile are `m ^ b | c`, one for each relabelled coatom's
    mask c: one rule of `tilings._replaced` per tile (see `_cover_pairs`).
    """

    w: Permutation
    digests: tuple[str, ...]
    masks: tuple[int, ...]
    tiles: tuple[ZonoTile, ...]

    @cached_property
    def elements(self) -> tuple[ZonoTiling, ...]:
        """The tilings, in digest order."""
        return tuple(ZonoTiling(self.w, _tiles_of(m, self.tiles)) for m in self.masks)

    @cached_property
    def cover_indices(self) -> tuple[tuple[int, int], ...]:
        """(lower, upper) index pairs into `elements`, one per cover, by
        upper index, then the replaced tile's `key`, then coatom."""
        return tuple(_cover_pairs(self.masks, self.tiles))

    @cached_property
    def covers(self) -> frozenset[tuple[ZonoTiling, ZonoTiling]]:
        """(lower, upper) pairs with nothing strictly between."""
        e = self.elements
        return frozenset((e[i], e[j]) for i, j in self.cover_indices)

    def __len__(self) -> int:
        return len(self.masks)

    def __repr__(self) -> str:
        return f"ZonoPoset(w={self.w.to_string()}, {len(self.masks)} tilings)"


def _cover_pairs(masks, tiles):
    """(lower, upper) index pairs into `masks`, tilings as masks over the
    tile table `tiles`, one per cover (see `ZonoPoset`); every lower cover
    of a mask must be among them.  Each held tile of k >= 3 labels is a
    rule of `_replaced`, its bit swapped for each relabelled coatom mask;
    no mask of `_coatoms(k)` holds the 2k-gon, so it never asks for itself.
    A coatom's tiles are relabelled by its positions in `_coatoms(k)`, into
    plain (labels, base) pairs that find their bits with no tile built."""
    held = reduce(int.__or__, masks, 0)
    bit = {t: 1 << r for r, t in enumerate(tiles)}
    rules = {}
    for t, b in bit.items():
        if t.size >= 3 and held & b:
            at = t.labels.__getitem__
            news = [
                sum(bit[tuple(map(at, x)), t.base.union(map(at, y))] for x, y in C)
                for C in _coatoms(t.size)[2]
            ]
            rules[b] = [(b, news)]
    return _replaced(masks, rules)


@lru_cache(maxsize=8)
def _coatoms(k: int) -> tuple[tuple, tuple, tuple]:
    """The tilings of E(w0(k)) that the single 2k-gon covers, its rhombic
    tilings (of C(k, 2) tiles), both as tile sets off one key-ranked tile
    table, and the coatoms again, in that order, as positions: each tile as
    the tuples of the 0-based positions of its labels and of its base
    among 1..k, which index the labels of the tile it is renamed into.
    The coatoms are the masks of two or more tiles that no other such mask
    covers, since a chain up to one starts with a cover.  Their tiles have
    fewer than k labels, so their rules need only smaller tables, down to
    k = 2, one rhombus with no coatom.  The length guard keeps k <= 6."""
    w0 = Permutation.longest(k)
    tiles, _, paths = _table(w0, zonotopal=True)
    masks = [mask for mask, _ in paths()]
    multi = [m for m in masks if m & m - 1]
    below = {i for i, _ in _cover_pairs(multi, tiles)}
    coatoms = tuple(_tiles_of(m, tiles) for i, m in enumerate(multi) if i not in below)
    positions = tuple(
        tuple((tuple(a - 1 for a in labels), tuple(x - 1 for x in base)) for labels, base in C)
        for C in coatoms
    )
    rhombic = tuple(_tiles_of(m, tiles) for m in masks if m.bit_count() == comb(k, 2))
    return coatoms, rhombic, positions


def poset(w: Permutation) -> ZonoPoset:
    """The zonotopal tilings of E(w), each digested from the canonical JSON
    line its growth path writes, with no tiling built."""
    return ZonoPoset(w, *_digest_table(w, zonotopal=True))


def maximal_elements(p: ZonoPoset) -> frozenset[ZonoTiling]:
    """Tilings with no upper cover, built without the other elements."""
    return _all_but(p, {i for i, _ in p.cover_indices})


def minimal_elements(p: ZonoPoset) -> frozenset[ZonoTiling]:
    """Tilings with no lower cover, built without the other elements."""
    return _all_but(p, {j for _, j in p.cover_indices})


def _all_but(p: ZonoPoset, indices: set[int]) -> frozenset[ZonoTiling]:
    masks = (m for i, m in enumerate(p.masks) if i not in indices)
    return frozenset(ZonoTiling(p.w, _tiles_of(m, p.tiles)) for m in masks)


def has_unique_max(w: Permutation) -> bool:
    p = poset(w)
    return len(p) - len({i for i, _ in p.cover_indices}) == 1


def minimal_upper_bounds(Z1: ZonoTiling, Z2: ZonoTiling) -> frozenset[ZonoTiling]:
    """Minimal elements of the set of common coarsenings of Z1 and Z2.

    May be empty or contain several tilings; a singleton is a least upper
    bound.  Z >= Z1 iff Z1 fills every tile of Z, so the walk of
    `_table` takes only moves whose tiles Z1 and Z2 both fill, and
    the paths it ends, the common coarsenings, alone are built and compared."""
    _same_polygon(Z1, Z2)
    tiles, _, paths = _table(Z1.w, zonotopal=True)
    filled = sum(1 << r for r, t in enumerate(tiles) if _fills(Z1, t) and _fills(Z2, t))
    bounds = [ZonoTiling(Z1.w, _tiles_of(mask, tiles)) for mask, _ in paths(~filled)]
    return frozenset(
        Z for Z in bounds if not any(o != Z and zono_leq(o, Z) for o in bounds)
    )


def refinements(Z: ZonoTiling) -> frozenset[RhombicTiling]:
    """All rhombic tilings below Z: tile each 2k-gon independently.

    Each tile's interior is a copy of E of the k-element reversal, with
    letters renamed to the tile's labels and bases shifted by the tile's
    base; its rhombic tilings come from the `_coatoms(k)` entry, and
    refinements are products of independent per-tile choices.
    """
    per_tile = [[_relabel(T, t) for T in _coatoms(t.size)[1]] for t in Z.tiles]
    return frozenset(
        RhombicTiling(Z.w, frozenset().union(*combo)) for combo in product(*per_tile)
    )


def _relabel(tiles: frozenset[ZonoTile], tile: ZonoTile) -> frozenset[ZonoTile]:
    """Transport tiles of E(w0(k)), labelled 1..k, into `tile`'s 2k-gon."""
    L = tile.labels
    return frozenset(
        ZonoTile([L[a - 1] for a in labels], tile.base | {L[x - 1] for x in base})
        for labels, base in tiles
    )

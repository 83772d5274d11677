"""Zonotopal tilings: coarsenings of rhombic tilings by larger 2k-gon tiles.

A tile carries k >= 2 labels; its shape is the centrally symmetric 2k-gon
swept by those k edge directions, and a rhombus is the k = 2 case.  The
tile model, the growth engine behind `enumerate_zonotopal` and the
validator live in `tilings`, shared with rhombic tilings; this module adds
the coarsening order, the conversions to and from rhombic tilings, and
refinement.  The tilings of E(w) by such tiles form a poset under reverse
edge inclusion (more edges = finer = smaller), whose minimal elements are
exactly the rhombic tilings.  The order is computed tile-wise, from tile
bases and tops only: Z <= Y iff every tile of Y is filled by the tiles of Z
inside it, which is reverse edge inclusion by the argument in `ZonoPoset`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb

from .permutations import Permutation
from .tilings import (
    RhombicTiling,
    ZonoTile,
    ZonoTiling,
    enumerate_rhombic,
    enumerate_zonotopal,
    sort_by_digest,
)

__all__ = [
    "ZonoPoset",
    "zono_leq",
    "poset",
    "maximal_elements",
    "minimal_elements",
    "has_unique_max",
    "minimal_upper_bounds",
    "refinements",
    "from_rhombic",
    "to_rhombic",
]


def from_rhombic(T: RhombicTiling) -> ZonoTiling:
    """View a rhombic tiling as a zonotopal one (every tile has k = 2)."""
    return ZonoTiling(T.w, T.tiles)


def to_rhombic(Z: ZonoTiling) -> RhombicTiling:
    """Z as a RhombicTiling; rejects tilings with any tile larger than a rhombus."""
    if isinstance(Z, RhombicTiling):
        return Z
    for t in Z.tiles:
        if t.size != 2:
            raise ValueError(f"not a rhombic tiling: tile {t!r} has {t.size} labels")
    return RhombicTiling(Z.w, Z.tiles)


def zono_leq(Z1: ZonoTiling, Z2: ZonoTiling) -> bool:
    """Z1 <= Z2 iff Z1 refines Z2, computed tile-wise: every tile of Z2 is
    filled by the tiles of Z1 inside it.

    A tile of Z1 lies inside the tile with base S and top T when S is within
    its base and its top within T, and those tiles fill it when their areas
    C(k, 2) sum to C(|T - S|, 2).  This is reverse edge inclusion, Z1 having
    every unit edge of Z2, by the argument in `ZonoPoset`.
    """
    _same_polygon(Z1, Z2)
    parts = [
        (base, base.union(labels), comb(len(labels), 2)) for labels, base in Z1.tiles
    ]
    for labels, S in Z2.tiles:
        T = S.union(labels)
        area = sum(a for base, top, a in parts if S <= base and top <= T)
        if area != comb(len(labels), 2):
            return False
    return True


def _same_polygon(Z1: ZonoTiling, Z2: ZonoTiling) -> None:
    if Z1.w != Z2.w:
        raise ValueError(
            f"tilings of different polygons: {Z1.w.to_string()} vs {Z2.w.to_string()}"
        )


@dataclass(frozen=True)
class ZonoPoset:
    """All zonotopal tilings of one E(w) under reverse edge inclusion.

    Elements are digest-sorted for reproducible output, and `digests` holds
    their digests in the same order; cover relations are computed on first
    use, one tiling at a time.

    Why local merges give exactly the covers.  Reverse edge inclusion is
    tile-wise refinement: Z <= Y iff every tile of Y is a union of tiles
    of Z, because no edge of Y crosses the interior of a tile of Z when Z
    has all of Y's edges, and the unit edges on a tile's boundary are edges
    of the tiles inside it.  If the tiles of Z with S <= base and
    top <= T number two or more and their areas C(k, 2) sum to
    C(|T - S|, 2), they exactly tile the 2k-gon with base S and labels
    T - S: tiles of one tiling cover distinct inversions, and area adds up
    over label pairs.  Merging them into that one tile is a coarsening of
    Z.  Any tiling between Z and such a merge differs from Z only inside
    the merged region, where its tiles are unions of the group's tiles; so
    the merge covers Z iff no proper subgroup tiles a 2k-gon of its own.
    And every cover Z < Y is such a merge: a tile of Y that is not a tile
    of Z is a union of two or more tiles of Z, and merging just those gives
    a tiling between Z and Y.  So the covers are exactly the minimal
    single-region merges.
    """

    w: Permutation
    elements: tuple[ZonoTiling, ...]
    digests: tuple[str, ...]

    @cached_property
    def _cover_indices(self) -> tuple[tuple[int, int], ...]:
        """(lower, upper) index pairs into `elements`, one per cover."""
        index = {z.tiles: i for i, z in enumerate(self.elements)}
        return tuple(
            (i, index[merged])
            for i, z in enumerate(self.elements)
            for merged in _minimal_merges(z.tiles)
        )

    @cached_property
    def covers(self) -> frozenset[tuple[ZonoTiling, ZonoTiling]]:
        """(lower, upper) pairs with nothing strictly between."""
        e = self.elements
        return frozenset((e[i], e[j]) for i, j in self._cover_indices)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"ZonoPoset(w={self.w.to_string()}, {len(self.elements)} tilings)"


def _minimal_merges(tiles: frozenset[ZonoTile]) -> list[frozenset[ZonoTile]]:
    """Tile sets one cover above `tiles`: each minimal group of two or more
    tiles that exactly tiles a 2k-gon, replaced by that single 2k-gon.

    The 2k-gon with base S and top T has S as the base of one of its tiles
    and T as the top of one, so only those S and T are tried; see ZonoPoset."""
    tiles = tuple(tiles)
    tops = [base.union(labels) for labels, base in tiles]
    areas = [comb(len(labels), 2) for labels, _ in tiles]
    regions: dict[frozenset[int], ZonoTile] = {}
    for S in {base for _, base in tiles}:
        above = [i for i, (_, base) in enumerate(tiles) if S <= base]
        for T in {tops[i] for i in above}:
            k = len(T) - len(S)
            if k < 3:
                continue
            group = frozenset(i for i in above if tops[i] <= T)
            area = sum(areas[i] for i in group)
            if len(group) >= 2 and area == comb(k, 2):
                regions[group] = ZonoTile(tuple(T - S), S)
    return [
        frozenset(t for i, t in enumerate(tiles) if i not in group) | {merged}
        for group, merged in regions.items()
        if not any(other < group for other in regions)
    ]


def poset(w: Permutation) -> ZonoPoset:
    digests, elements = sort_by_digest(enumerate_zonotopal(w))
    return ZonoPoset(w, elements, digests)


def maximal_elements(p: ZonoPoset) -> frozenset[ZonoTiling]:
    """Tilings with no upper cover."""
    below_something = {i for i, _ in p._cover_indices}
    return frozenset(
        z for i, z in enumerate(p.elements) if i not in below_something
    )


def minimal_elements(p: ZonoPoset) -> frozenset[ZonoTiling]:
    """Tilings with no lower cover."""
    above_something = {j for _, j in p._cover_indices}
    return frozenset(
        z for i, z in enumerate(p.elements) if i not in above_something
    )


def has_unique_max(w: Permutation) -> bool:
    return len(maximal_elements(poset(w))) == 1


def minimal_upper_bounds(Z1: ZonoTiling, Z2: ZonoTiling) -> frozenset[ZonoTiling]:
    """Minimal elements of the set of common coarsenings of Z1 and Z2.

    May be empty or contain several tilings; a singleton is a least upper
    bound."""
    _same_polygon(Z1, Z2)
    bounds = [
        Z for Z in enumerate_zonotopal(Z1.w) if zono_leq(Z1, Z) and zono_leq(Z2, Z)
    ]
    return frozenset(
        Z for Z in bounds if not any(o != Z and zono_leq(o, Z) for o in bounds)
    )


def refinements(Z: ZonoTiling) -> frozenset[RhombicTiling]:
    """All rhombic tilings below Z: tile each 2k-gon independently.

    Each tile's interior is a copy of E of the k-element reversal, with
    letters renamed to the tile's labels and bases shifted by the tile's
    base; refinements are products of independent per-tile choices.
    """
    per_tile = []
    for tile in Z.canonical_tiles():
        sub = enumerate_rhombic(Permutation.longest(tile.size))
        per_tile.append([_relabel(T, tile) for T in sub])
    return frozenset(
        RhombicTiling(Z.w, frozenset().union(*combo)) for combo in product(*per_tile)
    )


def _relabel(T: RhombicTiling, tile: ZonoTile) -> frozenset[ZonoTile]:
    """Transport a tiling of the reversal on {1..k} into `tile`'s 2k-gon."""
    L = tile.labels
    return frozenset(
        ZonoTile((L[a - 1], L[b - 1]), tile.base | {L[x - 1] for x in base})
        for (a, b), base in T.tiles
    )

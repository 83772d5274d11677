"""Zonotopal tilings: coarsenings of rhombic tilings by larger 2k-gon tiles.

A tile here carries k >= 2 labels instead of a pair; its shape is the
centrally symmetric 2k-gon swept by those k edge directions, and a rhombus
is the k = 2 case.  The tilings of E(w) by such tiles form a poset under
reverse edge inclusion (more edges = finer = smaller), whose minimal
elements are exactly the rhombic tilings.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb

from .errors import ZONO_RANK_GUARD, GuardExceeded, check_length_guard
from .permutations import Permutation, inversions
from .tilings import (
    Edge,
    LabelSet,
    RhombicTiling,
    Rhombus,
    enumerate_rhombic,
    peel_apply,
    peel_order_exists,
    polygon_edges,
    tiling_digest,
)

__all__ = [
    "ZonoTile",
    "ZonoTiling",
    "ZonoPoset",
    "edges_of",
    "enumerate_zonotopal",
    "zono_leq",
    "poset",
    "maximal_elements",
    "minimal_elements",
    "has_unique_max",
    "minimal_upper_bounds",
    "refinements",
    "from_rhombic",
    "to_rhombic",
    "zono_validate",
    "zono_validation_error",
]


@dataclass(frozen=True)
class ZonoTile:
    """A 2k-gon tile: k >= 2 edge labels plus the base subset at its lowest
    vertex.  Boundary vertices are the base joined with labels taken in
    increasing order (lower path) or decreasing order (upper path)."""

    labels: tuple[int, ...]
    base: LabelSet

    def __post_init__(self):
        labels = tuple(sorted(self.labels))
        if len(labels) < 2:
            raise ValueError(f"tile needs at least 2 labels, got {list(labels)}")
        if len(set(labels)) < len(labels):
            raise ValueError(f"repeated tile label in {list(labels)}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "base", frozenset(self.base))

    @property
    def size(self) -> int:
        return len(self.labels)

    def key(self) -> tuple:
        return (self.labels, tuple(sorted(self.base)))

    def vertices(self) -> frozenset[LabelSet]:
        out = set()
        for seq in (self.labels, tuple(reversed(self.labels))):
            acc = self.base
            out.add(acc)
            for x in seq:
                acc = acc | {x}
                out.add(acc)
        return frozenset(out)

    def edges(self) -> tuple[Edge, ...]:
        out = []
        for seq in (self.labels, tuple(reversed(self.labels))):
            acc = self.base
            for x in seq:
                out.append(Edge(acc, x))
                acc = acc | {x}
        return tuple(out)

    def __repr__(self) -> str:
        return f"ZonoTile({self.labels}, {{{', '.join(map(str, sorted(self.base)))}}})"


@dataclass(frozen=True)
class ZonoTiling:
    """A set of 2k-gon tiles tiling E(w); equality is tile-set equality."""

    w: Permutation
    tiles: frozenset[ZonoTile]

    def __post_init__(self):
        object.__setattr__(self, "tiles", frozenset(self.tiles))

    @property
    def n(self) -> int:
        return self.w.n

    def canonical_tiles(self) -> tuple[ZonoTile, ...]:
        return tuple(sorted(self.tiles, key=ZonoTile.key))

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "w": list(self.w.values),
                "tiles": [
                    {"labels": list(t.labels), "base": sorted(t.base)}
                    for t in self.canonical_tiles()
                ],
            }
        )

    def __repr__(self) -> str:
        return f"ZonoTiling(w={self.w.to_string()}, {len(self.tiles)} tiles)"


def from_rhombic(T: RhombicTiling) -> ZonoTiling:
    """View a rhombic tiling as a zonotopal one (every tile has k = 2)."""
    return ZonoTiling(T.w, frozenset(ZonoTile(t.pair, t.base) for t in T.tiles))


def to_rhombic(Z: ZonoTiling) -> RhombicTiling:
    """Inverse of from_rhombic; rejects tilings with any tile larger than a rhombus."""
    for t in Z.tiles:
        if t.size != 2:
            raise ValueError(f"not a rhombic tiling: tile {t!r} has {t.size} labels")
    return RhombicTiling(Z.w, frozenset(Rhombus(t.labels, t.base) for t in Z.tiles))


def edges_of(Z: ZonoTiling) -> frozenset[Edge]:
    """All unit edges of Z: 2k per tile, plus the polygon boundary of E(w)."""
    edges = set(polygon_edges(Z.w))
    for tile in Z.tiles:
        edges.update(tile.edges())
    return frozenset(edges)


@lru_cache(maxsize=256)
def enumerate_zonotopal(w: Permutation) -> frozenset[ZonoTiling]:
    """All zonotopal tilings of E(w) by depth-first boundary growth.

    A tile is placeable where the boundary runs through its labels in
    increasing order and every label pair is an inversion of w; placing it
    reverses that boundary segment.  Placed tile sets determine their
    boundary, so they double as the DFS memo key.
    """
    if w.n > ZONO_RANK_GUARD:
        raise GuardExceeded(
            f"zonotopal enumeration refused: rank {w.n} exceeds the guard {ZONO_RANK_GUARD}"
        )
    check_length_guard(w.length(), "zonotopal tiling enumeration")
    inv_w = inversions(w)
    complete: set[frozenset[ZonoTile]] = set()
    seen: set[frozenset[ZonoTile]] = set()

    def grow(u: Permutation, tiles: frozenset[ZonoTile]):
        if tiles in seen:
            return
        seen.add(tiles)
        if u == w:
            complete.add(tiles)
            return
        vals = u.values
        for p in range(u.n - 1):
            run = [vals[p]]
            base = frozenset(vals[:p])
            for q in range(p + 1, u.n):
                x = vals[q]
                if x < run[-1] or any((y, x) not in inv_w for y in run):
                    break
                run.append(x)
                tile = ZonoTile(tuple(run), base)
                grow(peel_apply(u, p, len(run)), tiles | {tile})

    grow(Permutation.identity(w.n), frozenset())
    return frozenset(ZonoTiling(w, tiles) for tiles in complete)


def zono_leq(Z1: ZonoTiling, Z2: ZonoTiling) -> bool:
    """Z1 <= Z2 iff Z1 refines Z2: edges_of(Z1) contains edges_of(Z2)."""
    if Z1.w != Z2.w:
        raise ValueError(
            f"tilings of different polygons: {Z1.w.to_string()} vs {Z2.w.to_string()}"
        )
    return edges_of(Z1) >= edges_of(Z2)


@dataclass(frozen=True)
class ZonoPoset:
    """All zonotopal tilings of one E(w) under reverse edge inclusion.

    Elements are digest-sorted for reproducible output; cover relations are
    computed on first use, one tiling at a time.

    Why local merges give exactly the covers.  Edge inclusion is the same
    as tile-wise refinement: Z <= Y iff every tile of Y is a union of tiles
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
    tops = [t.base.union(t.labels) for t in tiles]
    regions: dict[frozenset[int], ZonoTile] = {}
    for S in {t.base for t in tiles}:
        above = [i for i, t in enumerate(tiles) if S <= t.base]
        for T in {tops[i] for i in above}:
            k = len(T) - len(S)
            if k < 3:
                continue
            group = frozenset(i for i in above if tops[i] <= T)
            area = sum(comb(tiles[i].size, 2) for i in group)
            if len(group) >= 2 and area == comb(k, 2):
                regions[group] = ZonoTile(tuple(T - S), S)
    return [
        frozenset(t for i, t in enumerate(tiles) if i not in group) | {merged}
        for group, merged in regions.items()
        if not any(other < group for other in regions)
    ]


def poset(w: Permutation) -> ZonoPoset:
    elements = sorted(enumerate_zonotopal(w), key=tiling_digest)
    return ZonoPoset(w, tuple(elements))


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
    if Z1.w != Z2.w:
        raise ValueError(
            f"tilings of different polygons: {Z1.w.to_string()} vs {Z2.w.to_string()}"
        )
    e1, e2 = edges_of(Z1), edges_of(Z2)
    bounds = []
    for Z in enumerate_zonotopal(Z1.w):
        e = edges_of(Z)
        if e1 >= e and e2 >= e:
            bounds.append((Z, e))
    return frozenset(
        Z
        for Z, e in bounds
        if not any(other != Z and oe >= e and oe != e for other, oe in bounds)
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


def _relabel(T: RhombicTiling, tile: ZonoTile) -> frozenset[Rhombus]:
    """Transport a tiling of the reversal on {1..k} into `tile`'s 2k-gon."""
    L = tile.labels
    return frozenset(
        Rhombus(
            (L[r.pair[0] - 1], L[r.pair[1] - 1]),
            tile.base | {L[x - 1] for x in r.base},
        )
        for r in T.tiles
    )


def zono_validation_error(Z: ZonoTiling) -> str | None:
    """Reason Z is not a zonotopal tiling of E(w), or None if it is."""
    n = Z.n
    for tile in Z.tiles:
        if not all(1 <= x <= n for x in tile.labels):
            return f"tile labels {list(tile.labels)} outside 1..{n}"
        if not all(1 <= x <= n for x in tile.base):
            return f"tile base {sorted(tile.base)} outside 1..{n}"
        if tile.base & set(tile.labels):
            return (
                f"tile base {sorted(tile.base)} not disjoint from labels"
                f" {list(tile.labels)}"
            )
    inv_w = inversions(Z.w)
    covered: dict[tuple[int, int], int] = {}
    for tile in Z.tiles:
        for pair in combinations(tile.labels, 2):
            covered[pair] = covered.get(pair, 0) + 1
    for pair, count in sorted(covered.items()):
        if pair not in inv_w:
            return f"pair {pair} is not an inversion of {Z.w.to_string()}"
        if count > 1:
            return f"pair {pair} covered by more than one tile"
    missing = inv_w - covered.keys()
    if missing:
        return f"inversion {min(missing)} not covered by any tile"
    if not peel_order_exists(
        Permutation.identity(n), frozenset((t.labels, t.base) for t in Z.tiles)
    ):
        return "tiles do not admit any peeling order from the base boundary"
    return None


def zono_validate(Z: ZonoTiling) -> bool:
    return zono_validation_error(Z) is None

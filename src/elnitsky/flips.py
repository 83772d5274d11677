"""Hexagon flips between rhombic tilings, and the flip graph on all of them.

Three rhombi meeting at an interior vertex of degree 3 fill a unit hexagon
with label triple a < b < c, found from its {a, c} rhombus, the long
diagonal.  The hexagon has exactly two rhombic tilings, with interior vertex
base plus {b} or base plus {a, c}, and a flip exchanges them.  Coarsening
instead replaces the three rhombi by the hexagon, a zonotopal tiling that
both flip partners refine.  `flip_graph` flips hexagons on int masks over
the digest-sorted tile table, in the scan that finds the poset's covers.
"""
from __future__ import annotations

from functools import cached_property

from .growth import _digest_table, _replaced, _tiles_of
from .permutations import Permutation, Record
from .tilings import LabelSet, RhombicTiling, ZonoTile, ZonoTiling, _guard

__all__ = [
    "INTERIOR_B",
    "INTERIOR_AC",
    "FlipSite",
    "FlipGraph",
    "flip_sites",
    "apply_flip",
    "coarsen_flip",
    "flip_graph",
    "is_connected",
    "to_dot",
]

INTERIOR_B = "interior-b"
INTERIOR_AC = "interior-ac"


def _triple(labels: tuple[int, int, int], base: LabelSet, orientation: str):
    """The three rhombi of a hexagon in one orientation, as plain
    (labels, base) pairs, each equal to the two-label `ZonoTile` it names."""
    a, b, c = labels
    if orientation == INTERIOR_B:
        return frozenset({((a, b), base), ((b, c), base), ((a, c), base | {b})})
    return frozenset({((a, c), base), ((b, c), base | {a}), ((a, b), base | {c})})


def _hexagons(tiles: frozenset[ZonoTile], orientation: str):
    """(labels, base) of every hexagon the rhombi fill in `orientation`, from
    its {a, c} rhombus on base S: a b in S strictly between a and c closes an
    interior-b hexagon on S - {b}, and a b outside S an interior-ac one on S.
    Only those b are read, fewer than l(w) in a valid tiling, never the rank."""
    for (a, c), S in tiles:
        for b in range(a + 1, c):
            if b in S and orientation == INTERIOR_B:
                base = S - {b}
                if ((a, b), base) in tiles and ((b, c), base) in tiles:
                    yield (a, b, c), base
            elif b not in S and orientation == INTERIOR_AC:
                if ((a, b), S | {c}) in tiles and ((b, c), S | {a}) in tiles:
                    yield (a, b, c), S


class FlipSite(Record):
    """A flippable hexagon: its label triple, base subset, and which of the
    two rhombus triples currently fills it."""

    labels: tuple[int, int, int]
    base: LabelSet
    orientation: str

    def __post_init__(self):
        a, b, c = self.labels
        if not a < b < c:
            raise ValueError(f"site labels must increase, got {self.labels}")
        object.__setattr__(self, "base", frozenset(self.base))
        if self.base & {a, b, c}:
            raise ValueError(
                f"site base {sorted(self.base)} not disjoint from labels {self.labels}"
            )
        if self.orientation not in (INTERIOR_B, INTERIOR_AC):
            raise ValueError(f"unknown orientation {self.orientation!r}")

    def tiles(self) -> frozenset[ZonoTile]:
        """The three rhombi of the present orientation."""
        return frozenset(
            ZonoTile(pair, base)
            for pair, base in _triple(self.labels, self.base, self.orientation)
        )

    def flipped_tiles(self) -> frozenset[ZonoTile]:
        return self.flipped().tiles()

    def flipped(self) -> "FlipSite":
        other = INTERIOR_AC if self.orientation == INTERIOR_B else INTERIOR_B
        return FlipSite(self.labels, self.base, other)

    def interior_vertex(self) -> LabelSet:
        a, b, c = self.labels
        if self.orientation == INTERIOR_B:
            return self.base | {b}
        return self.base | {a, c}


def flip_sites(T: RhombicTiling) -> frozenset[FlipSite]:
    """All flippable hexagons of T (equivalently, all degree-3 interior
    vertices), each reported with its present orientation."""
    return frozenset(
        FlipSite(labels, base, orientation)
        for orientation in (INTERIOR_B, INTERIOR_AC)
        for labels, base in _hexagons(T.tiles, orientation)
    )


def _present(T: RhombicTiling, f: FlipSite) -> tuple[FlipSite, frozenset]:
    """The site oriented as it actually sits in T, and T's tiles outside its
    hexagon; the same hexagon location is accepted in either orientation so
    a flip can be undone with the same site object."""
    for g in (f, f.flipped()):
        triple = _triple(g.labels, g.base, g.orientation)
        if triple <= T.tiles:
            return g, T.tiles - triple
    raise ValueError(
        f"no flippable hexagon with labels {f.labels} at base {sorted(f.base)}"
    )


def apply_flip(T: RhombicTiling, f: FlipSite) -> RhombicTiling:
    """Exchange the three rhombi of f's hexagon for the other three."""
    f, kept = _present(T, f)
    return RhombicTiling(T.w, kept | f.flipped_tiles())


def coarsen_flip(T: RhombicTiling, f: FlipSite) -> ZonoTiling:
    """Merge the three rhombi of f's hexagon into one hexagonal tile.

    Both flip partners coarsen to the same tiling and are exactly its
    rhombic refinements differing over that hexagon.
    """
    f, kept = _present(T, f)
    return ZonoTiling(T.w, kept | {ZonoTile(f.labels, f.base)})


class FlipGraph(Record):
    """All rhombic tilings of one E(w), joined when one flip apart.

    Tilings are int masks over `tiles`, the tile table in `key` order, sorted
    by digest as `digests` is; `nodes` builds them when read.  Arcs are
    digest pairs (low, high), each stored once."""

    w: Permutation
    digests: tuple[str, ...]
    masks: tuple[int, ...]
    tiles: tuple[ZonoTile, ...]
    arcs: frozenset[tuple[str, str]]

    @cached_property
    def nodes(self) -> tuple[RhombicTiling, ...]:
        return tuple(RhombicTiling(self.w, _tiles_of(m, self.tiles)) for m in self.masks)

    @cached_property
    def by_digest(self) -> dict[str, RhombicTiling]:
        return dict(zip(self.digests, self.nodes))

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        nbrs: dict[str, set[str]] = {d: set() for d in self.digests}
        for a, b in self.arcs:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return {d: tuple(sorted(nbrs[d])) for d in self.digests}

    def __repr__(self) -> str:
        return (
            f"FlipGraph(w={self.w.to_string()}, {len(self.masks)} nodes,"
            f" {len(self.arcs)} arcs)"
        )


def flip_graph(w: Permutation) -> FlipGraph:
    """The flip graph of E(w), on the masks of its digest-sorted tile table.

    `_hexagons` runs once, on the table.  Each interior-b hexagon whose
    interior-ac rhombi are there too is a rule of `growth._replaced` on its
    {a, c} diagonal: a tiling m holding its rhombi b flips to m ^ b | ac.

    Every arc is found once.  Two tilings one flip apart differ exactly over
    one hexagon, which one of them fills in the interior-b orientation and
    the other in the interior-ac orientation.  So the arc is met from the
    first tiling when only interior-b hexagons are flipped, and from no other
    tiling or hexagon.
    """
    digests, masks, tiles = _digest_table(w, *_guard(w, zonotopal=False))
    bit = {t: 1 << r for r, t in enumerate(tiles)}
    rules = {}
    for (a, b, c), base in _hexagons(bit, INTERIOR_B):
        old, new = (_triple((a, b, c), base, o) for o in (INTERIOR_B, INTERIOR_AC))
        if new <= bit.keys():
            rule = sum(map(bit.get, old)), [sum(map(bit.get, new))]
            rules.setdefault(bit[(a, c), base | {b}], []).append(rule)
    arcs = (tuple(sorted((digests[i], digests[j]))) for i, j in _replaced(masks, rules))
    return FlipGraph(w, digests, masks, tiles, frozenset(arcs))


def is_connected(g: FlipGraph) -> bool:
    if not g.digests:
        return True
    adjacency = g.adjacency
    start = next(iter(adjacency))
    seen = {start}
    stack = [start]
    while stack:
        for nbr in adjacency[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == len(g.digests)


def to_dot(g: FlipGraph) -> str:
    lines = [f'graph "{g.w.to_string()}" {{']
    for d in g.digests:
        lines.append(f'  "{d}";')
    for a, b in sorted(g.arcs):
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""The boundary-growth search: every rhombic or zonotopal tiling of E(w)
at once, as the paths of one graph, never as a search tree.

Growing a tiling sweeps a boundary u from the identity to w, each tile
reversing an increasing run of u (see `tilings`).  Every tiling is grown
by its one canonical placement order.  How a partial tiling may go on
depends only on its boundary u and on where its latest tiles start, so
each such state is one node of a graph of placements, expanded once, and
the tilings are the graph's paths.  w is first split at its pinch
vertices, where no tile crosses, and each block's graph ends in the next
one's root (see `_growth_graph` and `_block_graph`).

The tiles of one tiling share no inversion pair of w, so their `key`
order is that of their leading pairs, their two smallest labels: one
fixed order of l(w) slots, one per pair.  `_canonical_paths` walks the
growth graph once, each move writing its tile's text into the slot of its
leading pair and "" into its other pairs' slots, so every path fills
every slot and the walk never undoes a write; a path's line is its slots
joined by `tilings._json_writer`, and its mask over the key-sorted tile
table the OR of its tiles' bits.  The walk follows each run of nodes
with one move without stacking them.  Only `tilings.canonical_lines`,
which sorts the lines, and `_digest_table`, which digests them into the
one digest-sorted E(w) whose flips and covers `_replaced` finds in one
scan, write lines; `zonotopal` reads masks alone.

No entry here guards: each takes the largest tile and the tiling class
that `tilings._guard` returns once E(w) passes its guards.  `flips` and
`zonotopal` import this module; `tilings` imports it inside its
enumerations, after the guard, so a process that refuses or enumerates
nothing never compiles it.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import combinations
from operator import itemgetter

from .permutations import Permutation, inversions
from .tilings import ZonoTile, ZonoTiling, _json_writer, _line_digest

# no public names: callers reach the engine through `tilings`, `flips` and
# `zonotopal`
__all__: list[str] = []


def _canonical_paths(
    w: Permutation, max_run: int, tiling_type: type[ZonoTiling]
) -> tuple[list, Callable, Callable]:
    """The tile table of E(w)'s growth graph, sorted by `key`; `write`, which
    gives a tiling's canonical JSON line from its slots; and `paths`, whose
    call `paths(banned)` yields (mask, slots) for each tiling, one per path,
    with no tile of a bit in `banned`: its mask over the table and its l(w)
    slots of JSON text, one per inversion pair in lex order (see above).

    The tiles have at most `max_run` labels and the lines are spelled as
    `tiling_type`'s, both as `tilings._guard` gives them.  Each tile's label
    in the graph is rewritten once, in place, to its bit and its writes,
    (slot, text) pairs: its `json_tail` into its leading pair's slot and ""
    into its other pairs'.  `slots` is the walk's one list, to be read
    before the next path; only callers that print or digest a line call
    `write`.  Banned tiles are cut from a copy of the graph with the dead
    ends they leave (`_without`), so the walk visits only the paths it
    yields.
    """
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


def _digest_table(
    w: Permutation, max_run: int, tiling_type: type[ZonoTiling]
) -> tuple[tuple, tuple, tuple]:
    """The tilings of E(w) of `_canonical_paths`, each line hashed once and
    no tiling built: their digests, sorted, their masks over the tile table
    in that order, and the table."""
    tiles, write, paths = _canonical_paths(w, max_run, tiling_type)
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


def _grow(w: Permutation, max_run: int, tiling_type: type[ZonoTiling]) -> frozenset:
    """The tilings of E(w) of `_canonical_paths`: each path, its mask's
    tiles looked up, as one `tiling_type`."""
    tiles, _, paths = _canonical_paths(w, max_run, tiling_type)
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


"""Independent oracles and search utilities shared across the test files.

Everything here recomputes results by a different route than the library
code under test: inversions by testing every pair, pattern containment by
brute subsequence scan, Bruhat order by the subword property, fixed-point
images by the wiring model, tilings by a memoized search over partial tile
sets and by a depth-first growth that reaches each partial tiling by one
canonical placement order, census-constrained tilings by a fresh bounded
search, peelability by a backtracking search over peeling orders, every
peeling order by a search that branches on each remaining tile, and the
coarsening poset, its minimal upper bounds and the flip graph by comparing
every pair of tilings, canonical JSON by `json.dumps` of the tiles sorted
from scratch, the Moebius function of a poset from its covers alone, and
reduced-word counts by the descent recursion, by the hook-length formula
and, one commutation class at a time, by memoized growth.
"""
import json
from itertools import combinations, permutations as value_tuples
from math import factorial, prod

from elnitsky import (
    Permutation,
    RhombicTiling,
    Word,
    ZonoTile,
    ZonoTiling,
    apply_simple,
    evaluate,
    reduced_words,
    tiling_digest,
    tiling_to_word,
)


def symmetric_group(n):
    return [Permutation(vals) for vals in value_tuples(range(1, n + 1))]


def canonical_json_by_dumps(T):
    """The canonical JSON by its definition: `json.dumps` of n, w and the
    tiles sorted by (labels, sorted base), each spelled with T's json_key."""
    tiles = sorted(T.tiles, key=lambda t: (t.labels, sorted(t.base)))
    return json.dumps(
        {
            "n": T.n,
            "w": list(T.w.values),
            "tiles": [{T.json_key: list(t.labels), "base": sorted(t.base)} for t in tiles],
        }
    )


def inversions_by_pairs(w):
    """All pairs (a, b), a < b, that w puts out of order: every pair tested."""
    pos = w.inverse().values
    return frozenset(
        (a, b)
        for a, b in combinations(range(1, w.n + 1), 2)
        if pos[a - 1] > pos[b - 1]
    )


def naive_contains(w, p):
    """Pattern containment by scanning every subsequence."""
    k = p.n
    for positions in combinations(range(1, w.n + 1), k):
        vals = [w(i) for i in positions]
        order = sorted(range(k), key=lambda t: vals[t])
        ranks = [0] * k
        for rank, t in enumerate(order, 1):
            ranks[t] = rank
        if tuple(ranks) == p.values:
            return True
    return False


def bruhat_leq_by_subwords(v, w):
    """v <= w iff one (hence any) reduced word of w has a reduced subword for v."""
    letters = min(reduced_words(w), key=lambda word: word.letters).letters
    target_length = v.length()
    if target_length > len(letters):
        return False
    for positions in combinations(range(len(letters)), target_length):
        candidate = Word(tuple(letters[i] for i in positions), w.n)
        perm, reduced = evaluate(candidate)
        if reduced and perm == v:
            return True
    return False


def bruhat_interval(w):
    from elnitsky import bruhat_leq

    return frozenset(v for v in symmetric_group(w.n) if bruhat_leq(v, w))


def some_reduced_word(w):
    """One reduced word for w, by repeatedly undoing the leftmost descent."""
    letters = []
    u = w
    while not u.is_identity():
        i = min(u.right_descents())
        u = apply_simple(u, i)
        letters.append(i)
    return Word(tuple(reversed(letters)), w.n)


def wiring_image(T, coloring):
    """Fixed-point image by the wiring model: strands cross at dark tiles
    and bounce at light ones, so the image is the product of the dark
    letters in growth order."""
    dark = {(t.labels, t.base) for t in coloring.dark}
    u = Permutation.identity(T.n)
    v = Permutation.identity(T.n)
    for letter in tiling_to_word(T):
        a, b = u(letter), u(letter + 1)
        if ((a, b), frozenset(u.values[: letter - 1])) in dark:
            v = apply_simple(v, letter)
        u = apply_simple(u, letter)
    return v


def placements(u, inv_w):
    """(labels, base, next boundary) for every tile that fits on the
    boundary u: an increasing run of values whose pairs are all in inv_w,
    reversed to advance the boundary."""
    vals = u.values
    for p in range(u.n - 1):
        run = [vals[p]]
        base = frozenset(vals[:p])
        for q in range(p + 1, u.n):
            x = vals[q]
            if x < run[-1] or any((y, x) not in inv_w for y in run):
                break
            run.append(x)
            nxt = vals[:p] + tuple(reversed(run)) + vals[q + 1 :]
            yield tuple(run), base, Permutation(nxt)


def zonotopal_tile_sets(w):
    """Every tiling of E(w) by 2k-gon tiles, as a frozenset of (labels, base)
    pairs, by depth-first growth that memoizes the partial tile sets."""
    inv_w = inversions_by_pairs(w)
    found = set()
    seen = set()

    def grow(u, tiles):
        if tiles in seen:
            return
        seen.add(tiles)
        if u == w:
            found.add(tiles)
            return
        for labels, base, nxt in placements(u, inv_w):
            grow(nxt, tiles | {(labels, base)})

    grow(Permutation.identity(w.n), frozenset())
    return found


def tilings_by_canonical_growth(w, zonotopal=False):
    """Every rhombic tiling of E(w), or every zonotopal one, by depth-first
    growth with no memo: each partial tiling is reached by one placement
    order only.  Two tiles can be placed in either order iff their segments
    are disjoint, so the placement orders of one tile set differ by swaps of
    adjacent disjoint tiles, and exactly one of them lists the tile
    positions in lexicographically least order: the one in which, looking
    back from the tile over p..q, the latest tile ending at or after p
    overlaps it.  `reach[r]` is where the latest tile ending at or after r
    starts (0 while there is none), so the test is reach[p] <= q.  A tile
    fits over an increasing run of the boundary whose neighbours w inverts."""
    n = w.n
    max_run = n if zonotopal else 2
    tiling_type = ZonoTiling if zonotopal else RhombicTiling
    inv_w = inversions_by_pairs(w)
    placed = []
    complete = []

    def grow(u, reach):
        if u == w.values:
            complete.append(tiling_type(w, frozenset(placed)))
            return
        for p in range(n - 1):
            for q in range(p + 1, min(p + max_run, n)):
                if (u[q - 1], u[q]) not in inv_w:
                    break
                if reach[p] <= q:
                    placed.append(ZonoTile(u[p : q + 1], u[:p]))
                    grow(
                        u[:p] + u[p : q + 1][::-1] + u[q + 1 :],
                        (p,) * (q + 1) + reach[q + 1 :],
                    )
                    placed.pop()

    grow(tuple(range(1, n + 1)), (0,) * n)
    return frozenset(complete)


def peel_order_by_search(n, tiles):
    """Whether some order peels every tile of (labels, base) pairs off the
    base boundary of rank n: backtracking over orders, with a memo of the
    remainder sets from which no order completes.  A tile sits on the
    boundary u when u lists its base first, in any order, and then its
    labels in increasing order; peeling it reverses those labels in u."""
    dead = set()

    def peel(u, remaining):
        if not remaining:
            return True
        if remaining in dead:
            return False
        for labels, base in remaining:
            p, q = len(base), len(base) + len(labels)
            if set(u[:p]) == base and u[p:q] == labels:
                if peel(u[:p] + labels[::-1] + u[q:], remaining - {(labels, base)}):
                    return True
        dead.add(remaining)
        return False

    return peel(tuple(range(1, n + 1)), frozenset(tiles))


def peeling_orders_by_search(T):
    """The letters of every order that peels all of T's rhombi off the base
    boundary, in the order found: at each boundary, every remaining tile is
    tested for sitting and each sitting one is peeled on its own branch, so
    a boundary reached by many prefixes is searched once per prefix."""
    results = []

    def peel(u, remaining, letters):
        if not remaining:
            results.append(letters)
        for labels, base in remaining:
            p, q = len(base), len(base) + len(labels)
            if set(u[:p]) == base and u[p:q] == labels:
                rest = remaining - {(labels, base)}
                peel(u[:p] + labels[::-1] + u[q:], rest, letters + (p + 1,))

    peel(tuple(range(1, T.n + 1)), frozenset(T.tiles), ())
    return results


def unpeelable_pairs_tiling(k):
    """Rhombi for the k commuting inversions of w = 2,1,4,3,...,2k,2k-1:
    pair (2i-1, 2i) on its true base {1..2i-2} for i >= 2, and pair (1, 2)
    on base {3}.  Every pair check passes, but no peeling order exists, and
    the other k-1 rhombi can be peeled in 2^(k-1) subsets."""
    w = Permutation(tuple(v for i in range(1, k + 1) for v in (2 * i, 2 * i - 1)))
    tiles = {ZonoTile((1, 2), frozenset({3}))} | {
        ZonoTile((2 * i - 1, 2 * i), frozenset(range(1, 2 * i - 1)))
        for i in range(2, k + 1)
    }
    return RhombicTiling(w, frozenset(tiles))


def census_tiling(w, budget):
    """Some zonotopal tiling of E(w) with exactly budget[k] tiles of each
    size k, or None.  Unguarded bounded search, biggest tiles first."""
    inv_w = inversions_by_pairs(w)
    failed = set()

    def grow(u, remaining, tiles):
        if u == w:
            return tiles if not any(remaining.values()) else None
        key = (u, tuple(sorted(remaining.items())))
        if key in failed:
            return None
        options = [
            option
            for option in placements(u, inv_w)
            if remaining.get(len(option[0]), 0) > 0
        ]
        options.sort(key=lambda option: -len(option[0]))
        for labels, base, nxt in options:
            k = len(labels)
            remaining[k] -= 1
            found = grow(nxt, remaining, tiles + [ZonoTile(labels, base)])
            remaining[k] += 1
            if found is not None:
                return found
        failed.add(key)
        return None

    tiles = grow(Permutation.identity(w.n), dict(budget), [])
    return None if tiles is None else ZonoTiling(w, frozenset(tiles))


def unit_edges(z):
    """All unit edges of a tiling as (tail, label) pairs: both boundary
    paths of every tile, and both sides of the polygon E(w)."""
    paths = [(frozenset(), tuple(range(1, z.n + 1))), (frozenset(), z.w.values)]
    for t in z.tiles:
        paths += [(t.base, t.labels), (t.base, t.labels[::-1])]
    edges = set()
    for tail, labels in paths:
        for x in labels:
            edges.add((tail, x))
            tail = tail | {x}
    return frozenset(edges)


def coarsening_order_by_pairs(p):
    """(covers, maximal, minimal) of a ZonoPoset by comparing every pair of
    its tilings in the order zono_leq defines: Z <= Y iff Z has every edge
    of Y.  Each edge set is computed once, as zono_leq would per call."""
    edges = {z: unit_edges(z) for z in p.elements}
    above = {
        z: [y for y in p.elements if y != z and edges[z] >= edges[y]]
        for z in p.elements
    }
    covers = frozenset(
        (z, y)
        for z, ups in above.items()
        for y in ups
        if not any(m != y and edges[m] >= edges[y] for m in ups)
    )
    maximal = frozenset(z for z, ups in above.items() if not ups)
    minimal = frozenset(p.elements) - {y for ups in above.values() for y in ups}
    return covers, maximal, minimal


def minimal_upper_bounds_by_edges(z1, z2, tilings):
    """The tilings among `tilings` whose unit edges both z1 and z2 contain,
    and that contain the edges of no other such tiling."""
    e1, e2 = unit_edges(z1), unit_edges(z2)
    bounds = {z: e for z in tilings if e1 >= (e := unit_edges(z)) and e2 >= e}
    return frozenset(
        z for z, e in bounds.items() if not any(o > e for o in bounds.values())
    )


def mobius_from_added_bottom(size, covers):
    """mu(0, y) for each element y of a finite poset on range(size), given by
    its (lower, upper) cover pairs, with a bottom 0 added below them all:
    mu(0, 0) = 1 and mu(0, y) = -(1 + the sum of mu(0, z) over z < y).
    Each strict down-set is an int bitset, built in a topological order of
    the covers; the sum is taken one value of mu at a time, as the popcount
    of the down-set against the bitset of elements with that value."""
    lowers = [[] for _ in range(size)]
    uppers = [[] for _ in range(size)]
    for i, j in covers:
        lowers[j].append(i)
        uppers[i].append(j)
    waiting = [len(x) for x in lowers]
    ready = [y for y in range(size) if not waiting[y]]
    below = [0] * size
    mu = [None] * size
    with_value = {}
    while ready:
        y = ready.pop()
        for x in lowers[y]:
            below[y] |= below[x] | 1 << x
        mu[y] = -1 - sum(v * (below[y] & m).bit_count() for v, m in with_value.items())
        with_value[mu[y]] = with_value.get(mu[y], 0) | 1 << y
        for z in uppers[y]:
            waiting[z] -= 1
            if not waiting[z]:
                ready.append(z)
    assert None not in mu, "the cover pairs have a cycle"
    return mu


def flip_arcs_by_pairs(tilings):
    """Flip-graph arcs as digest pairs (low, high), by comparing every pair of
    rhombic tilings: two are one flip apart when their tile sets differ by
    exactly three rhombi on each side."""
    digested = [(tiling_digest(T), T.tiles) for T in tilings]
    return frozenset(
        (min(d1, d2), max(d1, d2))
        for (d1, A), (d2, B) in combinations(digested, 2)
        if len(A - B) == 3 and len(B - A) == 3
    )


def sample_permutations(n, count, seed):
    """Deterministic sample of distinct permutations in S_n."""
    import random

    rng = random.Random(seed)
    picked = set()
    while len(picked) < count:
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        picked.add(tuple(vals))
    return [Permutation(vals) for vals in sorted(picked)]


def reduced_words_by_descents(w):
    """R(w), the number of reduced words of w, by the descent recursion: a
    reduced word of w ends in a letter i with w(i) > w(i+1), and the rest is
    a reduced word of w s_i; the identity, with no descent, has one."""
    memo = {}

    def count(u):
        if u not in memo:
            descents = [i for i in range(len(u) - 1) if u[i] > u[i + 1]]
            memo[u] = sum(count(u[:i] + (u[i + 1], u[i]) + u[i + 2 :]) for i in descents)
            memo[u] += not descents
        return memo[u]

    return count(tuple(w.values))


def staircase_words_by_hooks(n):
    """R(w0(n)) by the hook-length formula: the number of standard Young
    tableaux of the staircase (n-1, ..., 1) (Stanley 1984; Edelman-Greene
    1987), C(n, 2)! over the product of its cells' hook lengths."""
    rows = list(range(n - 1, 0, -1))
    cols = [sum(1 for r in rows if r > j) for j in range(n - 1)]
    hooks = [rows[i] - j + cols[j] - i - 1 for i in range(len(rows)) for j in range(rows[i])]
    return factorial(sum(rows)) // prod(hooks)


def class_size_by_growth(w, tiles):
    """The number of reduced words of w that grow the rhombic tiling with
    `tiles`, (pair, base) pairs of a tuple and a frozenset: from boundary
    u, letter i is allowed iff u(i) < u(i+1) and the rhombus it grows,
    ((u(i), u(i+1)), {u(1), ..., u(i-1)}), is a tile; words are counted
    by memoized growth over u, from the identity to w."""
    w = tuple(w.values)
    memo = {w: 1}

    def count(u):
        if u not in memo:
            memo[u] = sum(
                count(u[:i] + (u[i + 1], u[i]) + u[i + 2 :])
                for i in range(len(u) - 1)
                if u[i] < u[i + 1] and ((u[i], u[i + 1]), frozenset(u[:i])) in tiles
            )
        return memo[u]

    return count(tuple(sorted(w)))

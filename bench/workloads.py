"""Inputs, command lists and output checks for the three benchmark workloads.

Standard library only, and independent of the package under test: every
fact checked here (inversion sets, Bruhat intervals, pattern containment,
commutation classes, published counts) is recomputed from its definition,
never by calling `elnitsky`.  README.md in this directory explains why each
workload and input was chosen.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

WORKLOADS = ("rhombic", "zonotopal", "peeling")
DEFAULT_SEED = 0

# Rhombic tilings of E(w0(n)), OEIS A006245.
A006245 = {"21": 1, "321": 2, "4321": 8, "54321": 62, "654321": 908}

UNIQUE_MAX_PATTERNS = ("4231", "4312", "3421")

# The eight tilings of E(7456312) whose commutation classes have between
# 9,000 and 11,000 reduced words (a lexicographically least word of each,
# and the class size).  Over all 216 tilings the class size runs from 1 to
# 64,420, so `words --all` on a tiling drawn from all of them would cost
# anywhere from nothing to a second; drawing from this band keeps its cost
# the same for every seed.
PEELING_CLASSES = (
    ("3,2,1,4,3,2,4,3,6,5,4,3,2,1,6,5,4", 9490),
    ("3,2,1,6,5,4,3,2,1,4,3,5,4,3,6,5,4", 9490),
    ("2,3,2,1,2,4,3,2,6,5,4,3,2,1,6,5,4", 10678),
    ("3,2,1,6,5,4,3,2,1,5,4,3,5,6,5,4,5", 10678),
    ("3,2,1,3,4,3,2,6,5,4,3,2,1,4,6,5,4", 10740),
    ("3,2,1,3,6,5,4,3,2,1,5,4,3,4,6,5,4", 10740),
    ("3,2,1,3,2,4,3,2,6,5,4,3,2,1,6,5,4", 10906),
    ("3,2,1,6,5,4,3,2,1,5,4,3,5,4,6,5,4", 10906),
)

# The pinned l=20 tiling (first tiling of E(7654312) in digest order; 10,180
# words) and a copy with one tile base moved, which passes every pair check
# and fails only in the peeling search.
L20_TILING = os.path.join(INPUTS, "l20.json")
L20_CLASS = ("2,6,5,4,3,2,1,5,6,5,4,3,2,3,5,4,3,6,5,4", 10180)
CORRUPT_TILING = os.path.join(INPUTS, "corrupt.json")
T321_TILING = os.path.join(INPUTS, "t321.json")
T321_CLASS = ("1,2,1", 1)


# ---------------------------------------------------------------------------
# combinatorics from the definitions

def perm(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def inversion_pairs(w: tuple[int, ...]) -> set[tuple[int, int]]:
    """Value pairs (a, b), a < b, that w puts in decreasing order."""
    return {
        (w[j], w[i])
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    }


def _rank_matrix(w: tuple[int, ...]) -> list[list[int]]:
    n = len(w)
    return [
        [sum(1 for a in range(i + 1) if w[a] >= j) for j in range(1, n + 1)]
        for i in range(n)
    ]


def bruhat_interval_size(w: tuple[int, ...]) -> int:
    """#{u : u <= w in Bruhat order}, by the rank-matrix criterion over S_n."""
    top = _rank_matrix(w)
    count = 0
    for u in itertools.permutations(range(1, len(w) + 1)):
        ru = _rank_matrix(u)
        if all(x <= y for row_u, row_w in zip(ru, top) for x, y in zip(row_u, row_w)):
            count += 1
    return count


def contains_pattern(w: tuple[int, ...], p: tuple[int, ...]) -> bool:
    k = len(p)
    order = sorted(range(k), key=lambda i: p[i])
    for idx in itertools.combinations(range(len(w)), k):
        vals = [w[i] for i in idx]
        if sorted(range(k), key=lambda i: vals[i]) == order:
            return True
    return False


def word_product(letters: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Apply the letters left to right to the identity (letter i swaps positions i, i+1)."""
    vals = list(range(1, n + 1))
    for i in letters:
        vals[i - 1], vals[i] = vals[i], vals[i - 1]
    return tuple(vals)


def random_reduced_word(w: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """Strip random right descents off w until the identity is reached."""
    vals = list(w)
    letters = []
    while True:
        descents = [i for i in range(1, len(vals)) if vals[i - 1] > vals[i]]
        if not descents:
            return tuple(reversed(letters))
        i = rng.choice(descents)
        vals[i - 1], vals[i] = vals[i], vals[i - 1]
        letters.append(i)


def shuffle_commutations(letters: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """A random word of the same commutation class: swap commuting neighbours."""
    word = list(letters)
    for _ in range(20 * len(word)):
        k = rng.randrange(len(word) - 1)
        if abs(word[k] - word[k + 1]) >= 2:
            word[k], word[k + 1] = word[k + 1], word[k]
    return tuple(word)


def parse_letters(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


# ---------------------------------------------------------------------------
# output checks: each returns None when stdout is right, else the reason

Check = Callable[[str], "str | None"]


def check_enumerate(w: str, count: int | None) -> Check:
    """One tiling of E(w) per line, then their number, which must be
    `count` when that is known."""

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[-1] != str(len(lines) - 1):
            return "last line is not the number of tilings"
        for line in lines[:-1]:
            if json.loads(line)["w"] != list(perm(w)):
                return f"a tiling of another polygon: {line[:60]}"
        if count is not None and len(lines) - 1 != count:
            return f"{len(lines) - 1} tilings, expected {count}"
        return None

    return check


def check_flipgraph(w: str) -> Check:
    def check(out: str) -> str | None:
        adjacency = {}
        for line in out.splitlines():
            node, _, rest = line.partition(":")
            adjacency[node] = set(rest.split())
        if len(adjacency) != A006245[w]:
            return f"{len(adjacency)} nodes, OEIS A006245 says {A006245[w]}"
        for a, nbrs in adjacency.items():
            if any(a not in adjacency.get(b, ()) for b in nbrs):
                return f"arc at {a} is not symmetric"
        seen, stack = set(), [next(iter(adjacency))]
        while stack:
            a = stack.pop()
            if a not in seen:
                seen.add(a)
                stack.extend(adjacency[a])
        if len(seen) != len(adjacency):
            return "flip graph is not connected"
        return None

    return check


def check_poset(w: str) -> Check:
    avoids = not any(contains_pattern(perm(w), perm(p)) for p in UNIQUE_MAX_PATTERNS)
    expected_tail = [
        f"unique_max {'true' if avoids else 'false'}",
        f"avoids_4231_4312_3421 {'true' if avoids else 'false'}",
    ]

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if lines[-2:] != expected_tail:
            return f"verdict lines {lines[-2:]}, expected {expected_tail}"
        maxima = sum(1 for line in lines if line.startswith("maximal "))
        if (maxima == 1) != avoids:
            return f"{maxima} maximal elements, but avoids the patterns: {avoids}"
        return None

    return check


def check_tile(w: tuple[int, ...]) -> Check:
    def check(out: str) -> str | None:
        data = json.loads(out)
        pairs = {tuple(t["pair"]) for t in data["tiles"]}
        if data["w"] != list(w) or len(data["tiles"]) != len(pairs):
            return "wrong polygon or repeated tile pair"
        if pairs != inversion_pairs(w):
            return "tile pairs are not the inversions of w"
        return None

    return check


def check_fixedpoints(w: tuple[int, ...], interval: int) -> Check:
    expected = f"fixed_points {2 ** len(inversion_pairs(w))}\nimages {interval}\n"
    return lambda out: None if out == expected else f"got {out!r}, expected {expected!r}"


def check_poincare(length: int) -> Check:
    row = [math.comb(length, k) for k in range(length + 1)]
    return lambda out: None if json.loads(out) == row else f"not binomial row {length}"


def check_render(tiles: int) -> Check:
    def check(out: str) -> str | None:
        if not out.startswith("<svg ") or not out.endswith("</svg>\n"):
            return "not an SVG document"
        if out.count("<polygon ") != tiles:
            return f"{out.count('<polygon ')} polygons for {tiles} tiles"
        return None

    return check


def check_words(w: tuple[int, ...], word: tuple[int, ...], size: int | None) -> Check:
    """The printed words must be exactly the commutation class of `word`:
    all reduced words of w, containing `word`, closed under commutation
    moves and connected by them."""
    length = len(inversion_pairs(w))

    def check(out: str) -> str | None:
        words = [parse_letters(line) for line in out.splitlines()]
        found = set(words)
        if len(found) != len(words) or words != sorted(words):
            return "words repeated or not sorted"
        if size is not None and len(found) != size:
            return f"{len(found)} words, expected {size}"
        for v in words:
            if len(v) != length or word_product(v, len(w)) != w:
                return f"{v} is not a reduced word of w"
        if word not in found:
            return f"the grown word {word} is missing"
        seen, stack = {word}, [word]
        while stack:
            v = stack.pop()
            for k in range(length - 1):
                if abs(v[k] - v[k + 1]) >= 2:
                    x = v[:k] + (v[k + 1], v[k]) + v[k + 2 :]
                    if x not in found:
                        return f"class not closed: {x} missing"
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
        if len(seen) != len(found):
            return "words from more than one commutation class"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Command:
    """One CLI call of a pass.  `status` is the expected exit status; a
    nonzero one is an expected refusal.  `seeded` marks commands whose input
    depends on the seed, whose stdout is pinned for the default seed only."""

    args: tuple[str, ...]
    status: int = 0
    check: Check | None = None
    seeded: bool = False

    @property
    def subcommand(self) -> str:
        return self.args[0]

    @property
    def label(self) -> str:
        return " ".join(os.path.basename(a) if a.endswith(".json") else a for a in self.args)


@dataclass(frozen=True)
class Plan:
    """What one run of a workload executes: `first` opens every pass and
    writes its stdout to `seeded_path` (the peeling tiling is grown there),
    then `rest` and the `probes` run in a per-pass shuffled order."""

    first: tuple[Command, ...]
    rest: tuple[Command, ...]
    probes: tuple[Command, ...]
    seeded_path: str | None = None


SETUP = Command(("tile", "1"), check=check_tile((2, 1)))


def probes(skip: set[str]) -> tuple[Command, ...]:
    """A call on E(321) of each timed subcommand a workload does not run,
    so that every workload reports every end-to-end metric."""
    t321 = perm("321")
    all_probes = {
        "enumerate": Command(("enumerate", "321"), check=check_enumerate("321", 2)),
        "flipgraph": Command(("flipgraph", "321"), check=check_flipgraph("321")),
        "poset": Command(("poset", "321"), check=check_poset("321")),
        "fixedpoints": Command(
            ("fixedpoints", T321_TILING), check=check_fixedpoints(t321, 6)
        ),
        "words": Command(
            ("words", T321_TILING, "--all"),
            check=check_words(t321, parse_letters(T321_CLASS[0]), T321_CLASS[1]),
        ),
    }
    return tuple(c for name, c in all_probes.items() if name not in skip)


def peeling_input(seed: int, smoke: bool) -> tuple[tuple[int, ...], tuple[int, ...], int | None]:
    """(w, seeded reduced word, its class size if known) for the peeling workload."""
    rng = random.Random(seed)
    if smoke:
        w = perm("4321")
        return w, random_reduced_word(w, rng), None
    letters, size = PEELING_CLASSES[rng.randrange(len(PEELING_CLASSES))]
    return perm("7456312"), shuffle_commutations(parse_letters(letters), rng), size


def plan(workload: str, seed: int, smoke: bool, work: str) -> Plan:
    """The commands of one workload; files it writes go in the directory `work`."""
    if workload == "rhombic":
        big, flip = ("4321", "4321") if smoke else ("7654312", "654321")
        return Plan((), (
            Command(("enumerate", big), check=check_enumerate(big, A006245.get(big))),
            Command(("flipgraph", flip), check=check_flipgraph(flip)),
            Command(("enumerate", "87654321"), status=2),
        ), probes({"enumerate", "flipgraph"}))
    if workload == "zonotopal":
        enum, pos = ("4321", "4321") if smoke else ("654321", "7463512")
        return Plan((), (
            Command(("enumerate", enum, "--zonotopal"), check=check_enumerate(enum, None)),
            Command(("poset", pos), check=check_poset(pos)),
        ), probes({"enumerate", "poset"}))
    if workload == "peeling":
        w, word, size = peeling_input(seed, smoke)
        length = len(word)
        seeded_path = os.path.join(work, f"seeded-{''.join(map(str, w))}.json")
        if smoke:
            fixed = (perm("321"), T321_TILING, T321_CLASS)
        else:
            fixed = (perm("7654312"), L20_TILING, L20_CLASS)
        fixed_w, fixed_path, (fixed_word, fixed_size) = fixed
        grow = Command(
            ("tile", ",".join(map(str, word)), "--n", str(len(w))),
            check=check_tile(w), seeded=True,
        )
        return Plan((grow,), (
            Command(
                ("fixedpoints", seeded_path),
                check=check_fixedpoints(w, bruhat_interval_size(w)), seeded=True,
            ),
            Command(("poincare", seeded_path), check=check_poincare(length), seeded=True),
            Command(("render", seeded_path), check=check_render(length), seeded=True),
            Command(
                ("words", seeded_path, "--all"),
                check=check_words(w, word, size), seeded=True,
            ),
            Command(
                ("words", fixed_path, "--all"),
                check=check_words(fixed_w, parse_letters(fixed_word), fixed_size),
            ),
            Command(("words", CORRUPT_TILING), status=1),
        ), probes({"fixedpoints", "words"}), seeded_path)
    raise ValueError(f"unknown workload {workload!r}")

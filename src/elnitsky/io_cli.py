"""JSON parsing, SVG rendering, and the command-line interface.

Geometry lives here and only here: a tiling's combinatorics never touch
coordinates, but to draw one, each label i gets the unit direction at
angle pi - (2i-1)pi/(2n), so the left boundary of E(w) traces half of a
regular 2n-gon counterclockwise and every vertex label set S sits at the
sum of its members' directions.

Every subcommand is a fresh process, so each loads and computes only
what it prints.  This module imports `errors`, `permutations` and
`tilings`, which parsing and every subcommand need; a `_cmd_*` function
imports any other module it calls (`flips`, `zonotopal` or
`bott_samelson`) when it runs, and the growth engine, `growth`, loads
only with `enumerate`, `flipgraph` or `poset`, once the guards pass.
`json` loads only to parse a tiling or print `poincare`, and
`fixedpoints` builds no `Permutation` unless `--images` lists them.  No
module of the package uses `dataclasses`, which would load `inspect` and
`ast` too.
`enumerate`, `flipgraph`, `words --all` and `poset`'s cover lines are
written through one writer, `_write_lines`, a chunk of lines per write:
few system calls even on unbuffered stdout, and never the whole output
held twice.
"""
from __future__ import annotations

import argparse
import math
import sys
from itertools import islice
from typing import TYPE_CHECKING

from .errors import GuardExceeded
from .permutations import Permutation, Record, Word, contains_pattern
from .tilings import (
    LabelSet,
    RhombicTiling,
    ZonoTile,
    ZonoTiling,
    canonical_lines,
    peeling_lines,
    polygon_vertices,
    prefix_sets,
    tiling_to_word,
    to_rhombic,
    validation_error,
    word_to_tiling,
)

if TYPE_CHECKING:
    from .bott_samelson import Coloring

__all__ = [
    "PolygonGeometry",
    "RenderSpec",
    "vertex_position",
    "render_svg",
    "parse_permutation",
    "parse_word",
    "parse_tiling",
    "main",
]


class PolygonGeometry(Record):
    """Unit directions for the n edge labels of E(w)."""

    n: int

    def direction(self, i: int) -> tuple[float, float]:
        if not 1 <= i <= self.n:
            raise ValueError(f"label {i} outside 1..{self.n}")
        theta = math.pi - (2 * i - 1) * math.pi / (2 * self.n)
        return (math.cos(theta), math.sin(theta))


def vertex_position(S: LabelSet, g: PolygonGeometry) -> tuple[float, float]:
    """Planar position of the vertex S: the sum of its members' directions."""
    x = y = 0.0
    for i in S:
        dx, dy = g.direction(i)
        x += dx
        y += dy
    return (x, y)


class RenderSpec(Record):
    scale: float = 72.0
    show_vertex_labels: bool = True
    coloring: Coloring | None = None
    light_fill: str = "#f2ede3"
    dark_fill: str = "#7d6b52"

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def render_svg(tiling, spec: RenderSpec | None = None) -> str:
    """Draw a rhombic or zonotopal tiling as an SVG document.

    One polygon element per tile, in canonical tile order; boundary
    vertices are annotated C0..Cn up the left side and G1..G(n-1) up the
    right when labels are on.  A coloring (rhombic tilings only) switches
    the fills from plain white to the light/dark pair.
    """
    spec = spec if spec is not None else RenderSpec()
    if spec.coloring is not None:
        if not isinstance(tiling, RhombicTiling) or spec.coloring.tiling != tiling:
            raise ValueError("coloring belongs to a different tiling")

    g = PolygonGeometry(tiling.n)
    corners = {t: t.corners() for t in tiling.canonical_tiles()}
    vertices = polygon_vertices(tiling.w).union(*corners.values())
    pos = {v: vertex_position(v, g) for v in vertices}

    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    x_low, y_high = min(xs), max(ys)
    margin = 0.75 * spec.scale
    width = (max(xs) - x_low) * spec.scale + 2 * margin
    height = (y_high - min(ys)) * spec.scale + 2 * margin

    def px(v: LabelSet) -> tuple[float, float]:
        x, y = pos[v]
        return (
            margin + (x - x_low) * spec.scale,
            margin + (y_high - y) * spec.scale,
        )

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.4f}"'
        f' height="{height:.4f}" viewBox="0 0 {width:.4f} {height:.4f}">'
    ]
    for tile, tile_corners in corners.items():
        points = " ".join(f"{x:.4f},{y:.4f}" for x, y in map(px, tile_corners))
        if spec.coloring is None:
            fill = "white"
        else:
            fill = spec.dark_fill if spec.coloring.is_dark(tile) else spec.light_fill
        out.append(
            f'<polygon points="{points}" fill="{fill}" stroke="#222222"'
            f' stroke-width="{0.02 * spec.scale:.4f}" stroke-linejoin="round"/>'
        )
    if spec.show_vertex_labels:
        names: dict[LabelSet, list[str]] = {}
        for j, v in enumerate(prefix_sets(Permutation.identity(tiling.n))):
            names.setdefault(v, []).append(f"C{j}")
        for j, v in enumerate(prefix_sets(tiling.w)[1:-1], 1):
            names.setdefault(v, []).append(f"G{j}")
        size = 0.18 * spec.scale
        for v in sorted(names, key=lambda s: (len(s), sorted(s))):
            text = "=".join(names[v])
            right = any(name.startswith("G") for name in names[v])
            anchor = "start" if right else "end"
            x, y = px(v)
            x += 0.1 * spec.scale if right else -0.1 * spec.scale
            out.append(
                f'<text x="{x:.4f}" y="{y + 0.06 * spec.scale:.4f}"'
                f' font-family="sans-serif" font-size="{size:.4f}"'
                f' text-anchor="{anchor}">{text}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# parsing

def parse_permutation(text: str) -> Permutation:
    return Permutation.from_string(text)


def parse_word(text: str, n: int | None = None) -> Word:
    """A comma-separated letter list; n defaults to one past the largest letter."""
    text = text.strip()
    if not text:
        if n is None:
            raise ValueError("empty word needs an explicit rank n")
        return Word((), n)
    try:
        letters = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"word must be comma-separated integers, got {text!r}") from None
    for k, letter in enumerate(letters, 1):
        if letter < 1:
            raise ValueError(f"letter {letter} at position {k} is below 1")
    return Word(letters, max(letters) + 1 if n is None else n)


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return value


def parse_tiling(text: str) -> RhombicTiling | ZonoTiling:
    """Read tiling JSON, rhombic or zonotopal, and reject anything invalid."""
    import json  # here, so that subcommands that parse no tiling never load it

    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"invalid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ValueError("tiling JSON must be an object")
    for key in ("n", "w", "tiles"):
        if key not in data:
            raise ValueError(f"tiling JSON is missing {key!r}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    w = Permutation(tuple(_int_list(data["w"], '"w"')))
    if w.n != n:
        raise ValueError(f'"w" has {w.n} entries but n = {n}')
    if not isinstance(data["tiles"], list):
        raise ValueError('"tiles" must be a list')

    tiles = set()
    zonotopal = False
    for entry in data["tiles"]:
        if not isinstance(entry, dict) or "base" not in entry:
            raise ValueError(f"malformed tile entry {entry!r}")
        base = frozenset(_int_list(entry["base"], "tile base"))
        if "pair" in entry:
            labels = _int_list(entry["pair"], "tile pair")
            if len(labels) != 2:
                raise ValueError(f"tile pair must have 2 labels, got {labels!r}")
        elif "labels" in entry:
            labels = _int_list(entry["labels"], "tile labels")
            zonotopal = True
        else:
            raise ValueError(f"tile entry {entry!r} has neither pair nor labels")
        tile = ZonoTile(labels, base)
        if tile in tiles:
            raise ValueError(f"tile {tile!r} is listed more than once")
        tiles.add(tile)

    kind = ZonoTiling if zonotopal else RhombicTiling
    tiling = kind(w, frozenset(tiles))
    error = validation_error(tiling)
    if error:
        raise ValueError(error)
    return tiling


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# commands

# the most lines one write joins: a few hundred kilobytes at most of
# `enumerate`'s longest lines, so no process holds its output twice
_CHUNK_LINES = 256


def _write_lines(lines) -> None:
    """Write each line and a newline to stdout, one write per _CHUNK_LINES
    lines; `lines` may be a stream, of which one chunk is held at a time."""
    write = sys.stdout.write
    lines = iter(lines)
    for first in lines:
        write("\n".join([first, *islice(lines, _CHUNK_LINES - 1), ""]))


def _cmd_tile(args) -> None:
    word = parse_word(args.word, args.n)
    print(word_to_tiling(word).to_json())


def _cmd_words(args) -> None:
    T = to_rhombic(parse_tiling(_read_input(args.tiling)))
    if args.all:
        _write_lines(peeling_lines(T))
    else:
        print(tiling_to_word(T).to_string())


def _cmd_enumerate(args) -> None:
    lines = canonical_lines(parse_permutation(args.w), args.zonotopal)
    lines.append(str(len(lines)))
    _write_lines(lines)


def _cmd_flipgraph(args) -> None:
    from .flips import flip_graph, to_dot

    g = flip_graph(parse_permutation(args.w))
    if args.dot:
        sys.stdout.write(to_dot(g))
    else:
        _write_lines(
            f"{digest}: {' '.join(neighbors)}".rstrip()
            for digest, neighbors in g.adjacency.items()
        )


_UNIQUE_MAX_PATTERNS = ((4, 2, 3, 1), (4, 3, 1, 2), (3, 4, 2, 1))


def _cmd_poset(args) -> None:
    from .zonotopal import poset

    w = parse_permutation(args.w)
    p = poset(w)
    d = p.digests
    # index order is digest order; the covers come by upper index, so each
    # lower index's uppers are already sorted
    above = [[] for _ in d]
    for i, j in p.cover_indices:
        above[i].append(d[j])
    _write_lines(f"cover {lo} {up}" for lo, ups in zip(d, above) for up in ups)
    top = [digest for digest, ups in zip(d, above) if not ups]
    for digest in top:
        print(f"maximal {digest}")
    print(f"unique_max {'true' if len(top) == 1 else 'false'}")
    avoids = not any(
        len(pattern) <= w.n and contains_pattern(w, Permutation(pattern))
        for pattern in _UNIQUE_MAX_PATTERNS
    )
    print(f"avoids_4231_4312_3421 {'true' if avoids else 'false'}")


def _cmd_poincare(args) -> None:
    import json

    from .bott_samelson import poincare

    tiling = parse_tiling(_read_input(args.tiling))
    print(json.dumps(list(poincare(tiling).coeffs)))


def _cmd_fixedpoints(args) -> None:
    from .bott_samelson import fixed_point_image_count, fixed_point_images

    T = to_rhombic(parse_tiling(_read_input(args.tiling)))
    print(f"fixed_points {2 ** len(T.tiles)}")
    if not args.images:
        print(f"images {fixed_point_image_count(T)}")
        return
    images = sorted(fixed_point_images(T), key=lambda v: v.values)
    print(f"images {len(images)}")
    for v in images:
        print(v.to_string())


def _cmd_render(args) -> None:
    tiling = parse_tiling(_read_input(args.tiling))
    coloring = None
    if args.coloring is not None:
        from .bott_samelson import Coloring

        coloring = Coloring.from_bits(to_rhombic(tiling), args.coloring)
        tiling = coloring.tiling
    svg = render_svg(tiling, RenderSpec(coloring=coloring))
    if args.output == "-":
        sys.stdout.write(svg)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 for guard refusals
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elnitsky",
        description="Rhombic and zonotopal tilings of the polygon E(w).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tile", help="grow the tiling of a reduced word")
    p.add_argument("word", help="comma-separated letters, e.g. 1,2,1")
    p.add_argument("--n", type=int, help="rank (default: largest letter + 1)")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("words", help="reduced words of a tiling")
    p.add_argument("tiling", help="tiling JSON file, or - for stdin")
    p.add_argument("--all", action="store_true", help="whole commutation class")
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("enumerate", help="all tilings of E(w), count last")
    p.add_argument("w", help="permutation, e.g. 4321 or 10,3,...")
    p.add_argument("--zonotopal", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("flipgraph", help="flip graph adjacency by digest")
    p.add_argument("w")
    p.add_argument("--dot", action="store_true", help="DOT format")
    p.set_defaults(func=_cmd_flipgraph)

    p = sub.add_parser("poset", help="zonotopal coarsening poset of E(w)")
    p.add_argument("w")
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("poincare", help="Poincare polynomial coefficients")
    p.add_argument("tiling")
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("fixedpoints", help="torus-fixed point count and images")
    p.add_argument("tiling")
    p.add_argument("--images", action="store_true", help="list the images")
    p.set_defaults(func=_cmd_fixedpoints)

    p = sub.add_parser("render", help="draw a tiling as SVG")
    p.add_argument("tiling")
    p.add_argument("--coloring", help="light/dark bits in canonical tile order")
    p.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0
    try:
        args.func(args)
    except GuardExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import elnitsky.flips
import elnitsky.io_cli
import elnitsky.zonotopal
from elnitsky import (
    Coloring,
    Permutation,
    PolygonGeometry,
    RenderSpec,
    RhombicTiling,
    Word,
    ZonoTile,
    ZonoTiling,
    enumerate_rhombic,
    enumerate_zonotopal,
    main,
    parse_permutation,
    parse_tiling,
    parse_word,
    render_svg,
    vertex_position,
    word_to_tiling,
)

from elnitsky.io_cli import _CHUNK_LINES, _build_parser, _read_input
from elnitsky.oracle import commutation_class_of
from elnitsky.tilings import peeling_orders, tiling_to_word, to_rhombic

from helpers import some_reduced_word, symmetric_group, unpeelable_pairs_tiling

T21 = word_to_tiling(Word((1,), 2))
T121 = word_to_tiling(Word((1, 2, 1), 3))
T121_JSON = T121.to_json()
LONG_WORD = Word((3, 4, 2, 5, 6, 5, 3, 4, 3, 2, 1, 5, 2, 3, 6, 4, 5), 7)
L20_TILING = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "l20.json"
# stdout of `words bench/inputs/l20.json --all` (10,180 lines) as the
# sorted-list implementation printed it
L20_WORDS_SHA256 = "e79d8606ab2da2e5fe7040111f48a3403bdb4d28466894fda965237f70870fbc"
HEX_JSON = ZonoTiling(
    Permutation((3, 2, 1)), frozenset({ZonoTile((1, 2, 3), frozenset())})
).to_json()


def polygons(svg):
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    return root.findall("{http://www.w3.org/2000/svg}polygon")


def texts(svg):
    root = ET.fromstring(svg)
    return root.findall("{http://www.w3.org/2000/svg}text")


# ---------------------------------------------------------------------------
# parsing


def test_parse_permutation():
    assert parse_permutation("321") == Permutation((3, 2, 1))
    big = parse_permutation("10,2,3,4,5,6,7,8,9,1")
    assert big.n == 10 and big(1) == 10
    for bad in ("", "xy", "122", "1,2,2"):
        with pytest.raises(ValueError):
            parse_permutation(bad)


def test_parse_word():
    assert parse_word("1,2,1") == Word((1, 2, 1), 3)
    assert parse_word("1", 4) == Word((1,), 4)
    assert parse_word("", 3) == Word((), 3)
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("1,x")
    with pytest.raises(ValueError):
        parse_word("3", 2)
    for bad in ("-1", "0", "2,-3"):
        with pytest.raises(ValueError, match="letter .* is below 1"):
            parse_word(bad)


def test_parse_tiling_round_trips():
    T = parse_tiling(T121_JSON)
    assert isinstance(T, RhombicTiling)
    assert T == T121
    assert T.to_json() == T121_JSON

    Z = parse_tiling(HEX_JSON)
    assert isinstance(Z, ZonoTiling)
    assert Z.to_json() == HEX_JSON


def test_parse_tiling_accepts_mixed_tile_spellings():
    text = json.dumps(
        {
            "n": 3,
            "w": [3, 2, 1],
            "tiles": [
                {"pair": [1, 2], "base": []},
                {"labels": [1, 3], "base": [2]},
                {"pair": [2, 3], "base": []},
            ],
        }
    )
    Z = parse_tiling(text)
    assert isinstance(Z, ZonoTiling)
    assert all(t.size == 2 for t in Z.tiles)


def test_parse_tiling_rejections():
    bad_inputs = [
        "not json",
        "[1, 2]",
        '{"w": [2, 1], "tiles": []}',
        '{"n": 2, "tiles": []}',
        '{"n": true, "w": [2, 1], "tiles": []}',
        '{"n": 3, "w": [2, 1], "tiles": []}',
        '{"n": 2, "w": [2, 1], "tiles": {}}',
        '{"n": 2, "w": [2, 1], "tiles": [7]}',
        '{"n": 2, "w": [2, 1], "tiles": [{"pair": [1, 2]}]}',
        '{"n": 2, "w": [2, 1], "tiles": [{"base": []}]}',
        '{"n": 2, "w": [2, 1], "tiles": [{"pair": [1, 2, 3], "base": []}]}',
        '{"n": 2, "w": [2, 1], "tiles": [{"pair": [1, true], "base": []}]}',
        '{"n": 2, "w": [2, 1], "tiles": []}',
        '{"n": 3, "w": [3, 2, 1], "tiles": [{"labels": [1, 2, 3], "base": []},'
        ' {"pair": [1, 2], "base": []}]}',
    ]
    for text in bad_inputs:
        with pytest.raises(ValueError):
            parse_tiling(text)


# arbitrary JSON, with object keys drawn mostly from the tiling format's own
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "w", "tiles", "pair", "labels", "base"]) | st.text(max_size=3),
        inner,
        max_size=5,
    ),
    max_leaves=20,
)


def _slots(value):
    """Every (container, index or key) inside a parsed JSON value."""
    items = enumerate(value) if isinstance(value, list) else value.items()
    for key, item in list(items):
        yield value, key
        if isinstance(item, (list, dict)):
            yield from _slots(item)


@st.composite
def mutated_tiling_texts(draw):
    """The JSON of a rhombic or zonotopal tiling of S1-S5 after up to three
    edits: a value replaced (by a nearby integer or arbitrary JSON), a key
    or list item deleted, or a list item doubled."""
    n = draw(st.integers(1, 5))
    w = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    texts = sorted(t.to_json() for t in enumerate_rhombic(w) | enumerate_zonotopal(w))
    data = json.loads(draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(list(_slots(data))))
        edit = draw(st.sampled_from(("integer", "json", "delete", "double")))
        if edit == "integer":
            container[key] = draw(st.integers(-1, n + 2))
        elif edit == "json":
            container[key] = draw(json_values)
        elif edit == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, container[key])
    return json.dumps(data)


@given(st.text(max_size=30) | json_values.map(json.dumps) | mutated_tiling_texts())
@settings(max_examples=400, deadline=None)
def test_parser_raises_only_value_error_and_words_exits_0_1_or_2(tmp_path_factory, text):
    try:
        parse_tiling(text)
    except ValueError:
        pass
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(text, encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["words", str(path)]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# geometry


def test_directions_fan_from_left_to_right():
    g = PolygonGeometry(5)
    angles = [math.atan2(*reversed(g.direction(i))) for i in range(1, 6)]
    assert all(0 < a < math.pi for a in angles)
    assert angles == sorted(angles, reverse=True)
    for i in range(1, 6):
        assert math.hypot(*g.direction(i)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        g.direction(0)
    with pytest.raises(ValueError):
        g.direction(6)


def test_vertex_positions():
    g = PolygonGeometry(2)
    assert vertex_position(frozenset(), g) == (0.0, 0.0)
    x, y = vertex_position(frozenset({1}), g)
    assert x == pytest.approx(math.cos(3 * math.pi / 4))
    assert y == pytest.approx(math.sin(3 * math.pi / 4))
    # the apex is horizontally centered for every rank
    for n in range(2, 7):
        apex_x, apex_y = vertex_position(
            frozenset(range(1, n + 1)), PolygonGeometry(n)
        )
        assert apex_x == pytest.approx(0.0, abs=1e-12)
        assert apex_y > 0


def test_tile_corner_cycles():
    (tile,) = T21.tiles
    assert tile.corners() == (
        frozenset(),
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({2}),
    )
    hexagon = ZonoTile((1, 2, 3), frozenset())
    cycle = hexagon.corners()
    assert len(cycle) == 6
    assert len(set(cycle)) == 6


# ---------------------------------------------------------------------------
# rendering


def test_render_produces_one_polygon_per_tile():
    assert len(polygons(render_svg(T121))) == 3
    assert len(polygons(render_svg(parse_tiling(HEX_JSON)))) == 1
    big = word_to_tiling(LONG_WORD)
    assert len(polygons(render_svg(big))) == 17


def test_render_edge_lengths_and_parallel_sides():
    scale = 72.0
    for poly in polygons(render_svg(T121, RenderSpec(scale=scale))):
        pts = [
            tuple(map(float, chunk.split(",")))
            for chunk in poly.get("points").split()
        ]
        assert len(pts) == 4
        deltas = [
            (b[0] - a[0], b[1] - a[1])
            for a, b in zip(pts, pts[1:] + pts[:1])
        ]
        # coordinates are written with 4 decimals, so compare at that grain
        for dx, dy in deltas:
            assert math.hypot(dx, dy) == pytest.approx(scale, abs=1e-3)
        assert deltas[0][0] == pytest.approx(-deltas[2][0], abs=1e-3)
        assert deltas[0][1] == pytest.approx(-deltas[2][1], abs=1e-3)
        assert deltas[1][0] == pytest.approx(-deltas[3][0], abs=1e-3)
        assert deltas[1][1] == pytest.approx(-deltas[3][1], abs=1e-3)


def test_render_vertex_labels():
    svg = render_svg(T21)
    labels = {t.text for t in texts(svg)}
    assert labels == {"C0", "C1", "C2", "G1"}

    # a right-boundary vertex shared with the left boundary merges its names
    shared = render_svg(word_to_tiling(Word((1,), 3)))
    merged = {t.text for t in texts(shared)}
    assert "C2=G2" in merged

    bare = render_svg(T21, RenderSpec(show_vertex_labels=False))
    assert texts(bare) == []


def test_render_colorings():
    plain = render_svg(T121)
    assert all(p.get("fill") == "white" for p in polygons(plain))

    spec = RenderSpec(coloring=Coloring.all_dark(T121))
    dark = render_svg(T121, spec)
    assert all(p.get("fill") == spec.dark_fill for p in polygons(dark))

    lit = render_svg(T121, RenderSpec(coloring=Coloring.all_light(T121)))
    assert all(p.get("fill") == "#f2ede3" for p in polygons(lit))

    mixed_spec = RenderSpec(coloring=Coloring.from_bits(T121, "100"))
    fills = [p.get("fill") for p in polygons(render_svg(T121, mixed_spec))]
    assert fills.count(mixed_spec.dark_fill) == 1
    assert fills.count(mixed_spec.light_fill) == 2


def test_render_rejects_mismatches():
    with pytest.raises(ValueError):
        render_svg(T21, RenderSpec(coloring=Coloring.all_dark(T121)))
    with pytest.raises(ValueError):
        render_svg(parse_tiling(HEX_JSON), RenderSpec(coloring=Coloring.all_dark(T121)))
    with pytest.raises(ValueError):
        RenderSpec(scale=0)
    with pytest.raises(ValueError):
        RenderSpec(scale=-3.0)


def test_render_fits_in_its_viewbox():
    svg = render_svg(T121)
    root = ET.fromstring(svg)
    width = float(root.get("width"))
    height = float(root.get("height"))
    for poly in polygons(svg):
        for chunk in poly.get("points").split():
            x, y = map(float, chunk.split(","))
            assert 0 <= x <= width
            assert 0 <= y <= height


# ---------------------------------------------------------------------------
# the command line


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_tile(capsys):
    code, out, err = run(capsys, "tile", "1,2,1")
    assert code == 0
    assert out == T121_JSON + "\n"
    assert err == ""


def test_cli_tile_with_rank(capsys):
    code, out, _ = run(capsys, "tile", "1", "--n", "4")
    assert code == 0
    assert json.loads(out)["w"] == [2, 1, 3, 4]


def test_cli_tile_rejects_non_reduced(capsys):
    code, _, err = run(capsys, "tile", "1,1")
    assert code == 1
    assert "not reduced" in err


def test_cli_tile_rank_overflow_is_an_input_error(capsys):
    code, out, err = run(capsys, "tile", "99999999999999999999")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_words(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(T121_JSON)
    code, out, _ = run(capsys, "words", str(path))
    assert code == 0
    assert out == "1,2,1\n"

    # (1,2,1) commutes with nothing, so its class is a singleton
    code, out, _ = run(capsys, "words", str(path), "--all")
    assert code == 0
    assert out == "1,2,1\n"

    wide = tmp_path / "wide.json"
    wide.write_text(word_to_tiling(Word((1, 3), 4)).to_json())
    code, out, _ = run(capsys, "words", str(wide), "--all")
    assert code == 0
    assert out == "1,3\n3,1\n"


def test_cli_words_all_streams_the_pinned_class_and_refuses_before_it(tmp_path, capsys):
    code, out, err = run(capsys, "words", str(L20_TILING), "--all")
    assert (code, err) == (0, "")
    assert out.count("\n") == 10180
    assert hashlib.sha256(out.encode()).hexdigest() == L20_WORDS_SHA256

    # l = 21 parses and validates, then the length guard refuses it
    long21 = tmp_path / "l21.json"
    long21.write_text(word_to_tiling(some_reduced_word(Permutation.longest(7))).to_json())
    assert run(capsys, "words", str(long21), "--all") == (
        2,
        "",
        "error: peeling-order enumeration refused: length 21 exceeds the guard 20\n",
    )
    pairs = tmp_path / "pairs.json"
    pairs.write_text(unpeelable_pairs_tiling(10).to_json())
    assert run(capsys, "words", str(pairs), "--all") == (
        1,
        "",
        "error: tiles do not admit any peeling order from the base boundary\n",
    )


def class_lines(orders):
    """The slow definition of `words --all` output: each order's letters
    joined by commas, one line each."""
    return "".join(",".join(map(str, x)) + "\n" for x in orders)


def words_all(capsys, path, T):
    path.write_text(T.to_json())
    code, out, err = run(capsys, "words", str(path), "--all")
    assert (code, err) == (0, "")
    return out


def test_cli_words_all_is_the_commutation_class_on_s1_to_s5(tmp_path, capsys):
    """On every rhombic tiling of S1-S5, the streamed text is the peeling
    orders written one by one, and the oracle's class of T's least word."""
    path = tmp_path / "t.json"
    for n in range(1, 6):
        for w in symmetric_group(n):
            for T in enumerate_rhombic(w):
                out = words_all(capsys, path, T)
                assert out == class_lines(peeling_orders(T))
                members = commutation_class_of(tiling_to_word(T)).members
                assert out == class_lines(sorted(v.letters for v in members))


def test_cli_words_all_edge_classes(tmp_path, capsys):
    """The identity prints its one empty word; letters from 10 up sort as
    integers, not as text, as `peeling_orders` orders them."""
    path = tmp_path / "t.json"
    identity = RhombicTiling(Permutation.identity(3), frozenset())
    assert words_all(capsys, path, identity) == "\n"
    T = word_to_tiling(Word((2, 10, 11, 10, 9), 12))
    out = words_all(capsys, path, T)
    assert out == class_lines(peeling_orders(T))
    members = commutation_class_of(tiling_to_word(T)).members
    assert out == class_lines(sorted(v.letters for v in members))
    assert out.splitlines()[:2] == ["2,10,11,10,9", "10,2,11,10,9"]


@pytest.mark.long
def test_cli_words_all_of_eight_commuting_letters(tmp_path, capsys):
    T = word_to_tiling(Word(tuple(range(1, 16, 2)), 16))
    out = words_all(capsys, tmp_path / "t.json", T)
    assert out.count("\n") == math.factorial(8)
    assert out == class_lines(peeling_orders(T))
    members = commutation_class_of(tiling_to_word(T)).members
    assert out == class_lines(sorted(v.letters for v in members))


class NullOut:
    """A stdout that keeps nothing, so that tracemalloc sees the writer."""

    def write(self, text):
        return len(text)


def least_peak(call):
    """The least traced peak of three calls, after one untraced call, so
    that lazy imports, caches and one-off allocator states are not counted;
    stdout keeps nothing."""
    peaks = []
    with redirect_stdout(NullOut()):
        call()
        for _ in range(3):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return min(peaks)


def chunk_of(line):
    """What one `_write_lines` chunk of lines as long as `line` holds: the
    lines (8-byte rounded strings) with their newlines in the join, and the
    list that holds them."""
    held = -(-sys.getsizeof(line) // 8) * 8
    return _CHUNK_LINES * (held + len(line) + 1) + sys.getsizeof([*range(_CHUNK_LINES + 1)])


def test_cli_words_all_holds_one_chunk_of_its_output(tmp_path):
    """`words --all` on 8 commuting letters traces no more than writing
    each line as it is made, plus one chunk: its lines (8-byte rounded
    strings), the list that holds them, their join, and the text walk's
    prefix at each depth.  Tracemalloc's peaks move by a few hundred bytes
    with the allocator's state, so a tenth more is allowed."""
    path = tmp_path / "t.json"
    path.write_text(word_to_tiling(Word(tuple(range(1, 16, 2)), 16)).to_json())
    argv = ["words", str(path), "--all"]

    def line_by_line():
        args = _build_parser().parse_args(argv)
        T = to_rhombic(parse_tiling(_read_input(args.tiling)))
        for letters in peeling_orders(T):
            sys.stdout.write(",".join(map(str, letters)) + "\n")

    reference = least_peak(line_by_line)
    streamed = least_peak(lambda: main(argv))
    longest = "1,3,5,7,9,11,13,15"
    held = -(-sys.getsizeof(longest) // 8) * 8
    chunk = chunk_of(longest) + sys.getsizeof("") + 8 * held
    assert streamed <= reference + 1.1 * chunk


def test_cli_poset_holds_one_chunk_of_its_cover_lines():
    """`poset 7463512` traces no more than writing each of its 6,706 cover
    lines as it is made, plus one chunk of them; joined, they would be
    about 214 kB.  A tenth more is allowed, as for `words --all`."""
    argv = ["poset", "7463512"]

    def line_by_line():
        parser = _build_parser()  # alive throughout, as in `main`
        p = elnitsky.zonotopal.poset(parse_permutation(parser.parse_args(argv).w))
        d = p.digests
        above = [[] for _ in d]
        for i, j in p.cover_indices:
            above[i].append(d[j])
        for lo, ups in zip(d, above):
            for up in ups:
                sys.stdout.write(f"cover {lo} {up}\n")

    reference = least_peak(line_by_line)
    streamed = least_peak(lambda: main(argv))
    assert streamed <= reference + 1.1 * chunk_of(f"cover {'0' * 12} {'0' * 12}")


def test_cli_refuses_a_tile_listed_twice(tmp_path, capsys):
    """The validator sees a tile set, so a repeated tile must be caught
    while parsing: (2, 1) spells the pair (1, 2) again."""
    twice = tmp_path / "twice.json"
    twice.write_text(
        '{"n": 2, "w": [2, 1], "tiles": [{"pair": [1, 2], "base": []},'
        ' {"pair": [2, 1], "base": []}]}'
    )
    assert run(capsys, "words", str(twice)) == (
        1,
        "",
        "error: tile ZonoTile((1, 2), {}) is listed more than once\n",
    )
    hexagons = tmp_path / "hexagons.json"
    hexagons.write_text(
        '{"n": 4, "w": [3, 2, 1, 4], "tiles": [{"labels": [1, 2, 3], "base": []},'
        ' {"labels": [3, 1, 2], "base": []}]}'
    )
    code, out, err = run(capsys, "words", str(hexagons))
    assert (code, out) == (1, "")
    assert err == "error: tile ZonoTile((1, 2, 3), {}) is listed more than once\n"


def test_cli_words_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(T121_JSON))
    code, out, _ = run(capsys, "words", "-")
    assert code == 0
    assert out == "1,2,1\n"


def test_cli_words_accepts_rhombic_spelled_zonotopal(tmp_path, capsys):
    path = tmp_path / "z.json"
    z = json.loads(T121_JSON)
    z["tiles"] = [{"labels": t["pair"], "base": t["base"]} for t in z["tiles"]]
    path.write_text(json.dumps(z))
    code, out, _ = run(capsys, "words", str(path))
    assert code == 0
    assert out == "1,2,1\n"


def test_cli_refuses_deeply_nested_json(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = run(capsys, "words", str(deep))
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid JSON: ")
    assert err.count("\n") == 1


def test_cli_refuses_an_unpeelable_tiling_at_once(tmp_path, capsys):
    # 2^(k-1) subsets of the rhombi can be peeled, but never all; k = 40 is rank 80
    for k in (19, 40):
        path = tmp_path / f"pairs{k}.json"
        path.write_text(unpeelable_pairs_tiling(k).to_json())
        for command in ("words", "poincare"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, str(path))
            assert time.perf_counter() - start < 1
            assert (code, out) == (1, "")
            assert err == (
                "error: tiles do not admit any peeling order from the base boundary\n"
            )


def test_cli_refuses_an_uncovered_rank_2000_polygon_at_once(tmp_path, capsys):
    """An 11 KB input, w0(2000) with no tiles, is refused without listing
    its 1,999,000 inversions: the least missing one is sought only once the
    tiles' pairs fall short of l(w)."""
    path = tmp_path / "w2000.json"
    n = 2000
    path.write_text(json.dumps({"n": n, "w": list(range(n, 0, -1)), "tiles": []}))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "poincare", str(path))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (1, "", "error: inversion (1, 2) not covered by any tile\n")
    assert elapsed < 0.3
    assert peak < 10 * 2**20


def test_cli_words_all_at_rank_100000_answers_within_budget(tmp_path, capsys):
    """Two commuting tiles at rank 100,000: the peeling scan looks at the
    tiles, not at every position of every boundary."""
    code, out, _ = run(capsys, "tile", "1,3", "--n", "100000")
    assert code == 0
    path = tmp_path / "t13.json"
    path.write_text(out)
    start = time.perf_counter()
    code, out, err = run(capsys, "words", "--all", str(path))
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (0, "1,3\n3,1\n", "")


def test_cli_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "321")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "2"
    assert len(lines) == 3
    assert lines[:2] == sorted(lines[:2])

    code, out2, _ = run(capsys, "enumerate", "321")
    assert out2 == out

    code, out, _ = run(capsys, "enumerate", "321", "--zonotopal")
    assert out.splitlines()[-1] == "3"


def test_cli_enumerate_guard(capsys):
    refusals = {
        "7654321": "rhombic tiling enumeration refused: length 21 exceeds the guard 20",
        "87654321": "rhombic tiling enumeration refused: length 28 exceeds the guard 20",
        "987654321 --zonotopal": "zonotopal enumeration refused: rank 9 exceeds the guard 8",
        "87654321 --zonotopal": (
            "zonotopal tiling enumeration refused: length 28 exceeds the guard 20"
        ),
        "3,2,1,4,5,6,7,8,12,11,10,9 --zonotopal": (
            "zonotopal enumeration refused: rank 12 exceeds the guard 8"
        ),
    }
    for args, message in refusals.items():
        assert run(capsys, "enumerate", *args.split()) == (2, "", f"error: {message}\n")


def test_cli_enumerate_at_large_rank_answers_within_a_second(capsys):
    # the guard measures l(w) without listing all l(w) inversions
    w0 = ",".join(map(str, range(4000, 0, -1)))
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", w0)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "length 7998000 exceeds" in err

    identity = ",".join(map(str, range(1, 8001)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "enumerate", identity)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines()[-1] == "1"


ENUMERATE_STDOUT_SHA256 = {
    "4321": "94644b4457cfeddd02428e55fcd2ce084023d297ea5dbc1457e86e8886d101ea",
    "54321": "3c0b197da7cd20374ed06356eebc505fbe689f0eac7504c23f959c9e8d4c3414",
    "2143": "327f254f7828d5dda35247e9feda9a5357d38656f495bb734500644c0730bb56",
    "4321 --zonotopal": "98250ad46d7992337e1abcb3e7b988bab65951a48b3536d763951de86e8d2f46",
    "54321 --zonotopal": "5c322a0abf96d5dfb4a3da57b7b7e2cc71ea908da1d9cf8f25f7c8fcb2d8ffad",
    # the zonotopal workload's command, pinned in bench/expected.json too
    "654321 --zonotopal": "2ceb47f650afe1fdef62c5e9d3c759096840683c77f05f1db408c2f94e94f86b",
    # two-digit labels; zonotopal, this rank-12 polygon is refused
    "3,2,1,4,5,6,7,8,12,11,10,9": (
        "b04caab12a0f7e40445e90c1ba41f5ecb63f3f4f959c3a4109fd5c6e76eebcf2"
    ),
}


@pytest.mark.parametrize("args", sorted(ENUMERATE_STDOUT_SHA256))
def test_cli_enumerate_output_is_pinned(capsys, args):
    code, out, _ = run(capsys, "enumerate", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_STDOUT_SHA256[args]


def test_cli_enumerate_at_the_length_guard_edge(capsys):
    enumerate_rhombic.cache_clear()
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "7654312")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "6888"
    # the same digest as the benchmark's pinned stdout of this command
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "f5f717f785ff9c3ddbc1253ea2c933734948c6bcc9a66a97ce057fa989b9e919"
    )
    assert elapsed < 3


def test_cli_enumerate_fills_no_enumeration_cache(capsys):
    """The CLI writes its lines, and the flip graph, from the growth graph,
    not from the cached tiling sets."""
    enumerate_rhombic.cache_clear()
    enumerate_zonotopal.cache_clear()
    for args in (["enumerate", "321"], ["enumerate", "321", "--zonotopal"], ["flipgraph", "4321"]):
        assert run(capsys, *args)[0] == 0
    assert enumerate_rhombic.cache_info().currsize == 0
    assert enumerate_zonotopal.cache_info().currsize == 0


@pytest.mark.long
def test_cli_zonotopal_enumerate_at_the_length_guard_within_budget(capsys):
    """66,191 tilings of 7654312 within 1.5 s (about 0.8 s on a 2-CPU host)."""
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "7654312", "--zonotopal")
    assert time.perf_counter() - start < 1.5
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "66191"


def test_cli_flipgraph(capsys):
    code, out, _ = run(capsys, "flipgraph", "321")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    left = [line.split(":")[0] for line in lines]
    assert left == sorted(left)

    code, dot, _ = run(capsys, "flipgraph", "321", "--dot")
    assert code == 0
    assert dot.startswith('graph "321" {')
    assert dot.count("--") == 1


def test_cli_poset(capsys):
    code, out, _ = run(capsys, "poset", "321")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for x in lines if x.startswith("cover ")) == 2
    assert sum(1 for x in lines if x.startswith("maximal ")) == 1
    assert "unique_max true" in lines
    assert "avoids_4231_4312_3421 true" in lines

    code, out, _ = run(capsys, "poset", "4231")
    assert "unique_max false" in out.splitlines()
    assert "avoids_4231_4312_3421 false" in out.splitlines()


FLIPGRAPH_STDOUT_SHA256 = {
    "4321": "8d0f408f6ef991ec1b88e2d381c87e3fe2283b1634ea8496e6f4d35c28d92230",
    "4321 --dot": "b7638822f25539e3487527c23af7dcf553174f96d03b6416a0b56c6f78a744d9",
    "54321": "0ef059d7a3f2829a95dfb6c08702230ed61f1767a359f1707d342f4589345913",
    "2143": "81a7a2b998f6ac43deba3e692a6085c8fa1c1ad09b87b9811815caef89906b08",
}


@pytest.mark.parametrize("args", sorted(FLIPGRAPH_STDOUT_SHA256))
def test_cli_flipgraph_output_is_pinned(capsys, args):
    code, out, _ = run(capsys, "flipgraph", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FLIPGRAPH_STDOUT_SHA256[args]


def count_line_digests(monkeypatch):
    """The canonical lines hashed through `_line_digest`, which `tiling_digest`
    calls too, counted in every module that can call it."""
    digest_line = elnitsky.tilings._line_digest
    lines = []

    def counted(line):
        lines.append(line)
        return digest_line(line)

    for module in (
        elnitsky.tilings, elnitsky.growth, elnitsky.flips, elnitsky.zonotopal, elnitsky.io_cli
    ):
        monkeypatch.setattr(module, "_line_digest", counted, raising=False)
    return lines


@pytest.mark.parametrize("extra", [(), ("--dot",)])
def test_cli_flipgraph_digests_each_tiling_once(capsys, monkeypatch, extra):
    """The 62 tilings of E(54321) are hashed once each."""
    lines = count_line_digests(monkeypatch)
    code, _, _ = run(capsys, "flipgraph", "54321", *extra)
    assert code == 0
    assert len(lines) == len(set(lines)) == 62


def test_cli_poset_digests_each_tiling_once(capsys, monkeypatch):
    """The 203 tilings of E(54321) are written and hashed once each, from
    cold caches: the coatom tables are built from masks, with no line."""
    elnitsky.zonotopal._coatoms.cache_clear()
    lines = count_line_digests(monkeypatch)
    json_writer = elnitsky.tilings._json_writer
    written = []

    def counted_writer(*args):
        write = json_writer(*args)
        return lambda tails: written.append(1) or write(tails)

    # the writer is called where a tiling's line is written: `to_json` and
    # the growth walk
    for module in (elnitsky.tilings, elnitsky.growth):
        monkeypatch.setattr(module, "_json_writer", counted_writer)
    code, _, _ = run(capsys, "poset", "54321")
    assert code == 0
    assert len(lines) == len(set(lines)) == 203
    assert len(written) == 203


def test_cli_poset_fills_no_enumeration_cache(capsys):
    """The poset is digested from the growth graph's lines, coatom tables
    included, not from the cached tiling sets."""
    enumerate_rhombic.cache_clear()
    enumerate_zonotopal.cache_clear()
    elnitsky.zonotopal._coatoms.cache_clear()
    assert run(capsys, "poset", "54321")[0] == 0
    assert elnitsky.zonotopal._coatoms.cache_info().currsize == 3
    assert enumerate_rhombic.cache_info().currsize == 0
    assert enumerate_zonotopal.cache_info().currsize == 0


def test_cli_flipgraph_at_the_length_guard_edge(capsys):
    enumerate_rhombic.cache_clear()
    start = time.perf_counter()
    code, out, err = run(capsys, "flipgraph", "7654312")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    adjacency = {}
    for line in out.splitlines():
        digest, _, neighbors = line.partition(":")
        adjacency[digest] = neighbors.split()
    assert len(adjacency) == 6888
    assert sum(map(len, adjacency.values())) == 2 * 20990
    for digest, neighbors in adjacency.items():
        assert all(digest in adjacency[other] for other in neighbors)
    seen = {next(iter(adjacency))}
    stack = list(seen)
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    assert len(seen) == len(adjacency)
    assert elapsed < 6


POSET_STDOUT_SHA256 = {
    "4321": "3b8734aefb29acfd20ed1ec5e6586ffba19fefa14d5e9cf7972145145845a892",
    "4231": "ca658b6311539da32fb640f0cdff21e1ca663855339d15c5da3c98aded06de1e",
    "54321": "e3083fd7c27156550b1cdf323e70419fa9b2a3564c62b260b39c4597d392895d",
    "654321": "fa6c263fe9a0c57e71063d5a4ea3712affabfdafec76f5b842a8e1ae1f5cfaf1",
    "7654312": "c4fdc3c3920268e578c8e5678abe8058d540ba56ff2ec7b68f23d473e5f47366",
}


@pytest.mark.parametrize(
    "w",
    ["4231", "4321", "54321", "654321", pytest.param("7654312", marks=pytest.mark.long)],
)
def test_cli_poset_output_is_pinned(capsys, w):
    """Pinned stdout, from cold caches; 7654312 is the length guard's edge."""
    enumerate_zonotopal.cache_clear()
    elnitsky.zonotopal._coatoms.cache_clear()
    start = time.perf_counter()
    code, out, err = run(capsys, "poset", w)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == POSET_STDOUT_SHA256[w]
    assert elapsed < 10


@pytest.mark.long
def test_cli_poset_at_the_length_guard_within_budget(capsys):
    """252,448 covers of 7654312's 66,191 tilings within 3 s (about 1.3-1.8 s
    on a 2-CPU host), as one call from cold caches."""
    enumerate_zonotopal.cache_clear()
    elnitsky.zonotopal._coatoms.cache_clear()
    start = time.perf_counter()
    code, out, err = run(capsys, "poset", "7654312")
    assert time.perf_counter() - start < 3
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == POSET_STDOUT_SHA256["7654312"]


def test_cli_poincare(tmp_path, capsys):
    rhombic = tmp_path / "t.json"
    rhombic.write_text(T121_JSON)
    code, out, _ = run(capsys, "poincare", str(rhombic))
    assert code == 0
    assert out == "[1, 3, 3, 1]\n"

    hexagon = tmp_path / "z.json"
    hexagon.write_text(HEX_JSON)
    code, out, _ = run(capsys, "poincare", str(hexagon))
    assert out == "[1, 2, 2, 1]\n"


def test_cli_fixedpoints(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(T121_JSON)
    code, out, _ = run(capsys, "fixedpoints", str(path))
    assert code == 0
    assert out == "fixed_points 8\nimages 6\n"

    code, out, _ = run(capsys, "fixedpoints", str(path), "--images")
    lines = out.splitlines()
    assert lines[:2] == ["fixed_points 8", "images 6"]
    assert lines[2:] == ["123", "132", "213", "231", "312", "321"]


# a word of the peeling benchmark's class sizes, which grows a tiling of 7456312
SEEDED_7456312 = "3,2,1,3,2,4,6,5,3,2,4,6,3,2,1,5,4"
# stdout of `fixedpoints` without --images, and the SHA-256 of its stdout
# with --images, on the l = 20 tiling and on the tiling SEEDED_7456312 grows
FIXEDPOINTS_STDOUT = {
    "l20": (
        "fixed_points 1048576\nimages 4320\n",
        "752040b79e27dee8db76baee6ea991fcec7fb1fdfc694fb2c0f8c2ba792451f1",
    ),
    "7456312": (
        "fixed_points 131072\nimages 3432\n",
        "3f2ced507aa38e30e68b35884f631e91c85ccf725f492a09eed2d0389273368e",
    ),
}


@pytest.mark.parametrize("name", sorted(FIXEDPOINTS_STDOUT))
def test_cli_fixedpoints_output_is_pinned(tmp_path, capsys, monkeypatch, name):
    """The count alone, with no image built, and the listed images, which
    are as many, both unchanged."""
    path = L20_TILING
    if name == "7456312":
        code, out, _ = run(capsys, "tile", SEEDED_7456312, "--n", "7")
        assert code == 0
        path = tmp_path / "t.json"
        path.write_text(out)
    counted, listed = FIXEDPOINTS_STDOUT[name]
    with monkeypatch.context() as patch:
        patch.setattr(elnitsky.bott_samelson, "fixed_point_images", None)
        assert run(capsys, "fixedpoints", str(path)) == (0, counted, "")
    code, out, err = run(capsys, "fixedpoints", str(path), "--images")
    assert (code, err) == (0, "")
    assert out.startswith(counted)
    assert hashlib.sha256(out.encode()).hexdigest() == listed


def test_cli_render(tmp_path, capsys):
    src = tmp_path / "t.json"
    src.write_text(T121_JSON)
    out_file = tmp_path / "t.svg"
    code, out, _ = run(capsys, "render", str(src), "-o", str(out_file))
    assert code == 0
    assert out == ""
    svg = out_file.read_text()
    assert svg.startswith("<svg")
    assert len(polygons(svg)) == 3

    code, out, _ = run(capsys, "render", str(src), "--coloring", "111")
    assert code == 0
    assert RenderSpec().dark_fill in out

    code, _, err = run(capsys, "render", str(src), "--coloring", "11")
    assert code == 1
    assert "error:" in err


def test_cli_exit_codes(capsys, tmp_path):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "tile", "--help")[0] == 0
    assert run(capsys, "enumerate", "not-a-permutation")[0] == 1
    assert run(capsys, "tile", "-1") == (1, "", "error: letter -1 at position 1 is below 1\n")
    assert run(capsys, "words", str(tmp_path / "missing.json"))[0] == 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "w": [2, 1], "tiles": []}')
    assert run(capsys, "poincare", str(bad))[0] == 1

    for base in (3, 0):
        tile = {"pair": [1, 2], "base": [base]}
        bad.write_text(json.dumps({"n": 2, "w": [2, 1], "tiles": [tile]}))
        message = f"error: tile base [{base}] outside 1..2\n"
        assert run(capsys, "poincare", str(bad)) == (1, "", message)


# ---------------------------------------------------------------------------
# start-up: each subcommand is a fresh process that loads only what it runs

SRC = str(Path(elnitsky.io_cli.__file__).resolve().parent.parent)
BASE_MODULES = {"errors", "permutations", "tilings", "io_cli"}
# the modules each subcommand loads beyond BASE_MODULES; {t} is a tiling file
SUBCOMMAND_MODULES = {
    "tile 1": set(),
    "enumerate 321": {"growth"},
    "enumerate 321 --zonotopal": {"growth"},
    "enumerate 87654321": set(),
    "enumerate 87654321 --zonotopal": set(),
    "words {t}": set(),
    "words {t} --all": set(),
    "render {t}": set(),
    "render {t} --coloring 101": {"bott_samelson"},
    "flipgraph 321": {"flips", "growth"},
    "flipgraph 87654321": {"flips"},
    "poset 321": {"zonotopal", "growth"},
    "poset 987654321": {"zonotopal"},
    "poset 87654321": {"zonotopal"},
    "poincare {t}": {"bott_samelson"},
    "fixedpoints {t}": {"bott_samelson"},
}
# the subcommands above that are refused, with their stderr: the guard
# refuses before the growth engine loads
REFUSED = {
    "enumerate 87654321":
        "error: rhombic tiling enumeration refused: length 28 exceeds the guard 20\n",
    "enumerate 87654321 --zonotopal":
        "error: zonotopal tiling enumeration refused: length 28 exceeds the guard 20\n",
    "flipgraph 87654321":
        "error: rhombic tiling enumeration refused: length 28 exceeds the guard 20\n",
    "poset 987654321": "error: zonotopal enumeration refused: rank 9 exceeds the guard 8\n",
    "poset 87654321":
        "error: zonotopal tiling enumeration refused: length 28 exceeds the guard 20\n",
}
# standard-library modules whose loading the test below checks
WATCHED = ("dataclasses", "hashlib", "inspect", "json")
# run main on argv[2:] with src (argv[1]) on the path, then print as JSON the
# exit code, the `elnitsky` modules loaded and the WATCHED modules loaded, both
# read before the script's own `import json`
LOADED_MODULES = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from elnitsky.io_cli import main; code = main(sys.argv[1:]); "
    "loaded = sorted(sys.modules); "
    "import json; print(json.dumps([code, [m for m in loaded "
    f"if m.startswith('elnitsky.') or m in {WATCHED!r}]]))"
)


def test_cli_runs_as_a_module_with_a_clean_stderr(capsys):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "elnitsky.io_cli", "tile", "1"],
        capture_output=True, text=True, env=env,
    )
    _, out, _ = run(capsys, "tile", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


@pytest.mark.parametrize("argv", sorted(SUBCOMMAND_MODULES))
def test_cli_subcommand_loads_only_the_modules_it_runs(tmp_path, argv):
    path = tmp_path / "t.json"
    path.write_text(T121_JSON)
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, SRC, *argv.format(t=path).split()],
        capture_output=True, text=True,
    )
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert (code, proc.stderr) == ((2, REFUSED[argv]) if argv in REFUSED else (0, ""))
    modules = BASE_MODULES | SUBCOMMAND_MODULES[argv]
    watched = set(loaded).intersection(WATCHED)
    assert set(loaded) - watched == {f"elnitsky.{m}" for m in modules}
    # no subcommand pays for `dataclasses` and the `inspect` it loads
    assert not watched & {"dataclasses", "inspect"}
    command = argv.split()[0]
    if command in ("tile", "enumerate"):
        assert "hashlib" not in watched
    if command in ("tile", "enumerate", "flipgraph", "poset"):
        assert "json" not in watched

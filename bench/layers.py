"""Traced in-process run: one span around each public call the workloads make.

    python3 bench/layers.py --seed 0 [--smoke]

Run by `run.py --trace 1` in a fresh interpreter.  The calls follow the
commands of each workload in the CLI's order, grouped by workload.  Before
every span the enumeration caches are cleared, results of earlier spans are
dropped and the garbage collector is run, so that no span times a cache hit
or another span's garbage.  Each `_s` span also times the collector inside
it through `gc.callbacks`; the searches report that time as `.gc_s`.  The
last line of stdout is
{"metrics": {name: [value, unit]}, "groups": {workload: seconds}}.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

SRC = os.path.join(os.path.dirname(workloads.HERE), "src")
IMPORT_CALLS = 5
# Spans whose collector time is reported: the searches, which allocate the
# most.  The other spans often see no collection at all.
GC_REPORTED = {
    "tilings.enumerate_rhombic", "tilings.all_words", "flips.flip_graph",
    "zonotopal.enumerate_zonotopal", "zonotopal.poset", "zonotopal.covers",
    "bott_samelson.fixed_point_images",
}
MICRO_LOOP_S = 0.02
MICRO_REPEATS = 5

sys.path.insert(0, SRC)

from elnitsky import (  # noqa: E402
    Permutation,
    Word,
    all_words,
    apply_flip,
    apply_simple,
    enumerate_rhombic,
    enumerate_zonotopal,
    fixed_point_images,
    flip_graph,
    flip_sites,
    inversions,
    maximal_elements,
    parse_tiling,
    poincare,
    poset,
    render_svg,
    tiling_digest,
    tiling_to_word,
    validation_error,
    word_to_tiling,
)


class Tracer:
    """Span times and counts, kept in memory and printed at the end."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self._gc_seconds = 0.0
        self._gc_start = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self._gc_seconds += time.perf_counter() - self._gc_start

    def span(self, name: str, call):
        """Time one call from a clean heap; returns its result."""
        gc.collect()
        gc_before = self._gc_seconds
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
        self.metrics[f"{name}_s"] = (end - start, "s")
        if name in GC_REPORTED:
            self.metrics[f"{name}.gc_s"] = (self._gc_seconds - gc_before, "s")
        return result

    def micro(self, name: str, call) -> None:
        """Microseconds per call of a fast call: the median of several timed
        loops, each about MICRO_LOOP_S long."""
        gc.collect()
        start = time.perf_counter()
        call()
        number = max(1, int(MICRO_LOOP_S / max(time.perf_counter() - start, 1e-7)))
        loops = []
        for _ in range(MICRO_REPEATS):
            start = time.perf_counter()
            for _ in range(number):
                call()
            loops.append((time.perf_counter() - start) / number)
        self.metrics[f"{name}_us"] = (statistics.median(loops) * 1e6, "us")

    def count(self, name: str, value: int) -> None:
        self.metrics[name] = (value, "count")


def clear_caches() -> None:
    enumerate_rhombic.cache_clear()
    enumerate_zonotopal.cache_clear()


def span_enumerate_rhombic(tracer: Tracer, w: str):
    clear_caches()
    return tracer.span(
        "tilings.enumerate_rhombic", lambda: enumerate_rhombic(Permutation.from_string(w))
    )


def rhombic(tracer: Tracer, smoke: bool) -> None:
    """`enumerate 7654312`, then `flipgraph 654321`."""
    big, flip = ("4321", "4321") if smoke else ("7654312", "654321")
    w = Permutation.from_string(big)
    tracer.micro("permutations.inversions", lambda: inversions(w))
    tracer.micro("permutations.apply_simple", lambda: apply_simple(w, w.n - 1))
    tilings = span_enumerate_rhombic(tracer, big)
    tracer.count("tilings.enumerate_rhombic.results", len(tilings))
    tracer.span("tilings.to_json", lambda: sorted(t.to_json() for t in tilings))
    tracer.span("tilings.tiling_digest", lambda: [tiling_digest(t) for t in tilings])
    del tilings
    clear_caches()
    graph = tracer.span("flips.flip_graph", lambda: flip_graph(Permutation.from_string(flip)))
    tracer.count("flips.flip_graph.arcs", len(graph.arcs))
    nodes = graph.nodes
    del graph
    sites = tracer.span("flips.flip_sites", lambda: [(T, f) for T in nodes for f in flip_sites(T)])
    tracer.span("flips.apply_flip", lambda: [apply_flip(T, f) for T, f in sites])


def zonotopal(tracer: Tracer, smoke: bool) -> None:
    """`enumerate 654321 --zonotopal`, then `poset 7463512`."""
    enum, pos = ("4321", "4321") if smoke else ("654321", "7463512")
    clear_caches()
    tilings = tracer.span(
        "zonotopal.enumerate_zonotopal", lambda: enumerate_zonotopal(Permutation.from_string(enum))
    )
    tracer.count("zonotopal.enumerate_zonotopal.results", len(tilings))
    tracer.span("zonotopal.to_json", lambda: sorted(z.to_json() for z in tilings))
    del tilings
    clear_caches()
    # poset() builds a fresh ZonoPoset, whose covers are a cached_property
    p = tracer.span("zonotopal.poset", lambda: poset(Permutation.from_string(pos)))
    covers = tracer.span("zonotopal.covers", lambda: p.covers)
    tracer.count("zonotopal.covers.results", len(covers))
    tracer.span("zonotopal.maximal_elements", lambda: maximal_elements(p))


def peeling(tracer: Tracer, seed: int, smoke: bool) -> None:
    """The seeded tiling: parse and validate it, peel it, sweep its colorings."""
    w, letters, _ = workloads.peeling_input(seed, smoke)
    word = Word(letters, len(w))
    text = word_to_tiling(word).to_json()
    tracer.micro("io_cli.parse_tiling", lambda: parse_tiling(text))
    T = parse_tiling(text)
    tracer.micro("tilings.validation_error", lambda: validation_error(T))
    tracer.micro("tilings.word_to_tiling", lambda: word_to_tiling(word))
    tracer.micro("tilings.tiling_to_word", lambda: tiling_to_word(T))
    words = tracer.span("tilings.all_words", lambda: all_words(T))
    tracer.count("tilings.all_words.results", len(words))
    del words
    images = tracer.span("bott_samelson.fixed_point_images", lambda: fixed_point_images(T))
    tracer.count("bott_samelson.fixed_point_images.results", len(images))
    del images
    tracer.micro("bott_samelson.poincare", lambda: poincare(T))
    tracer.micro("io_cli.render_svg", lambda: render_svg(T))


def import_seconds() -> float:
    """Median time for a fresh interpreter to import the package."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import elnitsky; print(time.perf_counter() - t)"
    )
    samples = [
        float(subprocess.run(
            [sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True
        ).stdout)
        for _ in range(IMPORT_CALLS)
    ]
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    tracer = Tracer()
    tracer.metrics["io_cli.import_s"] = (import_seconds(), "s")
    groups = {}
    for name, group in (
        ("rhombic", lambda: rhombic(tracer, args.smoke)),
        ("zonotopal", lambda: zonotopal(tracer, args.smoke)),
        ("peeling", lambda: peeling(tracer, args.seed, args.smoke)),
    ):
        start = time.perf_counter()
        group()
        groups[name] = time.perf_counter() - start
    print(json.dumps({"metrics": tracer.metrics, "groups": groups}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

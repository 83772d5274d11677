"""Benchmark of the `elnitsky` command line.

    python3 bench/run.py --workload rhombic --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each
command of a workload runs as a fresh interpreter calling
`elnitsky.io_cli.main` with `src` on the path, one at a time (one client,
closed loop), and every output is checked.  Passes over the workload repeat
until `--seconds` is used up.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it
records the environment.  `--trace 1` adds a traced in-process run
(layers.py) and reports per-layer metrics instead of end-to-end ones.

`--pin` rewrites expected.json, the SHA-256 of every command's stdout at
the default seed.  Exit status 2 means the benchmark itself could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import sys
import tempfile
import threading
import time

import workloads
from workloads import Command

ROOT = os.path.dirname(workloads.HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(workloads.HERE, "expected.json")
LAUNCH = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from elnitsky.io_cli import main; sys.exit(main())"
)
RUN_LIMIT_S = 150.0  # a run must end well inside the 180 s it is allowed
# `tile 1` calls before every pass, and calls of each probe within it; a
# probe or set-up call takes about 0.1 s, and spreading a dozen or more of
# them over the run keeps one burst of load on the shared host from setting
# the whole run's figure
SETUP_PER_PASS = 3
PROBES_PER_PASS = 3
TIMED = ("enumerate", "flipgraph", "poset", "fixedpoints", "words")


class BenchError(Exception):
    """The benchmark cannot run here, for instance without a source tree."""


class Runner:
    """Spawns processes one at a time, times them, and checks CLI output."""

    def __init__(self, work: str, pins: dict[str, str] | None, seed: int, deadline: float):
        self.work = work
        self.pins = pins
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def spawn(self, argv: list[str], out_path: str):
        """(seconds from spawn to exit, exit code, rusage, stderr) of one process.

        The process is killed at the run's deadline, so a hung command
        cannot hold the benchmark past its time limit."""
        err_path = os.path.join(self.work, "stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_CLOSE, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        lock = threading.Lock()
        reaped = False

        def kill():
            with lock:
                if not reaped:
                    os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            with lock:
                reaped = True
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return seconds, os.waitstatus_to_exitcode(status), usage, stderr

    def run(self, cmd: Command, out_path: str | None = None) -> dict:
        """Time and check one CLI command; a failure is recorded, not raised."""
        out_path = out_path or os.path.join(self.work, "stdout")
        argv = [sys.executable, "-c", LAUNCH, SRC, *cmd.args]
        seconds, code, usage, stderr = self.spawn(argv, out_path)
        with open(out_path, "rb") as fh:
            out = fh.read()
        self.attempted += 1
        digest = hashlib.sha256(out).hexdigest()
        self.digests[cmd.label] = digest
        reason = self.verdict(cmd, code, out, digest, stderr)
        if reason:
            self.failures.append(f"{cmd.label}: {reason}")
        return {
            "subcommand": cmd.subcommand,
            "wall": seconds,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }

    def verdict(self, cmd: Command, code: int, out: bytes, digest: str, stderr: str):
        if code != cmd.status:
            return f"exit {code}, expected {cmd.status}; stderr {stderr[-300:]!r}"
        if cmd.status == 0 and stderr:
            return f"stderr not empty: {stderr[-300:]!r}"
        if cmd.status != 0 and (
            out or stderr.count("\n") != 1 or not stderr.startswith("error: ")
        ):
            return f"refusal is not one 'error:' line on stderr: {stderr[-300:]!r}"
        pinned = self.pins is not None and (
            not cmd.seeded or self.seed == workloads.DEFAULT_SEED
        )
        if pinned and self.pins.get(cmd.label) != digest:
            return f"stdout sha256 {digest[:16]} does not match the pinned digest"
        if cmd.check is None:
            return None
        try:
            return cmd.check(out.decode())
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return f"unreadable output: {e!r}"


def run_pass(runner: Runner, plan: workloads.Plan, rng: random.Random) -> dict:
    setup = [runner.run(workloads.SETUP)["wall"] for _ in range(SETUP_PER_PASS)]
    rest = [(c, False) for c in plan.rest]
    rest += [(c, True) for c in plan.probes] * PROBES_PER_PASS
    rng.shuffle(rest)
    records = [runner.run(c, plan.seeded_path) for c in plan.first]
    probed: dict[str, list[float]] = {}
    for cmd, probe in rest:
        record = runner.run(cmd)
        if probe:
            probed.setdefault(cmd.subcommand, []).append(record["wall"])
        else:
            records.append(record)
    result = {
        "setup": setup,
        "probes": probed,
        "wall": sum(r["wall"] for r in records),
        "cpu": sum(r["cpu"] for r in records),
        "rss_mb": max(r["rss_mb"] for r in records),
    }
    for name in TIMED:
        result[name] = sum(r["wall"] for r in records if r["subcommand"] == name)
    return result


def measure(runner: Runner, plan: workloads.Plan, rng: random.Random, seconds: float):
    """Run passes while the next one is expected to end within `seconds`."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(runner, plan, rng))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > seconds or time.monotonic() + 2 * per_pass > runner.deadline:
            return passes


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    above it, or with a third of them when there are fewer than 30."""
    ordered = sorted(samples)
    beyond = min(10, len(ordered) // 3)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str]]:
    walls = [p["wall"] for p in passes]
    metrics = {
        "setup_s": (statistics.median(t for p in passes for t in p["setup"]), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "wall_s.tail": (tail(walls)[0], "s"),
    }
    for name in TIMED:
        if name in passes[0]["probes"]:
            # a probed subcommand: the median call, as for setup_s
            samples = [t for p in passes for t in p["probes"][name]]
        else:
            samples = [p[name] for p in passes]
        metrics[f"{name}_s"] = (statistics.median(samples), "s")
    metrics["cpu_s"] = (statistics.median(p["cpu"] for p in passes), "s")
    metrics["peak_rss_mb"] = (statistics.median(p["rss_mb"] for p in passes), "MB")
    return metrics


def traced(runner: Runner, smoke: bool) -> dict:
    """Run layers.py in a fresh interpreter; its last stdout line holds the spans."""
    argv = [sys.executable, os.path.join(workloads.HERE, "layers.py"),
            "--seed", str(runner.seed)] + (["--smoke"] if smoke else [])
    out_path = os.path.join(runner.work, "layers.out")
    _, code, _, stderr = runner.spawn(argv, out_path)
    runner.attempted += 1
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if code != 0 or stderr or not lines:
        runner.failures.append(f"traced run: exit {code}, stderr {stderr[-300:]!r}")
        return {"metrics": {}, "groups": {}}
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_pins() -> dict[str, str]:
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read pinned digests {EXPECTED}: {e}") from None


def check_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "elnitsky", "io_cli.py")):
        raise BenchError(f"no elnitsky source tree under {SRC}")


def work_dir() -> tempfile.TemporaryDirectory:
    """Scratch space for command output.  It lives inside the checkout, not
    in the system temp dir, so that the benchmark writes nothing outside the
    tree it runs from; the root .gitignore names it."""
    return tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT)


def run(args) -> dict:
    check_source()
    pins = load_pins()
    with work_dir() as work:
        started = time.monotonic()
        load_start = os.getloadavg()[0]
        runner = Runner(work, pins, args.seed, started + RUN_LIMIT_S)
        plan = workloads.plan(args.workload, args.seed, args.smoke, work)
        rng = random.Random(args.seed)
        if args.trace:
            layers = traced(runner, args.smoke)
            left = args.seconds - (time.monotonic() - started)
            passes = measure(runner, plan, rng, left)
            wall = statistics.median(p["wall"] for p in passes)
            metrics = {name: tuple(v) for name, v in layers["metrics"].items()}
            if args.workload in layers["groups"]:
                metrics["trace.overhead_s"] = (layers["groups"][args.workload] - wall, "s")
        else:
            passes = measure(runner, plan, rng, args.seconds)
            metrics = end_to_end(passes)
        load_end = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    walls = [p["wall"] for p in passes]
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "nproc": nproc, "cpu": cpu_model(),
        "loadavg_start": load_start, "loadavg_end": load_end,
        "overloaded": max(load_start, load_end) > nproc,
        "passes": len(passes), "wall_s.tail_percentile": tail(walls)[1],
        "failed_frac": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:20],
    }
    print(json.dumps({"env": env}))
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def pin() -> None:
    """Record the stdout digest of every command at the default seed, in
    both the full and the smoke inputs; refuse if any check fails."""
    check_source()
    with work_dir() as work:
        runner = Runner(work, None, workloads.DEFAULT_SEED, time.monotonic() + 3600)
        for smoke in (False, True):
            for name in workloads.WORKLOADS:
                plan = workloads.plan(name, workloads.DEFAULT_SEED, smoke, work)
                run_pass(runner, plan, random.Random(0))
    if runner.failures:
        raise BenchError("not pinning, checks failed: " + "; ".join(runner.failures))
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(runner.digests.items())), fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs on E(321) and E(4321), for the tests")
    parser.add_argument("--pin", action="store_true", help="rewrite the pinned digests")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.pin:
            pin()
            return 0
        result = run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

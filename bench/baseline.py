"""Run the benchmark on several seeds per workload and record the spread.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Each run is `run.py --workload W --seed S --seconds <run_seconds> --trace 0`,
one after another.  For every end-to-end metric the record keeps the ten
values, their median, the quartiles from `statistics.quantiles(n=4)`, and
the spread (upper minus lower quartile, over the median), next to the
metric's bound from BENCHMARK.json, and the environment line of each run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

ROOT = os.path.dirname(workloads.HERE)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(workloads.HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            *_, env_line, result_line = done.stdout.splitlines()
            result = json.loads(result_line)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "env": json.loads(env_line)["env"]})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, "correct" if result["correct"] else "FAILED",
                  file=sys.stderr, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            middle = statistics.median(vals)
            summary[name] = {
                "median": middle, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / middle, "bound": bounds[name], "values": vals,
            }
            print(f"{workload:10s} {name:14s} median {middle:10.4f}"
                  f"  spread {(q3 - q1) / middle:.3f}  bound {bounds[name]}", flush=True)
        record["workloads"][workload] = {"metrics": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

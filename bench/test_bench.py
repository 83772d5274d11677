"""Tests of the benchmark itself, on the smoke inputs (E(321) and E(4321)).

    python3 -m pytest bench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

RUN = os.path.join(workloads.HERE, "run.py")
ROOT = os.path.dirname(workloads.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT, script=RUN):
    done = subprocess.run(
        [sys.executable, script, "--seed", "0", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def result(*args):
    done = bench(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(workload):
    out = result("--workload", workload, "--trace", "0", "--smoke")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_smoke_trace_emits_every_per_layer_metric():
    out = result("--workload", "peeling", "--trace", "1", "--smoke")
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units("per_layer")


def copy_checkout(dest, with_source=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(workloads.HERE, dest / "bench", ignore=ignore)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src", ignore=ignore)
    return str(dest / "bench" / "run.py")


def test_tampered_pins_fail_every_command(tmp_path):
    script = copy_checkout(tmp_path)
    pins_path = tmp_path / "bench" / "expected.json"
    pins = json.loads(pins_path.read_text())
    pins_path.write_text(json.dumps({label: "0" * 64 for label in pins}))
    done = bench("--workload", "rhombic", "--trace", "0", "--smoke",
                 cwd=tmp_path, script=script)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert not out["correct"]
    assert out["failed"] == out["attempted"] > 0


def test_wrong_expected_fact_fails():
    check = workloads.check_fixedpoints(workloads.perm("321"), 5)
    assert check("fixed_points 8\nimages 6\n") is not None
    assert workloads.check_fixedpoints(workloads.perm("321"), 6)(
        "fixed_points 8\nimages 6\n") is None


def test_bruhat_interval_sizes():
    # |[e, w0(n)]| = n!, and the acceptance tiling's interval has 3,432 elements
    assert workloads.bruhat_interval_size(workloads.perm("4321")) == 24
    assert workloads.bruhat_interval_size(workloads.perm("7456312")) == 3432


def test_back_to_back_spans_agree():
    import layers

    tracer = layers.Tracer()
    first = layers.span_enumerate_rhombic(tracer, "54321")
    t1 = tracer.metrics["tilings.enumerate_rhombic_s"][0]
    second = layers.span_enumerate_rhombic(tracer, "54321")
    t2 = tracer.metrics["tilings.enumerate_rhombic_s"][0]
    assert first == second and len(first) == 62
    # a cache hit would take microseconds against milliseconds for the search
    assert t2 > t1 / 10 and t1 > t2 / 10


def test_fails_without_source_tree(tmp_path):
    script = copy_checkout(tmp_path, with_source=False)
    done = bench("--workload", "rhombic", "--trace", "0", cwd=tmp_path, script=script)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

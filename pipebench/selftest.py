#!/usr/bin/env python3
"""Self-test of the pipeline benchmark, in about a minute after the build.

    python3 pipebench/selftest.py

Runs every workload at smoke scale (same code path and every output check,
inputs small enough for a one-second run), untraced and traced, and checks
that each run exits 0 and ends with a JSON result that names exactly the
metrics BENCHMARK.json lists, with their units, zero failed operations and
correct: true. Then copies BENCHMARK.json and pipebench/ alone into
.bench_build/selftest-bare and checks that the benchmark refuses to run
there: non-zero exit, no result line. Exits 1 on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(why):
    print("selftest: FAIL: " + why)
    sys.exit(1)


def run(cwd, workload, trace):
    cmd = ["python3", "pipebench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            p = run(ROOT, workload, trace)
            label = "%s --trace %d" % (workload, trace)
            if p.returncode != 0:
                fail("%s exited %d:\n%s" % (label, p.returncode, p.stderr[-3000:]))
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (label, sorted(result)))
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail("%s: correct=%s attempted=%s failed=%s" % (
                    label, result["correct"], result["attempted"], result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                fail("%s: metrics differ from BENCHMARK.json: %s" % (
                    label, sorted(set(got.items()) ^ set(want[trace].items()))))
            print("selftest: ok  %s (%d operations)" % (label, result["attempted"]))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "pipebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        fail("a directory without the sources gave exit %d, stdout %r" % (
            p.returncode, p.stdout[-300:]))
    print("selftest: ok  refuses to run without the sources (exit %d)" % p.returncode)


if __name__ == "__main__":
    main()

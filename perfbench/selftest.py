#!/usr/bin/env python3
"""Self-test of the serving benchmark (smoke scale, about a minute).

    python3 perfbench/selftest.py

Run from the root of the source tree. Checks that
  * every workload of workloads.json (the BENCHMARK.json ones and the extra
    ones) runs at smoke scale, answers correctly with no failed operation,
    and prints every end-to-end metric of BENCHMARK.json (trace 0) and every
    per-layer metric (trace 1) with its unit and a finite value;
  * end-to-end metrics are never 0;
  * a perturbed reference makes the correctness gate trip (correct=false,
    failed > 0) on both BENCHMARK.json workloads;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Exits non-zero on the first failed check.
"""
import json
import math
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()


def run(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--smoke", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def result_of(done, what):
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"FAIL {what}: exit {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def expect(ok, what):
    if not ok:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{workload} trace {trace}"
            result = result_of(run(workload, trace), name)
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0, f"{name}: correct, none failed")
            metrics = result["metrics"]
            for m in bench[key]:
                got = metrics.get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and math.isfinite(got["value"])
                       and (trace or got["value"] != 0),
                       f"{name}: {m['name']} printed in {m['unit']}")

    for workload in (w["name"] for w in bench["workloads"]):
        result = result_of(run(workload, 0, "--perturb-reference"),
                           f"{workload} perturbed")
        expect(not result["correct"] and result["failed"] > 0,
               f"{workload}: perturbed reference trips the gate "
               f"({result['failed']} failed)")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bench["workloads"][0]["name"], 0, cwd=bare)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           "bare directory: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()

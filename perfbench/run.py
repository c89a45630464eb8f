#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the root of a source tree:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Builds the library and the two benchmark programs from source (CMake,
Release) under .bench_build/ (or $CARGO_TARGET_DIR), builds the fixture
models in a separate process (cached per fixture seed, fixed in
workloads.json: --seed draws the traffic, not the models), runs the measuring
program and prints its lines; the last line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics and
writes a span dump to .bench_build/traces/ (see trace_summary.py).
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
FIXTURE_CACHE_KEEP = 8  # fixture directories kept per checkout
SERVE_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(build_dir):
    """Configures once, then (re)builds incrementally; logs to build.log."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed (" + " ".join(step[:2]) + ")")


def fixtures(build_dir, fixture_set, seed, smoke):
    """Builds (or reuses) the fixture set for `seed` in its own process."""
    cache = build_dir.parent / "fixtures"
    name = f"{'smoke-' if smoke else ''}seed{seed}"
    out = cache / name
    cmd = [str(build_dir / "perfbench_fixtures"), "--seed", str(seed),
           "--out", str(out), "--set", fixture_set]
    if smoke:
        cmd.append("--smoke")
    if subprocess.run(cmd).returncode:
        fail("fixture generator failed")
    out.touch()
    stale = sorted((d for d in cache.iterdir() if d.is_dir()),
                   key=lambda d: d.stat().st_mtime)[:-FIXTURE_CACHE_KEEP]
    for d in stale:
        shutil.rmtree(d, ignore_errors=True)
    return out


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small fixtures and inputs (self-test scale)")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt one reference answer (the gate must trip)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"run from the root of the source tree ({ROOT} has no src/)")
    config = json.loads((HERE / "workloads.json").read_text())
    workload = config["workloads"].get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(config['workloads'])}")

    build_dir = build_root() / "perfbench"
    build(build_dir)
    fixture_dir = fixtures(build_dir, workload["fixtures"],
                           config["fixture_seed"], args.smoke)

    cmd = [str(build_dir / "perfbench_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fixtures", str(fixture_dir), "--commit", commit(),
           "--rate", str(workload["rate"]),
           "--nprobe", str(workload.get("nprobe", 0)),
           "--pruned-share", str(workload.get("pruned_share", 1))]
    if args.trace:
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SERVE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench_serve exceeded {SERVE_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        fail(f"perfbench_serve exited with {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("perfbench_serve printed a malformed result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

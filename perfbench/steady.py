#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs each workload repeatedly on one build (one seed per run), then prints per
end-to-end metric the median, quartiles and inter-quartile spread as a share
of the median, against the metric's bound in BENCHMARK.json. A spread above
the bound fails; above a third of it is flagged. model_update/setup_s is
called out on its own line. With --sets 2 the whole series runs twice and the
second median is compared with the first. Finally every workload runs once
more on a held-out seed, whose values are compared with the medians.

    python3 perfbench/steady.py                       # all workloads, 10 seeds
    python3 perfbench/steady.py --workloads classify --runs 5
    python3 perfbench/steady.py --sets 2 --heldout 9001

Run from the root of the source tree. Raw results go to
.bench_build/steady/results.json.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload} seed {seed}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    return values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--heldout", type=int, default=424242)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    status = 0
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs,
                          args.first_seed + (s + 1) * args.runs)
            sets.append([run_once(workload, seed, args.seconds) for seed in seeds])
        heldout = run_once(workload, args.heldout, args.seconds)
        raw[workload] = {"sets": sets, "heldout": heldout}
        print(f"\n== {workload} ({args.runs} runs x {args.sets} set(s))")
        print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  held-out  verdict")
        for name, m in metrics.items():
            values = [r[name] for r in sets[0]]
            q1, med, q3, sp = spread(values)
            bound = m["bound"]
            verdict = "ok"
            if name != "setup_s" and sp > bound:
                verdict, status = "FAIL spread", 1
            elif name != "setup_s" and sp > bound / 3:
                verdict = "wide (> bound/3)"
            if args.sets == 2:
                med2 = statistics.median(r[name] for r in sets[1])
                w = worse_by(med, med2, m["better"])
                verdict += f"; set2 {w:+.1%}"
                if w > bound:
                    verdict, status = verdict + " FAIL", 1
            held = worse_by(med, heldout[name], m["better"])
            print(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.2%} "
                  f"{bound:6.2f}  {held:+8.1%}  {verdict}")
        if workload == "model_update":
            q1, med, q3, sp = spread([r["setup_s"] for r in sets[0]])
            print(f"model_update/setup_s: median {med * 1e3:.3f} ms, "
                  f"spread {sp:.2%} (bound {metrics['setup_s']['bound']})")
    out = ROOT / ".bench_build" / "steady"
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps(raw, indent=1))
    sys.exit(status)


if __name__ == "__main__":
    main()

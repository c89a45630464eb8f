#!/usr/bin/env python3
"""Summarizes the span dumps a traced benchmark run writes.

    python3 perfbench/trace_summary.py                      # .bench_build/traces/*.jsonl
    python3 perfbench/trace_summary.py .bench_build/traces/classify-seed1.jsonl

Per dump (one workload run) it prints each span name's count, total and median
SELF time (its duration minus the part of it that its child spans cover) and
its WAITING time (spans named *.queue_wait / *.gen_lag are time a request
spent waiting, not working), then the same rolled up per layer (the name's
prefix before the first dot), then the tracing overhead the run measured:
paced p50 latency traced vs untraced in the same process.
"""
import collections
import json
import pathlib
import statistics
import sys

WAITING = ("wait", "lag")


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total, cursor = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def summarize(path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    spans = [json.loads(line) for line in lines[1:]]
    children = collections.defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_us"], s["end_us"]))
    by_name = collections.defaultdict(list)
    for s in spans:
        duration = s["end_us"] - s["start_us"]
        self_us = duration - covered(s["start_us"], s["end_us"],
                                     children.get(s["id"], []))
        by_name[s["name"]].append(self_us)

    print(f"\n== {header['workload']} (seed {header['seed']}, "
          f"{len(spans)} spans, {header['dropped']} dropped)")
    print(f"{'span':40} {'count':>8} {'self ms':>10} {'self p50 us':>12} "
          f"{'wait ms':>10}")
    layers = collections.defaultdict(lambda: [0.0, 0.0])
    for name in sorted(by_name):
        values = by_name[name]
        total_ms = sum(values) / 1e3
        waiting = name.endswith(WAITING)
        layer = layers[name.split(".")[0]]
        layer[1 if waiting else 0] += total_ms
        print(f"{name:40} {len(values):8d} {0 if waiting else total_ms:10.2f} "
              f"{statistics.median(values):12.2f} "
              f"{total_ms if waiting else 0:10.2f}")
    print(f"{'layer':40} {'self ms':>10} {'wait ms':>10}")
    for layer, (self_ms, wait_ms) in sorted(layers.items()):
        print(f"{layer:40} {self_ms:10.2f} {wait_ms:10.2f}")
    print(f"tracing overhead: paced p50 {header['traced_latency_p50_ms']:.3f} ms "
          f"traced vs {header['untraced_latency_p50_ms']:.3f} ms untraced "
          f"({header['trace_overhead_pct']:+.1f}%)")


def main():
    paths = [pathlib.Path(p) for p in sys.argv[1:]] or sorted(
        (pathlib.Path.cwd() / ".bench_build" / "traces").glob("*.jsonl"))
    if not paths:
        sys.exit("no span dumps: run perfbench/run.py with --trace 1 first")
    for path in paths:
        summarize(path)


if __name__ == "__main__":
    main()

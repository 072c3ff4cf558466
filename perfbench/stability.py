"""Run each workload repeatedly and report the spread of every metric.

Run from the root of a dyadictop checkout:

    python3 perfbench/stability.py --runs 10 --first-seed 1

For every workload it runs ``perfbench/run.py`` once per seed, one
process at a time, with tracing off, and prints for each end-to-end
metric the median, the quartiles and the spread (quartile distance over
median) against the metric's bound in BENCHMARK.json.  Then it makes one
traced run per workload and prints the tracing overhead: its job time
over the median job time of the untraced runs, minus one.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = bench_run(workload, seed, args.seconds, 0)
            runs.append({"wall_s": wall, **result})
            print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}", flush=True)
        print(f"\n{workload}: {len(runs)} runs of {args.seconds} s")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        medians = {}
        for name, spec_m in bounds.items():
            med, q1, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            bound = spec_m["bound"]
            verdict = ("steady" if s < bound / 3 else "within bound" if s <= bound
                       else "TOO NOISY")
            if name == "setup_s":
                verdict += " (spread not gated)"
            medians[name] = med
            print(f"  {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>7.3f} {bound:>6} {spec_m['unit']} {verdict}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share: {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  NOT CONSTANT'}")
        print(f"  all correct: {all(r['correct'] for r in runs)}; "
              f"wall per run: {statistics.median(r['wall_s'] for r in runs):.1f} s")
        traced, _ = bench_run(workload, args.first_seed, args.seconds, 1)
        overhead = {kind: traced["metrics"][f"trace.{kind}_s"]["value"]
                    / medians[f"{kind}_s"] - 1 for kind in ("build", "check")}
        print(f"  tracing overhead (seed {args.first_seed} against the untraced median): "
              + ", ".join(f"{k} jobs {100 * v:+.0f}%" for k, v in overhead.items()))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

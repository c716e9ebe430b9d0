"""Steadiness of the end-to-end metrics over repeated runs.

Runs every workload of ``BENCHMARK.json`` ``--runs`` times for its
``run_seconds``, each run in a fresh process with its own seed (1, 2,
...), rotating the workload order from one pass to the next so
no workload always follows the same neighbour.  For every end-to-end
metric it prints the median, the quartiles, the quartile spread as a
share of the median, and the largest difference between the medians of
two halves of the runs (first/second and odd/even) as a share of the
median.  Bounds in ``BENCHMARK.json`` are set from this output::

    python3 perfbench/steady.py --runs 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    halves = [(values[:len(values) // 2], values[len(values) // 2:]),
              (values[0::2], values[1::2])]
    half_diff = max(abs(statistics.median(a) - statistics.median(b))
                    for a, b in halves)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "half_diff": half_diff / median}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles of halves")
    names = [w["name"] for w in bench["workloads"]]
    results = {name: [] for name in names}
    for k in range(args.runs):
        order = names[k % len(names):] + names[:k % len(names)]
        for name in order:
            result = one_run(name, k + 1, bench["run_seconds"])
            results[name].append(result)
            print(f"run {k} {name} seed {k + 1}: {json.dumps(result)}",
                  flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for name, runs in results.items():
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{name}: failed share per run {failed}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        report[name] = {}
        for metric, bound in bounds.items():
            stats = summary([r["metrics"][metric]["value"] for r in runs])
            report[name][metric] = stats
            print(f"  {metric:18s} median {stats['median']:14.4f}  "
                  f"q1 {stats['q1']:14.4f}  q3 {stats['q3']:14.4f}  "
                  f"spread {stats['spread']:.4f}  half-diff "
                  f"{stats['half_diff']:.4f}  bound {bound}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

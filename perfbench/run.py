"""End-to-end benchmark of the three user paths of the LHNN reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload prepare_superblue --seed 0 \
        --seconds 35 --trace 0

Workloads: ``prepare_superblue`` (cold suite preparation),
``serve_cold`` (cold inference requests) and ``train_serve`` (fits on a
warm dataset with warm micro-batched serving between them).  The run
sets up once, then repeats rounds of the workload's operations until the
next round would end past ``--seconds`` (at least one round, two on
``prepare_superblue``, three when traced), checks every output, and prints the metrics; the last line of
standard output is one JSON object.  ``--trace 1`` alternates untraced
and traced rounds and reports per-layer metrics from the traced ones.
All files go to a temporary directory under ``perfbench/.work`` that is
removed at exit; the stage cache and artifacts start empty.
"""

from __future__ import annotations

from time import perf_counter, process_time

_T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["prepare_superblue", "serve_cold",
                                 "train_serve"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float, tracer):
    """Time rounds until the next would end past ``seconds``."""
    from repro.pipeline import STAGE_CALLS
    rounds, failed_ops, errors, run_errors, attempted = [], set(), [], [], 0
    stage_calls = Counter()
    start = perf_counter()
    # Traced runs: round 0 (untraced) also pays the process's first-time
    # costs, so tracing overhead compares odd (traced) rounds with later
    # even (untraced) ones and needs at least three rounds.
    min_rounds = max(workload.min_rounds, 3 if tracer else 1)
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        before = Counter(STAGE_CALLS)
        if traced:
            tracer.install()
            top0 = tracer.top_level_s
        t0, c0 = perf_counter(), process_time()
        try:
            ops, pending = workload.run_round(index)
        except Exception:  # a round that raises fails; report and go on
            traceback.print_exc()
            ops, pending = 1, [lambda: [("round", "the round raised")]]
        finally:
            wall, cpu = perf_counter() - t0, process_time() - c0
            if traced:
                tracer.uninstall()
                stage_calls += Counter(STAGE_CALLS) - before
        record = {"index": index, "traced": traced, "wall_s": wall,
                  "cpu_s": cpu, "ops": ops}
        if traced:
            record["top_level_s"] = tracer.top_level_s - top0
        rounds.append(record)
        attempted += ops
        for check in pending:
            for op_id, message in check():
                if op_id is None:
                    run_errors.append(message)
                else:
                    failed_ops.add((index, op_id))
                    errors.append(message)
        pending = None  # free the round's outputs before the next round
        elapsed = perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in rounds)
        if len(rounds) >= min_rounds and elapsed + typical > seconds:
            break
    return (rounds, attempted, len(failed_ops), errors, run_errors,
            stage_calls)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


def run(args, workdir: str) -> dict:
    from workloads import WORKLOADS  # imports the program
    from spans import Tracer
    import_s = perf_counter() - _T_START

    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup_s = import_s + statistics.median(workload.setup())
    tracer = Tracer() if args.trace else None
    rounds, attempted, failed, errors, run_errors, stage_calls = run_rounds(
        workload, args.seconds, tracer)
    for message in sorted(set(errors)):
        print(f"OPERATION FAILED: {message}", file=sys.stderr)
    for message in run_errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    untraced = [r for r in rounds if not r["traced"]]
    extra = workload.metrics(rounds)
    if tracer is None:
        measured = {
            "setup_s": setup_s,
            "round_s": statistics.median(r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "hpwl": extra["hpwl"],
            "route_wirelength": extra["route_wirelength"],
        }
        units = declared_units("end_to_end")
        if set(measured) != set(units):
            raise KeyError("end-to-end metrics differ from BENCHMARK.json")
        values = {name: (measured[name], unit) for name, unit in units.items()}
    else:
        values = layer_values(tracer, rounds, stage_calls, extra["layer"])
        for record in tracer.records():
            print("span " + json.dumps(record))
    for r in rounds:
        print(f"{args.workload:18s} round {r['index']} traced {r['traced']} "
              f"wall {r['wall_s']:.3f} s cpu {r['cpu_s']:.3f} s "
              f"ops {r['ops']}")
    for name, (value, unit) in values.items():
        print(f"{args.workload:18s} {name:32s} {value:16.6f} {unit}")
    print(f"{args.workload:18s} rounds {len(rounds)} attempted {attempted} "
          f"failed {failed}")
    return {"correct": not run_errors, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in values.items()}}


def declared_units(kind: str) -> dict:
    """Metric name -> unit of ``kind`` ("end_to_end" / "per_layer")."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def layer_values(tracer, rounds, stage_calls, workload_layer) -> dict:
    """Every per-layer metric with its unit (0 for unused layers).

    Workload-level figures use every untraced round; ``trace.overhead_s``
    leaves out round 0, which also pays the process's first-time costs.
    """
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    measured = tracer.layer_metrics()
    measured.update(workload_layer)
    for stage in ("place", "route", "graph"):
        measured[f"pipeline.stage_calls.{stage}"] = stage_calls[stage]
    measured["trace.overhead_s"] = statistics.median(
        r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in untraced[1:])
    measured["trace.traced_s"] = sum(r["wall_s"] for r in traced)
    measured["trace.coverage_pct"] = 100.0 * sum(
        r["top_level_s"] for r in traced) / measured["trace.traced_s"]
    units = declared_units("per_layer")
    unknown = set(measured) - set(units)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: (measured.get(name, 0.0), unit)
            for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())

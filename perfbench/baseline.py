"""Record the benchmark's numbers for this checkout, with their spread and environment.

    python3 perfbench/baseline.py [--runs 10] [--no-trace] [--out perfbench/baseline.json]

Runs every workload of BENCHMARK.json ``--runs`` times untraced, at its run
length and seeds 1..runs, then once traced at seed 1.  Prints every run's
metric lines, then per end-to-end metric the median, the quartiles and the
spread (q3 - q1 as a share of the median, from ``statistics.quantiles(values,
n=4)``) next to the metric's bound, and writes everything with the
environment to ``--out`` when given.  ``--runs 1 --no-trace`` prints every
end-to-end metric of every workload once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import BENCH_ROOT, EXTRA_METRICS, invoke, load_benchmark, quartiles  # noqa: E402

FIRST_SEED = 1


def environment(seeds: list[int]) -> dict:
    def probe(code: str) -> str:
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": probe("import numpy; print(numpy.__version__)"),
        "scipy": probe("import scipy; print(scipy.__version__)"),
        "commit": commit,
        "seeds": seeds,
    }


def run_bench(workload: str, seed: int, trace: int) -> dict:
    result = invoke(workload, seed, trace)
    if "error" in result:
        raise RuntimeError(f"{workload} seed {seed}: {result['error']}")
    return result


def describe(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", help="write the record as JSON here")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds.update({k: v[2] for k, v in EXTRA_METRICS.items()})
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.runs))
    record = {"recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "run_seconds": bench["run_seconds"], "environment": environment(seeds),
              "workloads": {}}

    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_bench(workload, seed, 0))
            for line in runs[-1]["lines"]:
                print(f"{workload} seed {seed} {line}", flush=True)
        entry = {"why": why.get(workload, ""),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for name in runs[0]["values"]:
            values = [r["values"][name] for r in runs if name in r["values"]]
            if len(values) < 2:
                continue  # one run: its metric lines above are the record
            entry["end_to_end"][name] = d = describe(values)
            bound = bounds.get(name)
            flag = "" if bound is None else f"bound {bound:g}" + (
                "  SPREAD ABOVE A THIRD OF THE BOUND" if d["spread"] > bound / 3 else "")
            print(f"  {workload} {name}: median {d['median']:.5g} "
                  f"[{d['q1']:.5g}, {d['q3']:.5g}] spread {d['spread']:.3f} {flag}", flush=True)
        if not args.no_trace:
            traced = run_bench(workload, seeds[0], 1)
            entry["per_layer"] = traced["values"]
            entry["per_layer_seed"] = seeds[0]
        record["workloads"][workload] = entry

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

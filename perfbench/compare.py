"""Compare the program at two checkouts with this benchmark, in alternating order.

    python3 perfbench/compare.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload simulate --workload fit [--seed 1]

Both sides run this checkout's benchmark code at BENCHMARK.json's run
length, each with its own ``src/gphazard``, in ten pairs.  Pair k gives
both sides seed+k, and the side that runs first alternates from pair to
pair.  Every run is printed; then, for every (end-to-end metric, workload) pair, each
side's median and quartiles and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  unresolved  the parent's quartile spread is wider than the bound, unless
              every change run reads better than every parent run
  unchanged   none of the above
  invalid     any verdict but worse, when on that workload a change run did
              not finish or failed its output checks, or the change fails a
              larger share of its ops than the parent: such a change shows
              no gain and no absence of harm

``fail_ratio`` is shown for both sides, failed over attempted, with no
verdict of its own.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import EXTRA_METRICS, invoke, load_benchmark, quartiles  # noqa: E402

PAIRS = 10  # runs per side and workload; a gain needs 9 of them won


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if sign * (mp - mc) > 0 and wins >= 0.9 * len(parent) and abs(mc - mp) > q3 - q1:
        return "improved"
    if q3 - q1 > bound * abs(mp):
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        return "unchanged" if all_better else "unresolved"
    if sign * (mc - mp) > bound * abs(mp):
        return "worse"
    return "unchanged"


def fail_ratio(runs: list[dict]) -> tuple[int, int]:
    done = [r for r in runs if "error" not in r]
    return sum(r["failed"] for r in done), sum(r["attempted"] for r in done)


def change_problem(parent: list[dict], change: list[dict]) -> str:
    """Why the change's runs of one workload cannot count, or '' when they can."""
    unfinished = sum("error" in r for r in change)
    if unfinished:
        return f"{unfinished} change runs did not finish"
    if not all(r["correct"] for r in change):
        return "a change run failed its output checks"
    (pf, pa), (cf, ca) = fail_ratio(parent), fail_ratio(change)
    if pa and cf * pa > pf * ca:
        return f"the change fails {cf}/{ca} ops, the parent {pf}/{pa}"
    return ""


def shown(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    metrics.update({k: (better, bound) for k, (_, better, bound) in EXTRA_METRICS.items()
                    if k != "fail_ratio"})
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    rows = []
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                run = invoke(workload, args.seed + k, 0, root=sides[side])
                runs[side].append(run)
                values = " ".join(f"{n}={v:.4g}" for n, v in run.get("values", {}).items())
                print(f"run {workload} pair {k} {side} seed {args.seed + k}: "
                      f"{run.get('error') or values}", flush=True)
        ok = [k for k in range(PAIRS) if "error" not in runs["parent"][k]
              and "error" not in runs["change"][k]]
        problem = change_problem(runs["parent"], runs["change"])
        for name, (better, bound) in metrics.items():
            pairs = [(runs["parent"][k]["values"].get(name), runs["change"][k]["values"].get(name))
                     for k in ok]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            parent, change = [p for p, _ in pairs], [c for _, c in pairs]
            result = verdict(parent, change, better, bound)
            if problem and result != "worse":
                result = "invalid"
            rows.append((workload, name, shown(parent), shown(change), result, len(pairs)))
        for side in ("parent", "change"):
            failed, attempted = fail_ratio(runs[side])
            errors = sum("error" in r for r in runs[side])
            print(f"fail_ratio {workload} {side} {failed}/{attempted}"
                  f"{f' ({errors} runs did not finish)' if errors else ''}")
        if problem:
            print(f"invalid {workload}: {problem}")

    print(f"{'workload':9s} {'metric':14s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'verdict':10s} pairs")
    for workload, name, parent, change, result, n in rows:
        print(f"{workload:9s} {name:14s} {parent:34s} {change:34s} {result:10s} {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

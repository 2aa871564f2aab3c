"""gphazard benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 10 --trace 0

Workloads: simulate, fit, validate, cli (see workloads.py for what each
loads and why).  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off; with ``--trace 1`` it runs the same ops untraced
and then traced and prints the per-layer metrics, the span table and the
import breakdown.  Every metric is printed on a ``metric`` line with its
unit and sample count; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics that BENCHMARK.json
lists for the mode.

The workload runs in a child process (worker.py) in its own process group.
This process watches it: an op that runs past the per-op limit, or a run
past the total limit, has the group killed, counts as failed and ends the
run.  The program under test is ``<root>/src/gphazard``; ``--root``
defaults to the checkout holding this file (compare.py passes another).
``invoke`` and ``quartiles`` are shared with compare.py and baseline.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import NOT_MEASURED, per_layer, unit  # noqa: E402
from workloads import OP_LIMIT_S, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3  # fresh interpreters set up per run; setup_s is their median
READY_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0  # whole run, so that the process exits within 180 s
IMPORT_SAMPLES = 3

# Metrics printed besides BENCHMARK.json's end_to_end list: unit, better, bound
# (the bound compare.py applies; fail_ratio is shown, not judged).
EXTRA_METRICS = {
    "records_per_s": ("records/s", "higher", 0.25),
    "evals_per_s": ("1/s", "higher", 0.25),
    "op_p50_s": ("s", "lower", 0.25),
    "op_p90_s": ("s", "lower", 0.25),
    "op_p99_s": ("s", "lower", 0.25),
    "fail_ratio": ("failed/attempted", "lower", None),
}
WORKLOAD_EXTRAS = {
    "simulate": ("records_per_s", "op_p50_s", "op_p90_s"),
    "fit": ("evals_per_s", "op_p50_s", "op_p90_s", "op_p99_s"),
    "validate": (),
    "cli": ("op_p50_s",),
}


def load_benchmark() -> dict:
    with open(os.path.join(BENCH_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def invoke(workload: str, seed: int, trace: int, root: str | None = None) -> dict:
    """Run this script once in a child process, at BENCHMARK.json's run length, and parse it.

    Returns the result line plus ``values`` (every ``metric`` and ``layer``
    line by name) and ``lines`` (the metric and failed-op lines), or a dict
    holding only ``error`` when the run exits nonzero or prints nothing.
    """
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(load_benchmark()["run_seconds"]),
            "--trace", str(trace)]
    if root is not None:
        argv += ["--root", root]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    result = json.loads(lines[-1])
    result["values"] = {}
    result["lines"] = [line for line in lines if line.startswith(("metric ", "# failed op"))]
    for line in lines:
        if line.startswith(("metric ", "layer ")):
            _, name, value, *_ = line.split()
            result["values"][name] = float(value)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Worker:
    """One worker process, its event stream and the watchdog over it."""

    def __init__(self, spec: dict, env: dict, deadline: float):
        self.deadline = deadline
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, env=env, start_new_session=True,
        )
        self.setup_s = None
        self.ready = {}
        self.ops: list[dict] = []
        self.done = None
        self.pending = None  # (pass, op, start time) of the op in flight
        self.maxrss_kb = 0
        self.exit_code = None

    def run(self) -> "Worker":
        fd = self.proc.stdout.fileno()
        buf = b""
        timed_out = True
        try:
            while True:
                now = time.perf_counter()
                if self.setup_s is None:
                    limit = self.start + READY_LIMIT_S
                elif self.pending is not None:
                    limit = self.pending[2] + OP_LIMIT_S + 5.0
                else:
                    limit = math.inf
                limit = min(limit, self.deadline)
                ready, _, _ = select.select([fd], [], [], max(0.0, limit - now))
                if not ready:
                    self._timeout()
                    break
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    timed_out = False
                    break
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    self._event(json.loads(line))
        finally:
            if timed_out:
                self.kill_group()
            self._reap()
            self.kill_group()  # anything the worker left behind
        if self.done is None and self.setup_s is not None and not timed_out:
            self._fail_pending("error", f"worker exited with code {self.exit_code}")
        return self

    def _event(self, ev: dict) -> None:
        now = time.perf_counter()
        kind = ev["ev"]
        if kind == "ready":
            self.setup_s = now - self.start
            self.ready = ev
        elif kind == "start":
            self.pending = (ev.get("pass", 0), ev["op"], now)
        elif kind == "op":
            self.pending = None
            self.ops.append(ev)
        elif kind == "unstart":
            self.pending = None
        elif kind == "done":
            self.done = ev

    def _timeout(self) -> None:
        if self.setup_s is not None:
            what = "op" if self.pending is not None else "run"
            self._fail_pending("timeout", f"{what} killed by the watchdog")

    def _fail_pending(self, status: str, detail: str) -> None:
        now = time.perf_counter()
        if self.pending is not None:
            p, op, since = self.pending
        else:
            p, op, since = (self.ops[-1].get("pass", 0) if self.ops else 0), -1, now
        self.ops.append({"ev": "op", "op": op, "pass": p, "lat": now - since,
                         "status": status, "detail": detail})
        self.pending = None

    def kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        for _ in range(100):  # wait for every process of the group to be gone
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            if self.proc.returncode is None:
                self._reap()
            time.sleep(0.02)

    def _reap(self) -> None:
        if self.proc.returncode is not None:
            return
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.proc.stdout.close()

    def pass_ops(self, p: int) -> list[dict]:
        return [ev for ev in self.ops if ev.get("pass", 0) == p]


def percentile(latencies: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def round_wall(ops: list[dict]) -> float:
    """Median over rounds of a round's wall time; a round cut short counts only if alone."""
    walls: dict[int, float] = {}
    sizes: dict[int, int] = {}
    for ev in ops:
        r = ev.get("round", 0)
        walls[r] = walls.get(r, 0.0) + ev["lat"]
        sizes[r] = sizes.get(r, 0) + 1
    full = [walls[r] for r in walls if sizes[r] == max(sizes.values())]
    return statistics.median(full)


def summarize(ops: list[dict]) -> tuple[int, int, bool]:
    failed = sum(ev["status"] != "ok" for ev in ops)
    correct = not any(ev["status"] == "check" for ev in ops)
    return len(ops), failed, correct


def end_to_end(name: str, worker: Worker, setups: list[float]) -> dict:
    ops = worker.pass_ops(0)
    attempted, failed, _ = summarize(ops)
    wall = round_wall(ops)
    per_round = attempted / len({ev.get("round", 0) for ev in ops})
    # a failed op misses any latency limit
    latencies = [ev["lat"] if ev["status"] == "ok" else math.inf for ev in ops]
    rss_kb = worker.maxrss_kb
    if name == "cli" and worker.done is not None:
        rss_kb = worker.done["children_maxrss_kb"]
    m = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (wall, "s", len({ev.get("round", 0) for ev in ops})),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
        "fail_ratio": (failed / attempted if attempted else 0.0, "failed/attempted", attempted),
    }
    if name == "simulate":
        m["records_per_s"] = (worker.ready["records_per_op"] * per_round / wall, "records/s",
                              attempted)
    if name == "fit":
        m["evals_per_s"] = (per_round / wall, "1/s", attempted)
    for key, q in (("op_p50_s", 0.5), ("op_p90_s", 0.9), ("op_p99_s", 0.99)):
        if key in WORKLOAD_EXTRAS[name] and latencies:
            value, beyond = percentile(latencies, q)
            if key == "op_p50_s" or beyond >= 10:
                m[key] = (value, "s", attempted)
            else:
                print(f"# {key} not reported: {beyond} of {attempted} samples lie beyond it")
    return m


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of gphazard, and of the top-most numpy and scipy modules."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(parts[1]) * 1e-6))
    totals = {"gphazard": 0.0, "numpy": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):  # children precede their parent
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    return {"import.total_s": totals["gphazard"], "import.numpy_s": totals["numpy"],
            "import.scipy_s": totals["scipy"]}


def import_breakdown(env: dict, cwd: str) -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gphazard.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import gphazard.cli failed: {proc.stderr.strip()[-300:]}")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def print_trace(worker: Worker, layers: dict, listed: set) -> None:
    spans = sorted(worker.done["trace"]["spans"], key=lambda s: -s[4])
    print(f"# spans of the traced pass ({len(spans)} (name, parent) pairs, by self time)")
    print(f"# {'name':40s} {'parent':40s} {'count':>10s} {'total_s':>10s} {'self_s':>10s}")
    for name, parent, count, total, self_s in spans:
        print(f"# {name:40s} {parent:40s} {count:10d} {total:10.4f} {self_s:10.4f}")
    for name, value in layers.items():
        note = "" if name in listed else "  (printed only)"
        print(f"layer {name} {value!r} {unit(name)}{note}")

    for note in NOT_MEASURED:
        print(f"# not measured from outside the package: {note}")


def bench(args, bench_json: dict) -> int:
    root = os.path.abspath(args.root or BENCH_ROOT)
    if not os.path.isfile(os.path.join(root, "src", "gphazard", "__init__.py")):
        print(f"perfbench: {root}/src/gphazard not found; nothing to measure", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    deadline = time.perf_counter() + RUN_LIMIT_S
    scratch = os.path.join(BENCH_ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    spec = {"root": root, "workload": args.workload, "seed": args.seed, "seconds": args.seconds}

    def start(mode: str, index: int) -> Worker:
        workdir = os.path.join(work, f"{mode}{index}")
        os.makedirs(workdir)
        return Worker({**spec, "mode": mode, "workdir": workdir}, env, deadline).run()

    def stop(signum, frame):
        raise SystemExit(128 + signum)  # Worker.run kills the worker's group on the way out

    signal.signal(signal.SIGTERM, stop)
    try:
        imports = import_breakdown(env, work) if args.trace else {}
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                w = start("setup", i)
                if w.setup_s is None:
                    print(f"perfbench: set-up failed (exit {w.exit_code})", file=sys.stderr)
                    return 1
                setups.append(w.setup_s)
        worker = start("trace" if args.trace else "run", 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if worker.setup_s is None:
        print(f"perfbench: set-up failed (exit {worker.exit_code})", file=sys.stderr)
        return 1

    for ev in worker.ops:
        if ev["status"] != "ok":
            print(f"# failed op (pass {ev.get('pass', 0)}, op {ev['op']}): {ev['status']} "
                  f"{ev['detail']}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if not args.trace:
        setups.append(worker.setup_s)
        metrics = end_to_end(args.workload, worker, setups)
        attempted, failed, correct = summarize(worker.pass_ops(0))
        for name, (value, metric_unit, n) in metrics.items():
            print(f"metric {name} {value!r} {metric_unit} n={n}")
        listed = bench_json["end_to_end"]
    else:
        if worker.done is None:
            print("perfbench: the traced run did not finish", file=sys.stderr)
            return 1
        untraced = round_wall(worker.pass_ops(0))
        traced_ops = worker.pass_ops(1)
        traced = round_wall(traced_ops)
        total = sum(ev["lat"] for ev in traced_ops)
        layers = {**imports, **per_layer(worker.done["trace"], total)}
        layers["trace.overhead_ratio"] = traced / untraced
        names = {m["name"] for m in bench_json["per_layer"]}
        print_trace(worker, layers, names)
        attempted, failed, correct = summarize(traced_ops)
        correct = correct and summarize(worker.pass_ops(0))[2]
        metrics = {name: (value, None, None) for name, value in layers.items()}
        listed = bench_json["per_layer"]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}
    for m in listed:
        if m["name"] not in metrics:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        result["metrics"][m["name"]] = {"value": metrics[m["name"]][0], "unit": m["unit"]}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", help="checkout whose src/gphazard is measured")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return bench(args, load_benchmark())


if __name__ == "__main__":
    sys.exit(main())

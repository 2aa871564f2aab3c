"""The four workloads: simulate, fit, validate and cli.

Every workload is a closed loop with one client: op i+1 starts only after op
i has returned, in one process, with no threads.  The amount of work in a
run is fixed by the seed and ``--seconds`` alone (ops = seconds times a
nominal rate measured at the seed commit), so a faster program finishes the
same work sooner and ``wall_s`` moves.  Where ops are short, the run splits
its ops into several equal rounds, and ``wall_s`` is the median round: on a
shared machine, single rounds of like work differ by 10-20 %.  Every op
of a run is distinct (its own random stream), so the percentiles and the
failures rest on as many distinct evaluations as there are ops.

Each workload loads different layers so that a change shows where it helps
and where it must not hurt:

* simulate -- a simulation study of many small replicates: per-record
  sampling, Kaplan-Meier and the likelihood; the defective dfr model
  exercises the inf-to-censored path.
* fit -- the loop an MCMC or prior-predictive user runs: hyperprior draw,
  gamma-process draw at K=1000, a fresh model, its likelihood on 2e4
  records.  No inversion, no per-record loop, no Kaplan-Meier.
* validate -- time to a verified result: the documented 43-check suite, the
  only workload that loads the mixture inverter and the scalar-call path.
* cli -- the documented interface: interpreter start and import on every
  op, CSV/JSON I/O, and Kaplan-Meier at large n.

Output checks hold for any correct implementation; none pins the random
stream.  An op ends in one status: ok; error (raised, or exited nonzero);
nonfinite (returned nan or +inf); fail_row (a FAIL row of validate);
timeout; check (an output check failed, which also makes the run incorrect).
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

TAU = 3.0
OP_LIMIT_S = 60.0  # per-op wall limit; a slower op counts as failed and ends the run
DKW_ALPHA = 1e-6


class StopRun(Exception):
    """Raised by an op that hung past the per-op limit: the run ends there."""


class Workload:
    name = ""
    rate = 1.0  # nominal ops per second at the seed commit; fixes the op count
    cycle = 1  # the op count is rounded to a multiple of this
    records_per_op = 0  # records each op simulates, estimates and scores, for records_per_s
    rounds = 1  # equal rounds of distinct ops; wall_s is the median round

    def __init__(self, seed: int, seconds: float, workdir: str, in_process: bool):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.in_process = in_process

    def setup(self) -> None:
        """Build the inputs; timed, with the import, as setup_s."""

    def fresh(self) -> None:
        """Rebuild per-pass state (models with cached skeletons) outside any timing."""

    def n_ops(self) -> int:
        """Ops in one round."""
        whole = max(1, round(self.seconds * self.rate / self.rounds / self.cycle))
        return whole * self.cycle

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[str, str]:
        return "ok", ""

    def run_pass(self, tracer, traced: bool, emit) -> None:
        """Run every round of ops in order, emitting one event before and one after each op.

        Round r runs ops r*n .. (r+1)*n - 1; n is a multiple of ``cycle``, so
        every round cycles through the same models.
        """
        n = self.n_ops()
        for r in range(self.rounds):
            for i in range(r * n, (r + 1) * n):
                if not self._run_op(i, r, tracer, traced, emit):
                    return

    def _run_op(self, i: int, r: int, tracer, traced: bool, emit) -> bool:
        """Run, time and check op i of round r; False ends the run."""
        emit({"ev": "start", "op": i, "round": r})
        tracer.on = traced
        start = time.perf_counter()
        stop = False
        try:
            with tracer.span("bench.op"):
                out = self.run_op(i)
        except StopRun as e:
            status, detail, stop = "timeout", str(e), True
        except Exception as e:  # an op that raises is a failed op, not a harness error
            status, detail = "error", f"{type(e).__name__}: {e}"
        else:
            status = None
        latency = time.perf_counter() - start
        tracer.on = False
        if status is None:
            try:
                status, detail = self.check(i, out)
            except Exception as e:  # output the checks cannot read is wrong output
                status, detail = "check", f"{type(e).__name__}: {e}"
        emit({"ev": "op", "op": i, "round": r, "lat": latency, "status": status,
              "detail": detail})
        return not stop


def _nonfinite(x: float) -> bool:
    return math.isnan(x) or x == math.inf


class Simulate(Workload):
    """One replicate: simulate n=500 at tau=3, Kaplan-Meier, log-likelihood.

    Cycles the six ``demo_models(DEMO_SEED)`` plus the defective
    ``DecreasingFailureRate(0, g)`` that validate uses.
    """

    name = "simulate"
    rate = 50.0
    rounds = 5
    cycle = 7
    n = records_per_op = 500

    def fresh(self) -> None:
        import gphazard as gp
        from gphazard.validation import DEMO_SEED, demo_models

        self.gp = gp
        # the documented models; the seed draws the replicates.  Models drawn
        # from the workload seed would make the cost of a run depend on it.
        models = demo_models(DEMO_SEED)
        g = models["ifr"].draw
        self.models = list(models.items()) + [("dfr-defective", gp.DecreasingFailureRate(0.0, g))]
        self.streams = gp.RandomStream(self.seed).split(1)

    def setup(self) -> None:
        self.fresh()

    def run_op(self, i: int):
        gp = self.gp
        model = self.models[i % len(self.models)][1]
        data = gp.simulate_dataset(model, self.n, TAU, self.streams.split(i))
        km = gp.kaplan_meier(data)
        ll = gp.log_likelihood(model, data)
        return data, km, ll

    def check(self, i: int, out) -> tuple[str, str]:
        data, km, ll = out
        name, model = self.models[i % len(self.models)]
        if _nonfinite(ll):
            return "nonfinite", f"{name}: log_likelihood={ll}"
        if data.n != self.n:
            return "check", f"{name}: {data.n} records, expected {self.n}"
        times, observed = data.times, data.observed
        if not np.all(times[~observed] == TAU) or np.any(times[observed] > TAU):
            return "check", f"{name}: censored times must equal tau"
        events = np.unique(times[observed])
        if not np.array_equal(km.breakpoints, events):
            return "check", f"{name}: Kaplan-Meier steps are not the distinct failure times"
        # censoring only at tau: on [0, tau) KM is exactly 1 - ECDF
        below = events[events < TAU]
        levels = np.asarray(km(below), dtype=float)
        ecdf = 1.0 - np.searchsorted(np.sort(times[observed]), below, side="right") / data.n
        if np.any(np.abs(levels - ecdf) > 1e-12):
            return "check", f"{name}: Kaplan-Meier differs from 1 - ECDF below tau"
        # DKW band against the model's survival on [0, tau); S is continuous and
        # decreasing, so the supremum sits at the step points
        surv = np.asarray(model.survival(np.append(below, TAU)), dtype=float)
        before = np.concatenate(([1.0], levels))  # the KM level just left of each point
        gap = float(np.max(np.abs(before - surv), initial=0.0))
        gap = max(gap, float(np.max(np.abs(levels - surv[:-1]), initial=0.0)))
        eps = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * data.n))
        if gap > eps:
            return "check", f"{name}: sup|KM - S| = {gap:.4g} > DKW bound {eps:.4g}"
        return "ok", ""


class Fit(Workload):
    """One posterior-style evaluation of a freshly drawn model on a fixed dataset."""

    name = "fit"
    rate = 95.0
    rounds = 5
    cycle = 6
    variants = ("ifr", "dfr", "lwb", "sbt", "mbt", "lcv")
    n_records = 20_000
    K = 1000

    def setup(self) -> None:
        import gphazard as gp
        from gphazard.validation import DEMO_SEED, demo_models

        self.gp = gp
        lwb = demo_models(DEMO_SEED)["lwb"]  # the documented model; the seed draws the records
        self.data = gp.simulate_dataset(lwb, self.n_records, TAU, gp.RandomStream(self.seed).split(1))
        self.hyper = gp.HyperParams(a1=3.0, a2=1.0)  # mean alpha 3, as in the demo prior
        self.streams = gp.RandomStream(self.seed).split(2)

    def run_op(self, i: int):
        gp = self.gp
        stream = self.streams.split(i)
        variant = self.variants[i % len(self.variants)]
        alpha, beta, _phi = gp.sample_hyperparams(self.hyper, stream)
        bases = [gp.ExponentialBase(1.0)]
        if variant in ("sbt", "mbt"):
            bases.append(gp.NormalBase(2.0, 1.0))
        draws = [
            gp.draw_gamma_process(gp.GammaProcessParams(alpha, beta, self.K, base), stream)
            for base in bases
        ]
        model = gp.draw_model_params(variant, draws, self.hyper, stream, a=0.6, pi=0.5)
        return gp.log_likelihood(model, self.data)

    def check(self, i: int, ll) -> tuple[str, str]:
        if _nonfinite(ll):
            return "nonfinite", f"{self.variants[i % len(self.variants)]}: log_likelihood={ll}"
        return "ok", ""


class Validate(Workload):
    """The documented suite, run_validation at the documented seed; one op per check.

    The suite's models and statistical checks depend on its seed, and so
    does its run time, so the workload always runs the documented
    configuration that ``gphazard validate`` runs.  Check
    latencies come from the times at which the suite constructs each
    ``CheckResult``.
    """

    name = "validate"

    def setup(self) -> None:
        import gphazard.validation

        self.validation = gphazard.validation

    def run_pass(self, tracer, traced: bool, emit) -> None:
        val = self.validation
        real = val.CheckResult
        seen = []
        last = [0.0]

        def recording(*args, **kwargs):
            result = real(*args, **kwargs)
            now = time.perf_counter()
            status = "ok" if result.passed else "fail_row"
            emit({"ev": "op", "op": len(seen), "lat": now - last[0], "status": status,
                  "detail": "" if result.passed else result.name})
            seen.append(result)
            last[0] = time.perf_counter()
            emit({"ev": "start", "op": len(seen)})
            return result

        val.CheckResult = recording
        emit({"ev": "start", "op": 0})
        tracer.on = traced
        last[0] = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                results = val.run_validation(val.DEMO_SEED)
        except Exception as e:
            tracer.on = False
            emit({"ev": "op", "op": len(seen), "lat": time.perf_counter() - last[0],
                  "status": "error", "detail": f"{type(e).__name__}: {e}"})
            return
        finally:
            tracer.on = False
            val.CheckResult = real
        emit({"ev": "unstart"})
        problem = self._inconsistent(results, seen)
        if problem:
            emit({"ev": "op", "op": len(seen), "lat": 0.0, "status": "check", "detail": problem})

    @staticmethod
    def _inconsistent(results, seen) -> str:
        if len(results) != len(seen) or not results:
            return f"suite returned {len(results)} results, {len(seen)} were constructed"
        names = [r.name for r in results]
        if len(set(names)) != len(names):
            return "check names are not unique"
        for r in results:
            if r.passed != (r.value <= r.limit):
                return f"{r.name}: passed={r.passed} but value={r.value} limit={r.limit}"
        return ""


_COUNT = re.compile(r"\((\d+) (rows|steps)")


def _read_csv(path: str) -> tuple[str, list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


class Cli(Workload):
    """The CLI subcommands in a fixed cycle, one child process at a time."""

    name = "cli"
    rate = 1.0 / 15.0  # one cycle of eight commands takes about 15 s at the seed commit
    cycle = 8
    commands = (
        ("draw", "draw --config prior.json --K 10000 --out draw.json"),
        ("curves-mbt", "curves --config mbt.json --points 20001 --out mbt_curves.csv"),
        ("curves-lcv", "curves --config lcv.json --out lcv_curves.csv"),
        ("simulate-lwb", "simulate --config lwb.json --n 50000 --tau 3 --out large.csv"),
        ("simulate-mbt", "simulate --config mbt.json --n 5000 --tau 3 --out small.csv"),
        ("loglik", "loglik --model lwb_model.json --data large.csv --tau 3"),
        ("km-large", "km --data large.csv --out large_km.csv"),
        ("km-small", "km --data small.csv --out small_km.csv"),
    )

    def n_ops(self) -> int:
        return max(1, round(self.seconds * self.rate)) * self.cycle

    def setup(self) -> None:
        import gphazard.cli

        self.cli = gphazard.cli
        exp_prior = {"alpha": 3.0, "beta": 1.0, "K": 100,
                     "base": {"kind": "exponential", "rate": 1.0}}
        configs = {
            # no K inside the prior, so that --K sets the truncation level
            "prior.json": {"seed": self.seed, "prior": {"alpha": 3.0, "beta": 1.0}},
            "mbt.json": {"seed": self.seed, "model": "mbt", "pi": 0.5, "lambda01": 0.1,
                         "lambda02": 0.1, "prior": exp_prior,
                         "prior2": {"alpha": 3.0, "beta": 1.0, "K": 100,
                                    "base": {"kind": "normal", "mean": 2.0, "sd": 1.0}}},
            "lcv.json": {"seed": self.seed, "model": "lcv", "lambda0": 1.0, "w0": -1.0,
                         "prior": {"file": "draw.json"}},
            "lwb.json": {"seed": self.seed, "model": "lwb", "lambda0": 0.1, "a": 0.6,
                         "prior": exp_prior},
        }
        for name, cfg in configs.items():
            self._write(name, json.dumps(cfg, indent=2) + "\n")
        # the model the simulate-lwb command draws, for loglik
        from gphazard import RandomStream

        model = self.cli.build_model(configs["lwb.json"], RandomStream(self.seed))
        self._write("lwb_model.json", json.dumps(model.to_dict()) + "\n")
        self.replayed = False

    def _write(self, name: str, text: str) -> None:
        with open(os.path.join(self.workdir, name), "w") as fh:
            fh.write(text)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _main(self, argv: list[str]) -> tuple[int, str, str]:
        if not self.in_process:
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "gphazard.cli", *argv], cwd=self.workdir,
                    capture_output=True, text=True, timeout=OP_LIMIT_S,
                )
            except subprocess.TimeoutExpired:
                raise StopRun(f"gphazard {' '.join(argv)} ran past {OP_LIMIT_S:g} s") from None
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 1
        finally:
            os.chdir(cwd)
        return code, out.getvalue(), err.getvalue()

    def run_op(self, i: int):
        return self._main(self.commands[i % self.cycle][1].split())

    def check(self, i: int, out) -> tuple[str, str]:
        name = self.commands[i % self.cycle][0]
        code, stdout, stderr = out
        if code != 0:
            return "error", f"{name}: exit {code}: {stderr.strip()[-200:]}"
        if name == "loglik" and _nonfinite(float(stdout.strip())):
            return "nonfinite", f"{name}: printed {stdout.strip()}"
        problem = getattr(self, "_check_" + name.split("-")[0])(name, stdout)
        if problem:
            return "check", f"{name}: {problem}"
        return "ok", ""

    def _printed_count(self, stdout: str, rows: int) -> str:
        m = _COUNT.search(stdout)
        if m and int(m.group(1)) != rows:
            return f"printed {m.group(1)} {m.group(2)}, file has {rows}"
        return ""

    def _check_draw(self, name: str, stdout: str) -> str:
        header, rows = _read_csv(self._path("draw.csv"))
        if header != "k,theta,weight" or len(rows) != 10_000:
            return f"draw.csv has header {header!r} and {len(rows)} rows, expected 10000"
        with open(self._path("draw.json")) as fh:
            draw = json.load(fh)
        if len(draw["thetas"]) != 10_000 or len(draw["weights"]) != 10_000:
            return "draw.json does not hold 10000 atoms"
        return ""

    def _check_curves(self, name: str, stdout: str) -> str:
        out = "mbt_curves.csv" if name == "curves-mbt" else "lcv_curves.csv"
        points = 20_001 if name == "curves-mbt" else 201
        header, rows = _read_csv(self._path(out))
        if header != "t,hazard,cum_hazard,density,survival":
            return f"header {header!r}"
        if len(rows) < points or any(len(r) != 5 for r in rows):
            return f"{len(rows)} rows, expected at least {points} of five columns"
        return self._printed_count(stdout, len(rows))

    def _check_simulate(self, name: str, stdout: str) -> str:
        out, n = ("large.csv", 50_000) if name == "simulate-lwb" else ("small.csv", 5_000)
        header, rows = _read_csv(self._path(out))
        if header != "time,status" or len(rows) != n:
            return f"header {header!r} and {len(rows)} rows, expected {n}"
        for t, status in rows:
            if status == "0" and float(t) != TAU or status == "1" and not 0.0 < float(t) <= TAU:
                return f"record ({t}, {status}) is not a failure in (0, tau] or censored at tau"
        if name == "simulate-mbt" and not self.replayed:
            self.replayed = True
            return self._replay(out)
        return ""

    def _replay(self, out: str) -> str:
        """Feed the sidecar back through --config; the output must match byte for byte."""
        code, _, stderr = self._main(
            ["simulate", "--config", out + ".config.json", "--out", "replay.csv"]
        )
        if code != 0:
            return f"sidecar replay exited {code}: {stderr.strip()[-200:]}"
        with open(self._path(out), "rb") as a, open(self._path("replay.csv"), "rb") as b:
            if a.read() != b.read():
                return "sidecar replay does not reproduce the output byte for byte"
        return ""

    def _check_loglik(self, name: str, stdout: str) -> str:
        from gphazard import log_likelihood, model_from_dict, read_dataset_csv

        printed = float(stdout.strip())
        with open(self._path("lwb_model.json")) as fh:
            model = model_from_dict(json.load(fh))
        expected = log_likelihood(model, read_dataset_csv(self._path("large.csv"), tau=TAU))
        if printed == expected or abs(printed - expected) <= 1e-9 * abs(expected):
            return ""
        return f"printed {printed!r}, in-process log_likelihood {expected!r}"

    def _check_km(self, name: str, stdout: str) -> str:
        data, out = ("large.csv", "large_km.csv") if name == "km-large" else (
            "small.csv", "small_km.csv")
        _, records = _read_csv(self._path(data))
        events = {float(t) for t, status in records if status == "1"}
        header, rows = _read_csv(self._path(out))
        if header != "t,value" or len(rows) != len(events):
            return f"header {header!r} and {len(rows)} steps, expected {len(events)}"
        values = [float(v) for _, v in rows]
        if any(b > a for a, b in zip(values, values[1:])) or not all(0.0 <= v <= 1.0 for v in values):
            return "Kaplan-Meier values are not non-increasing in [0, 1]"
        return self._printed_count(stdout, len(rows))


WORKLOADS = {w.name: w for w in (Simulate, Fit, Validate, Cli)}

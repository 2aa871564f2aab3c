"""Spans and counters around gphazard's public names, installed from outside the package.

Wrappers replace public names in place: the methods of each concrete model
class, the sampler methods of ``RandomStream`` and the base measures, and
module functions in every ``gphazard`` module that binds them
(``from .stats import kaplan_meier`` also binds ``validation.kaplan_meier``
and ``cli.kaplan_meier``).  Spans are kept in memory, aggregated per
(name, parent) as count, total time and self time, where self time is a
span's duration minus the time its child spans cover.  Nothing is written
until the run ends.

Counting conventions: calls nested inside other wrapped calls count too
(``RandomStream.uniforms`` counts n ``uniform`` calls, ``survival`` counts
the ``cum_hazard`` it calls).  The first call of ``cum_hazard``,
``cum_hazard_limit`` or ``invert_cum_hazard`` on each model instance is
recorded as the span ``models.first_eval``, because that call builds the
instance's skeleton (``_pwl``/``_pex``, the mbt knot table); it still counts
in its method's calls and points.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import weakref

import numpy as np

MODEL_CLASSES = (
    "IncreasingFailureRate",
    "DecreasingFailureRate",
    "LoWengBathtub",
    "SuperpositionBathtub",
    "MixtureBathtub",
    "LogConvexHazard",
)
EVAL_METHODS = ("hazard", "cum_hazard", "survival", "density")
# the calls that build a model's cached skeleton on first use
SKELETON_METHODS = ("cum_hazard", "cum_hazard_limit", "invert_cum_hazard")
OTHER_METHODS = ("invert_cum_hazard", "sample_failure", "cum_hazard_limit", "breakpoints")
RNG_METHODS = ("uniform", "uniforms", "gamma", "beta", "exponential", "normal", "categorical", "split")

# Per-layer quantities that the wrappers cannot see, printed with every traced run.
NOT_MEASURED = (
    "models.first_eval.self_s: the skeleton builders are private, so the span is the whole "
    "first skeleton-dependent call on each instance, including that call's own evaluation",
    "models.invert.mbt: brentq iterations and bracket expansions happen inside a private "
    "method; only targets and time are measured",
    "rng: draws made by numpy inside the package without RandomStream are not seen",
)


def _points(t) -> tuple[int, bool]:
    if isinstance(t, (float, int)):
        return 1, True
    arr = np.asarray(t)
    return arr.size, arr.ndim == 0


class Tracer:
    """Aggregated spans and counters; recording happens only while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.stack: list[list] = []  # open spans: [name, time covered by children]
        self.spans: dict[tuple[str, str], list] = {}  # (name, parent) -> [count, total, self]
        self.counts: dict[str, float] = {}
        self._built: weakref.WeakSet = weakref.WeakSet()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str):
        """Context manager recording one span (used for the per-op root span)."""
        return _Span(self, name)

    def _close(self, frame: list, duration: float) -> None:
        stack = self.stack
        stack.pop()
        if stack:
            parent = stack[-1]
            parent[1] += duration
            key = (frame[0], parent[0])
        else:
            key = (frame[0], "-")
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]

    def wrap(self, name: str, fn, after=None, skeleton: bool = False):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)`` adds counts."""
        tracer = self
        clock = time.perf_counter
        built = self._built

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = name
            if skeleton and args[0] not in built:
                built.add(args[0])
                span = "models.first_eval"
            frame = [span, 0.0]
            tracer.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, clock() - start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public name listed in this module; call after importing gphazard."""
        import gphazard
        import gphazard.cli  # noqa: F401  (binds names that must be wrapped too)
        import gphazard.validation  # noqa: F401
        from gphazard import gamma_process, models

        self._wrap_methods(gphazard.RandomStream, {m: f"rng.{m}" for m in RNG_METHODS})
        self._wrap_methods(gamma_process.NormalBase, {"sample": "gamma_process.normal_base.sample"})
        self._wrap_methods(
            gamma_process.ExponentialBase, {"sample": "gamma_process.exponential_base.sample"}
        )
        self._wrap_methods(
            gamma_process.GammaProcessDraw,
            {m: "gamma_process.serialize" for m in ("to_dict", "from_dict", "to_json", "from_json")},
        )
        for cls_name in MODEL_CLASSES:
            cls = getattr(models, cls_name)
            variant = cls.variant
            names = {m: f"models.{variant}.{m}" for m in EVAL_METHODS + OTHER_METHODS}
            names["__init__"] = "models.build"
            self._wrap_methods(cls, names, variant)

        self._wrap_function("gamma_process", "draw_gamma_process", "gamma_process.draw",
                            lambda a, k, r: self.count("gamma_process.draw.atoms", r.n_atoms))
        self._wrap_function("models", "simulate_dataset", "models.simulate_dataset",
                            self._after_simulate)
        self._wrap_function("models", "draw_model_params", "models.build")
        self._wrap_function("models", "model_from_dict", "models.build")
        self._wrap_function("likelihood", "log_likelihood", "likelihood.log_likelihood",
                            self._after_loglik)
        self._wrap_function("likelihood", "sample_hyperparams", "likelihood.sample_hyperparams")
        self._wrap_function("stats", "kaplan_meier", "stats.kaplan_meier", self._after_km)
        self._wrap_function("stats", "ks_distance", "stats.ks_distance")
        self._wrap_function("datasets", "write_dataset_csv", "datasets.write_csv",
                            lambda a, k, r: self.count("datasets.write_csv.rows", a[0].n))
        self._wrap_function("datasets", "read_dataset_csv", "datasets.read_csv",
                            lambda a, k, r: self.count("datasets.read_csv.rows", r.n))
        self._wrap_function("validation", "integrate_hazard", "validation.integrate_hazard")
        self._wrap_function("validation", "run_validation", "validation.run_validation",
                            lambda a, k, r: self.count("validation.checks_failed",
                                                       sum(not c.passed for c in r)))
        self._wrap_function("cli", "main", "cli.main")
        self._wrap_function("cli", "build_model", "cli.build_model")

    def _wrap_methods(self, cls, names: dict[str, str], variant: str | None = None) -> None:
        for method, span in names.items():
            raw = next((c.__dict__[method] for c in cls.__mro__ if method in c.__dict__), None)
            if raw is None:
                continue
            after = self._after_model(variant, method) if variant else None
            skeleton = variant is not None and method in SKELETON_METHODS
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span, raw.__func__))
            else:
                wrapped = self.wrap(span, raw, after, skeleton)
            setattr(cls, method, wrapped)

    def _wrap_function(self, module: str, attr: str, span: str, after=None) -> None:
        """Replace ``attr`` in every gphazard module that binds the same function object."""
        home = sys.modules.get(f"gphazard.{module}")
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapped = self.wrap(span, original, after)
        for name, mod in list(sys.modules.items()):
            if (name == "gphazard" or name.startswith("gphazard.")) and getattr(
                mod, attr, None
            ) is original:
                setattr(mod, attr, wrapped)

    # -- counters ---------------------------------------------------------------

    def _after_model(self, variant: str, method: str):
        count = self.count
        if method in EVAL_METHODS:
            def after(args, kwargs, result):
                n, scalar = _points(args[1] if len(args) > 1 else kwargs["t"])
                count(f"models.{method}.calls")
                count(f"models.{method}.points", n)
                if scalar:
                    count("models.eval.scalar_calls")
            return after
        if method == "invert_cum_hazard":
            def after(args, kwargs, result):
                n, _ = _points(args[1] if len(args) > 1 else kwargs["target"])
                count("models.invert.calls")
                count("models.invert.targets", n)
                count(f"models.invert.{variant}.targets", n)
            return after
        if method == "sample_failure":
            def after(args, kwargs, result):
                count("models.sample_failure.calls")
                if result == math.inf:
                    count("models.sample_failure.inf")
            return after
        return None

    def _after_simulate(self, args, kwargs, result) -> None:
        self.count("models.simulate_dataset.records", result.n)
        self.count("models.simulate_dataset.censored", result.n - result.n_observed)

    def _after_loglik(self, args, kwargs, result) -> None:
        self.count("likelihood.log_likelihood.records", args[1].n)
        if not math.isfinite(result):
            self.count("likelihood.log_likelihood.nonfinite")

    def _after_km(self, args, kwargs, result) -> None:
        self.count("stats.kaplan_meier.rows", args[0].n)
        self.count("stats.kaplan_meier.steps", result.breakpoints.size)

    # -- report -----------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "spans": [[n, p, *agg] for (n, p), agg in self.spans.items()],
            "counts": dict(self.counts),
        }


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.frame = [name, 0.0]

    def __enter__(self):
        if self.tracer.on:
            self.tracer.stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.tracer.on:
            self.tracer._close(self.frame, time.perf_counter() - self.start)
        return False


def _sum(spans, field: int, match) -> float:
    return float(sum(s[field] for s in spans if match(s[0])))


# Times of layers that some workloads never reach.  A time that reads 0 on
# every run of a workload cannot be told from a stuck clock, so the result
# line carries these as shares of the traced pass's wall time; the traced
# run prints the seconds as well.  The inversion gets an inclusive total
# besides its self time: mbt's root finder calls the wrapped ``cum_hazard``,
# so most of its cost is self time of ``models.cum_hazard``, not of the
# inversion.
SHARED_TIMES = (
    "gamma_process.draw.self_s",
    "gamma_process.serialize.self_s",
    "models.invert.self_s",
    "models.invert.total_s",
    "models.invert.mbt.self_s",
    "models.invert.mbt.total_s",
    "models.sample_failure.self_s",
    "models.simulate_dataset.self_s",
    "models.build.self_s",
    "likelihood.sample_hyperparams.self_s",
    "stats.kaplan_meier.self_s",
    "stats.ks_distance.self_s",
    "datasets.write_csv.self_s",
    "datasets.read_csv.self_s",
    "validation.integrate_hazard.self_s",
    "validation.run_validation.self_s",
    "cli.self_s",
)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("points_per_call"):
        return "points/call"
    return "count"


def per_layer(snapshot: dict, wall_s: float) -> dict[str, float]:
    """Derive the per-layer metrics from one traced pass's spans and counters.

    ``wall_s`` is the traced pass's wall time, the base of the ``*.self_share``
    metrics.
    """
    spans = snapshot["spans"]  # [name, parent, count, total, self]
    counts = snapshot["counts"]

    def calls(name):
        return _sum(spans, 2, lambda n: n == name)

    def self_s(match):
        return _sum(spans, 4, match)

    def total_s(match):
        return _sum(spans, 3, match)

    def model_method(method):
        return lambda n: n.startswith("models.") and n.endswith("." + method) and n.count(".") == 2

    out: dict[str, float] = {}
    for m in RNG_METHODS:
        out[f"rng.{m}.calls"] = calls(f"rng.{m}")
    out["rng.self_s"] = self_s(lambda n: n.startswith("rng."))

    out["gamma_process.draw.calls"] = calls("gamma_process.draw")
    out["gamma_process.draw.atoms"] = counts.get("gamma_process.draw.atoms", 0)
    out["gamma_process.draw.self_s"] = self_s(lambda n: n == "gamma_process.draw")
    accepted = calls("gamma_process.normal_base.sample")
    proposals = sum(
        s[2] for s in spans if s[0] == "rng.normal" and s[1] == "gamma_process.normal_base.sample"
    )
    out["gamma_process.normal_base.accept_ratio"] = accepted / proposals if proposals else 0.0
    out["gamma_process.serialize.self_s"] = self_s(lambda n: n == "gamma_process.serialize")
    out["gamma_process.self_s"] = self_s(lambda n: n.startswith("gamma_process."))

    out["models.first_eval.calls"] = calls("models.first_eval")
    out["models.first_eval.self_s"] = self_s(lambda n: n == "models.first_eval")
    points = 0.0
    n_calls = 0.0
    for m in EVAL_METHODS:
        out[f"models.{m}.calls"] = counts.get(f"models.{m}.calls", 0)
        out[f"models.{m}.points"] = counts.get(f"models.{m}.points", 0)
        out[f"models.{m}.self_s"] = self_s(model_method(m))
        points += out[f"models.{m}.points"]
        n_calls += out[f"models.{m}.calls"]
    out["models.eval.scalar_calls"] = counts.get("models.eval.scalar_calls", 0)
    out["models.eval.points_per_call"] = points / n_calls if n_calls else 0.0
    out["models.invert.calls"] = counts.get("models.invert.calls", 0)
    out["models.invert.targets"] = counts.get("models.invert.targets", 0)
    out["models.invert.self_s"] = self_s(model_method("invert_cum_hazard"))
    out["models.invert.total_s"] = total_s(model_method("invert_cum_hazard"))
    out["models.invert.mbt.targets"] = counts.get("models.invert.mbt.targets", 0)
    out["models.invert.mbt.self_s"] = self_s(lambda n: n == "models.mbt.invert_cum_hazard")
    out["models.invert.mbt.total_s"] = total_s(lambda n: n == "models.mbt.invert_cum_hazard")
    out["models.sample_failure.calls"] = counts.get("models.sample_failure.calls", 0)
    out["models.sample_failure.inf"] = counts.get("models.sample_failure.inf", 0)
    out["models.sample_failure.self_s"] = self_s(model_method("sample_failure"))
    out["models.simulate_dataset.calls"] = calls("models.simulate_dataset")
    out["models.simulate_dataset.records"] = counts.get("models.simulate_dataset.records", 0)
    out["models.simulate_dataset.censored"] = counts.get("models.simulate_dataset.censored", 0)
    out["models.simulate_dataset.self_s"] = self_s(lambda n: n == "models.simulate_dataset")
    out["models.build.self_s"] = self_s(lambda n: n == "models.build")
    out["models.self_s"] = self_s(lambda n: n.startswith("models."))

    out["likelihood.log_likelihood.calls"] = calls("likelihood.log_likelihood")
    out["likelihood.log_likelihood.records"] = counts.get("likelihood.log_likelihood.records", 0)
    out["likelihood.log_likelihood.self_s"] = self_s(lambda n: n == "likelihood.log_likelihood")
    out["likelihood.log_likelihood.nonfinite"] = counts.get(
        "likelihood.log_likelihood.nonfinite", 0
    )
    out["likelihood.sample_hyperparams.self_s"] = self_s(
        lambda n: n == "likelihood.sample_hyperparams"
    )

    out["stats.kaplan_meier.calls"] = calls("stats.kaplan_meier")
    out["stats.kaplan_meier.rows"] = counts.get("stats.kaplan_meier.rows", 0)
    out["stats.kaplan_meier.steps"] = counts.get("stats.kaplan_meier.steps", 0)
    out["stats.kaplan_meier.self_s"] = self_s(lambda n: n == "stats.kaplan_meier")
    out["stats.ks_distance.calls"] = calls("stats.ks_distance")
    out["stats.ks_distance.self_s"] = self_s(lambda n: n == "stats.ks_distance")

    for kind in ("write_csv", "read_csv"):
        out[f"datasets.{kind}.rows"] = counts.get(f"datasets.{kind}.rows", 0)
        out[f"datasets.{kind}.self_s"] = self_s(lambda n, k=kind: n == f"datasets.{k}")

    out["validation.integrate_hazard.calls"] = calls("validation.integrate_hazard")
    out["validation.integrate_hazard.self_s"] = self_s(
        lambda n: n == "validation.integrate_hazard"
    )
    out["validation.run_validation.self_s"] = self_s(lambda n: n == "validation.run_validation")
    out["validation.checks_failed"] = counts.get("validation.checks_failed", 0)

    out["cli.main.calls"] = calls("cli.main")
    out["cli.self_s"] = self_s(lambda n: n.startswith("cli."))
    for name in SHARED_TIMES:
        out[name[: -len("_s")] + "_share"] = out[name] / wall_s
    return out

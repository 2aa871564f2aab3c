"""Built-in verification suite behind the ``validate`` CLI command.

Runs distribution-level and identity checks on a documented demonstration
configuration (alpha=3, beta=1, K=100, unit-rate exponential base, a
Normal(2,1) base for the late component of the two-draw models) and
reports one measured-value-versus-limit row per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .gamma_process import (
    ExponentialBase,
    GammaProcessDraw,
    GammaProcessParams,
    NormalBase,
    draw_gamma_process,
    expected_tail_mass,
)
from .likelihood import log_likelihood
from .models import (
    DecreasingFailureRate,
    HazardModel,
    IncreasingFailureRate,
    LoWengBathtub,
    LogConvexHazard,
    MixtureBathtub,
    SuperpositionBathtub,
    simulate_dataset,
)
from .rng import RandomStream
from .stats import kaplan_meier, ks_distance

__all__ = [
    "CheckResult",
    "DEMO_SEED",
    "demo_prior",
    "demo_prior_late",
    "demo_models",
    "run_validation",
    "format_report",
]

DEMO_SEED = 20250812

# Scalar parameters used throughout the demonstration configuration; the
# source figures never state them, so they are fixed and documented here.
DEMO_LAMBDA0 = 0.1
DEMO_A = 0.6
DEMO_PI = 0.5
DEMO_LCV_LAMBDA0 = 1.0
DEMO_LCV_W0 = -1.0
DEMO_T_MAX = 5.0

_GL_POINTS = 10  # nodes of the Gauss-Legendre rule
_QUAD_RTOL = 1e-13  # halves against whole, relative, per segment
_QUAD_MAX_ROUNDS = 12  # bisection rounds; the demo models converge within 2


@dataclass
class CheckResult:
    name: str
    value: float
    limit: float
    passed: bool
    note: str = ""


def demo_prior() -> GammaProcessParams:
    return GammaProcessParams(alpha=3.0, beta=1.0, n_atoms=100, base=ExponentialBase(1.0))


def demo_prior_late() -> GammaProcessParams:
    return GammaProcessParams(alpha=3.0, beta=1.0, n_atoms=100, base=NormalBase(2.0, 1.0))


def demo_models(seed: int = DEMO_SEED) -> dict[str, HazardModel]:
    """All six models sharing one early draw (plus a late draw where needed)."""
    stream = RandomStream(seed)
    g = draw_gamma_process(demo_prior(), stream.split(0))
    g_late = draw_gamma_process(demo_prior_late(), stream.split(1))
    return {
        "ifr": IncreasingFailureRate(DEMO_LAMBDA0, g),
        "dfr": DecreasingFailureRate(DEMO_LAMBDA0, g),
        "lwb": LoWengBathtub(DEMO_LAMBDA0, DEMO_A, g),
        "sbt": SuperpositionBathtub(DEMO_LAMBDA0, g, g_late),
        "mbt": MixtureBathtub(DEMO_PI, DEMO_LAMBDA0, g, DEMO_LAMBDA0, g_late),
        "lcv": LogConvexHazard(DEMO_LCV_LAMBDA0, DEMO_LCV_W0, g),
    }


def integrate_hazard(model: HazardModel, t_end):
    """Adaptive Gauss-Legendre quadrature of the hazard over [0, t_end], split at breakpoints.

    ``t_end`` may be a scalar (a float is returned) or an array of
    endpoints.  Every segment between consecutive breakpoints of every
    endpoint is integrated at once, one ``hazard`` call per round: a
    segment is accepted when the rule on its two halves agrees with the
    rule on the whole to a relative ``_QUAD_RTOL``, and is otherwise split
    in two.  Raises RuntimeError when the hazard is not finite or a segment
    has not converged after ``_QUAD_MAX_ROUNDS`` rounds.
    """
    ends = np.asarray(t_end, dtype=float)
    flat = ends.ravel()
    if not np.all(np.isfinite(flat) & (flat >= 0.0)):
        raise ValueError("t_end must be finite and non-negative")
    rule = np.polynomial.legendre.leggauss(_GL_POINTS)  # numpy.polynomial loads only here
    pts = model.breakpoints()
    knots = np.concatenate(([0.0], pts[pts > 0.0]))
    # endpoint i owns the segments from its count[i] knots below it, the last one cut at t_end
    count = np.searchsorted(knots, flat, side="left")
    owner = np.repeat(np.arange(flat.size), count)
    j = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    lo = knots[j]
    hi = np.minimum(np.append(knots, np.inf)[j + 1], flat[owner])
    total = np.zeros(flat.size)
    whole = _gauss_legendre(model, lo, hi, rule)
    for _ in range(_QUAD_MAX_ROUNDS):
        if not lo.size:
            break
        mid = 0.5 * (lo + hi)
        left, right = np.split(_gauss_legendre(model, np.concatenate((lo, mid)),
                                               np.concatenate((mid, hi)), rule), 2)
        halves = left + right
        if not np.all(np.isfinite(halves)):
            raise RuntimeError("hazard is not finite on [0, t_end]; cannot integrate it")
        done = np.abs(halves - whole) <= _QUAD_RTOL * np.abs(halves)
        np.add.at(total, owner[done], halves[done])
        keep = ~done
        lo, hi = np.concatenate((lo[keep], mid[keep])), np.concatenate((mid[keep], hi[keep]))
        owner = np.tile(owner[keep], 2)
        whole = np.concatenate((left[keep], right[keep]))
    if lo.size:
        raise RuntimeError(f"hazard quadrature did not converge in {_QUAD_MAX_ROUNDS} rounds")
    return float(total[0]) if ends.ndim == 0 else total.reshape(ends.shape)


def _gauss_legendre(model: HazardModel, lo, hi, rule) -> np.ndarray:
    """The Gauss-Legendre ``rule`` (nodes, weights on [-1, 1]) for the hazard on each [lo, hi].

    All segments' nodes go to the model in one ``hazard`` call.
    """
    nodes, weights = rule
    half = 0.5 * (hi - lo)
    at = (lo + half)[:, None] + half[:, None] * nodes
    h = np.asarray(model.hazard(at.ravel()), dtype=float).reshape(at.shape)
    return half * (h @ weights)


def _check(name, value, limit, note="", scale=1.0) -> CheckResult:
    limit = limit * scale
    return CheckResult(name=name, value=float(value), limit=float(limit),
                       passed=bool(value <= limit), note=note)


def _closure_checks(stream, scale) -> list[CheckResult]:
    draw = draw_gamma_process(demo_prior(), stream)
    unscaled_gap = abs(draw.unscaled_weights.sum() - 1.0)
    scaled_gap = abs(draw.weights.sum() - draw.gamma) / draw.gamma
    return [
        _check("closure-unscaled-weights", unscaled_gap, 1e-12, "sum(w~)=1", scale),
        _check("closure-scaled-weights", scaled_gap, 1e-12, "sum(w)=gamma (rel)", scale),
    ]


def _complement_check(stream, scale) -> CheckResult:
    draw = draw_gamma_process(demo_prior(), stream)
    ts = stream.uniforms(50) * 8.0
    gap = max(
        abs(draw.integral_below(t) + draw.integral_above(t) - draw.gamma) / draw.gamma
        for t in ts
        if t not in draw.thetas
    )
    return _check("integral-complement", gap, 1e-12, "below+above=gamma (rel)", scale)


def _truncation_checks(stream, scale) -> list[CheckResult]:
    reps = 1000
    tails4 = np.empty(reps)
    tails40 = np.empty(reps)
    for i in range(reps):
        sticks = stream.betas(1.0, 3.0, 40)
        remaining = np.cumprod(1.0 - sticks)
        tails4[i] = remaining[3]
        tails40[i] = remaining[39]
    out = []
    for k, tails in ((4, tails4), (40, tails40)):
        target = expected_tail_mass(3.0, k)
        se = tails.std(ddof=1) / math.sqrt(reps)
        out.append(
            _check(
                f"truncation-tail-mass[k={k}]",
                abs(tails.mean() - target),
                3.0 * se,
                f"|mean-{target:.3g}| vs 3 SE",
                scale,
            )
        )
    return out


def _roundtrip_checks(models, stream, scale) -> list[CheckResult]:
    out = []
    for name, model in models.items():
        lam_max = float(model.cum_hazard(DEMO_T_MAX))
        targets = stream.uniforms(10_000) * lam_max
        t = np.asarray(model.invert_cum_hazard(targets))
        back = np.asarray(model.cum_hazard(t))
        err = np.max(np.abs(back - targets) / np.maximum(1.0, targets))
        out.append(_check(f"inversion-roundtrip[{name}]", err, 1e-9, "rel to max(1,x)", scale))
    return out


def _quadrature_checks(models, stream, scale) -> list[CheckResult]:
    out = []
    for name, model in models.items():
        ts = stream.uniforms(20) * DEMO_T_MAX
        exact = np.asarray(model.cum_hazard(ts))
        numeric = integrate_hazard(model, ts)
        err = np.max(np.abs(numeric - exact) / np.maximum(np.abs(exact), 1e-300))
        out.append(_check(f"quadrature-consistency[{name}]", err, 1e-6, "20 points, rel", scale))
    return out


def _sampling_checks(models, stream, scale) -> list[CheckResult]:
    out = []
    for i, (name, model) in enumerate(models.items()):
        s = stream.split(i)
        samples = model.sample_failures(10_000, s)
        d = ks_distance(samples, lambda x: 1.0 - np.asarray(model.survival(x)))
        out.append(_check(f"sampling-ks[{name}]", d, 0.025, "n=10^4 vs analytic", scale))
    return out


def _identity_checks(models, stream, scale) -> list[CheckResult]:
    out = []
    ts = stream.uniforms(1000) * DEMO_T_MAX

    sbt: SuperpositionBathtub = models["sbt"]
    parts = (
        sbt.lambda0
        + np.asarray(DecreasingFailureRate(0.0, sbt.draw_decreasing).hazard(ts))
        + np.asarray(IncreasingFailureRate(0.0, sbt.draw_increasing).hazard(ts))
    )
    whole = np.asarray(sbt.hazard(ts))
    out.append(
        _check(
            "identity-superposition",
            np.max(np.abs(whole - parts) / np.abs(whole)),
            1e-12,
            "hazard decomposes",
            scale,
        )
    )

    mbt: MixtureBathtub = models["mbt"]
    dfr = DecreasingFailureRate(mbt.lambda01, mbt.draw1)
    ifr = IncreasingFailureRate(mbt.lambda02, mbt.draw2)
    mix_surv = mbt.pi * np.asarray(dfr.survival(ts)) + (1 - mbt.pi) * np.asarray(ifr.survival(ts))
    mix_dens = mbt.pi * np.asarray(dfr.density(ts)) + (1 - mbt.pi) * np.asarray(ifr.density(ts))
    surv = np.asarray(mbt.survival(ts))
    dens = np.asarray(mbt.density(ts))
    out.append(
        _check(
            "identity-mixture-survival",
            np.max(np.abs(surv - mix_surv) / surv),
            1e-12,
            "",
            scale,
        )
    )
    out.append(
        _check(
            "identity-mixture-density",
            np.max(np.abs(dens - mix_dens) / np.maximum(dens, 1e-300)),
            1e-12,
            "",
            scale,
        )
    )
    out.append(
        _check(
            "identity-mixture-hazard",
            np.max(np.abs(np.asarray(mbt.hazard(ts)) * surv - dens) / np.maximum(dens, 1e-300)),
            1e-12,
            "hazard*survival=density",
            scale,
        )
    )

    lwb: LoWengBathtub = models["lwb"]
    offs = stream.uniforms(1000) * lwb.a
    offs = offs[~np.isin(offs, lwb.draw.thetas)]
    gap = np.max(
        np.abs(
            np.asarray(lwb.hazard(lwb.a - offs)) - np.asarray(lwb.hazard(lwb.a + offs))
        )
    )
    out.append(_check("identity-reflection", gap, 0.0, "hazard(a-s)=hazard(a+s)", scale))

    lcv: LogConvexHazard = models["lcv"]
    o = lcv.draw.ordered
    knots = np.concatenate(([0.0], o.thetas))
    rates = lcv.w0 + np.concatenate(([0.0], o.cum_mass))
    widths = np.diff(np.append(knots, knots[-1] + 1.0))
    err = 0.0
    used = 0
    for i in range(knots.size):
        w, c = widths[i], rates[i]
        if w >= 0.05 and abs(c) >= 0.25:
            t1, t2 = knots[i] + 0.25 * w, knots[i] + 0.75 * w
            slope = (math.log(lcv.hazard(t2)) - math.log(lcv.hazard(t1))) / (t2 - t1)
            err = max(err, abs(slope - c) / abs(c))
            used += 1
    note = f"log-hazard slope, {used} segments"
    out.append(_check("identity-log-slope", err if used else math.inf, 1e-12, note, scale))
    return out


def _shape_checks(models, scale) -> list[CheckResult]:
    out = []
    grid = np.linspace(0.0, DEMO_T_MAX, 2001)

    ifr_h = np.asarray(models["ifr"].hazard(grid))
    out.append(_check("shape-ifr-nondecreasing", np.max(-np.diff(ifr_h)), 0.0, "", scale))
    dfr_h = np.asarray(models["dfr"].hazard(grid))
    out.append(_check("shape-dfr-nonincreasing", np.max(np.diff(dfr_h)), 0.0, "", scale))

    lwb = models["lwb"]
    out.append(
        _check(
            "shape-lwb-minimum",
            abs(lwb.hazard(lwb.a) - lwb.lambda0),
            0.0,
            "hazard(a)=lambda0",
            scale,
        )
    )

    log_h = np.log(np.asarray(models["lcv"].hazard(grid)))
    second = np.diff(log_h, 2)
    out.append(_check("shape-lcv-log-convex", np.max(-second), 1e-9, "2nd differences", scale))

    worst_start = 0.0
    worst_dec = 0.0
    for model in models.values():
        lam = np.asarray(model.cum_hazard(grid))
        worst_start = max(worst_start, abs(float(model.cum_hazard(0.0))))
        worst_dec = max(worst_dec, float(np.max(-np.diff(lam))))
    out.append(_check("shape-cum-hazard-zero", worst_start, 0.0, "all models", scale))
    out.append(_check("shape-cum-hazard-monotone", worst_dec, 0.0, "all models", scale))
    return out


def _defective_checks(models, stream, scale) -> list[CheckResult]:
    out = []
    g = models["ifr"].draw

    dfr0 = DecreasingFailureRate(0.0, g)
    lim = dfr0.cum_hazard_limit()
    ok = (
        math.isfinite(lim)
        and math.isinf(dfr0.invert_cum_hazard(lim * 1.01))
        and math.isfinite(dfr0.invert_cum_hazard(lim * 0.99))
    )
    data = simulate_dataset(dfr0, 200, lim / 4.0, stream)
    ok = ok and data.n_observed < data.n and np.all(data.times[~data.observed] == lim / 4.0)
    out.append(_check("defective-dfr-tail", 0.0 if ok else 1.0, 0.0, "inf past limit", scale))

    lcv_def = LogConvexHazard(1.0, -(g.gamma + 0.5), g)
    lim = lcv_def.cum_hazard_limit()
    ok = (
        math.isfinite(lim)
        and math.isinf(lcv_def.invert_cum_hazard(lim * 1.01))
        and math.isfinite(lcv_def.invert_cum_hazard(lim * 0.5))
    )
    out.append(_check("defective-lcv-tail", 0.0 if ok else 1.0, 0.0, "inf past limit", scale))

    empty = GammaProcessDraw.from_atoms([], [])
    flat = LogConvexHazard(2.0, -1.0, empty)
    ts = np.linspace(0.3, 4.0, 10)
    exact = 2.0 * (np.exp(-ts) - 1.0) / -1.0
    err = np.max(np.abs(np.asarray(flat.cum_hazard(ts)) - exact) / exact)
    ok = math.isinf(flat.invert_cum_hazard(3.0)) and flat.cum_hazard_limit() == 2.0
    out.append(
        _check("defective-lcv-closed-form", err if ok else math.inf, 1e-12,
               "no-atom cum hazard", scale)
    )
    return out


def _likelihood_checks(scale) -> list[CheckResult]:
    out = []
    model = IncreasingFailureRate(1.0, GammaProcessDraw.from_atoms([10.0], [2.0]))
    data = Dataset(times=[1.0, 2.0, 5.0], observed=[True, True, False], tau=5.0)
    out.append(
        _check(
            "likelihood-constant-hazard",
            abs(log_likelihood(model, data) - (-8.0)),
            0.0,
            "equals -8",
            scale,
        )
    )

    times = np.array([0.5, 1.2, 2.0, 3.0, 3.0])
    observed = np.array([True, True, True, False, False])
    data = Dataset(times=times, observed=observed, tau=3.0)
    atoms = GammaProcessDraw.from_atoms([50.0], [1.0])
    denom = times[observed].sum() + 2 * 3.0
    analytic = observed.sum() / denom
    lo, hi = 1e-4, 5.0
    best = lo
    for _ in range(6):
        grid = np.linspace(lo, hi, 101)
        vals = [log_likelihood(IncreasingFailureRate(l, atoms), data) for l in grid]
        best = grid[int(np.argmax(vals))]
        span = (hi - lo) / 50.0
        lo, hi = max(1e-9, best - span), best + span
    out.append(
        _check("likelihood-mle", abs(best - analytic), 1e-6, "grid search vs closed form", scale)
    )
    return out


def _km_checks(models, stream, scale) -> list[CheckResult]:
    out = []
    km = kaplan_meier(Dataset(times=[1.0, 2.0, 3.0], observed=[True, False, True]))
    exact = (
        km(0.5) == 1.0
        and km(1.0) == 2.0 / 3.0
        and km(2.5) == 2.0 / 3.0
        and km(3.0) == 0.0
    )
    out.append(_check("km-censored-example", 0.0 if exact else 1.0, 0.0, "hand computation", scale))

    data = simulate_dataset(models["ifr"], 200, None, stream)
    km = kaplan_meier(data)
    ts = np.sort(data.times)
    surv_ecdf = (ts.size - np.searchsorted(ts, ts, side="right")) / ts.size
    gap = np.max(np.abs(km(ts) - surv_ecdf))
    out.append(_check("km-matches-ecdf", gap, 0.0, "no censoring", scale))
    return out


def _uniform_check(stream, scale) -> CheckResult:
    u = stream.uniforms(10_000)
    return _check("uniform-ks", ks_distance(u, lambda x: x), 0.02, "n=10^4", scale)


def run_validation(seed: int = DEMO_SEED, tol_scale: float = 1.0) -> list[CheckResult]:
    """Run every check at the given seed; tolerances are multiplied by tol_scale."""
    models = demo_models(seed)
    stream = RandomStream(seed).split(99)
    results: list[CheckResult] = []
    results += _closure_checks(stream.split(0), tol_scale)
    results.append(_complement_check(stream.split(1), tol_scale))
    results += _truncation_checks(stream.split(2), tol_scale)
    results += _roundtrip_checks(models, stream.split(3), tol_scale)
    results += _quadrature_checks(models, stream.split(4), tol_scale)
    results += _sampling_checks(models, stream.split(5), tol_scale)
    results += _identity_checks(models, stream.split(6), tol_scale)
    results += _shape_checks(models, tol_scale)
    results += _defective_checks(models, stream.split(7), tol_scale)
    results += _likelihood_checks(tol_scale)
    results += _km_checks(models, stream.split(8), tol_scale)
    results.append(_uniform_check(stream.split(9), tol_scale))
    return results


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check'.ljust(width)}  {'measured':>12}  {'limit':>12}  status  note"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name.ljust(width)}  {r.value:>12.4g}  {r.limit:>12.4g}  {status:>6}  {r.note}"
        )
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results)} checks, {len(results) - n_fail} passed, {n_fail} failed")
    return "\n".join(lines)

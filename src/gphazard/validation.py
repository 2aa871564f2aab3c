"""The suite behind ``gphazard validate``: one measured-value-versus-limit row per check.

The checks run on a documented demonstration configuration: alpha=3,
beta=1, K=100, a unit-rate exponential base, and a Normal(2, 1) base for
the late draw of the two-draw models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import _check_range
from .datasets import Dataset
from .gamma_process import (
    ExponentialBase,
    GammaProcessDraw,
    GammaProcessParams,
    NormalBase,
    _maybe_scalar,
    draw_gamma_process,
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

# The 10-point Gauss-Legendre rule on [-1, 1], bit for bit the nodes and weights that
# numpy.polynomial.legendre computes; written out, so that numpy.polynomial never loads
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717,
])
_GL_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
    0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814,
])
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

    ``t_end`` is a scalar (a float is returned) or an array of endpoints.
    Each segment between breakpoints is integrated once for all endpoints, and
    is accepted once the rule on its halves agrees with the rule on the whole
    to a relative ``_QUAD_RTOL``.  Raises ValueError for a negative or
    non-finite endpoint, and RuntimeError when the hazard is not finite or a
    segment has not converged in ``_QUAD_MAX_ROUNDS`` rounds of bisection.
    """
    ends = np.asarray(t_end, dtype=float)
    flat = ends.ravel()
    if not np.all(np.isfinite(flat) & (flat >= 0.0)):
        raise ValueError("t_end must be finite and non-negative")
    pts = model.breakpoints()
    knots = np.concatenate(([0.0], pts[pts > 0.0]))
    # endpoint i lies past count[i] knots: count[i] - 1 whole segments, then one cut at t_end
    count = np.searchsorted(knots, flat, side="left")
    cut = count > 0
    n_whole = max(int(count.max(initial=0)) - 1, 0)
    lo = np.concatenate((knots[:n_whole], knots[count[cut] - 1]))
    hi = np.concatenate((knots[1:n_whole + 1], flat[cut]))
    owner, segments = np.arange(lo.size), np.zeros(lo.size)
    whole = _gauss_legendre(model, lo, hi)
    for _ in range(_QUAD_MAX_ROUNDS):
        if not lo.size:
            break
        mid = 0.5 * (lo + hi)
        left, right = np.split(_gauss_legendre(model, np.concatenate((lo, mid)),
                                               np.concatenate((mid, hi))), 2)
        halves = left + right
        if not np.all(np.isfinite(halves)):
            raise RuntimeError("hazard is not finite on [0, t_end]; cannot integrate it")
        done = np.abs(halves - whole) <= _QUAD_RTOL * np.abs(halves)
        np.add.at(segments, owner[done], halves[done])
        keep = ~done
        lo, hi = np.concatenate((lo[keep], mid[keep])), np.concatenate((mid[keep], hi[keep]))
        owner = np.tile(owner[keep], 2)
        whole = np.concatenate((left[keep], right[keep]))
    if lo.size:
        raise RuntimeError(f"hazard quadrature did not converge in {_QUAD_MAX_ROUNDS} rounds")
    below = np.concatenate(([0.0], np.cumsum(segments[:n_whole])))
    total = np.zeros(flat.size)
    total[cut] = below[count[cut] - 1] + segments[n_whole:]
    return _maybe_scalar(total.reshape(ends.shape), ends)


def _gauss_legendre(model: HazardModel, lo, hi) -> np.ndarray:
    """The 10-point Gauss-Legendre rule for the hazard on each [lo, hi], in one ``hazard`` call."""
    half = 0.5 * (hi - lo)
    at = (lo + half)[:, None] + half[:, None] * _GL_NODES
    h = np.asarray(model.hazard(at.ravel()), dtype=float).reshape(at.shape)
    return half * (h @ _GL_WEIGHTS)


def _check(name, value, limit, note, tol_scale) -> CheckResult:
    limit = limit * tol_scale
    return CheckResult(name=name, value=float(value), limit=float(limit),
                       passed=bool(value <= limit), note=note)


# Each check group is a generator ``group(models, stream)`` of (name, value,
# limit, note) rows, one per check, yielded as soon as the check is measured.


def _closure_checks(models, stream):
    draw = draw_gamma_process(demo_prior(), stream)
    yield "closure-unscaled-weights", abs(draw.unscaled_weights.sum() - 1.0), 1e-12, "sum(w~)=1"
    yield ("closure-scaled-weights", abs(draw.weights.sum() - draw.gamma) / draw.gamma, 1e-12,
           "sum(w)=gamma (rel)")


def _complement_check(models, stream):
    draw = draw_gamma_process(demo_prior(), stream)
    ts = stream.uniforms(50) * 8.0
    ts = ts[draw._count_below(ts) == draw._count_below(ts, strict=True)]  # no atom at t
    total = draw.integral_below(ts) + draw.integral_above(ts)
    gap = np.max(np.abs(total - draw.gamma) / draw.gamma)
    yield "integral-complement", gap, 1e-12, "below+above=gamma (rel)"


def _truncation_checks(models, stream):
    """The tail mass T_k left after k sticks V ~ Beta(1, alpha), by its exact law.

    -log(1 - V) is Exp(alpha), so -log T_k is Gamma(k, rate alpha), with mean
    k/alpha and sd sqrt(k)/alpha: the mean of -log T_k over the replicates is
    held to 3.89 of its sd, a two-sided false-alarm rate of 1e-4.
    """
    reps, alpha = 1000, 3.0
    sticks = stream.betas(1.0, alpha, 40 * reps).reshape(reps, 40)
    logs = np.log1p(np.negative(sticks, out=sticks), out=sticks)  # log(1 - V), in place
    for k in (4, 40):
        neg_log_tails = -logs[:, :k].sum(axis=1)
        yield (f"truncation-tail-mass[k={k}]", abs(neg_log_tails.mean() - k / alpha),
               3.89 * math.sqrt(k) / (alpha * math.sqrt(reps)),
               f"|mean -log T_k - {k}/{alpha:g}| vs 3.89 sd, rate 1e-4")


def _roundtrip_checks(models, stream):
    for name, model in models.items():
        lam_max = float(model.cum_hazard(DEMO_T_MAX))
        targets = stream.uniforms(10_000) * lam_max
        t = np.asarray(model.invert_cum_hazard(targets))
        back = np.asarray(model.cum_hazard(t))
        err = np.max(np.abs(back - targets) / np.maximum(1.0, targets))
        yield f"inversion-roundtrip[{name}]", err, 1e-9, "rel to max(1,x)"


def _quadrature_checks(models, stream):
    for name, model in models.items():
        ts = stream.uniforms(20) * DEMO_T_MAX
        exact = np.asarray(model.cum_hazard(ts))
        numeric = integrate_hazard(model, ts)
        err = np.max(np.abs(numeric - exact) / np.maximum(np.abs(exact), 1e-300))
        yield f"quadrature-consistency[{name}]", err, 1e-6, "20 points, rel"


def _sampling_checks(models, stream):
    for i, (name, model) in enumerate(models.items()):
        samples = model.sample_failures(10_000, stream.split(i))
        d = ks_distance(samples, lambda x: 1.0 - np.asarray(model.survival(x)))
        yield f"sampling-ks[{name}]", d, 0.025, "n=10^4 vs analytic"


def _identity_checks(models, stream):
    ts = stream.uniforms(1000) * DEMO_T_MAX

    sbt: SuperpositionBathtub = models["sbt"]
    parts = (
        sbt.lambda0
        + np.asarray(DecreasingFailureRate(0.0, sbt.draw_decreasing).hazard(ts))
        + np.asarray(IncreasingFailureRate(0.0, sbt.draw_increasing).hazard(ts))
    )
    whole = np.asarray(sbt.hazard(ts))
    yield ("identity-superposition", np.max(np.abs(whole - parts) / np.abs(whole)), 1e-12,
           "hazard decomposes")

    # the mixture's survival and density mix its components'; its hazard and H come from the weights
    mbt: MixtureBathtub = models["mbt"]
    surv, dens, lam = (np.asarray(f(ts)) for f in (mbt.survival, mbt.density, mbt.hazard))
    from_cum = np.exp(-np.asarray(mbt.cum_hazard(ts)))
    yield ("identity-mixture-survival", np.max(np.abs(surv - from_cum) / surv), 1e-12,
           "survival=exp(-cum_hazard)")
    yield ("identity-mixture-density",
           np.max(np.abs(dens - lam * from_cum) / np.maximum(dens, 1e-300)), 1e-12,
           "density=hazard*exp(-cum_hazard)")
    yield ("identity-mixture-hazard", np.max(np.abs(lam * surv - dens) / np.maximum(dens, 1e-300)),
           1e-12, "hazard*survival=density")

    lwb: LoWengBathtub = models["lwb"]
    offs = stream.uniforms(1000) * lwb.a
    offs = offs[lwb.draw._count_below(offs) == lwb.draw._count_below(offs, strict=True)]
    gap = np.max(np.abs(np.asarray(lwb.hazard(lwb.a - offs))
                        - np.asarray(lwb.hazard(lwb.a + offs))))
    yield "identity-reflection", gap, 0.0, "hazard(a-s)=hazard(a+s)"

    lcv: LogConvexHazard = models["lcv"]
    o = lcv.draw.ordered
    knots = np.concatenate(([0.0], o.thetas))
    rates = lcv.w0 + np.concatenate(([0.0], o.cum_mass))
    widths = np.diff(np.append(knots, knots[-1] + 1.0))
    use = (widths >= 0.05) & (np.abs(rates) >= 0.25)
    if not use.any():  # no wide, steep segment: the one whose log hazard rises or falls most
        rise = widths * np.abs(rates)
        use[np.argmax(rise)] = rise.max() > 0.0
    t1, t2 = knots[use] + 0.25 * widths[use], knots[use] + 0.75 * widths[use]
    # math.log per element: np.log may differ from it in the last bit
    logs = [list(map(math.log, lcv.hazard(t).tolist())) for t in (t1, t2)]
    errs = [abs((b - a) / (u2 - u1) - c) / abs(c)
            for a, b, u1, u2, c in zip(*logs, t1.tolist(), t2.tolist(), rates[use].tolist())]
    yield ("identity-log-slope", max(errs) if errs else math.inf, 1e-12,
           f"log-hazard slope, {len(errs)} segments")


def _shape_checks(models, stream):
    grid = np.linspace(0.0, DEMO_T_MAX, 2001)
    ifr_h = np.asarray(models["ifr"].hazard(grid))
    yield "shape-ifr-nondecreasing", np.max(-np.diff(ifr_h)), 0.0, ""
    dfr_h = np.asarray(models["dfr"].hazard(grid))
    yield "shape-dfr-nonincreasing", np.max(np.diff(dfr_h)), 0.0, ""
    lwb = models["lwb"]
    yield "shape-lwb-minimum", abs(lwb.hazard(lwb.a) - lwb.lambda0), 0.0, "hazard(a)=lambda0"
    second = np.diff(np.log(np.asarray(models["lcv"].hazard(grid))), 2)
    yield "shape-lcv-log-convex", np.max(-second), 1e-9, "2nd differences"

    worst_start = 0.0
    worst_dec = 0.0
    for model in models.values():
        lam = np.asarray(model.cum_hazard(grid))
        worst_start = max(worst_start, abs(float(model.cum_hazard(0.0))))
        worst_dec = max(worst_dec, float(np.max(-np.diff(lam))))
    yield "shape-cum-hazard-zero", worst_start, 0.0, "all models"
    yield "shape-cum-hazard-monotone", worst_dec, 0.0, "all models"


def _defective_checks(models, stream):
    g = models["ifr"].draw

    dfr0 = DecreasingFailureRate(0.0, g)
    lim = dfr0.cum_hazard_limit()
    ok = (
        math.isfinite(lim)
        and math.isinf(dfr0.invert_cum_hazard(lim * 1.01))
        and math.isfinite(dfr0.invert_cum_hazard(lim * 0.99))
    )
    # censor at the time the cumulative hazard reaches min(ln 2, lim / 2): each record
    # outlives it with probability at least 1/2
    tau = dfr0.invert_cum_hazard(min(math.log(2.0), lim / 2.0))
    data = simulate_dataset(dfr0, 200, tau, stream)
    ok = ok and data.n_observed < data.n and np.all(data.times[~data.observed] == tau)
    yield "defective-dfr-tail", 0.0 if ok else 1.0, 0.0, "inf past limit"

    lcv_def = LogConvexHazard(1.0, -(g.gamma + 0.5), g)
    lim = lcv_def.cum_hazard_limit()
    ok = (
        math.isfinite(lim)
        and math.isinf(lcv_def.invert_cum_hazard(lim * 1.01))
        and math.isfinite(lcv_def.invert_cum_hazard(lim * 0.5))
    )
    yield "defective-lcv-tail", 0.0 if ok else 1.0, 0.0, "inf past limit"

    empty = GammaProcessDraw.from_atoms([], [])
    flat = LogConvexHazard(2.0, -1.0, empty)
    ts = np.linspace(0.3, 4.0, 10)
    exact = 2.0 * (np.exp(-ts) - 1.0) / -1.0
    err = np.max(np.abs(np.asarray(flat.cum_hazard(ts)) - exact) / exact)
    ok = math.isinf(flat.invert_cum_hazard(3.0)) and flat.cum_hazard_limit() == 2.0
    yield "defective-lcv-closed-form", err if ok else math.inf, 1e-12, "no-atom cum hazard"


def _likelihood_checks(models, stream):
    model = IncreasingFailureRate(1.0, GammaProcessDraw.from_atoms([10.0], [2.0]))
    data = Dataset(times=[1.0, 2.0, 5.0], observed=[True, True, False], tau=5.0)
    yield "likelihood-constant-hazard", abs(log_likelihood(model, data) - (-8.0)), 0.0, "equals -8"

    times = np.array([0.5, 1.2, 2.0, 3.0, 3.0])
    observed = np.array([True, True, True, False, False])
    data = Dataset(times=times, observed=observed, tau=3.0)
    atoms = GammaProcessDraw.from_atoms([50.0], [1.0])
    denom = times[observed].sum() + 2 * 3.0
    analytic = observed.sum() / denom

    def score(rate):
        return log_likelihood(IncreasingFailureRate(rate, atoms), data)

    # golden-section search of the concave likelihood: each round drops the side of the
    # worse interior point (the right one on a tie) and scores one new point, 49 in all
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-4, 5.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = score(c), score(d)
    while hi - lo > 1e-9:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = score(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = score(d)
    best = c if fc >= fd else d
    yield "likelihood-mle", abs(best - analytic), 1e-6, "golden-section search vs closed form"


def _km_checks(models, stream):
    km = kaplan_meier(Dataset(times=[1.0, 2.0, 3.0], observed=[True, False, True]))
    exact = (
        km(0.5) == 1.0
        and km(1.0) == 2.0 / 3.0
        and km(2.5) == 2.0 / 3.0
        and km(3.0) == 0.0
    )
    yield "km-censored-example", 0.0 if exact else 1.0, 0.0, "hand computation"

    data = simulate_dataset(models["ifr"], 200, None, stream)
    km = kaplan_meier(data)
    ts = np.sort(data.times)
    surv_ecdf = (ts.size - np.searchsorted(ts, ts, side="right")) / ts.size
    yield "km-matches-ecdf", np.max(np.abs(km(ts) - surv_ecdf)), 0.0, "no censoring"


def _uniform_check(models, stream):
    u = stream.uniforms(10_000)
    yield "uniform-ks", ks_distance(u, lambda x: x), 0.02, "n=10^4"


# (split id of the suite stream, check group) in report order.  A group's rows
# depend only on the seed and its own split, so ids are never reused or
# renumbered; the shape and likelihood groups draw nothing.
_GROUPS = (
    (0, _closure_checks),
    (1, _complement_check),
    (2, _truncation_checks),
    (3, _roundtrip_checks),
    (4, _quadrature_checks),
    (5, _sampling_checks),
    (6, _identity_checks),
    (10, _shape_checks),
    (7, _defective_checks),
    (11, _likelihood_checks),
    (8, _km_checks),
    (9, _uniform_check),
)


def run_validation(seed: int = DEMO_SEED, tol_scale: float = 1.0) -> list[CheckResult]:
    """Run every check at the given seed; tolerances are multiplied by tol_scale (finite, > 0)."""
    tol_scale = _check_range("tol_scale", tol_scale, "positive")
    models = demo_models(seed)
    stream = RandomStream(seed).split(99)
    return [_check(*row, tol_scale)
            for split_id, group in _GROUPS for row in group(models, stream.split(split_id))]


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

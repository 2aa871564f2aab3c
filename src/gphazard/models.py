"""Six hazard-rate models driven by gamma process draws.

Each model evaluates its hazard, cumulative hazard, density and survival
in closed form, and samples failure times exactly by solving
``cum_hazard(T) = -log(U)``.  All six are dataclasses on the one base
``HazardModel`` and write out only their hazard (the step models: its level
at each knot), which counts the atoms below each cut through the draw's own
lookup.  Five of the models share one cumulative-hazard skeleton that
inverts in closed form: between knots the hazard is
``c * exp(r * (t - knot))``.  The four step-hazard models are its rate-0
case, with linear segments between breakpoints, and the log-convex model
uses its exponential segments.  The mixture model's cumulative hazard is
concave between its pooled knots, so Newton's method started at the left
knot inverts it without overshooting.  A time's segment also tells its
hazard (the step models' level table, lcv's log hazard at the knot and
log-slope), so one lookup serves both the hazard and the cumulative hazard,
for the density and that Newton loop, which evaluates only the targets
still moving.  The likelihood splits a dataset's sorted times by the knots
once; one kernel scores that split for the skeleton models, one the mixture.
The knots are the distinct atoms, taken by one comparison of neighbours from
the atoms as the draw has sorted them (two draws' are joined and sorted once;
lwb's mirrored knots come out sorted as they are built).
The public methods check their input once; the kernels behind them (the
skeleton's methods, every ``_hazard_and_cum`` and ``_log_likelihood_terms``)
take checked 1-d arrays.

A failure draw can be infinite when the total cumulative hazard is
finite (a defective failure distribution); ``math.inf`` is the sentinel
for that outcome, never an exception.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import Field, dataclass, field, fields
from functools import cached_property, partial
from operator import itemgetter

import numpy as np

from ._checks import (_as_times, _check_count, _check_range, _horizon, _rebuild, _require_keys,
                      _require_reals)
from .datasets import Dataset
from .gamma_process import GammaProcessDraw, _distinct, _maybe_scalar
from .likelihood import HyperParams
from .rng import RandomStream, _categorical_pick

__all__ = [
    "HazardModel",
    "IncreasingFailureRate",
    "DecreasingFailureRate",
    "LoWengBathtub",
    "SuperpositionBathtub",
    "MixtureBathtub",
    "LogConvexHazard",
    "simulate_dataset",
    "draw_model_params",
    "model_to_dict",
    "model_from_dict",
]

_ZERO_RATE = 1e-12  # below this, exponential segments are treated as linear

_NEWTON_MAX_ITER = 100  # MixtureBathtub's inverse; converging takes at most ~40

# _neg_log takes a long-double log where long double has a 64-bit mantissa or
# more, and recomputes elements this close (in ulp) to a rounding midpoint
_WIDE_LOG = np.finfo(np.longdouble).nmant >= 63
_MIDPOINT_WINDOW = 0.05
_MANTISSA = np.uint64((1 << 52) - 1)


def _neg_log(u: np.ndarray) -> np.ndarray:
    """-log(u) per element, equal to ``-math.log`` of each.

    ``np.log`` differs from ``math.log`` in the last bit for a small share of
    inputs, and sampled failure times have always been ``math.log`` based.
    A long-double log rounded to double equals ``math.log`` except within
    about 0.02 ulp of a rounding midpoint, where libm's log may round the
    other way.  Elements within ``_MIDPOINT_WINDOW`` of a midpoint, and exact
    powers of two (whose lower neighbour is nearer), are recomputed with
    ``math.log``.
    """
    if not _WIDE_LOG:
        return -_math_log(u)
    wide = np.log(u.astype(np.longdouble))
    out = wide.astype(float)
    gap = np.abs((wide - out).astype(float))  # at most half a double ulp of out
    redo = (gap > (0.5 - _MIDPOINT_WINDOW) * np.abs(np.spacing(out))) | (
        (out.view(np.uint64) & _MANTISSA) == 0
    )
    out[redo] = _math_log(u[redo])
    return -out


def _math_log(u: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, u.tolist()), dtype=float, count=u.size)


@dataclass(eq=False)
class _Skeleton:
    """Cumulative hazard whose hazard is exponential in t on each segment.

    On segment l, from ``knots[l]`` to the next knot (the last one extends
    to infinity), the hazard is ``coeffs[l] * exp(rates[l] * (t - knots[l]))``,
    with ``log_coeffs`` its log at the knots: ``log(coeffs)`` unless a model
    gives it without the exp (lcv).  A rate below ``_ZERO_RATE`` in magnitude
    makes the segment linear with slope ``coeffs[l]``, and a zero coefficient
    makes it flat: inverting past the value a flat tail holds yields ``inf``.
    ``values`` holds the cumulative hazard at the knots, accumulated from
    non-negative segment increments ``expm1(r dt) / r * c``, divided first so
    that only an overflowing increment is inf.  So the function is weakly
    monotone even at rounding scale, and evaluation and inversion share it.
    """

    knots: np.ndarray
    rates: np.ndarray
    coeffs: np.ndarray
    log_coeffs: np.ndarray | None = None
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.log_coeffs is None:
            with np.errstate(divide="ignore"):
                self.log_coeffs = np.log(self.coeffs)
        # read once from the segments: with finite coefficients, when every rate is 0 (the
        # step models) no rate is looked at per element, and when none is (lcv) no mask is needed
        finite = bool(np.all(np.isfinite(self.coeffs)))
        steep = np.abs(self.rates) >= _ZERO_RATE
        self._linear = finite and not steep.any()
        self._exponential = finite and bool(steep.all())
        incs = self._increment(itemgetter(np.s_[:-1]), np.diff(self.knots))
        self.values = np.concatenate(([0.0], np.cumsum(incs)))

    def _increment(self, pick, dt: np.ndarray) -> np.ndarray:
        """Integral of the hazard over dt from the knot of each segment ``pick`` takes.

        ``pick`` takes each segment's entry from a per-segment array: by index
        (an ``itemgetter``), or repeated over a run of sorted times (the
        ``spread`` of ``_split``, which allocates no index array).  May
        overwrite the 1-d dt.
        """
        coeff = pick(self.coeffs)
        if self._linear:
            dt *= coeff
            return dt
        rate = pick(self.rates)
        with np.errstate(over="ignore", invalid=None if self._exponential else "ignore"):
            # expm1(r * dt) / r * c in one buffer, dt's own when nothing else reads it
            out = np.multiply(rate, dt, out=dt if self._exponential else None)
            np.expm1(out, out=out)
            out /= rate
            out *= coeff  # inf where the increment overflows; dt = 0 adds +-0
            if not self._exponential:  # nan where r = 0, or where c = inf and dt = 0
                lin = np.abs(rate) < _ZERO_RATE
                out[lin] = coeff[lin] * dt[lin]
                out[dt == 0.0] = 0.0
        return out

    def _locate(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The segment of each time in a checked 1-d ``arr``, and the cumulative hazard there."""
        seg = np.searchsorted(self.knots, arr, "right") - 1
        pick = itemgetter(seg)
        dt = pick(self.knots)
        return seg, self._cum_past(pick, np.subtract(arr, dt, out=dt))

    def _cum_past(self, pick, dt: np.ndarray) -> np.ndarray:
        """The cumulative hazard dt past the knot of each segment ``pick`` takes; may overwrite dt."""
        out = self._increment(pick, dt)
        out += pick(self.values)
        return out

    def _split(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, partial, np.ndarray]:
        """The ascending ``times`` split by the knots, in O(K log n): one search of the knots.

        Segment l holds ``times[starts[l]:starts[l] + counts[l]]``, the times
        from its knot on.  ``spread`` repeats each entry of a per-segment
        array over its segment's times, the same as indexing it by segment,
        and ``offsets`` is how far each time lies past its knot.
        """
        starts = np.searchsorted(times, self.knots, "left")
        counts = np.concatenate((starts[1:], [times.size])) - starts
        spread = partial(np.repeat, repeats=counts)
        offsets = spread(self.knots)
        return starts, counts, spread, np.subtract(times, offsets, out=offsets)

    def limit(self) -> float:
        rate, coeff = float(self.rates[-1]), float(self.coeffs[-1])
        if rate <= -_ZERO_RATE:  # a decaying tail adds coeff / -rate
            return float(self.values[-1] + coeff / -rate)
        return math.inf if rate >= _ZERO_RATE or coeff > 0.0 else float(self.values[-1])

    def invert(self, arr: np.ndarray) -> np.ndarray:
        """Where the cumulative hazard reaches each checked 1-d target in ``arr``."""
        seg = np.maximum(np.searchsorted(self.values, arr, side="right") - 1, 0)
        knot, base, coeff = self.knots[seg], self.values[seg], self.coeffs[seg]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            excess = arr - base  # inf - inf where the knot values overflowed
            t = knot + excess / coeff  # a vanishing slope puts t past the double range
        if not self._linear:
            rate = self.rates[seg]
            g = np.abs(rate) >= _ZERO_RATE
            t[g] = self._invert_growing(knot[g], excess[g], rate[g], coeff[g])
        flat = coeff <= 0.0
        if np.any(flat):
            t = np.where(flat & (arr == base), knot, t)
            t = np.where(flat & (arr > base), np.inf, t)
        t[arr == np.inf] = np.inf
        return np.where(arr == 0.0, 0.0, t)

    @staticmethod
    def _invert_growing(knot, excess, rate, coeff) -> np.ndarray:
        """knot + log1p(rate * excess / coeff) / rate, or inf past a decaying tail's limit."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            arg = rate * excess / coeff
            t = knot + np.log1p(np.maximum(arg, -1.0)) / rate
            # where the quotient overflowed, log1p(arg) = logaddexp(0, log(arg)) in log space
            big = arg == np.inf
            log_arg = np.log(rate[big]) + np.log(excess[big]) - np.log(coeff[big])
            t[big] = knot[big] + np.logaddexp(0.0, log_arg) / rate[big]
        # a negative-rate tail saturates: targets at or past the limit are unreachable
        t[arg <= -1.0] = np.inf
        return t


class HazardModel(ABC):
    """The one base of all six models: their evaluation and sampling surface.

    Each model is a frozen dataclass whose fields, in order, are its
    constructor arguments and document keys.  Its draws are immutable too,
    so what a model caches from them never goes stale.  Each scalar field
    must lie in the domain its metadata names, or be finite if it names
    none; a scalar with a conditional prior names it there too
    (``draw_model_params`` draws it).  By default the breakpoints are the
    draws' pooled atoms, a time's segment of the cached ``_skeleton`` gives
    its cumulative hazard and, by ``_segment_hazard``, its hazard, and the
    skeleton's log levels give the one likelihood kernel its log hazard.
    """

    variant: str

    __reduce__ = _rebuild

    def __post_init__(self):
        for f in fields(self):
            if not self._is_draw(f):
                _check_range(f.name, getattr(self, f.name), f.metadata.get("domain", "finite"))

    def hazard(self, t):
        """Instantaneous failure rate at t (scalar or array)."""
        arr = _as_times(t)
        seg = np.searchsorted(self._knots, arr, "right") - 1
        return _maybe_scalar(self._segment_hazard(seg, arr), t)

    def _segment_hazard(self, seg: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The hazard at checked times ``t`` in skeleton segments ``seg``: the segment's level."""
        return self._skeleton.coeffs[seg]

    def cum_hazard(self, t):
        """Integral of the hazard over [0, t]."""
        arr = _as_times(t)
        return _maybe_scalar(self._skeleton._locate(arr.reshape(-1))[1].reshape(arr.shape), t)

    def cum_hazard_limit(self) -> float:
        """Total cumulative hazard as t grows without bound; finite means defective."""
        return self._skeleton.limit()

    def invert_cum_hazard(self, target):
        """Smallest-segment solution T of cum_hazard(T) = target, or inf past the limit."""
        x = _as_times(target, "target")
        return _maybe_scalar(self._skeleton.invert(x.reshape(-1)).reshape(x.shape), target)

    def _hazard_and_cum(self, t):
        """(hazard(t), cum_hazard(t)) at checked 1-d times, from one lookup of their segments."""
        seg, cum = self._skeleton._locate(t)
        return self._segment_hazard(seg, t), cum

    def _log_likelihood_terms(self, obs: np.ndarray, cens: np.ndarray) -> tuple[float, float]:
        """The sum of log h - H over the ascending observed times, and of H over the censored.

        The log hazard is linear on each segment, so the n_l observed times in
        segment l, their offsets t - knot_l summing to s_l, add ``n_l log_coeffs_l
        + rates_l s_l - (n_l values_l + past_l)``, where ``past_l`` is ``coeffs_l
        s_l`` on a linear skeleton (the piecewise exponential likelihood), else
        the increments summed.  A zero level, a nan or a +inf sum gives -inf.
        """
        skeleton = self._skeleton
        starts, counts, spread, offsets = skeleton._split(obs)
        seg = np.flatnonzero(counts)
        n, at = counts[seg], starts[seg]
        with np.errstate(over="ignore", invalid="ignore"):
            spent = np.add.reduceat(offsets, at)
            if skeleton._linear:
                past = skeleton.coeffs[seg] * spent
            else:  # the increments may overwrite the offsets, read by now
                past = np.add.reduceat(skeleton._increment(spread, offsets), at)
            terms = (n * skeleton.log_coeffs[seg] + skeleton.rates[seg] * spent
                     - (n * skeleton.values[seg] + past))
            observed = float(np.sum(terms))
        observed = observed if observed < math.inf else -math.inf
        return observed, float(np.sum(skeleton._locate(cens)[1]))

    def breakpoints(self) -> np.ndarray:
        """Sorted locations where the hazard jumps or kinks: the draws' distinct atoms.

        One draw's atoms are sorted already; two draws' sorted atoms are
        joined and sorted once.
        """
        atoms = [getattr(self, f.name).ordered.thetas for f in fields(self) if self._is_draw(f)]
        return _distinct(atoms[0] if len(atoms) == 1 else np.sort(np.concatenate(atoms)))[0]

    @cached_property
    def _knots(self) -> np.ndarray:
        """The skeleton's knots: 0, then the breakpoints (0 only once)."""
        bps = self.breakpoints()
        return bps if bps.size and bps[0] == 0.0 else np.concatenate(([0.0], bps))

    def to_dict(self) -> dict:
        out = {"model": self.variant}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.metadata.get("key", f.name)] = value.to_dict() if self._is_draw(f) else value
        return out

    @staticmethod
    def _is_draw(f: Field) -> bool:
        return f.type == "GammaProcessDraw"  # annotations are strings in this module

    def survival(self, t):
        out = np.exp(-np.asarray(self.cum_hazard(t), dtype=float))
        return _maybe_scalar(out, t)

    def density(self, t):
        lam, cum = self._hazard_and_cum(_as_times(t).reshape(-1))
        surv = np.exp(-cum)
        with np.errstate(invalid="ignore"):  # an overflowed hazard times zero survival
            out = np.where(surv == 0.0, 0.0, lam * surv)
        return _maybe_scalar(out.reshape(np.shape(t)), t)

    def sample_failure(self, stream: RandomStream) -> float:
        """One failure time via inverse transform; may be inf for defective models."""
        return float(self.sample_failures(1, stream)[0])

    def sample_failures(self, n: int, stream: RandomStream) -> np.ndarray:
        """n failure times, identical to n successive calls of :meth:`sample_failure`."""
        return self.invert_cum_hazard(_neg_log(stream.uniforms(n)))


@dataclass(frozen=True, eq=False)
class _StepHazard(HazardModel):
    """Piecewise-constant hazard at least ``lambda0`` >= 0, with a linear skeleton.

    The skeleton's ``coeffs`` are the one level table, the hazard from each
    knot on, so the hazard steps exactly where the cumulative hazard bends.
    """

    lambda0: float = field(metadata={"domain": "non-negative", "prior": ("offset", -1)})

    @cached_property
    def _skeleton(self) -> _Skeleton:
        return _Skeleton(self._knots, np.zeros(self._knots.size), self._levels_at(self._knots))

    @abstractmethod
    def _levels_at(self, knots: np.ndarray) -> np.ndarray:
        """The hazard on the segment that starts at each knot."""


@dataclass(frozen=True, eq=False)
class IncreasingFailureRate(_StepHazard):
    """Non-decreasing hazard: a background rate plus the atom mass at or below t.

    The cumulative hazard is lambda0*t + sum_k w_k * max(0, t - theta_k).
    """

    draw: GammaProcessDraw
    variant = "ifr"

    def _levels_at(self, knots):
        return self.lambda0 + self.draw._mass0[self.draw._count_below(knots)]


@dataclass(frozen=True, eq=False)
class DecreasingFailureRate(_StepHazard):
    """Non-increasing hazard: a background rate plus the atom mass strictly above t.

    The cumulative hazard is lambda0*t + sum_k w_k * min(t, theta_k).
    """

    draw: GammaProcessDraw
    variant = "dfr"

    def _levels_at(self, knots):
        return self.lambda0 + self.draw._above0[self.draw._count_below(knots)]


@dataclass(frozen=True, eq=False)
class LoWengBathtub(_StepHazard):
    """Bathtub hazard symmetric about its minimum at t = a.

    Decreasing on [0, a), minimum value lambda0 at t = a, then mirrored
    increases: each atom at theta steps the hazard down at a - theta and
    up at a + theta, so the cumulative hazard is linear between those
    pooled breakpoints.  The atoms are counted by those rounded knots.
    """

    a: float = field(metadata={"domain": "non-negative"})
    draw: GammaProcessDraw
    variant = "lwb"

    def _mirrored(self) -> tuple[np.ndarray, np.ndarray]:
        """The knots a - theta of the atoms below a, and a + theta of all, in atom order."""
        th = self.draw.ordered.thetas
        return self.a - th[th < self.a], self.a + th

    def _levels_at(self, knots):
        # a knot's level counts a prefix of the sorted atoms: before a, those whose
        # knot a - theta lies above it; from a on, those whose knot a + theta does not
        down, up = self._mirrored()
        above = down.size - np.searchsorted(down[::-1], knots, "right")
        j = np.where(knots < self.a, above, np.searchsorted(up, knots, "right"))
        return self.draw._mass0[j] + self.lambda0

    def breakpoints(self) -> np.ndarray:
        # non-decreasing as it stands: a - theta <= a <= a + theta, and rounding keeps the order
        down, up = self._mirrored()
        return _distinct(np.concatenate((down[::-1], [self.a], up)))[0]


@dataclass(frozen=True, eq=False)
class SuperpositionBathtub(_StepHazard):
    """Sum of a decreasing and an increasing hazard from two independent draws.

    The cumulative hazard is lambda0*t + sum_k w1k*min(t, theta1k)
    + sum_k w2k*max(0, t - theta2k).
    """

    draw_decreasing: GammaProcessDraw = field(metadata={"key": "draw1"})
    draw_increasing: GammaProcessDraw = field(metadata={"key": "draw2"})
    variant = "sbt"

    def _levels_at(self, knots):
        d1, d2 = self.draw_decreasing, self.draw_increasing
        j1, j2 = d1._count_below(knots), d2._count_below(knots)
        return self.lambda0 + d1._above0[j1] + d2._mass0[j2]


@dataclass(frozen=True, eq=False)
class MixtureBathtub(HazardModel):
    """Two-component survival mixture of a decreasing and an increasing model.

    With log-weights a1 = log(pi) - L1 and a2 = log(1-pi) - L2 the survival
    is exp(logaddexp(a1, a2)), and the hazard (not a bathtub in general)
    weights the component hazards by exp(a_i - logaddexp(a1, a2)), so nothing
    underflows where both survivals do.  Sampling picks a component and
    inverts it.  Between pooled knots L1 and L2 are linear, so the mixture
    cumulative hazard is concave there: Newton's method from the left knot of
    a target's segment rises to the root without overshooting or a bracket.
    """

    pi: float = field(metadata={"domain": "(0, 1]"})
    lambda01: float = field(metadata={"domain": "non-negative", "prior": ("offset", 0)})
    draw1: GammaProcessDraw
    lambda02: float = field(metadata={"domain": "non-negative", "prior": ("offset", 1)})
    draw2: GammaProcessDraw
    variant = "mbt"

    def __post_init__(self):
        super().__post_init__()
        with np.errstate(divide="ignore"):  # pi = 1 gives log(1 - pi) = -inf
            log_pi = (math.log(self.pi), float(np.log1p(-self.pi)))
        # _log_one is 0 up to rounding; subtracting it keeps cum_hazard(0) exactly 0
        vars(self).update(_decreasing=DecreasingFailureRate(self.lambda01, self.draw1),
                          _increasing=IncreasingFailureRate(self.lambda02, self.draw2),
                          _log_pi=log_pi, _log_one=float(np.logaddexp(*log_pi)))

    @property
    def components(self) -> tuple[DecreasingFailureRate, IncreasingFailureRate]:
        return self._decreasing, self._increasing

    def survival(self, t):
        out = self.pi * np.asarray(self._decreasing.survival(t)) + (1.0 - self.pi) * np.asarray(
            self._increasing.survival(t)
        )
        return _maybe_scalar(out, t)

    def density(self, t):
        out = self.pi * np.asarray(self._decreasing.density(t)) + (1.0 - self.pi) * np.asarray(
            self._increasing.density(t)
        )
        return _maybe_scalar(out, t)

    def _log_weights(self, l1, l2):
        """a1 = log(pi) - l1, a2 = log(1-pi) - l2 and logaddexp(a1, a2)."""
        a1, a2 = self._log_pi[0] - np.asarray(l1), self._log_pi[1] - np.asarray(l2)
        return a1, a2, np.logaddexp(a1, a2)

    def hazard(self, t):
        arr = _as_times(t)
        return _maybe_scalar(self._hazard_and_cum(arr.reshape(-1))[0].reshape(arr.shape), t)

    def _hazard_and_cum(self, t):
        (h1, l1), (h2, l2) = (c._hazard_and_cum(t) for c in self.components)
        a1, a2, log_s = self._log_weights(l1, l2)
        with np.errstate(invalid="ignore"):  # both survivals 0: nan hazard, inf cum_hazard
            lam = np.exp(a1 - log_s) * h1 + np.exp(a2 - log_s) * h2
        return lam, self._log_one - log_s

    def cum_hazard(self, t):
        arr = _as_times(t)
        return _maybe_scalar(self._hazard_and_cum(arr.reshape(-1))[1].reshape(arr.shape), t)

    def cum_hazard_limit(self) -> float:
        log_s = self._log_weights(*(c.cum_hazard_limit() for c in self.components))[2]
        return float(self._log_one - log_s)

    def _log_likelihood_terms(self, obs: np.ndarray, cens: np.ndarray) -> tuple[float, float]:
        """The sum of log h - H over the ascending observed times, and of H over the censored.

        At an observed time log h - H = log f - _log_one: the log survival in
        both cancels, leaving the log density
        ``log f = logaddexp(log(pi) + log h1 - L1, log(1-pi) + log h2 - L2)``.
        Each component's log h is its skeleton's ``log_coeffs``, and its L
        the skeleton in the segments of the split of the times by its knots.
        Where both L overflow, log f is -inf.  An infinite level gives its
        component a log density of -inf in its segment, as it gives that
        component scored alone, so no inf - inf appears.
        """
        log_terms = []
        # nan for an inf level with log(1 - pi) = -inf; a sum below the double range is -inf
        with np.errstate(invalid="ignore", over="ignore"):
            for component, log_pi in zip(self.components, self._log_pi):
                skeleton = component._skeleton
                _, _, spread, offsets = skeleton._split(obs)
                lead = log_pi + skeleton.log_coeffs
                if not skeleton._linear:  # an infinite level
                    lead[~(lead < math.inf)] = -math.inf
                cum = skeleton._cum_past(spread, offsets)
                log_terms.append(np.subtract(spread(lead), cum, out=cum))
            observed = float(np.sum(np.logaddexp(*log_terms))) - obs.size * self._log_one
        cums = (c._skeleton._locate(cens)[1] for c in self.components)
        return observed, float(np.sum(self._log_one - self._log_weights(*cums)[2]))

    @cached_property
    def _knot_values(self) -> tuple[np.ndarray, np.ndarray]:
        return self._knots, self._hazard_and_cum(self._knots)[1]

    def invert_cum_hazard(self, target):
        x = _as_times(target, "target")
        limit = self.cum_hazard_limit()
        out = np.where(x >= limit, np.inf, 0.0)
        live = (x > 0.0) & (x < limit)
        xs = x[live]
        knots, kvals = self._knot_values
        t = knots[np.maximum(np.searchsorted(kvals, xs, side="right") - 1, 0)]
        gap = np.full(xs.size, np.inf)
        moving = np.arange(xs.size)
        for _ in range(_NEWTON_MAX_ITER):
            lam, cum = self._hazard_and_cum(t[moving])
            resid = xs[moving] - cum
            # exact steps shrink the gap x - cum_hazard(t) > 0 every time; once
            # it is closed or stops shrinking, only rounding is left.  A target
            # that stops keeps its t and gap, so it would stop again: it is dropped
            going = (resid > 0.0) & (resid < gap[moving])
            if not going.any():
                break
            moving = moving[going]
            gap[moving] = resid[going]
            t[moving] += resid[going] / lam[going]
        else:
            raise RuntimeError(f"mixture inverse did not converge in {_NEWTON_MAX_ITER} steps")
        out[live] = t
        return _maybe_scalar(out, target)

    def sample_failures(self, n: int, stream: RandomStream) -> np.ndarray:
        """Per record one uniform picks the component (as ``categorical``), the next inverts it."""
        if self.pi == 1.0:  # degenerate mixture, no component pick needed
            return self._decreasing.sample_failures(n, stream)
        u = stream.uniforms(2 * _check_count("n", n)).reshape(-1, 2)
        pick = _categorical_pick(np.array([self.pi, 1.0 - self.pi]), u[:, 0])
        x = _neg_log(u[:, 1])
        out = np.empty(x.size)
        for c, component in enumerate(self.components):
            mask = pick == c
            out[mask] = component.invert_cum_hazard(x[mask])
        return out


@dataclass(frozen=True, eq=False)
class LogConvexHazard(HazardModel):
    """Hazard whose logarithm is piecewise linear and convex.

    log hazard(t) = log(lambda0) + w0*t + sum_k w_k * max(0, t - theta_k):
    a negative w0 gives a bathtub, and the log-slope on each segment is w0
    plus the atom mass accumulated so far.
    """

    lambda0: float = field(metadata={"domain": "positive", "prior": ("log-normal", 0)})
    w0: float = field(metadata={"prior": ("normal", 0)})
    draw: GammaProcessDraw
    variant = "lcv"

    @cached_property
    def _lead_and_rates(self) -> tuple[np.ndarray, np.ndarray]:
        """At each knot, log(hazard / lambda0) = w0 knot + integrated mass, and w0 + mass."""
        j = self.draw._count_below(self._knots)
        with np.errstate(over="ignore"):  # inf for a steep hazard
            return self.w0 * self._knots + self.draw._integrated0[j], self.w0 + self.draw._mass0[j]

    @cached_property
    def _skeleton(self) -> _Skeleton:
        lead, rates = self._lead_and_rates
        with np.errstate(over="ignore"):  # a steep hazard's coefficients overflow to inf
            coeffs = self.lambda0 * np.exp(lead)
        return _Skeleton(self._knots, rates, coeffs, math.log(self.lambda0) + lead)

    def _segment_hazard(self, seg, t):
        lead, rates = self._lead_and_rates
        with np.errstate(over="ignore"):  # one exp, so no factor underflows alone; inf at large t
            return self.lambda0 * np.exp(lead[seg] + rates[seg] * (t - self._knots[seg]))


def simulate_dataset(
    model: HazardModel, n: int, tau: float | None, stream: RandomStream
) -> Dataset:
    """n independent failure draws, censored at tau when given.

    Draws beyond tau (including infinite ones from defective models) are
    recorded as censored at tau.  A defective model without tau cannot
    produce a complete dataset and is rejected.
    """
    n = _check_count("n", n, 1)
    if tau is not None:
        tau = _horizon(tau)
    elif math.isfinite(model.cum_hazard_limit()):
        raise ValueError(
            "model is defective (finite total cumulative hazard): "
            "set tau so unbounded draws can be recorded as censored"
        )
    times = model.sample_failures(n, stream)
    if tau is None:
        return Dataset(times=times, observed=np.ones(n, dtype=bool), tau=None)
    censored = times > tau
    return Dataset(times=np.where(censored, tau, times), observed=~censored, tau=tau)


_MODELS = {cls.variant: cls for cls in (IncreasingFailureRate, DecreasingFailureRate, LoWengBathtub,
                                         SuperpositionBathtub, MixtureBathtub, LogConvexHazard)}


def _variant_fields(variant) -> tuple[list[str], list[str], list[str]]:
    """Scalar names, draw keys and the scalars with a prior, of a variant tag, in field order."""
    cls = _MODELS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"unknown model variant: {variant!r}")
    fs = fields(cls)
    draw_keys = [f.metadata.get("key", f.name) for f in fs if cls._is_draw(f)]
    priors = [f.name for f in fs if "prior" in f.metadata]
    return [f.name for f in fs if not cls._is_draw(f)], draw_keys, priors


def _build_model(variant: str, scalars: dict, draws) -> HazardModel:
    """The variant's model from its scalars looked up by name and its draws in field order.

    Raises ValueError naming the variant and the field when a scalar is
    missing or not a real number.
    """
    _require_reals(scalars, _variant_fields(variant)[0], f"{variant} model")
    draws = iter(draws)
    cls = _MODELS[variant]
    return cls(*(next(draws) if cls._is_draw(f) else float(scalars[f.name]) for f in fields(cls)))


def draw_model_params(
    variant: str,
    draws,
    hyper: HyperParams,
    stream: RandomStream,
    *,
    a: float | None = None,
    pi: float | None = None,
    draw_pi: bool = False,
) -> HazardModel:
    """Fill a model's scalar parameters from the conditional priors its fields declare.

    A field's ``prior`` metadata names the prior's kind and, by position,
    the draw whose total mass gamma scales it: an ``offset`` is exponential
    with mean gamma/nu, a ``normal`` is centred with sd gamma/nu, and a
    ``log-normal`` is the exp of such a normal.  The priors are drawn in
    field order, which fixes the random stream.  The bathtub minimum ``a``
    and the mixture weight ``pi`` have no prior and must be supplied;
    ``draw_pi=True`` draws a missing pi uniformly after the priors, an
    extension with no standard prior.  A missing one raises before any draw.
    """
    return _draw_model_params(variant, draws, hyper, stream, {"a": a, "pi": pi}, draw_pi)


def _draw_model_params(variant, draws, hyper, stream, given: dict, draw_pi) -> HazardModel:
    """``draw_model_params`` keeping each scalar in ``given`` (not None); its prior is drawn."""
    names, draw_keys, _ = _variant_fields(variant)
    draws = list(draws)
    if len(draws) != len(draw_keys):
        raise ValueError(f"{variant} needs {len(draw_keys)} draw(s), got {len(draws)}")
    scalars = {name: value for name, value in given.items() if name in names and value is not None}
    for name in ("a", "pi"):
        if name in names and name not in scalars and not (name == "pi" and draw_pi):
            hint = " (or draw_pi=True for a uniform draw)" if name == "pi" else ""
            raise ValueError(f"{variant} requires {name}: it has no prior{hint}")
    for f in fields(_MODELS[variant]):
        if "prior" not in f.metadata:
            continue
        kind, which = f.metadata["prior"]
        gamma = _check_range("the total mass of a draw", draws[which].gamma, "positive")
        if kind == "offset":
            value = stream.exponential(hyper.nu / gamma)
        else:
            value = stream.normal(0.0, gamma / hyper.nu)
        if kind == "log-normal" and f.name not in scalars:
            try:
                value = math.exp(value)
            except OverflowError:
                raise ValueError(f"{variant} prior drew log({f.name}) = {value!r}, "
                                 f"too large for a float {f.name}") from None
        scalars.setdefault(f.name, value)
    if "pi" in names and "pi" not in scalars:  # draw_pi is set
        scalars["pi"] = stream.uniform()
    return _build_model(variant, scalars, draws)


def model_to_dict(model: HazardModel) -> dict:
    return model.to_dict()


def model_from_dict(d: dict) -> HazardModel:
    _require_keys(d, ("model",), "model document")
    variant = d["model"]
    _, draw_keys, _ = _variant_fields(variant)
    _require_keys(d, draw_keys, f"{variant} model")
    return _build_model(variant, d, [GammaProcessDraw.from_dict(d[k]) for k in draw_keys])

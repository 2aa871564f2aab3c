"""The six gamma-process hazard models, their failure sampler and their assembly.

Each model evaluates its hazard, cumulative hazard, survival and density
exactly, and samples failure times by inverting ``cum_hazard(T) = -log(U)``.
A failure time is ``math.inf`` where the model is defective (its total
cumulative hazard is finite): a value, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields
from functools import cache, cached_property
from operator import itemgetter, methodcaller

import numpy as np

from ._checks import (_as_times, _check_count, _check_range, _horizon, _rebuild, _require_keys,
                      _require_reals)
from .datasets import Dataset
from .gamma_process import GammaProcessDraw, _add_mass_times, _distinct, _maybe_scalar
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

_NEWTON_MAX_ITER = 100  # MixtureBathtub's inverse; converging takes at most ~40

_WIDE_LOG = np.finfo(np.longdouble).nmant >= 63
_MIDPOINT_WINDOW = 0.05
_MANTISSA = np.uint64((1 << 52) - 1)
_DOUBLE_MAX = np.finfo(float).max


def _neg_log(u: np.ndarray) -> np.ndarray:
    """-log(u) per element, bit for bit ``-math.log``, on which sampled times have always rested.

    ``np.log`` differs from ``math.log`` in the last bit for some inputs.  A
    long-double log (``_WIDE_LOG``: 64 mantissa bits or more) rounded to
    double agrees with it except within about 0.02 ulp of a rounding midpoint,
    so only elements within ``_MIDPOINT_WINDOW`` ulp of one, and exact powers
    of two (whose lower neighbour is nearer), call ``math.log``.
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
    """The cumulative hazard of ``coeffs[l] * exp(rates[l] * (t - knots[l]))`` on each segment l.

    Segment l runs from ``knots[l]`` to the next knot, the last to infinity.
    ``log_coeffs`` is the log level at each knot, given where a model knows
    it without the exp (lcv).  The increment past a knot is
    ``expm1(r dt) / r * c``, exactly ``c dt`` at r = 0, and the inverse adds
    ``log1p(r e / c) / r``, exactly ``e / c``; both come from ``log_coeffs``
    where the value is inf or nan or c left the double range.  ``values``
    sums whole-segment increments, so the function is weakly monotone at
    rounding scale, and a segment at its end gives the next knot's value bit
    for bit; the last segment's increment to t = inf gives ``limit``, so the
    limit is the value at t = inf by construction.  The methods take checked
    1-d arrays.
    """

    knots: np.ndarray
    rates: np.ndarray | None  # None: every rate is 0 by construction (the step models)
    coeffs: np.ndarray
    log_coeffs: np.ndarray | None = None
    values: np.ndarray = field(init=False)
    limit: float = field(init=False)

    def __post_init__(self):
        coeffs = self.coeffs
        if self.log_coeffs is None:
            with np.errstate(divide="ignore"):
                self.log_coeffs = np.log(coeffs)
        # known once: whether a rate is exactly 0, and the segments whose coefficient left the
        # double range (inf, or 0 while its log is finite); only these take per-element masks
        self._zero_rate = self.rates is not None and not self.rates.all()
        self._outside = None
        if not (coeffs.min() > 0.0 and coeffs.max() < math.inf):
            self._outside = ~(coeffs < math.inf) | (coeffs == 0.0) & (self.log_coeffs > -math.inf)
        knots = self.knots
        ends = np.append(knots[1:], math.inf)
        cum = np.zeros(knots.size + 1)
        incs = self._increment(itemgetter(np.s_[:]), ends, np.subtract(ends, knots, out=cum[1:]))
        with np.errstate(over="ignore"):  # inf where the values pass the double range
            np.add.accumulate(incs, out=cum[1:])
        self.values, self.limit = cum[:-1], float(cum[-1])
        # an underflowed coefficient keeps its mask only where its segment moves the knot
        # values or the limit, so a model whose vanishing tail adds nothing takes none
        if self._outside is not None:
            self._outside &= (coeffs != 0.0) | (cum[1:] > self.values)
            self._outside = self._outside if self._outside.any() else None

    def _increment(self, pick, t: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Integral of the hazard to each time in ``t`` from the knot of its segment.

        ``pick`` gives a per-segment array's entry at each time: ``itemgetter``
        of the times' segments, or ``_split``'s ``spread``.  ``dt`` is ``t``
        minus that knot, which the caller has at hand; the 1-d dt may be
        overwritten, and ``t`` gives it again where the increment is taken
        from the logs.
        """
        coeff = pick(self.coeffs)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.rates is None:
                if self.coeffs[-1] == 0.0:  # a zero level adds 0, even over an infinite width
                    np.minimum(dt, _DOUBLE_MAX, out=dt)
                out = np.multiply(dt, coeff, out=dt)
            else:  # expm1(r dt) / r * c in dt's buffer, which keeps dt where r is 0
                rate = pick(self.rates)
                x = np.multiply(rate, dt, out=None if self._zero_rate else dt)
                out = np.divide(np.expm1(x, out=x), rate, out=dt,
                                where=rate != 0.0 if self._zero_rate else True)
                out *= coeff  # inf where the increment overflows; nan where c is inf and dt is 0
            if self._outside is None and (self.rates is None or out.max(initial=0.0) < math.inf):
                return out
            # from the logs: c exp(log|expm1(x)| - log|r|), log|expm1(x)| = max(x, 0) +
            # log(-expm1(-|x|)), and c dt where r is 0; a zero width adds 0 even where c is inf,
            # and a zero level (log c = -inf) adds 0 as above
            redo = ~(out < math.inf)
            if self._outside is not None:  # an underflowed c gives 0, not inf or nan
                redo |= pick(self._outside)
            at = redo.nonzero()[0]
            s = pick(np.arange(self.knots.size))[at]
            r = 0.0 if self.rates is None else rate[at]
            d = t[at] - self.knots[s]
            x, log_c = r * d, self.log_coeffs[s]
            y = np.where(r == 0.0, log_c + np.log(d), log_c + np.maximum(x, 0.0)
                         + np.log(-np.expm1(-np.abs(x))) - np.log(np.abs(r)))
            out[at] = np.exp(y, out=np.zeros(at.size), where=(d > 0.0) & (log_c > -math.inf))
        return out

    def _locate(self, t: np.ndarray, seg=None) -> tuple[np.ndarray, np.ndarray]:
        """The segment of each time in a checked 1-d ``t``, looked up unless ``seg`` gives it,
        and the cumulative hazard there."""
        if seg is None:
            seg = self.knots.searchsorted(t, "right") - 1
        dt = self.knots[seg]
        cum = self._increment(itemgetter(seg), t, np.subtract(t, dt, out=dt))
        with np.errstate(over="ignore"):  # inf where the value passes the double range
            cum += self.values[seg]
        return seg, cum

    def _split(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, methodcaller, np.ndarray]:
        """The ascending ``times`` split by the knots, in O(K log n): one search of the knots.

        Segment l holds ``times[starts[l]:starts[l] + counts[l]]``, the times
        from its knot on.  ``spread`` repeats each entry of a per-segment
        array over its segment's times, the same as indexing it by segment,
        and ``offsets`` is how far each time lies past its knot.
        """
        starts = times.searchsorted(self.knots, "left")
        counts = starts.copy()
        counts[:-1] = starts[1:]
        counts[-1] = times.size
        counts -= starts
        spread = methodcaller("repeat", counts)
        offsets = spread(self.knots)
        return starts, counts, spread, np.subtract(times, offsets, out=offsets)

    def invert(self, arr: np.ndarray) -> np.ndarray:
        """Where the cumulative hazard reaches each checked 1-d target in ``arr``.

        Past the limit of a decaying tail (r e / c <= -1) or a flat one (c = 0) the time is ``inf``.
        A target at a knot value gives the first knot that has it: 0 for 0, and on a plateau the
        knot where it starts.
        """
        seg = self.values.searchsorted(arr, "left")
        seg -= self.values.take(seg, mode="clip") != arr  # back one unless at the knot's value
        knot, base, coeff = self.knots[seg], self.values[seg], self.coeffs[seg]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            excess = arr - base  # nan (inf - inf) where the knot values overflowed
            step = excess / coeff
            finite = np.isfinite(step)
            if self.rates is not None:
                rate = self.rates[seg]
                arg, curved = rate * excess / coeff, rate != 0.0
                np.divide(np.log1p(np.maximum(arg, -1.0)), rate, out=step, where=curved)
                np.isfinite(arg, out=finite, where=curved)
            # from the logs where e / c (r = 0) or r e / c is not finite, or c left the double
            # range (an overflowed c gives a finite value)
            at = (~finite if self._outside is None else ~finite | self._outside[seg]).nonzero()[0]
            if at.size:  # w = log|r e / c|: e / c = exp(w) where r is 0, else log1p(+-exp(w)) / r
                r, c, e = 0.0 if self.rates is None else rate[at], coeff[at], excess[at]
                log_c = np.where((c > 0.0) & (c < math.inf), np.log(c), self.log_coeffs[seg[at]])
                w = np.log(np.abs(r)) + np.log(e) - log_c
                past = np.where(r > 0.0, np.logaddexp(0.0, w), np.log1p(-np.exp(w))) / r
                past = np.where(r == 0.0, np.exp(np.log(e) - log_c), past)
                step[at] = past
            t = np.fmin(knot + step, math.inf)  # nan, past a decaying tail's limit, is inf
        np.copyto(t, knot + 0.0, where=excess == 0.0)  # +0.0 where that knot is -0.0
        return t


class HazardModel:
    """The one base of the six models.

    A model is a frozen dataclass whose fields, in order, are its
    constructor arguments and document keys; a scalar field's metadata
    names its domain (finite if none), outside which construction raises
    ValueError, and any conditional prior.  Its draws are immutable too, so
    what it caches never goes stale.  ``hazard`` and ``cum_hazard`` read one
    pointwise kernel, ``_hazard_and_cum``: a subclass gives a cached ``_skeleton``,
    whose segment of a time gives its cumulative hazard and, by ``_segment_hazard``,
    its hazard, or (the mixture) a kernel of its own.
    """

    variant: str

    __reduce__ = _rebuild

    def __post_init__(self):
        vars(self).update({name: _check_range(name, getattr(self, name), domain)
                           for name, domain in self._fields()[1].items()})

    def hazard(self, t):
        """Instantaneous failure rate at t (scalar or array)."""
        arr = _as_times(t)
        return _maybe_scalar(self._hazard_and_cum(arr.reshape(-1))[0].reshape(arr.shape), t)

    def _segment_hazard(self, seg: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The hazard at checked times ``t`` in skeleton segments ``seg``: the segment's level."""
        return self._skeleton.coeffs[seg]

    def cum_hazard(self, t):
        """Integral of the hazard over [0, t]."""
        arr = _as_times(t)
        return _maybe_scalar(self._hazard_and_cum(arr.reshape(-1))[1].reshape(arr.shape), t)

    def cum_hazard_limit(self) -> float:
        """Total cumulative hazard as t grows without bound; finite means defective."""
        return self._skeleton.limit

    def invert_cum_hazard(self, target):
        """The smallest T with cum_hazard(T) = target (on a plateau, the knot where it starts), or
        inf where the target is not reached."""
        x = _as_times(target, "target")
        return _maybe_scalar(self._skeleton.invert(x.reshape(-1)).reshape(x.shape), target)

    def _hazard_and_cum(self, t, seg=None):
        """The kernel: hazard and cumulative hazard at checked 1-d times, in ``seg`` if given."""
        seg, cum = self._skeleton._locate(t, seg)
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
        seg = counts.nonzero()[0]
        n, at = counts[seg], starts[seg]
        with np.errstate(over="ignore", invalid="ignore"):
            spent = np.add.reduceat(offsets, at)
            lead = n * skeleton.log_coeffs[seg]
            if skeleton.rates is None:  # rate 0: no log-slope term
                past = skeleton.coeffs[seg] * spent
            else:  # the increments may overwrite the offsets, read by now
                lead += skeleton.rates[seg] * spent
                past = np.add.reduceat(skeleton._increment(spread, obs, offsets), at)
            observed = float((lead - (n * skeleton.values[seg] + past)).sum())
        observed = observed if observed < math.inf else -math.inf
        return observed, float(skeleton._locate(cens)[1].sum())

    def breakpoints(self) -> np.ndarray:
        """Sorted locations where the hazard jumps or kinks: the draws' distinct atoms."""
        atoms = [getattr(self, name).ordered.thetas for name in self._fields()[2]]
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

    @classmethod
    @cache
    def _fields(cls) -> tuple[tuple, dict, dict, dict]:
        """Read once per class, in field order: names, scalar domains, draw keys and priors."""
        fs = fields(cls)
        return (tuple(f.name for f in fs),
                {f.name: f.metadata.get("domain", "finite") for f in fs if not cls._is_draw(f)},
                {f.name: f.metadata.get("key", f.name) for f in fs if cls._is_draw(f)},
                {f.name: f.metadata["prior"] for f in fs if "prior" in f.metadata})

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

    A subclass gives ``_levels()``, the hazard from each of its own knots on:
    the skeleton's ``coeffs``, so the hazard steps exactly where the
    cumulative hazard bends.
    """

    lambda0: float = field(metadata={"domain": "non-negative", "prior": ("offset", -1)})

    @cached_property
    def _skeleton(self) -> _Skeleton:
        with np.errstate(over="ignore"):  # a level past the double range is inf
            levels = self._levels()
        return _Skeleton(self._knots, None, levels)


class _OnOneDraw:
    """A model whose knots are 0 and its one draw's distinct atoms, which the draw holds."""

    _knots = cached_property(lambda self: self.draw._knots[0])


@dataclass(frozen=True, eq=False)
class IncreasingFailureRate(_OnOneDraw, _StepHazard):
    """Non-decreasing hazard: a background rate plus the atom mass at or below t.

    The cumulative hazard is lambda0*t + sum_k w_k * max(0, t - theta_k).
    """

    draw: GammaProcessDraw
    variant = "ifr"

    def _levels(self):
        return self.lambda0 + self.draw._mass0[self.draw._knots[1]]


@dataclass(frozen=True, eq=False)
class DecreasingFailureRate(_OnOneDraw, _StepHazard):
    """Non-increasing hazard: a background rate plus the atom mass strictly above t.

    The cumulative hazard is lambda0*t + sum_k w_k * min(t, theta_k).
    """

    draw: GammaProcessDraw
    variant = "dfr"

    def _levels(self):
        return self.lambda0 + self.draw._above0[self.draw._knots[1]]


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

    @cached_property
    def _mirrored(self) -> tuple[np.ndarray, np.ndarray]:
        """The knots a - theta of the atoms below a, and a + theta of all, in atom order."""
        th = self.draw.ordered.thetas
        return self.a - th[th < self.a], self.a + th

    def _levels(self):
        # a knot's level counts a prefix of the sorted atoms: before a, those whose
        # knot a - theta lies above it; from a on, those whose knot a + theta does not
        knots = self._knots
        down, up = self._mirrored
        above = down.size - np.searchsorted(down[::-1], knots, "right")
        j = np.where(knots < self.a, above, np.searchsorted(up, knots, "right"))
        return self.draw._mass0[j] + self.lambda0

    def breakpoints(self) -> np.ndarray:
        # non-decreasing as it stands: a - theta <= a <= a + theta, and rounding keeps the order
        down, up = self._mirrored
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

    def _levels(self):
        d1, d2 = self.draw_decreasing, self.draw_increasing
        j1, j2 = d1._count_below(self._knots), d2._count_below(self._knots)
        return self.lambda0 + d1._above0[j1] + d2._mass0[j2]


@dataclass(frozen=True, eq=False)
class MixtureBathtub(HazardModel):
    """Two-component survival mixture of a decreasing and an increasing model.

    With log-weights a1 = log(pi) - L1 and a2 = log(1-pi) - L2 the survival
    is exp(logaddexp(a1, a2)), and the hazard (not a bathtub in general)
    weights the component hazards by 1 / (1 + exp(a2 - a1)) and its mirror,
    which sum to 1 even where both survivals underflow.  Sampling picks a
    component and inverts it.  Between pooled knots L1 and L2 are linear, so
    the mixture cumulative hazard is concave there: Newton's method from the
    left knot of a target's segment rises to the root without overshooting,
    and the segment's end bounds a step that rounding carries past it.  Where
    the hazard at the knot is inf, H jumps just past it: Newton starts one
    double on, and a target inside the jump gives the knot.
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
        vars(self).update(components=(DecreasingFailureRate(self.lambda01, self.draw1),
                                      IncreasingFailureRate(self.lambda02, self.draw2)),
                          _log_pi=log_pi, _log_one=float(np.logaddexp(*log_pi)))

    def survival(self, t):
        s1, s2 = (np.asarray(c.survival(t)) for c in self.components)
        return _maybe_scalar(self.pi * s1 + (1.0 - self.pi) * s2, t)

    def density(self, t):
        # a weight of 0 (pi = 1) adds 0, even where the increasing density is inf
        f1, f2 = (np.asarray(c.density(t)) for c in self.components)
        return _maybe_scalar(_add_mass_times(self.pi * f1, 1.0 - self.pi, f2), t)

    def _hazard_and_cum(self, t, segs=(None, None)):
        """The pair from both components' pairs, in their skeleton segments ``segs`` if given."""
        (h1, l1), (h2, l2) = (c._hazard_and_cum(t, s) for c, s in zip(self.components, segs))
        a1, a2 = self._log_pi[0] - np.asarray(l1), self._log_pi[1] - np.asarray(l2)
        log_s = np.logaddexp(a1, a2)
        with np.errstate(over="ignore", invalid="ignore"):  # nan where both L are inf
            w1, w2 = 1.0 / (1.0 + np.exp(a2 - a1)), 1.0 / (1.0 + np.exp(a1 - a2))
            # a term of weight 0 adds 0, even where its level is inf; a nan weight stays nan
            lam = np.multiply(w1, h1, out=w1, where=w1 > 0.0)
            lam += np.multiply(w2, h2, out=w2, where=w2 > 0.0)
        if log_s.min(initial=0.0) == -math.inf:
            # the weights' limit as both L grow: all of it on the component of the lower hazard
            both = log_s == -math.inf
            lam[both] = np.minimum(h1[both], h2[both] if self.pi < 1.0 else math.inf)
        return lam, self._log_one - log_s

    def cum_hazard_limit(self) -> float:
        return float(self._top()[1])

    def _top(self) -> np.ndarray:
        """H at the largest double and at t = inf: the kernel in each component's last segment."""
        last = tuple(seg[[-1, -1]] for seg in self._knot_segments)
        return self._hazard_and_cum(np.array([_DOUBLE_MAX, math.inf]), last)[1]

    def _log_likelihood_terms(self, obs: np.ndarray, cens: np.ndarray) -> tuple[float, float]:
        """The base's (observed, censored) sums, from log h - H = log f - _log_one at an event.

        ``log f = logaddexp(log(pi) + log h1 - L1, log(1-pi) + log h2 - L2)`` is
        -inf where both L overflow.  A component whose level is inf has a log
        density of -inf in that segment, as when it is scored alone, so no
        inf - inf appears.
        """
        log_terms = []
        # nan for an inf level with log(1 - pi) = -inf; a sum below the double range is -inf
        with np.errstate(invalid="ignore", over="ignore"):
            for component, log_pi in zip(self.components, self._log_pi):
                skeleton = component._skeleton
                spread, offsets = skeleton._split(obs)[2:]
                lead = log_pi + skeleton.log_coeffs
                lead[~(lead < math.inf)] = -math.inf  # an infinite level
                cum = skeleton._increment(spread, obs, offsets)
                cum += spread(skeleton.values)
                log_terms.append(np.subtract(spread(lead), cum, out=cum))
            observed = float(np.logaddexp(*log_terms).sum()) - obs.size * self._log_one
        return observed, float(self._hazard_and_cum(cens)[1].sum())

    @cached_property
    def _knot_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Each component's skeleton segment of each pooled knot, and so of its pooled segment."""
        return tuple(c._skeleton.knots.searchsorted(self._knots, "right") - 1
                     for c in self.components)

    @cached_property
    def _knot_values(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pooled knots, the cumulative hazard there and the hazard from there on."""
        return self._knots, *self._hazard_and_cum(self._knots, self._knot_segments)[::-1]

    def invert_cum_hazard(self, target):
        x = _as_times(target, "target")
        cum_max, limit = self._top()
        knots, kvals, khaz = self._knot_values
        # inf for a target above H at the largest double, or at a limit not taken at the last knot
        top = min(math.nextafter(cum_max, math.inf), limit if kvals[-1] < limit else math.inf)
        out = np.where(x >= top, np.inf, 0.0)
        live = (x > 0.0) & (x < top)
        xs = x[live]
        j = kvals.searchsorted(xs, "left")
        j -= kvals.take(j, mode="clip") != xs  # back one unless at the knot's value
        (seg1, seg2), ends = self._knot_segments, np.append(knots[1:], math.inf)
        t = knots[j]
        # the first round reads the knot table, which holds the kernel's bits at each knot;
        # only a start moved one double past a knot of inf hazard calls the kernel
        lam, cum = khaz[j], kvals[j]
        jump = lam == math.inf
        if jump.any():
            np.nextafter(t, math.inf, out=t, where=jump)
            lam[jump], cum[jump] = self._hazard_and_cum(t[jump], (seg1[j[jump]], seg2[j[jump]]))
        gap = np.full(xs.size, np.inf)
        moving = np.arange(xs.size)
        for _ in range(_NEWTON_MAX_ITER):
            resid = xs[moving] - cum
            # exact steps shrink the gap x - cum_hazard(t) > 0 every time; once
            # it is closed or stops shrinking, only rounding is left.  A target
            # that stops keeps its t and gap, so it would stop again: it is dropped
            going = (resid > 0.0) & (resid < gap[moving])
            if not going.any():
                break
            moving = moving[going]
            gap[moving] = resid[going]
            jm = j[moving]
            t[moving] = np.minimum(t[moving] + resid[going] / lam[going], ends[jm])
            lam, cum = self._hazard_and_cum(t[moving], (seg1[jm], seg2[jm]))
        else:
            raise RuntimeError(f"mixture inverse did not converge in {_NEWTON_MAX_ITER} steps")
        out[live] = np.where(gap < math.inf, t, knots[j])  # a target the start reaches: the knot
        return _maybe_scalar(out, target)

    def sample_failures(self, n: int, stream: RandomStream) -> np.ndarray:
        """Per record one uniform picks the component (as ``categorical``), the next inverts it."""
        if self.pi == 1.0:  # degenerate mixture, no component pick needed
            return self.components[0].sample_failures(n, stream)
        u = stream.uniforms(2 * _check_count("n", n)).reshape(-1, 2)
        pick = _categorical_pick(np.array([self.pi, 1.0 - self.pi]), u[:, 0])
        x = _neg_log(u[:, 1])
        out = np.empty(x.size)
        for c, component in enumerate(self.components):
            mask = pick == c
            out[mask] = component.invert_cum_hazard(x[mask])
        return out


@dataclass(frozen=True, eq=False)
class LogConvexHazard(_OnOneDraw, HazardModel):
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
        j = self.draw._knots[1]
        with np.errstate(over="ignore"):  # inf for a steep hazard
            return self.w0 * self._knots + self.draw._integrated0[j], self.w0 + self.draw._mass0[j]

    @cached_property
    def _skeleton(self) -> _Skeleton:
        lead, rates = self._lead_and_rates
        with np.errstate(over="ignore"):  # a steep hazard's coefficients overflow to inf
            coeffs = self.lambda0 * np.exp(lead)
        # every rate 0 (w0 = 0 and no atom mass): the linear skeleton of a constant hazard
        return _Skeleton(self._knots, rates if rates.any() else None, coeffs,
                         math.log(self.lambda0) + lead)

    def _segment_hazard(self, seg, t):
        lead, rates = self._lead_and_rates
        dt = t - self._knots[seg]
        if rates[-1] == 0.0:  # a flat log tail adds 0, also at t = inf
            dt = np.minimum(dt, _DOUBLE_MAX)
        with np.errstate(over="ignore"):  # exp(log(lambda0) + x) where lambda0 exp(x) is 0 or inf
            x = lead[seg] + rates[seg] * dt  # +-inf past the double range
            out = self.lambda0 * np.exp(x)
            return np.where((out > 0.0) & (out < math.inf), out, np.exp(math.log(self.lambda0) + x))


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


def _model_class(variant) -> type[HazardModel]:
    """The model class of a variant tag; ValueError for any other value, unhashable ones too."""
    cls = _MODELS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"unknown model variant: {variant!r}")
    return cls


def _build_model(cls: type[HazardModel], scalars: dict, draws) -> HazardModel:
    """A ``cls`` model from its scalars looked up by name and its draws in field order.

    Raises ValueError naming the variant and the field when a scalar is
    missing or not a real number.
    """
    names, domains, draw_keys, _ = cls._fields()
    _require_reals(scalars, domains, f"{cls.variant} model")
    draws = iter(draws)
    return cls(*(next(draws) if name in draw_keys else float(scalars[name]) for name in names))


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
    return _draw_model_params(_model_class(variant), draws, hyper, stream, {"a": a, "pi": pi},
                              draw_pi)


def _draw_model_params(cls, draws, hyper, stream, given: dict, draw_pi) -> HazardModel:
    """``draw_model_params`` keeping each scalar in ``given`` (not None); its prior is drawn."""
    _, names, draw_keys, priors = cls._fields()
    variant, draws = cls.variant, list(draws)
    if len(draws) != len(draw_keys):
        raise ValueError(f"{variant} needs {len(draw_keys)} draw(s), got {len(draws)}")
    scalars = {name: value for name, value in given.items() if name in names and value is not None}
    for name in ("a", "pi"):
        if name in names and name not in scalars and not (name == "pi" and draw_pi):
            hint = " (or draw_pi=True for a uniform draw)" if name == "pi" else ""
            raise ValueError(f"{variant} requires {name}: it has no prior{hint}")
    for name, (kind, which) in priors.items():
        gamma = _check_range("the total mass of a draw", draws[which].gamma, "positive")
        if kind == "offset":
            value = stream.exponential(hyper.nu / gamma)
        else:
            value = stream.normal(0.0, gamma / hyper.nu)
        if kind == "log-normal" and name not in scalars:
            try:
                exp_value = math.exp(value)
            except OverflowError:
                exp_value = math.inf
            if exp_value in (0.0, math.inf):
                raise ValueError(f"{variant} prior drew log({name}) = {value!r}, "
                                 f"too {'large' if exp_value else 'small'} for a float {name}")
            value = exp_value
        scalars.setdefault(name, value)
    if "pi" in names and "pi" not in scalars:  # draw_pi is set
        scalars["pi"] = stream.uniform()
    return _build_model(cls, scalars, draws)


def model_to_dict(model: HazardModel) -> dict:
    return model.to_dict()


def model_from_dict(d: dict) -> HazardModel:
    _require_keys(d, ("model",), "model document")
    cls = _model_class(d["model"])
    draw_keys = cls._fields()[2].values()
    _require_keys(d, draw_keys, f"{cls.variant} model")
    return _build_model(cls, d, [GammaProcessDraw.from_dict(d[k]) for k in draw_keys])

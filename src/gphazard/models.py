"""Six hazard-rate models driven by gamma process draws.

Each model evaluates its hazard, cumulative hazard, density and survival
in closed form, and samples failure times exactly by solving
``cum_hazard(T) = -log(U)``.  Five of the models share one cumulative-hazard
skeleton that inverts in closed form: between knots the hazard is
``c * exp(r * (t - knot))``.  The four step-hazard models are its rate-0
case, with linear segments between breakpoints, and the log-convex model
uses its exponential segments, with knots at the atom locations.  The mixture
model's cumulative hazard is concave between its pooled knots, so Newton's
method started at the left knot inverts it without overshooting.

A failure draw can be infinite when the total cumulative hazard is
finite (a defective failure distribution); ``math.inf`` is the sentinel
for that outcome, never an exception.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import Field, dataclass, field, fields
from functools import cached_property

import numpy as np

from .datasets import Dataset, _horizon
from .gamma_process import GammaProcessDraw, _as_times, _require_keys
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

_MERGE_MIN = 1024  # fewest keys _rank merges; below it the merge's fixed cost dominates


def _as_targets(x) -> np.ndarray:
    return _as_times(x, "target")


def _maybe_scalar(out: np.ndarray, like) -> float | np.ndarray:
    return float(out) if np.ndim(like) == 0 else out


def _rank(edges: np.ndarray, t: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(edges, t, side)``, by merging when t is a long monotone 1-d array.

    A binary search per key mispredicts its branches on unsorted keys.  On
    non-decreasing keys the ranks are the cumulated counts of the edges
    that fall before each key, which one search of the edges into the keys
    gives: O(n + K log n) in place of O(n log K).  Non-increasing keys (as
    ``a - t``) are merged reversed.  Short inputs, where the merge's fixed
    cost outweighs the search, and unsorted ones take the plain search.
    """
    if t.ndim != 1 or t.size < _MERGE_MIN or t.size < 2 * edges.size:
        return np.searchsorted(edges, t, side=side)
    rising = t[0] <= t[-1]
    keys = t if rising else t[::-1]
    if not (keys[1:] >= keys[:-1]).all():
        return np.searchsorted(edges, t, side=side)
    first = np.searchsorted(keys, edges, side="left" if side == "right" else "right")
    ranks = np.cumsum(np.bincount(first, minlength=keys.size + 1)[:-1])
    return ranks if rising else ranks[::-1]


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
    to infinity), the hazard is ``coeffs[l] * exp(rates[l] * (t - knots[l]))``.
    A rate below ``_ZERO_RATE`` in magnitude makes the segment linear with
    slope ``coeffs[l]``, and a zero coefficient makes it flat: inverting
    past the value a flat tail holds yields ``inf``.  ``values`` holds the
    cumulative hazard at the knots, accumulated from non-negative segment
    increments, so the function is weakly monotone even at rounding scale
    and evaluation and inversion share it.
    """

    knots: np.ndarray
    rates: np.ndarray
    coeffs: np.ndarray
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        # read once from the segments: when none grows and every slope is finite (the
        # step models), evaluation and inversion look at no rate per element
        self._linear = bool(np.all(np.abs(self.rates) < _ZERO_RATE)
                            and np.all(np.isfinite(self.coeffs)))
        incs = self._increment(np.s_[:-1], np.diff(self.knots))
        self.values = np.concatenate(([0.0], np.cumsum(incs)))

    def _increment(self, seg, dt: np.ndarray) -> np.ndarray:
        """Integral of the hazard over [knots[seg], knots[seg] + dt], elementwise over 1-d dt."""
        coeff = self.coeffs[seg]
        if self._linear:
            return coeff * dt
        rate = self.rates[seg]
        out = np.zeros(dt.shape)  # dt = 0 adds 0, also to an overflowed coefficient
        moved = dt != 0.0
        lin = moved & (np.abs(rate) < _ZERO_RATE)
        grow = moved & ~lin
        out[lin] = coeff[lin] * dt[lin]
        with np.errstate(over="ignore"):  # a growing hazard's integral overflows to inf
            out[grow] = coeff[grow] * np.expm1(rate[grow] * dt[grow]) / rate[grow]
        return out

    def value(self, t):
        arr = _as_times(t).reshape(-1)
        seg = _rank(self.knots, arr, "right") - 1
        out = self.values[seg] + self._increment(seg, arr - self.knots[seg])
        return _maybe_scalar(out.reshape(np.shape(t)), t)

    def limit(self) -> float:
        rate, coeff = float(self.rates[-1]), float(self.coeffs[-1])
        if rate <= -_ZERO_RATE:  # a decaying tail adds coeff / -rate
            return float(self.values[-1] + coeff / -rate)
        return math.inf if rate >= _ZERO_RATE or coeff > 0.0 else float(self.values[-1])

    def invert(self, x):
        arr = _as_targets(x).reshape(-1)
        seg = np.maximum(np.searchsorted(self.values, arr, side="right") - 1, 0)
        knot, base, coeff = self.knots[seg], self.values[seg], self.coeffs[seg]
        excess = arr - base
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = knot + excess / coeff  # a vanishing slope puts t past the double range
        if not self._linear:
            rate = self.rates[seg]
            g = np.abs(rate) >= _ZERO_RATE
            t[g] = self._invert_growing(knot[g], excess[g], rate[g], coeff[g])
        flat = coeff <= 0.0
        if np.any(flat):
            t = np.where(flat & (arr == base), knot, t)
            t = np.where(flat & (arr > base), np.inf, t)
        t = np.where(arr == 0.0, 0.0, t)
        return _maybe_scalar(t.reshape(np.shape(x)), x)

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
    """Common evaluation and sampling surface of all six models."""

    variant: str

    @abstractmethod
    def hazard(self, t):
        """Instantaneous failure rate at t (scalar or array)."""

    @abstractmethod
    def cum_hazard(self, t):
        """Integral of the hazard over [0, t]."""

    @abstractmethod
    def cum_hazard_limit(self) -> float:
        """Total cumulative hazard as t grows without bound; finite means defective."""

    @abstractmethod
    def invert_cum_hazard(self, target):
        """Smallest-segment solution T of cum_hazard(T) = target, or inf past the limit."""

    @abstractmethod
    def breakpoints(self) -> np.ndarray:
        """Sorted locations where the hazard jumps or kinks."""

    @abstractmethod
    def to_dict(self) -> dict: ...

    def survival(self, t):
        out = np.exp(-np.asarray(self.cum_hazard(t), dtype=float))
        return _maybe_scalar(out, t)

    def density(self, t):
        surv = np.asarray(self.survival(t), dtype=float)
        with np.errstate(invalid="ignore"):  # an overflowed hazard times zero survival
            out = np.where(surv == 0.0, 0.0, np.asarray(self.hazard(t)) * surv)
        return _maybe_scalar(out, t)

    def sample_failure(self, stream: RandomStream) -> float:
        """One failure time via inverse transform; may be inf for defective models."""
        return float(self.sample_failures(1, stream)[0])

    def sample_failures(self, n: int, stream: RandomStream) -> np.ndarray:
        """n failure times, identical to n successive calls of :meth:`sample_failure`."""
        return self.invert_cum_hazard(_neg_log(stream.uniforms(n)))


def _is_draw(f: Field) -> bool:
    return f.type == "GammaProcessDraw"  # annotations are strings in this module


class _DrawModel(HazardModel):
    """Dataclass model whose fields, in order, are its constructor arguments and document keys.

    By default the cumulative hazard goes through the subclass's cached
    ``_skeleton`` and the breakpoints are the draws' pooled atom locations.
    """

    def cum_hazard(self, t):
        return self._skeleton.value(t)

    def cum_hazard_limit(self) -> float:
        return self._skeleton.limit()

    def invert_cum_hazard(self, target):
        return self._skeleton.invert(target)

    def breakpoints(self) -> np.ndarray:
        draws = [getattr(self, f.name) for f in fields(self) if _is_draw(f)]
        return np.unique(np.concatenate([d.ordered.thetas for d in draws]))

    def to_dict(self) -> dict:
        out = {"model": self.variant}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.metadata.get("key", f.name)] = value.to_dict() if _is_draw(f) else value
        return out


class _StepHazard(_DrawModel):
    """Piecewise-constant hazard at least ``lambda0`` >= 0, with a linear skeleton."""

    def __post_init__(self):
        if self.lambda0 < 0.0:
            raise ValueError(f"lambda0 must be non-negative, got {self.lambda0}")

    @cached_property
    def _skeleton(self) -> _Skeleton:
        """Linear segments between the breakpoints.

        Each slope is the hazard at the segment's midpoint, the last one the
        hazard one unit past the last knot; both are exact for step hazards.
        """
        knots = np.unique(np.concatenate(([0.0], self.breakpoints())))
        mids = np.append(0.5 * (knots[:-1] + knots[1:]), knots[-1] + 1.0)
        return _Skeleton(knots, np.zeros(knots.size), self.hazard(mids))


@dataclass(eq=False)
class IncreasingFailureRate(_StepHazard):
    """Non-decreasing hazard: a background rate plus the atom mass at or below t.

    The cumulative hazard is lambda0*t + sum_k w_k * max(0, t - theta_k).
    """

    lambda0: float
    draw: GammaProcessDraw
    variant = "ifr"

    def hazard(self, t):
        arr = _as_times(t)
        j = _rank(self.draw.ordered.thetas, arr, "right")
        return _maybe_scalar(self.lambda0 + self.draw._mass0[j], t)


@dataclass(eq=False)
class DecreasingFailureRate(_StepHazard):
    """Non-increasing hazard: a background rate plus the atom mass strictly above t.

    The cumulative hazard is lambda0*t + sum_k w_k * min(t, theta_k).
    """

    lambda0: float
    draw: GammaProcessDraw
    variant = "dfr"

    def hazard(self, t):
        arr = _as_times(t)
        mass = self.draw._mass0
        j = _rank(self.draw.ordered.thetas, arr, "right")
        return _maybe_scalar(self.lambda0 + mass[-1] - mass[j], t)


@dataclass(eq=False)
class LoWengBathtub(_StepHazard):
    """Bathtub hazard symmetric about its minimum at t = a.

    Decreasing on [0, a), minimum value lambda0 at t = a, then mirrored
    increases: each atom at theta steps the hazard down at a - theta and
    up at a + theta, so the cumulative hazard is linear between those
    pooled breakpoints.
    """

    lambda0: float
    a: float
    draw: GammaProcessDraw
    variant = "lwb"

    def __post_init__(self):
        super().__post_init__()
        if self.a < 0.0:
            raise ValueError(f"a must be non-negative, got {self.a}")

    def hazard(self, t):
        arr = _as_times(t)
        thetas, mass = self.draw.ordered.thetas, self.draw._mass0
        early = mass[_rank(thetas, self.a - arr, "left")]   # atoms below a - t
        late = mass[_rank(thetas, arr - self.a, "right")]   # atoms at or below t - a
        return _maybe_scalar(self.lambda0 + np.where(arr < self.a, early, late), t)

    def breakpoints(self) -> np.ndarray:
        th = self.draw.ordered.thetas
        return np.unique(np.concatenate((self.a - th[th < self.a], [self.a], self.a + th)))


@dataclass(eq=False)
class SuperpositionBathtub(_StepHazard):
    """Sum of a decreasing and an increasing hazard from two independent draws.

    The cumulative hazard is lambda0*t + sum_k w1k*min(t, theta1k)
    + sum_k w2k*max(0, t - theta2k).
    """

    lambda0: float
    draw_decreasing: GammaProcessDraw = field(metadata={"key": "draw1"})
    draw_increasing: GammaProcessDraw = field(metadata={"key": "draw2"})
    variant = "sbt"

    def hazard(self, t):
        arr = _as_times(t)
        d1, d2 = self.draw_decreasing, self.draw_increasing
        j1 = _rank(d1.ordered.thetas, arr, "right")
        j2 = _rank(d2.ordered.thetas, arr, "right")
        return _maybe_scalar(self.lambda0 + d1._mass0[-1] - d1._mass0[j1] + d2._mass0[j2], t)


@dataclass(eq=False)
class MixtureBathtub(_DrawModel):
    """Two-component survival mixture of a decreasing and an increasing model.

    With log-weights a1 = log(pi) - L1 and a2 = log(1-pi) - L2 the survival
    is exp(logaddexp(a1, a2)), and the hazard (not a bathtub in general)
    weights the component hazards by exp(a_i - logaddexp(a1, a2)), so nothing
    underflows where both survivals do.  Sampling picks a component and
    inverts it.  Between pooled knots L1 and L2 are linear, so the mixture
    cumulative hazard is concave there: Newton's method from the left knot of
    a target's segment rises to the root without overshooting or a bracket.
    """

    pi: float
    lambda01: float
    draw1: GammaProcessDraw
    lambda02: float
    draw2: GammaProcessDraw
    variant = "mbt"

    def __post_init__(self):
        if not (0.0 < self.pi <= 1.0):
            raise ValueError(f"pi must be in (0, 1], got {self.pi}")
        self._decreasing = DecreasingFailureRate(self.lambda01, self.draw1)
        self._increasing = IncreasingFailureRate(self.lambda02, self.draw2)
        with np.errstate(divide="ignore"):  # pi = 1 gives log(1 - pi) = -inf
            self._log_pi = (math.log(self.pi), float(np.log1p(-self.pi)))
        # 0 up to rounding; subtracting it keeps cum_hazard(0) exactly 0
        self._log_one = float(np.logaddexp(*self._log_pi))

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
        dec, inc = self.components
        a1, a2, log_s = self._log_weights(dec.cum_hazard(arr), inc.cum_hazard(arr))
        out = np.exp(a1 - log_s) * dec.hazard(arr) + np.exp(a2 - log_s) * inc.hazard(arr)
        return _maybe_scalar(out, t)

    def cum_hazard(self, t):
        arr = _as_times(t)
        dec, inc = self.components
        log_s = self._log_weights(dec.cum_hazard(arr), inc.cum_hazard(arr))[2]
        return _maybe_scalar(self._log_one - log_s, t)

    def cum_hazard_limit(self) -> float:
        log_s = self._log_weights(*(c.cum_hazard_limit() for c in self.components))[2]
        return float(self._log_one - log_s)

    @cached_property
    def _knot_values(self) -> tuple[np.ndarray, np.ndarray]:
        knots = np.unique(np.concatenate(([0.0], self.breakpoints())))
        return knots, np.asarray(self.cum_hazard(knots))

    def invert_cum_hazard(self, target):
        x = _as_targets(target)
        limit = self.cum_hazard_limit()
        out = np.where(x >= limit, np.inf, 0.0)
        live = (x > 0.0) & (x < limit)
        xs = x[live]
        knots, kvals = self._knot_values
        t = knots[np.maximum(np.searchsorted(kvals, xs, side="right") - 1, 0)]
        gap = np.full(xs.size, np.inf)
        for _ in range(_NEWTON_MAX_ITER):
            resid = xs - self.cum_hazard(t)
            # exact steps shrink the gap x - cum_hazard(t) > 0 every time; once
            # it is closed or stops shrinking, only rounding is left
            going = (resid > 0.0) & (resid < gap)
            if not going.any():
                break
            gap[going] = resid[going]
            t[going] += resid[going] / self.hazard(t[going])
        else:
            raise RuntimeError(f"mixture inverse did not converge in {_NEWTON_MAX_ITER} steps")
        out[live] = t
        return _maybe_scalar(out, target)

    def sample_failures(self, n: int, stream: RandomStream) -> np.ndarray:
        """Per record one uniform picks the component (as ``categorical``), the next inverts it."""
        if self.pi == 1.0:  # degenerate mixture, no component pick needed
            return self._decreasing.sample_failures(n, stream)
        u = stream.uniforms(2 * int(n)).reshape(-1, 2)
        pick = _categorical_pick(np.array([self.pi, 1.0 - self.pi]), u[:, 0])
        x = _neg_log(u[:, 1])
        out = np.empty(x.size)
        for c, component in enumerate(self.components):
            mask = pick == c
            out[mask] = component.invert_cum_hazard(x[mask])
        return out


@dataclass(eq=False)
class LogConvexHazard(_DrawModel):
    """Hazard whose logarithm is piecewise linear and convex.

    log hazard(t) = log(lambda0) + w0*t + sum_k w_k * max(0, t - theta_k):
    a negative w0 gives a bathtub, and the log-slope on each segment is w0
    plus the atom mass accumulated so far.
    """

    lambda0: float
    w0: float
    draw: GammaProcessDraw
    variant = "lcv"

    def __post_init__(self):
        if self.lambda0 <= 0.0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")

    @cached_property
    def _skeleton(self) -> _Skeleton:
        knots = np.concatenate(([0.0], self.draw.ordered.thetas))
        rates = self.w0 + self.draw._mass0
        with np.errstate(over="ignore"):  # a steep hazard's coefficients overflow to inf
            coeffs = self.lambda0 * np.exp(rates * knots - self.draw._moment0)
        return _Skeleton(knots, rates, coeffs)

    def hazard(self, t):
        arr = _as_times(t)
        d = self.draw
        j = _rank(d.ordered.thetas, arr, "right")
        with np.errstate(over="ignore"):  # overflows to inf at large t
            out = self.lambda0 * np.exp(self.w0 * arr + arr * d._mass0[j] - d._moment0[j])
        return _maybe_scalar(out, t)


def simulate_dataset(
    model: HazardModel, n: int, tau: float | None, stream: RandomStream
) -> Dataset:
    """n independent failure draws, censored at tau when given.

    Draws beyond tau (including infinite ones from defective models) are
    recorded as censored at tau.  A defective model without tau cannot
    produce a complete dataset and is rejected.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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


def _variant_fields(variant) -> tuple[list[str], list[str]]:
    """Scalar field names and draw keys of a variant tag, in constructor order."""
    cls = _MODELS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"unknown model variant: {variant!r}")
    fs = fields(cls)
    draw_keys = [f.metadata.get("key", f.name) for f in fs if _is_draw(f)]
    return [f.name for f in fs if not _is_draw(f)], draw_keys


def _build_model(variant: str, scalars: dict, draws) -> HazardModel:
    """The variant's model from its scalars looked up by name and its draws in field order.

    Raises ValueError naming the variant and the field when a scalar is
    missing or not a real number.
    """
    names, _ = _variant_fields(variant)
    for name in names:
        value = scalars.get(name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{variant} model needs a real number for {name!r}, got {value!r}")
    draws = iter(draws)
    cls = _MODELS[variant]
    return cls(*(next(draws) if _is_draw(f) else float(scalars[f.name]) for f in fields(cls)))


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
    """Fill a model's scalar parameters from their conditional priors.

    Rate offsets are exponential with mean gamma/nu given each draw's
    total mass; the log-convex model draws log(lambda0) and w0 from
    centred normals with sd gamma/nu.  The bathtub minimum ``a`` and the
    mixture weight ``pi`` have no standard prior and must be supplied
    (``draw_pi=True`` draws pi uniformly as an extension).
    """
    _, draw_keys = _variant_fields(variant)
    draws = list(draws)
    if len(draws) != len(draw_keys):
        raise ValueError(f"{variant} needs {len(draw_keys)} draw(s), got {len(draws)}")

    def offset(draw: GammaProcessDraw) -> float:
        if draw.gamma <= 0.0:
            raise ValueError("draw has zero total mass; offset prior is undefined")
        return stream.exponential(hyper.nu / draw.gamma)

    # the order of the prior draws below fixes the random stream
    if variant in ("ifr", "dfr"):
        scalars = {"lambda0": offset(draws[0])}
    elif variant == "lwb":
        if a is None:
            raise ValueError("lwb requires the symmetry point a (no prior is defined)")
        scalars = {"lambda0": offset(draws[0]), "a": a}
    elif variant == "sbt":
        scalars = {"lambda0": offset(draws[1])}
    elif variant == "mbt":
        scalars = {"lambda01": offset(draws[0]), "lambda02": offset(draws[1])}
        if pi is None:
            if not draw_pi:
                raise ValueError(
                    "mbt requires the mixture weight pi (or draw_pi=True for a "
                    "uniform draw, an extension with no standard prior)"
                )
            pi = stream.uniform()
        scalars["pi"] = pi
    else:  # lcv
        if draws[0].gamma <= 0.0:
            raise ValueError("draw has zero total mass; scalar priors are undefined")
        scale = draws[0].gamma / hyper.nu
        log_lambda0 = stream.normal(0.0, scale)
        try:
            lambda0 = math.exp(log_lambda0)
        except OverflowError:
            raise ValueError(
                f"lcv prior drew log(lambda0) = {log_lambda0!r}, too large for a float lambda0"
            ) from None
        scalars = {"lambda0": lambda0, "w0": stream.normal(0.0, scale)}
    return _build_model(variant, scalars, draws)


def model_to_dict(model: HazardModel) -> dict:
    return model.to_dict()


def model_from_dict(d: dict) -> HazardModel:
    _require_keys(d, ("model",), "model document")
    variant = d["model"]
    _, draw_keys = _variant_fields(variant)
    _require_keys(d, draw_keys, f"{variant} model")
    return _build_model(variant, d, [GammaProcessDraw.from_dict(d[k]) for k in draw_keys])

"""Model-free estimators: Kaplan-Meier step functions, the one-sample KS distance, histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _as_times, _check_count, _check_range, _frozen, _rebuild
from .datasets import Dataset, _csv, _write
from .gamma_process import _distinct, _maybe_scalar

__all__ = ["StepFunction", "kaplan_meier", "ks_distance", "histogram"]


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous piecewise-constant function.

    ``values[i]`` is the level from ``breakpoints[i]`` (inclusive) up to
    the next breakpoint; ``initial`` is the level before the first
    breakpoint.  Immutable: the arrays are read-only copies of those given.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    initial: float

    __reduce__ = _rebuild

    def __post_init__(self):
        vars(self).update(breakpoints=_frozen(self.breakpoints), values=_frozen(self.values))
        if self.breakpoints.shape != self.values.shape or self.breakpoints.ndim != 1:
            raise ValueError("breakpoints and values must be 1-d arrays of equal length")
        if np.isnan(self.breakpoints).any() or not np.all(np.diff(self.breakpoints) > 0.0):
            raise ValueError("breakpoints must be strictly increasing, not NaN")

    def __call__(self, t):
        levels = np.concatenate(([self.initial], self.values))
        idx = np.searchsorted(self.breakpoints, _as_times(t), side="right")
        return _maybe_scalar(levels[idx], t)

    def to_csv(self, path) -> None:
        _write(path, _csv("t,value", (self.breakpoints, self.values)))


def kaplan_meier(dataset: Dataset) -> StepFunction:
    """Product-limit survival estimate (Kaplan & Meier, 1958); ValueError for an empty dataset.

    At each distinct observed failure time the survival drops by the factor
    (1 - deaths/at-risk); a record censored at a failure time is still at
    risk there.  Between two censorings the product telescopes to one
    division, so without censoring before the last event every level is the
    correctly rounded rational value.  A censoring between events starts a
    new run, and runs multiply in float, a few ulps from the rational value.
    """
    if dataset.n == 0:
        raise ValueError("dataset must be non-empty")
    obs, cens = dataset._ascending
    event_times, run_ends = _distinct(obs)
    if event_times.size == 0:
        # everything censored: the estimate never leaves 1
        return StepFunction(breakpoints=np.array([]), values=np.array([]), initial=1.0)
    deaths = np.diff(run_ends, prepend=0)
    # the observed times below an event time are those of the runs before its own
    at_risk = dataset.n - (run_ends - deaths) - np.searchsorted(cens, event_times, side="left")
    after = at_risk - deaths
    starts = np.concatenate(([True], at_risk[1:] != after[:-1]))  # censoring since last event
    run = np.cumsum(starts) - 1
    within = after / at_risk[starts][run]
    ends = np.append(np.flatnonzero(starts)[1:] - 1, event_times.size - 1)
    before = np.concatenate(([1.0], np.cumprod(within[ends])[:-1]))  # level entering each run
    return StepFunction(breakpoints=event_times, values=before[run] * within, initial=1.0)


def ks_distance(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a (vectorized) CDF.

    The sup over the m finite sorted samples of max(i/n - F(x_i), F(x_i) - (i-1)/n).
    Infinite samples, as a defective model draws, are an atom at infinity:
    where there are any, the sup takes in |m/n - cdf(inf)|, the gap just
    below infinity.  Raises ValueError for no samples or a NaN one, and where
    ``cdf`` gives NaN at a point the sup reads.
    """
    x = np.sort(np.asarray(samples, dtype=float), axis=None)  # flat, whatever the shape
    n = x.size
    if n == 0 or np.isnan(x[-1]):  # NaN sorts last
        raise ValueError("samples must be non-empty, not NaN")
    f = np.asarray(cdf(x), dtype=float)
    m = int(x.searchsorted(np.inf))  # the infinite samples sort last
    if np.isnan(f[:m + 1]).any():  # the finite samples and, if any, the first infinite one
        raise ValueError("cdf gave NaN at a sample")
    i = np.arange(1, m + 1)
    d = max(np.max(i / n - f[:m], initial=0.0), np.max(f[:m] - (i - 1) / n, initial=0.0))
    return float(d if m == n else max(d, abs(m / n - f[m])))


def histogram(samples, bin_count: int | None = None, bin_width: float | None = None):
    """Equal-width histogram over [0, max(samples)]; counts sum to the sample size.

    Returns (edges, counts) with len(edges) == len(counts) + 1.
    """
    x = _as_times(samples, "samples")
    if x.size == 0:
        raise ValueError("samples must be non-empty")
    if (bin_count is None) == (bin_width is None):
        raise ValueError("give exactly one of bin_count or bin_width")
    hi = _check_range("the largest sample", x.max(), "positive")
    if bin_count is not None:
        edges = np.linspace(0.0, hi, _check_count("bin_count", bin_count, 1) + 1)
    else:
        _check_range("bin_width", bin_width, "positive")
        m = max(1, int(np.ceil(hi / bin_width)))
        edges = bin_width * np.arange(m + 1)
        if edges[-1] < hi:  # guard against ceil rounding under fp division
            edges = np.append(edges, edges[-1] + bin_width)
    counts, edges = np.histogram(x, bins=edges)
    return edges, counts

"""Truncated stick-breaking draws from a gamma process prior, and their integrals.

A draw is a discrete random measure on [0, inf): atom locations iid from a
base measure, Dirichlet-process weights from Beta(1, alpha) sticks (the last
closing the sum to one), all scaled by an independent Gamma(alpha, beta)
total mass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from ._checks import (_as_times, _check_count, _check_range, _frozen, _rebuild, _require_keys,
                      _require_real_lists, _require_reals)
from .rng import RandomStream

__all__ = [
    "ExponentialBase",
    "NormalBase",
    "GammaProcessParams",
    "GammaProcessDraw",
    "OrderedAtoms",
    "stick_weights",
    "draw_gamma_process",
    "expected_tail_mass",
]

_CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class ExponentialBase:
    """Exponential(rate) base measure for atom locations."""

    rate: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rate", _check_range("base measure rate", self.rate, "positive"))

    def sample(self, stream: RandomStream) -> float:
        return stream.exponential(self.rate)

    def samples(self, n: int, stream: RandomStream) -> np.ndarray:
        """n locations, identical to n calls of :meth:`sample`."""
        return stream.exponentials(self.rate, n)

    def to_dict(self) -> dict:
        return {"kind": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class NormalBase:
    """Normal(mean, sd**2) base measure, truncated to non-negative locations by rejection."""

    mean: float
    sd: float

    def __post_init__(self):
        object.__setattr__(self, "mean", _check_range("base measure mean", self.mean))
        object.__setattr__(self, "sd", _check_range("base measure sd", self.sd, "positive"))

    def sample(self, stream: RandomStream) -> float:
        return float(self.samples(1, stream)[0])

    def samples(self, n: int, stream: RandomStream) -> np.ndarray:
        """n locations, identical to n calls of :meth:`sample`."""
        return stream._block(n, lambda g, k: g.normal(self.mean, self.sd, k), lambda x: x < 0.0,
                             lambda: f"NormalBase(mean={self.mean!r}, sd={self.sd!r})")

    def to_dict(self) -> dict:
        return {"kind": "normal", "mean": self.mean, "sd": self.sd}


BaseMeasure = ExponentialBase | NormalBase


def _maybe_scalar(out: np.ndarray, like) -> float | np.ndarray:
    return float(out) if np.ndim(like) == 0 else out


def _distinct(ascending: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a non-decreasing 1-d array, and the index just past each one's run.

    Each value is its run's first element, so of a -0.0 and a 0.0 side by
    side the first one is kept.
    """
    new = np.empty(ascending.size, dtype=bool)
    new[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=new[1:])
    starts = new.nonzero()[0]
    run_ends = np.empty_like(starts)
    run_ends[:-1] = starts[1:]
    run_ends[-1:] = ascending.size  # nothing to set for an empty array
    return ascending[starts], run_ends


def base_measure_from_dict(d: dict) -> BaseMeasure:
    _require_keys(d, (), "base measure")
    kind = d.get("kind")
    if kind == "exponential":
        _require_reals(d, ("rate",), "exponential base measure")
        return ExponentialBase(rate=float(d["rate"]))
    if kind == "normal":
        _require_reals(d, ("mean", "sd"), "normal base measure")
        return NormalBase(mean=float(d["mean"]), sd=float(d["sd"]))
    raise ValueError(f"unknown base measure kind: {kind!r}")


@dataclass(frozen=True)
class GammaProcessParams:
    """Prior configuration: shape alpha, rate beta, truncation level, base measure."""

    alpha: float
    beta: float
    n_atoms: int = 100
    base: BaseMeasure = field(default_factory=ExponentialBase)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_range("alpha", self.alpha, "positive"))
        object.__setattr__(self, "beta", _check_range("beta", self.beta, "positive"))
        object.__setattr__(self, "n_atoms", _check_count("K", self.n_atoms, 1))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "K": self.n_atoms,
            "base": self.base.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GammaProcessParams":
        _require_keys(d, ("alpha", "beta"), "gamma process prior")
        _require_reals(d, [k for k in ("alpha", "beta", "K") if k in d], "gamma process prior")
        return cls(
            alpha=float(d["alpha"]),
            beta=float(d["beta"]),
            n_atoms=d.get("K", 100),
            base=base_measure_from_dict(d["base"]) if "base" in d else ExponentialBase(),
        )


@dataclass(frozen=True)
class OrderedAtoms:
    """Atoms sorted by location with prefix sums of mass and first moment.

    ``cum_mass[l]`` is the total weight of the first l+1 sorted atoms and
    ``cum_moment[l]`` their sum of weight*location.  The arrays are
    read-only copies of those given.
    """

    thetas: np.ndarray
    weights: np.ndarray
    cum_mass: np.ndarray
    cum_moment: np.ndarray

    __reduce__ = _rebuild

    def __post_init__(self):
        vars(self).update({f.name: _frozen(getattr(self, f.name)) for f in fields(self)})


@dataclass(frozen=True, eq=False)
class GammaProcessDraw:
    """One truncated draw: total mass, atom locations, sticks, and weights.

    Immutable after construction: the arrays are read-only copies of those
    given.  Evaluation methods accept scalars or arrays of non-negative
    time points.
    """

    gamma: float
    thetas: np.ndarray
    sticks: np.ndarray
    weights: np.ndarray
    unscaled_weights: np.ndarray | None = None

    __reduce__ = _rebuild

    def __post_init__(self):
        thetas, sticks, weights = _frozen(self.thetas), _frozen(self.sticks), _frozen(self.weights)
        gamma = _check_range("total mass", self.gamma, "non-negative")
        unscaled = self.unscaled_weights
        if unscaled is None:
            unscaled = weights / gamma if gamma > 0.0 else np.zeros_like(weights)
        unscaled = _frozen(unscaled)
        vars(self).update(gamma=gamma, thetas=thetas, sticks=sticks, weights=weights,
                          unscaled_weights=unscaled)
        k = thetas.size
        if weights.shape != (k,) or unscaled.shape != (k,):
            raise ValueError("thetas and weights must have matching lengths")
        if sticks.size not in (0, max(k - 1, 0)):
            raise ValueError("sticks must be empty or have one fewer entry than thetas")
        _as_times(thetas, "atom locations")
        n_inf = int(np.sum(thetas == np.inf))
        if n_inf:  # the closed-form cumulative hazards turn wrong, yet finite, at an inf knot
            raise ValueError(f"atom locations must be finite, got inf for {n_inf} of {k} atoms")
        _as_times(weights, "weights")
        if abs(weights.sum() - gamma) > _CLOSURE_TOL * max(1.0, gamma):
            raise ValueError("weights do not sum to the total mass")

    @classmethod
    def from_atoms(cls, thetas, weights) -> "GammaProcessDraw":
        """Build a draw directly from (location, weight) pairs; total mass is their sum.

        Meant for hand-constructed measures (tests, frozen fixtures); the
        stick values are not reconstructed.
        """
        weights = np.asarray(weights, dtype=float)
        return cls(
            gamma=float(weights.sum()),
            thetas=np.asarray(thetas, dtype=float),
            sticks=np.array([], dtype=float),
            weights=weights,
        )

    @property
    def n_atoms(self) -> int:
        return self.thetas.size

    @cached_property
    def ordered(self) -> OrderedAtoms:
        """Sorted view with prefix sums (stable under ties, weights kept separate)."""
        idx = np.argsort(self.thetas)
        thetas = self.thetas[idx]
        if (thetas[1:] == thetas[:-1]).any():  # only tied atoms can take another order
            idx = np.argsort(self.thetas, kind="stable")
            thetas = self.thetas[idx]
        weights = self.weights[idx]
        with np.errstate(over="ignore"):  # atoms near the top of the double range
            cum_moment = np.cumsum(weights * thetas)
        return OrderedAtoms(
            thetas=thetas,
            weights=weights,
            cum_mass=np.cumsum(weights),
            cum_moment=cum_moment,
        )

    # Tables with a leading zero so that index j = "number of atoms at or
    # below the cut" addresses them directly.
    @cached_property
    def _mass0(self) -> np.ndarray:
        return np.concatenate(([0.0], self.ordered.cum_mass))

    @cached_property
    def _above0(self) -> np.ndarray:
        """Suffix masses: the weight of the sorted atoms after the first j, a sum of weights."""
        return np.concatenate((np.cumsum(self.ordered.weights[::-1])[::-1], [0.0]))

    @cached_property
    def _integrated0(self) -> np.ndarray:
        """Integrated masses sum_k w_k max(x - theta_k, 0) at the j-th atom x, summed by gaps."""
        with np.errstate(over="ignore"):  # inf for atoms near the top of the double range
            gaps = self._mass0[:-1] * np.diff(np.concatenate(([0.0], self.ordered.thetas)))
            return np.concatenate(([0.0], np.cumsum(gaps)))

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        """0 and the distinct atoms (a one-draw model's knots), and the atoms at or below each."""
        atoms, counts = _distinct(self.ordered.thetas)
        if not (atoms.size and atoms[0] == 0.0):
            atoms, counts = np.concatenate(([0.0], atoms)), np.concatenate(([0], counts))
        atoms.flags.writeable = counts.flags.writeable = False
        return atoms, counts

    def _count_below(self, t: np.ndarray, strict: bool = False) -> np.ndarray:
        """Atoms below each cut of ``t`` (strictly, or at or below), counted in the sorted atoms.

        ``t`` is taken as given, not checked again: callers pass checked times or knots.
        """
        return np.searchsorted(self.ordered.thetas, t, "left" if strict else "right")

    def total_mass(self) -> float:
        return float(self._mass0[-1])

    def integral_below(self, t):
        """Mass of atoms strictly below t."""
        arr = _as_times(t)
        return _maybe_scalar(self._mass0[self._count_below(arr, strict=True)], t)

    def integral_above(self, t):
        """Mass of atoms strictly above t."""
        arr = _as_times(t)
        return _maybe_scalar(self._above0[self._count_below(arr)], t)

    def double_integral_below(self, t):
        """sum_k w_k * max(t - theta_k, 0), from the integrated mass at the last atom below t."""
        arr = _as_times(t)
        j = self._count_below(arr, strict=True)
        last = np.concatenate(([0.0], self.ordered.thetas))[j]
        return _maybe_scalar(self._integrated0[j] + self._mass0[j] * (arr - last), t)

    def double_integral_above(self, t):
        """sum_k w_k * min(t, theta_k)."""
        arr = _as_times(t)
        j = self._count_below(arr)
        moment0 = np.concatenate(([0.0], self.ordered.cum_moment))
        return _maybe_scalar(moment0[j] + arr * self._above0[j], t)

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "thetas": self.thetas.tolist(),
            "sticks": self.sticks.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GammaProcessDraw":
        _require_keys(d, ("gamma", "thetas", "sticks", "weights"), "gamma process draw")
        _require_reals(d, ("gamma",), "gamma process draw")
        _require_real_lists(d, ("thetas", "sticks", "weights"), "gamma process draw")
        return cls(
            gamma=float(d["gamma"]),
            thetas=np.asarray(d["thetas"], dtype=float),
            sticks=np.asarray(d["sticks"], dtype=float),
            weights=np.asarray(d["weights"], dtype=float),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "GammaProcessDraw":
        return cls.from_dict(json.loads(text))


def stick_weights(sticks, n_atoms: int) -> np.ndarray:
    """Unscaled stick-breaking weights; the last entry closes the sum to 1.

    w[k] = sticks[k] * prod(1 - sticks[:k]) for k < n_atoms - 1 and
    w[-1] = prod(1 - sticks).
    """
    sticks = np.asarray(sticks, dtype=float)
    n_atoms = _check_count("n_atoms", n_atoms, 1)
    if sticks.shape != (n_atoms - 1,):
        raise ValueError(f"expected {n_atoms - 1} stick values, got {sticks.shape}")
    if not np.all((sticks > 0.0) & (sticks < 1.0)):  # false for NaN as well
        raise ValueError("stick values must lie strictly inside (0, 1)")
    remaining = np.concatenate(([1.0], np.cumprod(1.0 - sticks)))
    w = np.empty(n_atoms)
    w[:-1] = sticks * remaining[:-1]
    w[-1] = remaining[-1]
    return w


def draw_gamma_process(params: GammaProcessParams, stream: RandomStream) -> GammaProcessDraw:
    """Sample one truncated draw: locations, sticks, then the total mass."""
    k = params.n_atoms
    thetas = params.base.samples(k, stream)
    sticks = stream.betas(1.0, params.alpha, k - 1)
    unscaled = stick_weights(sticks, k)
    gamma = stream.gamma(params.alpha, params.beta)
    return GammaProcessDraw(
        gamma=gamma,
        thetas=thetas,
        sticks=sticks,
        weights=gamma * unscaled,
        unscaled_weights=unscaled,
    )


def expected_tail_mass(alpha: float, k: int) -> float:
    """Expected unscaled weight remaining after the first k atoms: (alpha/(1+alpha))**k."""
    alpha = _check_range("alpha", alpha, "positive")
    return float((alpha / (1.0 + alpha)) ** _check_count("k", k))

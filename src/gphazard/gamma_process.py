"""Truncated stick-breaking draws from a gamma process prior.

A draw is a discrete random measure on the positive half line: atom
locations come iid from a base measure, Dirichlet-process stick-breaking
weights are built from Beta(1, alpha) sticks with the final weight closing
the sum to one, and the whole measure is scaled by an independent
Gamma(alpha, beta) total mass.  The measure-level integrals needed for
hazard evaluation, an ordered view with prefix sums, and JSON
serialization all live here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
        if self.rate <= 0.0:
            raise ValueError(f"base measure rate must be positive, got {self.rate}")

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
        if self.sd <= 0.0:
            raise ValueError(f"base measure sd must be positive, got {self.sd}")

    def sample(self, stream: RandomStream) -> float:
        return float(self.samples(1, stream)[0])

    def samples(self, n: int, stream: RandomStream) -> np.ndarray:
        """n locations, identical to n calls of :meth:`sample`."""
        return stream._block(n, lambda g, k: g.normal(self.mean, self.sd, k), lambda x: x < 0.0,
                             lambda: f"NormalBase(mean={self.mean!r}, sd={self.sd!r})")

    def to_dict(self) -> dict:
        return {"kind": "normal", "mean": self.mean, "sd": self.sd}


BaseMeasure = ExponentialBase | NormalBase


def _as_times(t, what: str = "t") -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(arr >= 0.0):  # false for NaN as well as for negatives
        raise ValueError(f"{what} must be non-negative, not NaN")
    return arr


def _require_keys(d, keys, what: str) -> None:
    """Raise ValueError unless ``d`` is a JSON object holding every one of ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")


def base_measure_from_dict(d: dict) -> BaseMeasure:
    kind = d.get("kind")
    if kind == "exponential":
        return ExponentialBase(rate=float(d["rate"]))
    if kind == "normal":
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
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError(f"alpha and beta must be positive, got ({self.alpha}, {self.beta})")
        if self.n_atoms < 1:
            raise ValueError(f"truncation level must be >= 1, got {self.n_atoms}")

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
        return cls(
            alpha=float(d["alpha"]),
            beta=float(d["beta"]),
            n_atoms=int(d.get("K", 100)),
            base=base_measure_from_dict(d["base"]) if "base" in d else ExponentialBase(),
        )


@dataclass(frozen=True)
class OrderedAtoms:
    """Atoms sorted by location with prefix sums of mass and first moment.

    ``cum_mass[l]`` is the total weight of the first l+1 sorted atoms and
    ``cum_moment[l]`` the corresponding sum of weight*location products;
    both are the partial sums the inverse-transform samplers interpolate
    between.
    """

    thetas: np.ndarray
    weights: np.ndarray
    cum_mass: np.ndarray
    cum_moment: np.ndarray


@dataclass(eq=False)
class GammaProcessDraw:
    """One truncated draw: total mass, atom locations, sticks, and weights.

    Immutable after construction; evaluation methods accept scalars or
    arrays of non-negative time points.
    """

    gamma: float
    thetas: np.ndarray
    sticks: np.ndarray
    weights: np.ndarray
    unscaled_weights: np.ndarray | None = None

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        self.sticks = np.asarray(self.sticks, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.gamma = float(self.gamma)
        if self.unscaled_weights is None:
            if self.gamma > 0.0:
                self.unscaled_weights = self.weights / self.gamma
            else:
                self.unscaled_weights = np.zeros_like(self.weights)
        else:
            self.unscaled_weights = np.asarray(self.unscaled_weights, dtype=float)
        k = self.thetas.size
        if self.weights.shape != (k,) or self.unscaled_weights.shape != (k,):
            raise ValueError("thetas and weights must have matching lengths")
        if self.sticks.size not in (0, max(k - 1, 0)):
            raise ValueError("sticks must be empty or have one fewer entry than thetas")
        if np.any(self.thetas < 0.0):
            raise ValueError("atom locations must be non-negative")
        if np.any(self.weights < 0.0) or self.gamma < 0.0:
            raise ValueError("weights and total mass must be non-negative")
        if abs(self.weights.sum() - self.gamma) > _CLOSURE_TOL * max(1.0, self.gamma):
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
        idx = np.argsort(self.thetas, kind="stable")
        thetas = self.thetas[idx]
        weights = self.weights[idx]
        return OrderedAtoms(
            thetas=thetas,
            weights=weights,
            cum_mass=np.cumsum(weights),
            cum_moment=np.cumsum(weights * thetas),
        )

    # Prefix sums with a leading zero so that index j = "number of atoms
    # at or below the cut" addresses them directly.
    @cached_property
    def _mass0(self) -> np.ndarray:
        return np.concatenate(([0.0], self.ordered.cum_mass))

    @cached_property
    def _moment0(self) -> np.ndarray:
        return np.concatenate(([0.0], self.ordered.cum_moment))

    def _count_below(self, t, strict: bool) -> np.ndarray:
        return np.searchsorted(self.ordered.thetas, _as_times(t), side="left" if strict else "right")

    def total_mass(self) -> float:
        return float(self._mass0[-1])

    def integral_below(self, t):
        """Mass of atoms strictly below t."""
        out = self._mass0[self._count_below(t, strict=True)]
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def integral_above(self, t):
        """Mass of atoms strictly above t."""
        out = self._mass0[-1] - self._mass0[self._count_below(t, strict=False)]
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def double_integral_below(self, t):
        """sum_k w_k * max(t - theta_k, 0)."""
        j = self._count_below(t, strict=True)
        out = np.asarray(t, dtype=float) * self._mass0[j] - self._moment0[j]
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def double_integral_above(self, t):
        """sum_k w_k * min(t, theta_k)."""
        j = self._count_below(t, strict=False)
        out = self._moment0[j] + np.asarray(t, dtype=float) * (self._mass0[-1] - self._mass0[j])
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

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
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if sticks.shape != (n_atoms - 1,):
        raise ValueError(f"expected {n_atoms - 1} stick values, got {sticks.shape}")
    if np.any((sticks <= 0.0) | (sticks >= 1.0)):
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
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return float((alpha / (1.0 + alpha)) ** k)

"""Censored-data log-likelihood and hyperprior sampling/evaluation.

The log-likelihood of a dataset under a hazard model is
``sum(log hazard(t_i)) - sum(cum_hazard(t_i))`` over observed failures
minus ``cum_hazard`` at each censoring horizon.  A hazard of zero at an
observed time yields ``-inf`` (a first-class value, so samplers and
optimizers can reject the state rather than crash).  So does a
cumulative-hazard sum that overflows to ``+inf``: the exact log-likelihood
is then below -1.8e308, so ``-inf`` is its correctly rounded value, where
``log(inf) - inf`` would be nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .rng import RandomStream

__all__ = ["HyperParams", "log_likelihood", "sample_hyperparams", "log_hyperprior"]


@dataclass(frozen=True)
class HyperParams:
    """Gamma hyperprior parameters for (alpha, beta, phi) and the offset prior scale nu."""

    a1: float = 1.0
    a2: float = 1.0
    b1: float = 1.0
    b2: float = 1.0
    f1: float = 1.0
    f2: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2", "f1", "f2", "nu"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def log_likelihood(model, dataset: Dataset) -> float:
    """Censored log-likelihood of the dataset under the model; -inf on zero hazard or overflow."""
    if dataset.n == 0:
        raise ValueError("dataset must be non-empty")
    t_obs = dataset.observed_times()
    t_cens = dataset.censored_times()
    cum_sums = [float(np.sum(np.asarray(model.cum_hazard(t), dtype=float)))
                for t in (t_obs, t_cens) if t.size]
    if math.inf in cum_sums:
        return -math.inf
    total = 0.0
    if t_obs.size:
        lam = np.asarray(model.hazard(t_obs), dtype=float)
        with np.errstate(divide="ignore"):
            total += float(np.sum(np.log(lam)))
    for cum in cum_sums:
        total -= cum
    return total


def sample_hyperparams(hyper: HyperParams, stream: RandomStream) -> tuple[float, float, float]:
    """Independent gamma draws of (alpha, beta, phi) from their hyperpriors."""
    alpha = stream.gamma(hyper.a1, hyper.a2)
    beta = stream.gamma(hyper.b1, hyper.b2)
    phi = stream.gamma(hyper.f1, hyper.f2)
    return alpha, beta, phi


def _gamma_logpdf(x: float, shape: float, rate: float) -> float:
    if x <= 0.0:
        return -math.inf
    return shape * math.log(rate) - math.lgamma(shape) + (shape - 1.0) * math.log(x) - rate * x


def log_hyperprior(alpha: float, beta: float, phi: float, hyper: HyperParams) -> float:
    """Sum of the three gamma log-densities; -inf off the support."""
    return (
        _gamma_logpdf(alpha, hyper.a1, hyper.a2)
        + _gamma_logpdf(beta, hyper.b1, hyper.b2)
        + _gamma_logpdf(phi, hyper.f1, hyper.f2)
    )

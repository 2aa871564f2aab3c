"""The censored log-likelihood of a dataset under a model, and the gamma hyperpriors."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._checks import _check_range
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
            _check_range(name, getattr(self, name), "positive")


def log_likelihood(model, dataset: Dataset) -> float:
    """Sum of log h - H over the observed times, minus H over the censored; ValueError if empty.

    A zero hazard at an observed time gives -inf, a first-class value that a
    sampler or optimizer can reject.  So does a value below the double range
    (an overflowed cumulative hazard or hazard level), of which -inf is the
    correctly rounded value where log(inf) - inf would be nan.  The value
    does not depend on the order of the records.
    """
    if dataset.n == 0:
        raise ValueError("dataset must be non-empty")
    observed, censored = model._skeleton._log_likelihood_terms(*dataset._ascending)
    return -math.inf if observed == -math.inf or censored == math.inf else observed - censored


def sample_hyperparams(hyper: HyperParams, stream: RandomStream) -> tuple[float, float, float]:
    """Independent gamma draws of (alpha, beta, phi) from their hyperpriors."""
    alpha = stream.gamma(hyper.a1, hyper.a2)
    beta = stream.gamma(hyper.b1, hyper.b2)
    phi = stream.gamma(hyper.f1, hyper.f2)
    return alpha, beta, phi


def _gamma_logpdf(name: str, x: float, shape: float, rate: float) -> float:
    if math.isnan(x):
        raise ValueError(f"{name} must not be NaN")
    if not 0.0 < x < math.inf:
        return -math.inf
    return shape * math.log(rate) - math.lgamma(shape) + (shape - 1.0) * math.log(x) - rate * x


def log_hyperprior(alpha: float, beta: float, phi: float, hyper: HyperParams) -> float:
    """Sum of the three gamma log-densities; -inf off the support, ValueError naming a NaN."""
    return (
        _gamma_logpdf("alpha", alpha, hyper.a1, hyper.a2)
        + _gamma_logpdf("beta", beta, hyper.b1, hyper.b2)
        + _gamma_logpdf("phi", phi, hyper.f1, hyper.f2)
    )

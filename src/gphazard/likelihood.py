"""Censored-data log-likelihood and hyperprior sampling/evaluation.

The log-likelihood of a dataset under a hazard model is
``sum(log hazard(t_i)) - sum(cum_hazard(t_i))`` over observed failures
minus ``cum_hazard`` at each censoring horizon.  A hazard of zero at an
observed time yields ``-inf`` (a first-class value, so samplers and
optimizers can reject the state rather than crash).  So does a
cumulative-hazard sum that overflows to ``+inf``: the exact log-likelihood
is then below -1.8e308, so ``-inf`` is its correctly rounded value, where
``log(inf) - inf`` would be nan.  So does a step model's hazard level
that has overflowed to ``+inf`` under an observed time, whose log is not
known; a mixture gives such a component a density of 0 there.

Each model scores the observed times from one split of the ascending
times by its knots, with no per-record hazard: the five skeleton models,
whose log hazard is linear on each segment, from each segment's event
count, log level and summed offsets (the piecewise exponential likelihood
where the log-slope is 0), and the mixture from its log density.
"""

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
    """Censored log-likelihood of the dataset under the model; -inf on zero hazard or overflow.

    The model's family scores the dataset's ascending observed and censored
    times, sorted on first use and kept: its ``_log_likelihood_terms``
    returns the sum of ``log hazard - cum_hazard`` over the observed times,
    -inf where their hazard or cumulative hazard overflows, and the sum of
    ``cum_hazard`` over the censored.  Either -inf first or an overflowed
    censored sum gives -inf before the two are combined.  The value does
    not depend on the order of the records, and the times were checked
    when the dataset was built.
    """
    if dataset.n == 0:
        raise ValueError("dataset must be non-empty")
    observed, censored = model._log_likelihood_terms(*dataset._ascending)
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

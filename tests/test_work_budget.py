"""Work budgets: the calls of a fit op and of a validate pass, counted with ``sys.setprofile``.

A count of calls does not drift with the machine or its load, as a timing
does.  One fit op per variant (hyperparameters, gamma-process draws at K,
the model's priors and its log-likelihood on 2e4 records, as in the fit
workload at seed 1) is traced at K = 10 and at K = 1000, and so is one
``run_validation`` at the documented seed.  Two counts are taken: calls of
gphazard functions, and calls of a few numpy entry points (``searchsorted``,
``sort``, ``argsort``, ``concatenate`` and ``cumsum``) made from gphazard
frames, which leaves numpy's own internals out.  Each count is bounded by
its value when the test was written.  A change that raises one raises its
bound, and says why.
"""

import os
import sys

import gphazard
from gphazard import validation
from gphazard.gamma_process import (ExponentialBase, GammaProcessParams, NormalBase,
                                    draw_gamma_process)
from gphazard.likelihood import HyperParams, log_likelihood, sample_hyperparams
from gphazard.models import draw_model_params, simulate_dataset
from gphazard.rng import RandomStream
from gphazard.validation import DEMO_SEED, demo_models, run_validation

_PACKAGE = os.path.dirname(gphazard.__file__)
_NUMPY_NAMES = frozenset({"searchsorted", "sort", "argsort", "concatenate", "cumsum"})
_VARIANTS = ("ifr", "dfr", "lwb", "sbt", "mbt", "lcv")

# (gphazard calls, named numpy calls) per variant and K: the same at K = 10 and 1000,
# except where mbt's NormalBase draw takes one more rejection block at K = 1000.  Every
# skeleton build calls ``_accumulate``, which the mixture's table shares (one call more per
# model); mbt's op also builds its table at the pooled knots (the breakpoints' sort and
# concatenation, one search of each component's knots), and its log-likelihood makes one
# split of the pooled knots where it made one per component.  lcv builds its skeleton in one
# call, with no separate ``_lead_and_rates``.  The gamma, beta and exponential draws keep
# numpy's value, so they make no ``_block`` call and build no reject or describe lambda;
# mbt's ``breakpoints`` passes pi < 1 on to the pooled breakpoints (one call more)
BUDGET = {
    ("ifr", 10): (107, 12), ("ifr", 1000): (107, 12),
    ("dfr", 10): (107, 13), ("dfr", 1000): (107, 13),
    ("lwb", 10): (112, 14), ("lwb", 1000): (112, 14),
    ("sbt", 10): (164, 22), ("sbt", 1000): (164, 22),
    ("mbt", 10): (216, 25), ("mbt", 1000): (218, 26),
    ("lcv", 10): (118, 15), ("lcv", 1000): (118, 15),
}
# (gphazard calls, named numpy calls) at the documented seed: 63 skeleton builds each call
# ``_accumulate``, and the mixture's evaluations call the table's helpers where they called
# both components' kernels; the kernel asks the skeleton for the hazard, with no
# ``_segment_hazard`` between (the mixture's went on to its table's), and lcv builds its
# skeleton with no ``_lead_and_rates``; its beta draws make no ``_block`` call
VALIDATION_BUDGET = (2_539, 439)


def _in_package(frame) -> bool:
    return frame is not None and frame.f_code.co_filename.startswith(_PACKAGE + os.sep)


def _count(fn) -> tuple[int, int]:
    """Calls of gphazard functions, and of the named numpy entry points from gphazard frames.

    numpy runs some of them as Python functions (a ``call`` event in a numpy
    frame whose caller is gphazard's) and the ndarray methods as C functions
    (a ``c_call`` event in the gphazard frame).
    """
    calls = named = 0

    def profile(frame, event, arg):
        nonlocal calls, named
        if event == "call":
            if _in_package(frame):
                calls += 1
            elif frame.f_code.co_name in _NUMPY_NAMES and _in_package(frame.f_back):
                named += 1
        elif event == "c_call" and getattr(arg, "__name__", None) in _NUMPY_NAMES:
            named += _in_package(frame)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls, named


def _fit_op():
    """The fit workload's op i at seed 1 on its 2e4 records, with K atoms per draw."""
    data = simulate_dataset(demo_models(DEMO_SEED)["lwb"], 20_000, 3.0, RandomStream(1).split(1))
    streams = RandomStream(1).split(2)
    hyper = HyperParams(a1=3.0, a2=1.0)

    def op(i: int, K: int) -> float:
        stream = streams.split(i)
        variant = _VARIANTS[i % len(_VARIANTS)]
        alpha, beta, _ = sample_hyperparams(hyper, stream)
        bases = [ExponentialBase(1.0)]
        if variant in ("sbt", "mbt"):
            bases.append(NormalBase(2.0, 1.0))
        draws = [draw_gamma_process(GammaProcessParams(alpha, beta, K, base), stream)
                 for base in bases]
        return log_likelihood(draw_model_params(variant, draws, hyper, stream, a=0.6, pi=0.5), data)

    return op


def test_fit_ops_within_budget():
    op = _fit_op()
    for i in range(len(_VARIANTS)):  # the first op of each variant caches what every op reuses
        op(i + len(_VARIANTS), 10)
    over = []
    for (variant, K), budget in BUDGET.items():
        counts = _count(lambda: op(_VARIANTS.index(variant), K))
        if counts[0] > budget[0] or counts[1] > budget[1]:
            over.append(f"{variant} at K = {K}: {counts} (gphazard, numpy) calls, budget {budget}")
    assert not over, over


def test_run_validation_within_budget():
    run_validation(DEMO_SEED)  # the first run caches what every run reuses
    counts = _count(lambda: run_validation(DEMO_SEED))
    assert counts[0] <= VALIDATION_BUDGET[0] and counts[1] <= VALIDATION_BUDGET[1], counts


def test_run_validation_scores_few_likelihoods(monkeypatch):
    """One score for the constant-hazard row and 49 for the golden-section search of the
    likelihood-mle row; its 101-point grid refined six times took 606."""
    calls = 0
    real = validation.log_likelihood

    def counted(model, data):
        nonlocal calls
        calls += 1
        return real(model, data)

    monkeypatch.setattr(validation, "log_likelihood", counted)
    run_validation(DEMO_SEED)
    assert calls <= 52, calls

"""Out-of-domain parameters and integer fields raise ValueError naming the field."""

import math

import pytest

from gphazard import (
    ExponentialBase,
    GammaProcessDraw,
    GammaProcessParams,
    HyperParams,
    IncreasingFailureRate,
    LogConvexHazard,
    LoWengBathtub,
    MixtureBathtub,
    NormalBase,
    RandomStream,
    StepFunction,
    histogram,
    simulate_dataset,
)

NAN, INF = math.nan, math.inf
G = GammaProcessDraw.from_atoms([1.0, 2.0], [0.5, 0.5])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IncreasingFailureRate(NAN, G), "lambda0 must be finite and non-negative, got nan"),
        (lambda: IncreasingFailureRate(INF, G), "lambda0 must be finite"),
        (lambda: LogConvexHazard(1.0, NAN, G), "w0 must be finite, got nan"),
        (lambda: LogConvexHazard(INF, 0.1, G), "lambda0 must be finite and positive, got inf"),
        (lambda: LoWengBathtub(0.1, NAN, G), "a must be finite and non-negative, got nan"),
        (lambda: MixtureBathtub(0.5, NAN, G, 0.1, G), "lambda01 must be finite"),
        (lambda: GammaProcessParams(alpha=NAN, beta=1.0), "alpha must be finite and positive"),
        (lambda: GammaProcessParams(alpha=INF, beta=1.0), "alpha must be finite and positive"),
        (lambda: GammaProcessParams(3.0, 1.0, 2.5), "K must be positive, integral"),
        (lambda: ExponentialBase(NAN), "base measure rate must be finite"),
        (lambda: NormalBase(NAN, 1.0), "base measure mean must be finite"),
        (lambda: HyperParams(nu=NAN), "nu must be finite and positive"),
        (lambda: RandomStream(1).gamma(NAN, 1.0), "gamma shape must be finite"),
        (lambda: RandomStream(INF), "seed must be non-negative, integral"),
        (lambda: RandomStream(1).categorical([NAN, 1.0]), "weights must be non-negative, not NaN"),
        (lambda: GammaProcessDraw.from_atoms([NAN], [1.0]), "atom locations must be non-negative"),
        (lambda: StepFunction([1.0, 2.0], [0.5, 0.25], 1.0)(NAN), "t must be non-negative, not NaN"),
        (lambda: histogram([NAN, 1.0], bin_count=2), "samples must be non-negative, not NaN"),
        # rejected as not integral, before any draw of that size is attempted
        (lambda: simulate_dataset(IncreasingFailureRate(0.1, G), 1e300, None, RandomStream(1)),
         "n must be positive, integral"),
    ],
)
def test_out_of_domain_input_raises_naming_the_field(build, message):
    with pytest.raises(ValueError, match=message):
        build()

"""Out-of-domain parameters and integer fields raise ValueError naming the field."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from gphazard import (
    DecreasingFailureRate,
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
    SuperpositionBathtub,
    histogram,
    model_from_dict,
    simulate_dataset,
)
from gphazard.gamma_process import base_measure_from_dict
from gphazard.validation import DEMO_SEED, run_validation

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
        # rejected before any check runs, not reported as FAIL rows
        (lambda: run_validation(DEMO_SEED, NAN), "tol_scale must be finite and positive, got nan"),
        (lambda: run_validation(DEMO_SEED, INF), "tol_scale must be finite and positive, got inf"),
        (lambda: run_validation(DEMO_SEED, -1), "tol_scale must be finite and positive, got -1"),
        (lambda: run_validation(DEMO_SEED, 0), "tol_scale must be finite and positive, got 0"),
    ],
)
def test_out_of_domain_input_raises_naming_the_field(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# each type with every real field set from v; a pi above 1 is given as True
_REAL_FIELDS = {
    "ifr": (lambda v: IncreasingFailureRate(v, G), model_from_dict),
    "dfr": (lambda v: DecreasingFailureRate(v, G), model_from_dict),
    "lwb": (lambda v: LoWengBathtub(v, v, G), model_from_dict),
    "sbt": (lambda v: SuperpositionBathtub(v, G, G), model_from_dict),
    "mbt": (lambda v: MixtureBathtub(v if v <= 1 else True, v, G, v, G), model_from_dict),
    "lcv": (lambda v: LogConvexHazard(v, v, G), model_from_dict),
    "prior": (lambda v: GammaProcessParams(v, v), GammaProcessParams.from_dict),
    "exponential-base": (lambda v: ExponentialBase(v), base_measure_from_dict),
    "normal-base": (lambda v: NormalBase(v, v), base_measure_from_dict),
}


@pytest.mark.parametrize("value", [True, 2, np.int64(2), np.float64(0.5)], ids=repr)
@pytest.mark.parametrize("name", list(_REAL_FIELDS))
def test_a_real_field_stores_a_float_and_its_document_round_trips(name, value):
    build, from_dict = _REAL_FIELDS[name]
    obj = build(value)
    for f in fields(obj):
        if f.type in ("float", "float | None"):
            assert type(getattr(obj, f.name)) is float, f.name
    doc = json.loads(json.dumps(obj.to_dict()))
    assert from_dict(doc).to_dict() == doc

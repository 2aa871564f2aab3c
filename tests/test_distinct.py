"""Distinct values from arrays already sorted: breakpoints, step skeletons, Kaplan-Meier steps.

Each site is compared bit for bit with an ``np.unique``-based reference
written here.  The one value ``np.unique`` leaves open is the sign of a zero
knot when the atoms hold both -0.0 and 0.0.  The package keeps the first zero
of the sorted atoms: for one draw the first in atom order, for lwb its ``a``,
and for the two-draw models whichever zero the sort puts first.  These tests
pin the sign where it is fixed and show that no level, hazard, cumulative
hazard or inverse depends on it.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gphazard.datasets import Dataset, write_dataset_csv
from gphazard.gamma_process import GammaProcessDraw, _distinct
from gphazard.models import (
    DecreasingFailureRate,
    IncreasingFailureRate,
    LoWengBathtub,
    LogConvexHazard,
    MixtureBathtub,
    SuperpositionBathtub,
    _Skeleton,
    model_to_dict,
    simulate_dataset,
)
from gphazard.rng import RandomStream
from gphazard.stats import kaplan_meier
from gphazard.validation import _GL_NODES, _GL_WEIGHTS, demo_models


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


class TestDistinct:
    @pytest.mark.parametrize("values", [[], [2.0], [1.0, 1.0, 1.0], [0.0, 0.5, 0.5, 2.0, 3.0, 3.0],
                                        [-1.0, 0.25, 7.0]])
    def test_values_and_run_ends(self, values):
        arr = np.array(values, dtype=float)
        distinct, run_ends = _distinct(arr)
        expected, counts = np.unique(arr, return_counts=True)
        np.testing.assert_array_equal(_bits(distinct), _bits(expected))
        np.testing.assert_array_equal(run_ends, np.cumsum(counts))
        assert run_ends.dtype == np.intp

    @pytest.mark.parametrize("zeros", [[-0.0, 0.0], [0.0, -0.0, -0.0]])
    def test_a_run_keeps_its_first_zero(self, zeros):
        distinct, run_ends = _distinct(np.array(zeros + [1.0]))
        assert np.signbit(distinct[0]) == np.signbit(zeros[0])
        np.testing.assert_array_equal(run_ends, [len(zeros), len(zeros) + 1])


# atoms from a small pool, so that ties and atoms at -0.0 and 0.0 come up often
_POOL = [-0.0, 0.0, 0.25, 0.6, 1.0, 1.5]
_ATOMS = st.lists(st.sampled_from(_POOL) | st.floats(0.0, 4.0), max_size=12)
_WEIGHTS = st.floats(0.01, 2.0)


def _draw(thetas, weight) -> GammaProcessDraw:
    return GammaProcessDraw.from_atoms(thetas, [weight] * len(thetas))


def _assert_distinct_equal(new, reference, zero):
    """``new`` is ``reference`` bit for bit, but for a zero, which carries the sign of ``zero``.

    ``zero`` is None where the sign is left open.
    """
    np.testing.assert_array_equal(new, reference)  # equal values, -0.0 == 0.0
    nonzero = reference != 0.0
    np.testing.assert_array_equal(_bits(new[nonzero]), _bits(reference[nonzero]))
    if zero is not None:
        assert np.signbit(new[~nonzero]).tolist() == [np.signbit(zero)]


@st.composite
def _models(draw):
    """One of the six models on generated atoms; lwb's ``a`` sits below, at or among them."""
    name = draw(st.sampled_from(["ifr", "dfr", "lwb", "sbt", "mbt", "lcv"]))
    th1, th2 = draw(_ATOMS), draw(_ATOMS)
    g1, g2 = _draw(th1, draw(_WEIGHTS)), _draw(th2, draw(_WEIGHTS))
    if name == "lwb":
        a = draw(st.sampled_from([0.0, -0.0, *th1]) | st.floats(0.0, 4.0))
        return LoWengBathtub(0.1, a, g1)
    return {
        "ifr": lambda: IncreasingFailureRate(0.1, g1),
        "dfr": lambda: DecreasingFailureRate(0.1, g1),
        "sbt": lambda: SuperpositionBathtub(0.1, g1, g2),
        "mbt": lambda: MixtureBathtub(0.4, 0.1, g1, 0.2, g2),
        "lcv": lambda: LogConvexHazard(1.0, -1.0, g1),
    }[name]()


def _reference_breakpoints(model) -> np.ndarray:
    """The breakpoints as ``np.unique`` gives them."""
    if isinstance(model, LoWengBathtub):
        th, a = model.draw.thetas, model.a
        return np.unique(np.concatenate((a - th[th < a], [a], a + th)))
    doc = model_to_dict(model)
    return np.unique(np.concatenate([np.asarray(doc[k]["thetas"], dtype=float)
                                     for k in ("draw", "draw1", "draw2") if k in doc]))


def _zero_of(model):
    """The zero a zero knot equals bit for bit, None if there is none or its sign is open."""
    if isinstance(model, LoWengBathtub):  # a - theta > 0 and a + theta >= a: a zero knot is a
        return model.a if model.a == 0.0 else None
    if isinstance(model, (SuperpositionBathtub, MixtureBathtub)):
        return None
    return next((x for x in model.draw.thetas if x == 0.0), None)  # ties keep the atoms' order


_PROBES = np.array([-0.0, 0.0, 1e-300, 0.25, 0.6, 1.0, 1.3, 1.5, 2.0, 4.5, 9.0])


class TestBreakpointsProperty:
    @settings(max_examples=300, deadline=None)
    @given(_models())
    @example(IncreasingFailureRate(0.1, _draw([0.0, -0.0, 1.0], 0.5)))
    @example(IncreasingFailureRate(0.1, _draw([-0.0, 0.0, 0.0], 0.5)))
    @example(SuperpositionBathtub(0.1, _draw([1.0, 0.0], 0.5), _draw([-0.0], 0.5)))
    @example(LoWengBathtub(0.1, -0.0, _draw([0.0, 0.6, 0.6], 0.5)))
    @example(LoWengBathtub(0.1, 0.6, _draw([0.25, 0.6, 1.0], 0.5)))
    @example(DecreasingFailureRate(0.1, _draw([], 1.0)))
    @example(LogConvexHazard(1.0, -1.0, _draw([2.0], 1.0)))
    def test_equal_np_unique(self, model):
        _assert_distinct_equal(model.breakpoints(), _reference_breakpoints(model), _zero_of(model))

    @settings(max_examples=300, deadline=None)
    @given(_models().filter(lambda m: not isinstance(m, (MixtureBathtub, LogConvexHazard))))
    @example(IncreasingFailureRate(0.1, _draw([0.0, -0.0, 1.0], 0.5)))
    @example(DecreasingFailureRate(0.1, _draw([-0.0, 0.0, 2.0], 0.5)))
    @example(LoWengBathtub(0.1, -0.0, _draw([0.0, -0.0, 0.6], 0.5)))
    @example(SuperpositionBathtub(0.1, _draw([0.0, 1.0], 0.5), _draw([-0.0], 0.5)))
    def test_step_skeleton_equals_the_reference(self, model):
        """Knots, levels and knot values bit for bit; no lookup or inverse sees a zero's sign."""
        knots = np.unique(np.concatenate(([0.0], _reference_breakpoints(model))))
        reference = _Skeleton(knots, np.zeros(knots.size), model._levels_at(knots))
        skeleton = model._skeleton
        _assert_distinct_equal(skeleton.knots, knots, _zero_of(model))
        np.testing.assert_array_equal(_bits(skeleton.coeffs), _bits(reference.coeffs))
        np.testing.assert_array_equal(_bits(skeleton.values), _bits(reference.values))
        probes = np.concatenate((_PROBES, knots, np.nextafter(knots, np.inf)))
        for got, want in zip(skeleton._locate(probes), reference._locate(probes)):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        targets = np.concatenate(([0.0, 0.5, 3.0], reference.values))
        np.testing.assert_array_equal(_bits(skeleton.invert(targets)),
                                      _bits(reference.invert(targets)))


def _reference_kaplan_meier(dataset: Dataset):
    """The product-limit estimate with its event times and deaths from ``np.unique``."""
    obs, cens = dataset._ascending
    event_times, deaths = np.unique(obs, return_counts=True)
    if event_times.size == 0:
        return event_times, event_times
    at_risk = (dataset.n - np.searchsorted(obs, event_times, side="left")
               - np.searchsorted(cens, event_times, side="left"))
    after = at_risk - deaths
    starts = np.concatenate(([True], at_risk[1:] != after[:-1]))
    run = np.cumsum(starts) - 1
    within = after / at_risk[starts][run]
    ends = np.append(np.flatnonzero(starts)[1:] - 1, event_times.size - 1)
    before = np.concatenate(([1.0], np.cumprod(within[ends])[:-1]))
    return event_times, before[run] * within


class TestKaplanMeierProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(1e-3, 5.0),
                              st.booleans()), min_size=1, max_size=40))
    @example([(1.0, True), (1.0, True), (1.0, False), (2.0, True)])
    @example([(1.0, False), (2.0, False)])
    @example([(0.5, True)])
    def test_equal_np_unique(self, records):
        data = Dataset.from_records(records)
        km = kaplan_meier(data)
        times, values = _reference_kaplan_meier(data)
        np.testing.assert_array_equal(_bits(km.breakpoints), _bits(times))
        np.testing.assert_array_equal(_bits(km.values), _bits(values))

    @pytest.mark.parametrize("name", ["ifr", "lwb", "mbt"])
    def test_tied_simulated_times(self, demo, name):
        times = simulate_dataset(demo[name], 3000, 3.0, RandomStream(5))
        tied = Dataset(times=np.maximum(np.round(times.times, 1), 0.1), observed=times.observed,
                       tau=3.0)
        km = kaplan_meier(tied)
        expected = _reference_kaplan_meier(tied)
        assert km.breakpoints.size < tied.n_observed  # the rounding tied the times
        np.testing.assert_array_equal(_bits(km.breakpoints), _bits(expected[0]))
        np.testing.assert_array_equal(_bits(km.values), _bits(expected[1]))


def _full_array_newton(model: MixtureBathtub, x: np.ndarray) -> np.ndarray:
    """The mixture's Newton inverse with every target evaluated in every round."""
    limit = model.cum_hazard_limit()
    out = np.where(x >= limit, np.inf, 0.0)
    live = (x > 0.0) & (x < limit)
    xs = x[live]
    knots, kvals = model._knot_values
    t = knots[np.maximum(np.searchsorted(kvals, xs, side="right") - 1, 0)]
    gap = np.full(xs.size, np.inf)
    for _ in range(100):
        lam, cum = model._hazard_and_cum(t)
        resid = xs - cum
        going = (resid > 0.0) & (resid < gap)
        if not going.any():
            break
        gap[going] = resid[going]
        t[going] += resid[going] / lam[going]
    else:
        raise RuntimeError("no convergence")
    out[live] = t
    return out


class TestNewtonOnLiveTargets:
    @pytest.mark.parametrize("seed", [20250812, 7, 1])
    @pytest.mark.parametrize("n", [1, 5, 1000, 12000])
    def test_bits_equal_the_full_array_loop(self, seed, n):
        models = demo_models(seed)
        mbt = models["mbt"]
        defective = MixtureBathtub(0.3, 0.0, mbt.draw1, 0.1, mbt.draw2)
        for model in (mbt, defective):
            scale = min(float(model.cum_hazard(8.0)), 1.2 * model.cum_hazard_limit())
            x = RandomStream(seed).split(n).uniforms(n) * scale
            for targets in (x, np.sort(x)):
                np.testing.assert_array_equal(_bits(model.invert_cum_hazard(targets)),
                                              _bits(_full_array_newton(model, targets)))


class TestGaussLegendreConstants:
    def test_equal_leggauss_bit_for_bit(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(10)
        np.testing.assert_array_equal(_bits(_GL_NODES), _bits(nodes))
        np.testing.assert_array_equal(_bits(_GL_WEIGHTS), _bits(weights))


# Runs one CLI command, then reports which of the two modules the process loaded.
_PROBE = ("import sys\n"
          "from gphazard.cli import main\n"
          "rc = main(sys.argv[1:])\n"
          "print([m for m in ('numpy.ma', 'numpy.polynomial') if m in sys.modules], "
          "file=sys.stderr)\n"
          "sys.exit(rc)\n")

_PRIOR = {"alpha": 3.0, "beta": 1.0, "K": 20}
_CONFIGS = {
    "ifr": {"model": "ifr", "lambda0": 0.1, "prior": _PRIOR},
    "lwb": {"model": "lwb", "lambda0": 0.1, "a": 0.6, "prior": _PRIOR},
    "mbt": {"model": "mbt", "pi": 0.5, "lambda01": 0.1, "lambda02": 0.1, "prior": _PRIOR,
            "prior2": {**_PRIOR, "base": {"kind": "normal", "mean": 2.0, "sd": 1.0}}},
    "lcv": {"model": "lcv", "lambda0": 1.0, "w0": -1.0, "prior": _PRIOR},
}
# each command's arguments, with {d} the directory of its input and output files
_COMMANDS = {
    "draw": "draw --config {d}/ifr.json --seed 1 --out {d}/draw.json",
    **{f"curves-{m}": f"curves --config {{d}}/{m}.json --seed 1 --out {{d}}/{m}.csv"
       for m in ("lwb", "mbt", "lcv")},
    "simulate": "simulate --config {d}/ifr.json --seed 1 --tau 3 --n 200 --out {d}/simulated.csv",
    "loglik": "loglik --model {d}/model.json --data {d}/data.csv --tau 3",
    "km": "km --data {d}/data.csv --out {d}/km.csv",
    "validate": "validate",
}


@pytest.fixture(scope="module")
def command_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("commands")
    for name, config in _CONFIGS.items():
        (path / f"{name}.json").write_text(json.dumps(config))
    demo = demo_models()
    (path / "model.json").write_text(json.dumps(model_to_dict(demo["dfr"])))
    write_dataset_csv(simulate_dataset(demo["dfr"], 300, 3.0, RandomStream(2)), path / "data.csv")
    return path


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_no_command_loads_numpy_ma_or_polynomial(command_dir, command):
    args = _COMMANDS[command].format(d=command_dir).split()
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[]"

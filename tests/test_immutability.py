"""Datasets, draws, models and Kaplan-Meier curves cannot change after they are built.

Each mutation below used to be accepted and leave a cached skeleton, prefix
sum or sort stale, so that an evaluation returned a wrong finite number.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from gphazard.datasets import Dataset
from gphazard.gamma_process import GammaProcessDraw, OrderedAtoms
from gphazard.likelihood import log_likelihood
from gphazard.models import DecreasingFailureRate, IncreasingFailureRate, simulate_dataset
from gphazard.rng import RandomStream
from gphazard.stats import StepFunction, kaplan_meier


class TestModels:
    @pytest.mark.parametrize("value", [5.0, math.nan])
    def test_a_field_cannot_be_set(self, demo, value):
        model = demo["ifr"]
        before = model.cum_hazard(2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.lambda0 = value
        assert model.cum_hazard(2.0) == before
        assert before == IncreasingFailureRate(model.lambda0, model.draw).cum_hazard(2.0)

    def test_every_variant_is_frozen(self, demo):
        for model in demo.values():
            field = dataclasses.fields(model)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError, match=field):
                setattr(model, field, getattr(model, field))


class TestDraws:
    def test_atoms_cannot_be_changed_in_place(self, demo):
        draw = demo["dfr"].draw
        before = demo["dfr"].cum_hazard(1.0)
        with pytest.raises(ValueError, match="read-only"):
            draw.thetas[:] *= 2
        with pytest.raises(ValueError, match="read-only"):
            draw.weights[0] = 1.0
        assert DecreasingFailureRate(demo["dfr"].lambda0, draw).cum_hazard(1.0) == before

    def test_sorted_atoms_cannot_be_changed_in_place(self, demo):
        ordered = demo["dfr"].draw.ordered
        for name in ("thetas", "weights", "cum_mass", "cum_moment"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ordered, name)[0] = 50.0

    def test_fields_cannot_be_replaced(self, demo):
        draw = demo["ifr"].draw
        with pytest.raises(dataclasses.FrozenInstanceError):
            draw.thetas = draw.thetas * 2


class TestDatasets:
    def test_times_cannot_be_changed_in_place(self, demo):
        data = simulate_dataset(demo["ifr"], 20, 3.0, RandomStream(1))
        with pytest.raises(ValueError, match="read-only"):
            data.times[0] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            data.observed[0] = not data.observed[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.tau = 1.0
        assert np.all(data.times > 0.0)


class TestStepFunction:
    def test_breakpoints_cannot_be_changed(self):
        data = Dataset(times=[1.0, 2.0, 3.0, 4.0], observed=[True, False, True, True])
        km = kaplan_meier(data)
        with pytest.raises(ValueError, match="read-only"):
            km.breakpoints[0] = 100.0
        with pytest.raises(ValueError, match="read-only"):
            km.values[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            km.breakpoints = km.breakpoints[::-1]
        assert np.all(np.diff(km.breakpoints) > 0.0)


@pytest.mark.parametrize("build", [
    lambda a: Dataset(a, a > 0.0).times,
    lambda a: GammaProcessDraw.from_atoms(a, a).thetas,
    lambda a: GammaProcessDraw.from_atoms(a, a).weights,
    lambda a: OrderedAtoms(a, a, a, a).cum_moment,
    lambda a: StepFunction(a, a, 1.0).breakpoints,
], ids=["Dataset", "GammaProcessDraw.thetas", "GammaProcessDraw.weights", "OrderedAtoms",
        "StepFunction"])
def test_a_callers_array_stays_writeable_and_unshared(build):
    a = np.array([1.0, 2.0])
    kept = build(a)
    assert a.flags.writeable and not kept.flags.writeable
    assert not np.shares_memory(a, kept)
    a[0] = 3.0
    assert kept[0] == 1.0


_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}


class TestCopies:
    """A copy or an unpickled object is built again by its constructor, so it is as immutable."""

    @pytest.mark.parametrize("how", _COPIES)
    def test_arrays_stay_read_only(self, demo, how):
        data = simulate_dataset(demo["ifr"], 20, 3.0, RandomStream(1))
        draw = demo["ifr"].draw
        for obj, names in [(data, ("times", "observed")),
                           (draw, ("thetas", "sticks", "weights", "unscaled_weights")),
                           (draw.ordered, ("thetas", "weights", "cum_mass", "cum_moment")),
                           (kaplan_meier(data), ("breakpoints", "values"))]:
            copied = _COPIES[how](obj)
            assert type(copied) is type(obj)
            for name in names:
                arr = getattr(copied, name)
                assert not arr.flags.writeable, (type(obj).__name__, name)
                np.testing.assert_array_equal(arr, getattr(obj, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(copied, names[0], getattr(copied, names[0]))

    @pytest.mark.parametrize("how", _COPIES)
    def test_models_start_uncached_and_give_the_same_bits(self, demo, how):
        for name, model in demo.items():
            data = simulate_dataset(model, 300, 3.0, RandomStream(2))
            expected = log_likelihood(model, data).hex()  # the original caches its skeleton
            copied, copied_data = _COPIES[how](model), _COPIES[how](data)
            assert not {"_skeleton", "_knot_values"} & set(vars(copied)), name
            assert "_ascending" not in vars(copied_data)
            for f in dataclasses.fields(copied):
                if isinstance(getattr(copied, f.name), GammaProcessDraw):
                    assert not getattr(copied, f.name).thetas.flags.writeable, name
            assert log_likelihood(copied, copied_data).hex() == expected, name

"""Censored likelihood evaluation and hyperprior sampling/density."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gphazard import _checks, gamma_process, models
from gphazard.datasets import Dataset
from gphazard.gamma_process import GammaProcessDraw
from gphazard.likelihood import (
    HyperParams,
    log_hyperprior,
    log_likelihood,
    sample_hyperparams,
)
from gphazard.models import (
    DecreasingFailureRate,
    IncreasingFailureRate,
    LogConvexHazard,
    MixtureBathtub,
    simulate_dataset,
)
from gphazard.rng import RandomStream
from gphazard.stats import ks_distance


def _constant_hazard_model(lambda0=1.0):
    # atom far beyond the data keeps the hazard constant over the horizon
    return IncreasingFailureRate(lambda0, GammaProcessDraw.from_atoms([10.0], [2.0]))


class TestLogLikelihood:
    def test_constant_hazard_reduces_to_exponential(self):
        data = Dataset(times=[1.0, 2.0, 5.0], observed=[True, True, False], tau=5.0)
        assert log_likelihood(_constant_hazard_model(), data) == -8.0

    def test_fully_observed_formula(self):
        m = _constant_hazard_model(0.7)
        times = np.array([0.5, 1.5, 2.5])
        data = Dataset(times=times, observed=[True] * 3)
        expected = 3 * math.log(0.7) - 0.7 * times.sum()
        assert log_likelihood(m, data) == pytest.approx(expected, rel=1e-14)

    def test_zero_hazard_gives_minus_inf(self):
        # beyond all atoms a DFR hazard with no offset vanishes
        m = DecreasingFailureRate(0.0, GammaProcessDraw.from_atoms([1.0], [2.0]))
        data = Dataset(times=[5.0], observed=[True])
        assert log_likelihood(m, data) == -math.inf

    def test_factorization_over_concatenation(self):
        m = _constant_hazard_model()
        d1 = Dataset(times=[1.0, 4.0], observed=[True, False], tau=4.0)
        d2 = Dataset(times=[2.0, 0.5, 4.0], observed=[True, True, False], tau=4.0)
        combined = Dataset(
            times=np.concatenate((d1.times, d2.times)),
            observed=np.concatenate((d1.observed, d2.observed)),
            tau=4.0,
        )
        total = log_likelihood(m, d1) + log_likelihood(m, d2)
        assert log_likelihood(m, combined) == pytest.approx(total, rel=1e-12)

    def test_nonincreasing_in_tau(self):
        m = _constant_hazard_model()
        previous = math.inf
        for tau in (1.0, 2.0, 4.0, 8.0):
            data = Dataset(times=[0.5, tau, tau], observed=[True, False, False], tau=tau)
            ll = log_likelihood(m, data)
            assert ll <= previous
            previous = ll

    def test_mle_matches_closed_form(self):
        times = np.array([0.5, 1.2, 2.0, 3.0, 3.0])
        observed = np.array([True, True, True, False, False])
        data = Dataset(times=times, observed=observed, tau=3.0)
        atoms = GammaProcessDraw.from_atoms([50.0], [1.0])
        analytic = observed.sum() / (times[observed].sum() + 2 * 3.0)
        lo, hi = 1e-4, 5.0
        best = lo
        for _ in range(6):
            grid = np.linspace(lo, hi, 101)
            vals = [log_likelihood(IncreasingFailureRate(l, atoms), data) for l in grid]
            best = grid[int(np.argmax(vals))]
            span = (hi - lo) / 50.0
            lo, hi = max(1e-9, best - span), best + span
        assert abs(best - analytic) <= 1e-6

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood(_constant_hazard_model(), Dataset(times=[], observed=[]))


class TestHyperParams:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            HyperParams(a1=0.0)
        with pytest.raises(ValueError):
            HyperParams(nu=-1.0)

    def test_sample_means(self):
        hyper = HyperParams(a1=3.0, a2=1.0)
        s = RandomStream(41)
        alphas = np.array([sample_hyperparams(hyper, s)[0] for _ in range(100_000)])
        assert abs(alphas.mean() - 3.0) < 0.05

    def test_sample_concentration(self):
        hyper = HyperParams(a1=1e6, a2=1e6)
        s = RandomStream(42)
        alphas = np.array([sample_hyperparams(hyper, s)[0] for _ in range(10_000)])
        assert abs(alphas.mean() - 1.0) < 1e-3
        assert alphas.std() < 3e-3

    def test_all_ones_is_three_unit_exponentials(self):
        s = RandomStream(43)
        draws = np.array([sample_hyperparams(HyperParams(), s) for _ in range(10_000)])
        for col in range(3):
            assert ks_distance(draws[:, col], lambda t: 1.0 - np.exp(-t)) < 0.02


class TestLogHyperprior:
    def test_all_ones_value(self):
        assert log_hyperprior(1.0, 1.0, 1.0, HyperParams()) == pytest.approx(-3.0, rel=1e-14)

    def test_support_boundary(self):
        assert log_hyperprior(0.0, 1.0, 1.0, HyperParams()) == -math.inf
        assert log_hyperprior(1.0, -2.0, 1.0, HyperParams()) == -math.inf

    @pytest.mark.parametrize("hyper", [HyperParams(), HyperParams(a1=3.0, a2=2.0)])
    def test_density_normalizes(self, hyper):
        # integrating out the first argument leaves the other two factors,
        # each Ga(1,1) evaluated at 1, i.e. exp(-2)
        total, _ = quad(
            lambda x: math.exp(log_hyperprior(x, 1.0, 1.0, hyper)), 0.0, np.inf, limit=200
        )
        assert total == pytest.approx(math.exp(-2.0), rel=1e-6)


class TestLogHyperpriorNaN:
    @pytest.mark.parametrize("position, name", [(0, "alpha"), (1, "beta"), (2, "phi")])
    def test_nan_raises_naming_the_argument(self, position, name):
        args = [1.0, 1.0, 1.0]
        args[position] = math.nan
        with pytest.raises(ValueError, match=f"^{name} must not be NaN"):
            log_hyperprior(*args, HyperParams())

    @pytest.mark.parametrize("x", [0.0, -1.0, -math.inf, math.inf])
    def test_off_the_support_is_minus_inf(self, x):
        assert log_hyperprior(1.0, 1.0, x, HyperParams(f1=2.0)) == -math.inf


class TestOverflowedMixtureCumulativeHazard:
    def test_log_likelihood_is_minus_inf_without_a_warning(self):
        draw = GammaProcessDraw.from_atoms([1.0, 2.0], [0.5, 0.5])
        model = MixtureBathtub(0.5, 1.7e308, draw, 1.7e308, draw)
        with np.errstate(over="ignore"):  # both components' knot values overflow as they are built
            assert model.cum_hazard(3.0) == math.inf
        data = Dataset(times=[3.0] * 1500 + [2.5], observed=[True] * 1500 + [False])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):  # records as given, then sorted
                assert log_likelihood(model, data) == -math.inf


class TestOverflowedCumulativeHazard:
    """An lcv model steep enough that hazard and cum_hazard overflow at the records."""

    def _model(self):
        draw = GammaProcessDraw.from_atoms([0.5, 1.0, 2.0], [1.0, 2.0, 3.0])
        return LogConvexHazard(1e200, 500.0, draw)

    @pytest.mark.parametrize("observed", [[True, True], [False, False], [True, False]])
    def test_log_likelihood_is_minus_inf(self, observed):
        data = Dataset(times=[3.0, 3.0], observed=observed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_likelihood(self._model(), data) == -math.inf

    def test_finite_records_keep_their_value(self):
        model = self._model()
        data = Dataset(times=[1e-3, 2e-3], observed=[True, False])
        lam = np.asarray(model.hazard(data.times))
        cum = np.asarray(model.cum_hazard(data.times))
        assert log_likelihood(model, data) == 0.0 + math.log(lam[0]) - cum[0] - cum[1]


class TestRepeatedEvaluation:
    """Every call on one Dataset evaluates its sorted times and returns the same bits."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_three_calls_give_the_first_calls_bits(self, demo, seed):
        models = dict(demo, **{"dfr-defective": DecreasingFailureRate(0.0, demo["ifr"].draw)})
        for name, model in models.items():
            # n far above the demo's K, so that the atom lookups merge
            data = simulate_dataset(model, 3000, 3.0, RandomStream(seed))
            values = [log_likelihood(model, data).hex() for _ in range(3)]
            assert values[1] == values[2] == values[0], name

    def test_every_call_sees_ascending_times(self, demo):
        model, seen = demo["lwb"], []

        class Recording:
            def _hazard_and_cum(self, t):
                seen.append(np.array(t))
                return model._hazard_and_cum(t)

        data = simulate_dataset(model, 500, 3.0, RandomStream(4))
        for _ in range(2):
            assert log_likelihood(Recording(), data) == log_likelihood(model, data)
        ascending = [np.sort(data.observed_times()), np.sort(data.censored_times())]
        for got, expected in zip(seen, ascending * 2, strict=True):
            np.testing.assert_array_equal(got, expected)

    def test_times_cannot_be_changed_in_place_or_replaced(self, demo):
        model = demo["sbt"]
        data = simulate_dataset(model, 3000, 3.0, RandomStream(5))
        before = log_likelihood(model, data)
        with pytest.raises(ValueError, match="read-only"):
            data.times[::3] *= 0.5
        with pytest.raises(ValueError, match="read-only"):
            data.observed[:100] = ~data.observed[:100]
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.times = data.times[::-1].copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.times, data.observed = data.times[:1000] + 0.25, data.observed[:1000]
        with pytest.raises(ValueError, match="read-only"):
            data._ascending[0][0] = 0.5
        assert log_likelihood(model, data) == before


class TestObservedTimesCheckedOnce:
    """A ``Dataset`` checks its times once, when built; ``log_likelihood`` takes them as given."""

    def test_times_changed_in_place_are_rejected(self, demo):
        for name in ("ifr", "lwb", "mbt", "lcv"):
            data = simulate_dataset(demo[name], 50, 3.0, RandomStream(2))
            before = log_likelihood(demo[name], data)
            with pytest.raises(ValueError, match="read-only"):
                data.times[np.flatnonzero(data.observed)[0]] = math.nan
            assert log_likelihood(demo[name], data) == before

    def test_no_check_per_evaluation(self, demo, monkeypatch):
        calls = []

        def counting(t, what="t"):
            calls.append(np.size(t))
            return _checks._as_times(t, what)

        datasets = {name: simulate_dataset(model, 200, 3.0, RandomStream(3))
                    for name, model in demo.items()}
        for name in demo:  # builds the model's cached skeleton, which evaluates the hazard
            log_likelihood(demo[name], simulate_dataset(demo[name], 5, 3.0, RandomStream(4)))
        monkeypatch.setattr(models, "_as_times", counting)
        monkeypatch.setattr(gamma_process, "_as_times", counting)
        for name, data in datasets.items():
            for _ in range(2):
                log_likelihood(demo[name], data)
                assert calls == [], name


class TestRecordOrder:
    """The log-likelihood is a sum over records, so it does not depend on their order."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["ifr", "dfr", "lwb", "sbt", "mbt", "lcv"]),
           n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_any_permutation_gives_the_same_bits(self, demo, name, n, seed):
        data = simulate_dataset(demo[name], n, 3.0, RandomStream(seed))
        order = np.random.default_rng(seed).permutation(n)
        shuffled = Dataset(data.times[order], data.observed[order], data.tau)
        reversed_ = Dataset(data.times[::-1], data.observed[::-1], data.tau)
        expected = log_likelihood(demo[name], data).hex()
        assert log_likelihood(demo[name], shuffled).hex() == expected
        assert log_likelihood(demo[name], reversed_).hex() == expected

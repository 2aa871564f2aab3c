"""Censored likelihood evaluation and hyperprior sampling/density."""

import collections
import dataclasses
import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    draw_model_params,
    simulate_dataset,
)
from gphazard.rng import RandomStream
from gphazard.stats import ks_distance
from gphazard.validation import DEMO_SEED, demo_models

import _oracle
from _strategies import hazard_models, model_of


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
        self._check(last_observed=False)

    def test_all_observed_is_minus_inf_without_a_warning(self):
        # no censored sum to overflow: the log density of the events is -inf
        self._check(last_observed=True)

    @staticmethod
    def _check(last_observed):
        draw = GammaProcessDraw.from_atoms([1.0, 2.0], [0.5, 0.5])
        model = MixtureBathtub(0.5, 1.7e308, draw, 1.7e308, draw)
        with np.errstate(over="ignore"):  # both components' knot values overflow as they are built
            assert model.cum_hazard(3.0) == math.inf
        data = Dataset(times=[3.0] * 1500 + [2.5], observed=[True] * 1500 + [last_observed])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):  # records as given, then sorted
                assert log_likelihood(model, data) == -math.inf


class TestOverflowedMixtureLogDensity:
    def test_a_sum_below_the_double_range_is_minus_inf_without_a_warning(self):
        # at t = 1 the decreasing component's level is 0 and its L is 1, while the
        # increasing one's log density is log(0.5e308) - 1e308: two such events sum
        # below -1.8e308, where the cumulative hazard stays about 1 per record
        model = MixtureBathtub(0.5, 0.0, GammaProcessDraw.from_atoms([1.0], [1.0]), 1e308,
                               GammaProcessDraw.from_atoms([], []))
        data = Dataset(times=[1.0, 1.0], observed=[True, True])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_likelihood(model, data) == -math.inf


class TestOverflowedMoment:
    def test_an_inf_coefficient_after_an_overflowed_cumulative_hazard_is_minus_inf(self):
        # from t = 3 on the log hazard exceeds 2.5e200, so the skeleton's coefficient
        # there is inf, its true value; the observed cumulative hazard overflows before it
        model = LogConvexHazard(2.0, -1.0, GammaProcessDraw.from_atoms([3.0, 0.5], [1e308, 1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model._skeleton.coeffs[-1] == math.inf
        data = Dataset(times=[0.5, 0.25, 10.0, 2.0, 1.0], observed=[True, True, False, True, True])
        assert model.cum_hazard(2.0) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_likelihood(model, data) == -math.inf


class TestSmallWeightBehindALargeOne:
    def test_an_event_where_the_large_weight_has_passed_is_finite(self):
        # the dfr hazard at 1.5 is 0.3 + 0.5, which a difference of prefix sums loses
        # behind the weight of 1e20
        model = DecreasingFailureRate(0.3, GammaProcessDraw.from_atoms([1.0, 2.0], [1e20, 0.5]))
        data = Dataset(times=[1.5, 2.5], observed=[True, False])
        expected = math.log(0.8) - model.cum_hazard(1.5) - model.cum_hazard(2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_likelihood(model, data) == pytest.approx(expected, rel=1e-15)


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
        # the log hazard is linear on a segment, log(lambda0) + rate * t before the first
        # atom, and is summed as such; the cumulative hazard is taken per record
        model = self._model()
        data = Dataset(times=[1e-3, 2e-3], observed=[True, False])
        cum = np.asarray(model.cum_hazard(data.times))
        log_hazard = math.log(1e200) + 500.0 * 1e-3
        assert log_likelihood(model, data) == log_hazard - cum[0] - cum[1]
        assert log_hazard == pytest.approx(math.log(model.hazard(1e-3)), rel=1e-15)


class TestUnderflowedHazard:
    def test_lcv_stays_finite_where_its_hazard_underflows(self):
        # the log hazard, -1000 t here, is summed as such, so a hazard below the
        # smallest double at a record does not make the log-likelihood -inf
        model = LogConvexHazard(1.0, -1000.0, GammaProcessDraw.from_atoms([], []))
        assert model.hazard(1.0) == 0.0
        data = Dataset(times=[0.5, 1.0], observed=[True, True])
        expected = -1500.0 - model.cum_hazard(0.5) - model.cum_hazard(1.0)
        assert log_likelihood(model, data) == pytest.approx(expected, rel=1e-15)

    def test_lcv_keeps_lambda0_beside_a_large_moment(self):
        # at t = 1 the log hazard is log(1e-300) + (1e200 * 1 - 1e200): the rate times
        # the knot cancels the moment exactly, and log(lambda0) is added after
        model = LogConvexHazard(1e-300, 0.0, GammaProcessDraw.from_atoms([1.0, 2.0], [1e200, 0.5]))
        assert model.hazard(1.0) == 1e-300
        data = Dataset(times=[1.0, 0.25], observed=[True, True])
        expected = 2.0 * math.log(1e-300) - model.cum_hazard(0.25) - model.cum_hazard(1.0)
        assert log_likelihood(model, data) == pytest.approx(expected, rel=1e-15)

    def test_mbt_stays_finite_where_its_hazard_underflows(self):
        # past its atom the decreasing component's hazard is 0, and the increasing one's
        # weight exp(-799) underflows, so hazard(800) is 0; its log density is not
        empty = GammaProcessDraw.from_atoms([], [])
        model = MixtureBathtub(0.5, 0.0, GammaProcessDraw.from_atoms([1.0], [1.0]), 1.0, empty)
        assert model.hazard(800.0) == 0.0
        data = Dataset(times=[800.0], observed=[True])
        assert log_likelihood(model, data) == pytest.approx(math.log(0.5) - 800.0, rel=1e-15)


class TestRepeatedEvaluation:
    """Every call on one Dataset evaluates its sorted times and returns the same bits."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_three_calls_give_the_first_calls_bits(self, demo, seed):
        models = dict(demo, **{"dfr-defective": DecreasingFailureRate(0.0, demo["ifr"].draw)})
        for name, model in models.items():
            # n far above the demo's K
            data = simulate_dataset(model, 3000, 3.0, RandomStream(seed))
            values = [log_likelihood(model, data).hex() for _ in range(3)]
            assert values[1] == values[2] == values[0], name

    def test_every_call_sees_ascending_times(self, demo):
        model, seen = demo["lwb"], []

        class Recording:
            _skeleton = property(lambda self: self)

            def _log_likelihood_terms(self, obs, cens):
                seen.append((np.array(obs), np.array(cens)))
                return model._skeleton._log_likelihood_terms(obs, cens)

        data = simulate_dataset(model, 500, 3.0, RandomStream(4))
        for _ in range(2):
            assert log_likelihood(Recording(), data) == log_likelihood(model, data)
        assert len(seen) == 2
        for obs, cens in seen:
            np.testing.assert_array_equal(obs, np.sort(data.observed_times()))
            np.testing.assert_array_equal(cens, np.sort(data.censored_times()))

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
    @given(model=hazard_models(), n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    # every variant at least once
    @example(model=demo_models(DEMO_SEED)["ifr"], n=200, seed=1)
    @example(model=demo_models(DEMO_SEED)["dfr"], n=200, seed=1)
    @example(model=demo_models(DEMO_SEED)["lwb"], n=200, seed=1)
    @example(model=demo_models(DEMO_SEED)["sbt"], n=200, seed=1)
    @example(model=demo_models(DEMO_SEED)["mbt"], n=200, seed=1)
    @example(model=demo_models(DEMO_SEED)["lcv"], n=200, seed=1)
    def test_any_permutation_gives_the_same_bits(self, model, n, seed):
        data = simulate_dataset(model, n, 3.0, RandomStream(seed))
        order = np.random.default_rng(seed).permutation(n)
        shuffled = Dataset(data.times[order], data.observed[order], data.tau)
        reversed_ = Dataset(data.times[::-1], data.observed[::-1], data.tau)
        expected = log_likelihood(model, data).hex()
        assert log_likelihood(model, shuffled).hex() == expected
        assert log_likelihood(model, reversed_).hex() == expected


def _per_record(model, data) -> tuple[float, float]:
    """The log-likelihood from the public ``hazard`` and ``cum_hazard``, record by record,
    and the sum of the terms' magnitudes."""
    obs, cens = data.observed_times(), data.censored_times()
    with np.errstate(divide="ignore"):
        log_h = np.log(np.asarray(model.hazard(obs), dtype=float))
    cum = np.concatenate((model.cum_hazard(obs), model.cum_hazard(cens)))
    if np.any(cum == math.inf):
        return -math.inf, math.inf
    return math.fsum(log_h) - math.fsum(cum), math.fsum(np.abs(log_h)) + math.fsum(cum)


_ATOMS = GammaProcessDraw.from_atoms([0.5, 1.0, 2.0], [0.7, 0.4, 1.1])
_ATOMS2 = GammaProcessDraw.from_atoms([1.0, 2.5], [0.3, 0.9])
_TIED = GammaProcessDraw.from_atoms([1.0, 0.5, 1.0, 2.0, 0.5], [0.2, 0.7, 0.4, 1.1, 0.1])
_ONE = GammaProcessDraw.from_atoms([1.2], [0.8])
_HUGE = GammaProcessDraw.from_atoms([1.0], [1e308])
_EDGES = {  # draws, then the records
    # with a = 1 every knot of every model lies in 0.5, 1.0, 1.5, 2.0, 2.5, 3.0
    "times at the knots": (_ATOMS, _ATOMS2,
                           Dataset([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.0], [True] * 6 + [False])),
    "tied atoms and times": (_TIED, _TIED, Dataset([0.5, 0.5, 1.0, 1.0, 1.0, 0.7, 3.0, 3.0],
                                                   [True] * 6 + [False] * 2, tau=3.0)),
    "n = 1, K = 1": (_ONE, _ONE, Dataset([0.9], [True])),
    "K = 0": (GammaProcessDraw.from_atoms([], []), _ONE, Dataset([0.4, 2.0], [True, False])),
    "all censored": (_ATOMS, _ATOMS2, Dataset([3.0] * 5, [False] * 5, tau=3.0)),
    "all observed": (_ATOMS, _ATOMS2, Dataset(np.linspace(0.05, 4.0, 80), [True] * 80)),
}


class TestAgainstThePerRecordSum:
    """The per-segment sums agree with the public hazard and cum_hazard summed record by record."""

    @pytest.mark.parametrize("case", _EDGES)
    @pytest.mark.parametrize("name", ["ifr", "dfr", "lwb", "sbt", "mbt", "lcv"])
    def test_edge_cases(self, case, name):
        draw, draw2, data = _EDGES[case]
        model = model_of(name, draw, draw2, 0.3)
        expected, scale = _per_record(model, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_likelihood(model, data)
        assert got == pytest.approx(expected, rel=0.0, abs=64 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("name, t", [("ifr", 0.25), ("dfr", 3.0), ("lwb", 1.2),
                                         ("sbt", 2.2), ("mbt", 2.2)])
    def test_a_zero_level_under_an_event_is_minus_inf(self, name, t):
        # lambda0 = 0: ifr below its atoms, dfr above them, lwb between a and a + 0.5,
        # sbt and mbt above the decreasing atoms and below the increasing one
        model = model_of(name, _ATOMS, GammaProcessDraw.from_atoms([2.5], [1.0]), 0.0)
        assert model.hazard(t) == 0.0
        data = Dataset([0.4, t, 2.9, 3.0], [True, True, False, True])
        assert _per_record(model, data)[0] == -math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_likelihood(model, data) == -math.inf

    @pytest.mark.parametrize("name, t", [("ifr", 2.0), ("ifr", 1.0), ("dfr", 0.5), ("lwb", 2.0),
                                         ("lwb", 3.0), ("sbt", 1.0), ("sbt", 0.5)])
    @pytest.mark.parametrize("censored", [False, True])
    def test_an_infinite_level_under_an_event_is_minus_inf(self, name, t, censored):
        # lambda0 = 1e308 plus an atom weight of 1e308 at 1: the level is inf from the atom
        # on for ifr, up to it for dfr, from a + 1 = 2 on for lwb, and everywhere for sbt;
        # an event at t = 1 or 2 lies at its segment's knot, where it adds no offset
        model = model_of(name, _HUGE, _HUGE, 1e308)
        with np.errstate(over="ignore"):  # the level overflows as the skeleton is built
            assert model.hazard(t) == math.inf
        data = Dataset([0.25, t], [censored, True])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_likelihood(model, data) == -math.inf

    @pytest.mark.parametrize("pi", [0.4, 1.0])
    def test_an_infinite_level_gives_a_mixture_component_a_zero_density(self, pi):
        # 1e308 + 1e308 overflows: the increasing component's level is inf from its atom
        # on (pi = 1: with a weight of 0, log(1 - pi) + log(inf) is nan), the decreasing
        # one's everywhere (pi = 0.4); the mixture scores as the other component
        if pi == 1.0:
            model = MixtureBathtub(pi, 0.3, _ATOMS, 1e308, _HUGE)
            alone, log_weight = DecreasingFailureRate(0.3, _ATOMS), 0.0
        else:
            model = MixtureBathtub(pi, 1e308, _HUGE, 0.3, _ATOMS2)
            alone, log_weight = IncreasingFailureRate(0.3, _ATOMS2), math.log1p(-pi)
        with np.errstate(over="ignore"):  # the level overflows as the skeleton is built
            for component in model.components:
                component._skeleton
        data = Dataset([0.5, 1.0, 2.0, 2.5], [True, True, True, False])
        expected = log_likelihood(alone, data) + data.n * log_weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_likelihood(model, data) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("name", ["ifr", "dfr", "lwb", "sbt", "mbt", "lcv"])
    def test_simulated_records(self, demo, name):
        data = simulate_dataset(demo[name], 3000, 3.0, RandomStream(6))
        expected, scale = _per_record(demo[name], data)
        got = log_likelihood(demo[name], data)
        assert got == pytest.approx(expected, rel=0.0, abs=64 * np.finfo(float).eps * scale)


def _decimal_error_ulp(model, data, got: float) -> float:
    """How far ``got`` lies from a 50-digit evaluation of the model's skeleton, in ulp of it.

    The skeleton's knots, levels (``coeffs``) and knot values are taken as
    exact.  For lcv only the log-hazard sum is evaluated so: on segment l it
    is ``log(lambda0) + lead_l + rate_l * (t - knot_l)``, with the log hazard
    over lambda0 at the knot and the log-slope taken from the atoms by the
    oracle.  Its cumulative hazard is the model's ``cum_hazard`` per record,
    summed exactly.
    """
    D = decimal.Decimal
    skeleton = model._skeleton
    obs, cens = data.observed_times(), data.censored_times()
    with decimal.localcontext(decimal.Context(prec=50)):
        knots, coeffs, values = ([D(x) for x in a.tolist()]
                                 for a in (skeleton.knots, skeleton.coeffs, skeleton.values))
        segs = [(np.searchsorted(skeleton.knots, times, "right") - 1).tolist()
                for times in (obs, cens)]
        if model.variant == "lcv":
            cum = np.concatenate((model.cum_hazard(obs), model.cum_hazard(cens)))
            log_lambda0 = D(model.lambda0).ln()
            terms = _oracle.lcv_log_terms(model, skeleton.knots.tolist())
            exact = (sum(log_lambda0 + terms[l][0] + terms[l][1] * (D(t) - knots[l])
                         for t, l in zip(obs.tolist(), segs[0]))
                     - sum(map(D, cum.tolist())))
        else:
            exact = sum(n * coeffs[l].ln() for l, n in collections.Counter(segs[0]).items())
            for times, seg in zip((obs, cens), segs):
                exact -= sum(values[l] + coeffs[l] * (D(t) - knots[l])
                             for t, l in zip(times.tolist(), seg))
        return float(abs(D(got) - exact) / D(float(np.spacing(abs(float(exact))))))


def _prior_models(variants, first_seed: int, n_atoms: int = 200):
    """One model per variant, its draws and scalars from the priors the fit loop draws from."""
    hyper = HyperParams(a1=3.0, a2=1.0)
    for i, variant in enumerate(variants):
        stream = RandomStream(first_seed + i)
        alpha, beta, _ = sample_hyperparams(hyper, stream)
        bases = [gamma_process.ExponentialBase(1.0)]
        if variant == "sbt":
            bases.append(gamma_process.NormalBase(2.0, 1.0))
        draws = [gamma_process.draw_gamma_process(
            gamma_process.GammaProcessParams(alpha, beta, n_atoms, base), stream) for base in bases]
        yield draw_model_params(variant, draws, hyper, stream, a=0.6)


class TestSummationAccuracy:
    """The per-segment sums stay within a pinned ulp budget of a 50-digit decimal evaluation."""

    BOUND_ULP = 31.2  # twice the worst error over these examples, 15.6 ulp (an sbt model)

    def test_prior_draws_on_a_fit_style_dataset(self, demo):
        data = simulate_dataset(demo["lwb"], 2000, 3.0, RandomStream(7))
        errors = []
        for model in _prior_models(["ifr", "dfr", "lwb", "sbt", "lcv"] * 10, 1000):
            got = log_likelihood(model, data)
            if math.isfinite(got):
                errors.append(_decimal_error_ulp(model, data, got))
        assert len(errors) >= 45
        assert max(errors) <= self.BOUND_ULP

    LCV_BOUND_ULP = 18.8  # twice the worst lcv error at seeds 9000-9999, 9.36 ulp (seed 9834)

    def test_lcv_prior_draws(self, demo):
        # these seeds hold 9026, 30.5 ulp off when the log hazard and the cumulative hazard
        # were summed apart
        data = simulate_dataset(demo["lwb"], 2000, 3.0, RandomStream(7))
        errors = []
        for seed in range(9000, 9040):
            try:
                (model,) = _prior_models(["lcv"], seed)
            except ValueError:  # the prior's lambda0 underflows to 0
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = log_likelihood(model, data)
            if math.isfinite(got):
                errors.append(_decimal_error_ulp(model, data, got))
        assert len(errors) >= 35
        assert max(errors) <= self.LCV_BOUND_ULP

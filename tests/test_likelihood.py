"""Censored likelihood evaluation and hyperprior sampling/density."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gphazard.datasets import Dataset
from gphazard.gamma_process import GammaProcessDraw
from gphazard.likelihood import (
    HyperParams,
    log_hyperprior,
    log_likelihood,
    sample_hyperparams,
)
from gphazard.models import DecreasingFailureRate, IncreasingFailureRate, LogConvexHazard
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

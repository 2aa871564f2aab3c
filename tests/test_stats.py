"""Kaplan-Meier curves, step functions, KS distance, histograms."""

import math
import re
import warnings

import numpy as np
import pytest

from gphazard.datasets import Dataset
from gphazard.gamma_process import GammaProcessDraw
from gphazard.models import LogConvexHazard
from gphazard.rng import RandomStream
from gphazard.stats import StepFunction, histogram, kaplan_meier, ks_distance


class TestStepFunction:
    def test_right_continuous_evaluation(self):
        f = StepFunction(breakpoints=[1.0, 2.0], values=[0.5, 0.2], initial=1.0)
        assert f(0.0) == 1.0
        assert f(1.0) == 0.5  # level of the last breakpoint <= t
        assert f(1.5) == 0.5
        assert f(2.0) == 0.2
        assert f(100.0) == 0.2
        np.testing.assert_allclose(f(np.array([0.5, 1.0, 3.0])), [1.0, 0.5, 0.2])

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            StepFunction(breakpoints=[2.0, 1.0], values=[0.5, 0.2], initial=1.0)

    @pytest.mark.parametrize("breakpoints", [[1.0, np.nan], [np.nan, 1.0], [np.nan]])
    def test_nan_breakpoint_rejected(self, breakpoints):
        values = [0.5, 0.25][: len(breakpoints)]
        with pytest.raises(ValueError, match="strictly increasing, not NaN"):
            StepFunction(breakpoints=breakpoints, values=values, initial=1.0)

    def test_csv_serialization(self, tmp_path):
        f = StepFunction(breakpoints=[1.0, 3.0], values=[2.0 / 3.0, 0.0], initial=1.0)
        path = tmp_path / "step.csv"
        f.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,value"
        assert lines[1] == f"{1.0!r},{2.0 / 3.0!r}"
        assert lines[2] == f"{3.0!r},{0.0!r}"

    def test_csv_rows_are_repr_of_full_precision_values(self, tmp_path):
        values = [5e-324, 0.1 + 0.2, 1.0 / 3.0, 1.7976931348623157e308]
        f = StepFunction(breakpoints=values, values=values[::-1], initial=1.0)
        path = tmp_path / "step.csv"
        f.to_csv(path)
        rows = [f"{b!r},{v!r}" for b, v in zip(values, values[::-1])]
        assert path.read_text() == "\n".join(["t,value", *rows]) + "\n"
        assert rows[0] == "5e-324,1.7976931348623157e+308"

    def test_csv_to_an_unwritable_path_is_a_value_error_naming_it(self, tmp_path):
        f = StepFunction(breakpoints=[1.0], values=[0.5], initial=1.0)
        path = tmp_path / "missing" / "step.csv"
        with pytest.raises(ValueError, match=f"^cannot write {re.escape(str(path))}: "):
            f.to_csv(path)


class TestKaplanMeier:
    def test_all_observed(self):
        km = kaplan_meier(Dataset(times=[1.0, 2.0, 3.0], observed=[True] * 3))
        assert km(1.0) == 2.0 / 3.0
        assert km(2.0) == 1.0 / 3.0
        assert km(3.0) == 0.0
        assert km(0.5) == 1.0

    def test_censoring_shrinks_risk_set_only(self):
        km = kaplan_meier(Dataset(times=[1.0, 2.0, 3.0], observed=[True, False, True]))
        assert km(1.0) == 2.0 / 3.0
        assert km(2.5) == 2.0 / 3.0
        assert km(3.0) == 0.0

    def test_all_censored_stays_at_one(self):
        km = kaplan_meier(Dataset(times=[1.0, 2.0], observed=[False, False]))
        assert km(0.0) == 1.0
        assert km(5.0) == 1.0

    def test_ties_aggregate(self):
        km = kaplan_meier(Dataset(times=[1.0, 1.0, 2.0, 2.0], observed=[True] * 4))
        assert km(1.0) == 0.5
        assert km(2.0) == 0.0

    def test_death_before_censoring_at_ties(self):
        # the record censored at t=1 is still at risk for the death at t=1
        km = kaplan_meier(Dataset(times=[1.0, 1.0, 2.0], observed=[True, False, True]))
        assert km(1.0) == 2.0 / 3.0

    def test_matches_survival_ecdf_without_censoring(self):
        rng = np.random.default_rng(0)
        times = rng.exponential(1.0, size=200)
        km = kaplan_meier(Dataset(times=times, observed=np.ones(200, dtype=bool)))
        ts = np.sort(times)
        surv_ecdf = (200 - np.searchsorted(ts, ts, side="right")) / 200
        np.testing.assert_array_equal(km(ts), surv_ecdf)

    def test_nonincreasing_from_one(self):
        rng = np.random.default_rng(1)
        times = rng.exponential(1.0, size=100)
        observed = rng.random(100) < 0.7
        times[~observed] = np.round(times[~observed], 3) + 1e-3
        km = kaplan_meier(Dataset(times=times, observed=observed))
        assert km.initial == 1.0
        assert np.all(np.diff(km.values) <= 0.0)


class TestKsDistance:
    def test_exact_quantile_samples(self):
        n = 50
        samples = (np.arange(1, n + 1) - 0.5) / n  # exact uniform quantiles
        assert ks_distance(samples, lambda x: x) == pytest.approx(0.5 / n, abs=1e-15)

    def test_single_sample_at_median(self):
        assert ks_distance([0.5], lambda x: np.asarray(x)) == 0.5

    def test_uniform_fit(self):
        rng = np.random.default_rng(2)
        assert ks_distance(rng.random(10_000), lambda x: x) < 0.02

    def test_invariance_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        x = rng.random(500)
        base = ks_distance(x, lambda v: v)
        scaled = ks_distance(4.0 * x, lambda v: np.asarray(v) / 4.0)  # exact in binary fp
        assert scaled == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], lambda x: x)

    def test_samples_of_any_shape_are_taken_flat(self):
        x = np.array([0.1, 0.9, 0.5, 0.3])
        flat = ks_distance(x, lambda v: v)
        assert ks_distance(x[None, :], lambda v: v) == flat
        assert ks_distance(x.reshape(2, 2), lambda v: v) == flat


class TestHistogram:
    def test_width_one(self):
        edges, counts = histogram([0.5, 1.5], bin_width=1.0)
        np.testing.assert_allclose(edges, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(counts, [1, 1])

    def test_bin_count(self):
        edges, counts = histogram([0.5, 1.5, 2.5, 3.9], bin_count=4)
        assert edges[0] == 0.0 and edges[-1] == 3.9
        assert counts.sum() == 4

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(4)
        x = rng.exponential(1.0, size=1000)
        _, counts = histogram(x, bin_count=17)
        assert counts.sum() == 1000
        _, counts = histogram(x, bin_width=0.37)
        assert counts.sum() == 1000

    def test_domain(self):
        with pytest.raises(ValueError):
            histogram([], bin_count=3)
        with pytest.raises(ValueError):
            histogram([1.0], bin_count=3, bin_width=1.0)
        with pytest.raises(ValueError):
            histogram([1.0])
        with pytest.raises(ValueError):
            histogram([1.0], bin_width=0.0)
        with pytest.raises(ValueError):
            histogram([1.0], bin_count=0)


class TestKsDistanceAtInfinity:
    """Infinite samples are an atom at infinity, met by the CDF's limit there."""

    @staticmethod
    def _half_mass(x):
        """A CDF that rises as x / 2 on [0, 1] and leaves mass 1/2 at infinity."""
        return np.minimum(np.asarray(x, dtype=float), 1.0) / 2.0

    @pytest.mark.parametrize("samples, expected", [
        ([0.25, 0.75, np.inf, np.inf], 0.125),  # the ECDF's m/n = 1/2 meets F's limit 1/2
        ([0.5, np.inf, np.inf, np.inf], 0.25),  # |1/4 - 1/2| just below infinity
        ([np.inf, np.inf], 0.5),  # no finite sample: only the gap at infinity
        ([0.25, np.inf], 0.375),  # 1/2 - F(0.25) at the finite sample
    ])
    def test_small_exact_cases(self, samples, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ks_distance(samples, self._half_mass) == expected
            assert ks_distance(samples[::-1], self._half_mass) == expected

    def test_defective_model_is_not_charged_its_defect_mass(self):
        # hazard exp(-t): H(inf) = 1, so a share exp(-1) = 0.37 of the draws is inf
        model = LogConvexHazard(1.0, -1.0, GammaProcessDraw.from_atoms([], []))
        samples = model.sample_failures(10_000, RandomStream(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = ks_distance(samples, lambda x: 1.0 - np.asarray(model.survival(x)))
        assert abs(np.mean(samples == np.inf) - math.exp(-1.0)) < 0.02
        assert d < 0.02

    def test_finite_samples_keep_the_textbook_bits(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 500):
            x = rng.random(n)
            f = np.sort(x)
            i = np.arange(1, n + 1)
            textbook = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
            assert ks_distance(x, lambda v: v).hex() == textbook.hex()

    def test_nan_sample_rejected(self):
        with pytest.raises(ValueError, match="not NaN"):
            ks_distance([0.5, np.nan, np.inf], self._half_mass)

    @pytest.mark.parametrize("samples", [[0.25, 0.5], [0.25, np.inf], [np.inf] * 100])
    def test_nan_cdf_rejected(self, samples):
        """A CDF that is NaN from 0.5 on: at a finite sample, or at infinity only."""
        def cdf(x):
            return np.where(np.asarray(x) >= 0.5, np.nan, self._half_mass(x))

        with pytest.raises(ValueError, match="cdf gave NaN"):
            ks_distance(samples, cdf)

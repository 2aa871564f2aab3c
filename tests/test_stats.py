"""Kaplan-Meier curves, step functions, KS distance, histograms."""

import numpy as np
import pytest

from gphazard.datasets import Dataset
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

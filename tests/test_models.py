"""Closed-form curve values, exact inversion, model identities, and sampling."""

import json
import math
import warnings
from dataclasses import fields
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

from gphazard import gamma_process, models
from gphazard._checks import _check_range
from gphazard.datasets import Dataset
from gphazard.gamma_process import (ExponentialBase, GammaProcessDraw, GammaProcessParams,
                                    NormalBase, draw_gamma_process)
from gphazard.likelihood import HyperParams, log_likelihood
from gphazard.models import (
    DecreasingFailureRate,
    IncreasingFailureRate,
    LoWengBathtub,
    LogConvexHazard,
    MixtureBathtub,
    SuperpositionBathtub,
    draw_model_params,
    model_from_dict,
    model_to_dict,
    simulate_dataset,
)
from gphazard.rng import RandomStream
from gphazard.stats import ks_distance
from gphazard.validation import DEMO_SEED, demo_models

import _oracle
from _oracle import bits as _bits
from _strategies import (draw_of, draws, generated_models, hazard_models, levels, model_of,
                         mixtures_at_the_ends, models_and_times, time_grid, times)


class TestHazardValues:
    def test_ifr(self):
        m = IncreasingFailureRate(0.5, draw_of([(1.0, 0.6), (2.0, 0.4)]))
        assert m.hazard(0.5) == 0.5
        assert m.hazard(1.5) == pytest.approx(1.1, rel=1e-15)
        assert m.hazard(3.0) == pytest.approx(1.5, rel=1e-15)

    def test_lwb(self):
        m = LoWengBathtub(0.1, 2.0, draw_of([(0.5, 1.0), (1.5, 0.5)]))
        assert m.hazard(1.8) == pytest.approx(0.1, rel=1e-15)
        assert m.hazard(0.0) == pytest.approx(1.6, rel=1e-15)
        assert m.hazard(3.0) == pytest.approx(1.1, rel=1e-15)

    def test_lcv(self):
        m = LogConvexHazard(1.0, -1.0, draw_of([(1.0, 2.0)]))
        assert m.hazard(0.5) == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert m.hazard(2.0) == pytest.approx(1.0, rel=1e-15)

    def test_negative_t_rejected(self):
        m = IncreasingFailureRate(0.5, draw_of([(1.0, 1.0)]))
        with pytest.raises(ValueError):
            m.hazard(-1.0)
        with pytest.raises(ValueError):
            m.cum_hazard(-1.0)


class TestCumHazardValues:
    def test_ifr(self):
        m = IncreasingFailureRate(0.5, draw_of([(1.0, 0.6), (2.0, 0.4)]))
        assert m.cum_hazard(3.0) == pytest.approx(3.1, rel=1e-15)
        assert m.cum_hazard(0.0) == 0.0

    def test_lwb_piecewise_integration(self):
        m = LoWengBathtub(0.1, 2.0, draw_of([(0.5, 1.0), (1.5, 0.5)]))
        assert m.cum_hazard(3.0) == pytest.approx(2.55, rel=1e-14)

    def test_lcv_segment_formula(self):
        m = LogConvexHazard(1.0, -1.0, draw_of([(1.0, 2.0)]))
        assert m.cum_hazard(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        expected = (1.0 - math.exp(-1.0)) + math.exp(-2.0) * (math.e**2 - math.e)
        assert m.cum_hazard(2.0) == pytest.approx(expected, rel=1e-14)

    def test_survival_and_density(self, demo):
        m = IncreasingFailureRate(0.5, draw_of([(1.0, 0.6), (2.0, 0.4)]))
        assert m.survival(3.0) == pytest.approx(math.exp(-3.1), rel=1e-14)
        for model in demo.values():
            assert model.survival(0.0) == 1.0
            t = 1.234
            assert model.density(t) == pytest.approx(
                model.hazard(t) * model.survival(t), rel=1e-12
            )


class TestInversion:
    def test_ifr_example(self):
        m = IncreasingFailureRate(1.0, draw_of([(1.0, 2.0)]))
        assert m.invert_cum_hazard(4.0) == pytest.approx(2.0, rel=1e-14)
        assert m.cum_hazard(2.0) == 4.0

    def test_dfr_examples(self):
        m = DecreasingFailureRate(1.0, draw_of([(1.0, 2.0)]))
        assert m.invert_cum_hazard(1.5) == pytest.approx(0.5, rel=1e-14)
        assert m.invert_cum_hazard(3.5) == pytest.approx(1.5, rel=1e-14)

    def test_lcv_defective_no_atoms(self):
        m = LogConvexHazard(2.0, -1.0, GammaProcessDraw.from_atoms([], []))
        assert m.cum_hazard_limit() == pytest.approx(2.0, rel=1e-14)
        assert math.isinf(m.invert_cum_hazard(3.0))

    def test_zero_target(self, demo):
        for model in demo.values():
            assert model.invert_cum_hazard(0.0) == 0.0

    def test_negative_target_rejected(self, demo):
        for model in demo.values():
            with pytest.raises(ValueError):
                model.invert_cum_hazard(-1.0)

    def test_round_trip(self, demo):
        rng = np.random.default_rng(42)
        for name, model in demo.items():
            lam_max = model.cum_hazard(5.0)
            targets = rng.uniform(0.0, lam_max, size=2000)
            t = np.asarray(model.invert_cum_hazard(targets))
            assert np.all(np.isfinite(t)), name
            back = np.asarray(model.cum_hazard(t))
            err = np.max(np.abs(back - targets) / np.maximum(1.0, targets))
            assert err <= 1e-9, name


class TestModelIdentities:
    def test_sbt_superposition(self, demo):
        sbt = demo["sbt"]
        ts = np.linspace(0.0, 5.0, 1000)
        parts = (
            sbt.lambda0
            + np.asarray(DecreasingFailureRate(0.0, sbt.draw_decreasing).hazard(ts))
            + np.asarray(IncreasingFailureRate(0.0, sbt.draw_increasing).hazard(ts))
        )
        whole = np.asarray(sbt.hazard(ts))
        np.testing.assert_allclose(whole, parts, rtol=1e-12)

    def test_mbt_mixture_identities(self, demo):
        mbt = demo["mbt"]
        dfr = DecreasingFailureRate(mbt.lambda01, mbt.draw1)
        ifr = IncreasingFailureRate(mbt.lambda02, mbt.draw2)
        ts = np.linspace(0.0, 5.0, 1000)
        np.testing.assert_allclose(
            np.asarray(mbt.survival(ts)),
            mbt.pi * np.asarray(dfr.survival(ts)) + (1 - mbt.pi) * np.asarray(ifr.survival(ts)),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            np.asarray(mbt.density(ts)),
            mbt.pi * np.asarray(dfr.density(ts)) + (1 - mbt.pi) * np.asarray(ifr.density(ts)),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            np.asarray(mbt.hazard(ts)) * np.asarray(mbt.survival(ts)),
            np.asarray(mbt.density(ts)),
            rtol=1e-12,
        )

    def test_mbt_identical_components_degenerate(self):
        g = draw_of([(0.5, 1.0), (2.0, 0.5)])
        mbt = MixtureBathtub(0.5, 0.2, g, 0.2, g)
        # with identical component *draws* the survival is still the mixture of
        # a decreasing and an increasing model, so just check the mixture law
        ts = np.linspace(0.0, 4.0, 50)
        s1 = np.asarray(DecreasingFailureRate(0.2, g).survival(ts))
        s2 = np.asarray(IncreasingFailureRate(0.2, g).survival(ts))
        np.testing.assert_allclose(np.asarray(mbt.survival(ts)), 0.5 * s1 + 0.5 * s2, rtol=1e-13)

    def test_mbt_pi_one_sampling_matches_dfr(self, demo):
        mbt = demo["mbt"]
        degenerate = MixtureBathtub(1.0, mbt.lambda01, mbt.draw1, mbt.lambda02, mbt.draw2)
        dfr = DecreasingFailureRate(mbt.lambda01, mbt.draw1)
        s1, s2 = RandomStream(99), RandomStream(99)
        a = [degenerate.sample_failure(s1) for _ in range(50)]
        b = [dfr.sample_failure(s2) for _ in range(50)]
        assert a == b

    def test_lwb_reflection_symmetry(self, demo):
        lwb = demo["lwb"]
        rng = np.random.default_rng(7)
        offs = rng.uniform(0.0, lwb.a, size=500)
        offs = offs[~np.isin(offs, lwb.draw.thetas)]
        left = np.asarray(lwb.hazard(lwb.a - offs))
        right = np.asarray(lwb.hazard(lwb.a + offs))
        np.testing.assert_array_equal(left, right)

    def test_lcv_log_slope_per_segment(self, demo):
        lcv = demo["lcv"]
        o = lcv.draw.ordered
        knots = np.concatenate(([0.0], o.thetas))
        rates = lcv.w0 + np.concatenate(([0.0], o.cum_mass))
        widths = np.diff(np.append(knots, knots[-1] + 1.0))
        checked = 0
        for k, c, w in zip(knots, rates, widths):
            if w < 0.05 or abs(c) < 0.25:
                continue
            t1, t2 = k + 0.25 * w, k + 0.75 * w
            slope = (math.log(lcv.hazard(t2)) - math.log(lcv.hazard(t1))) / (t2 - t1)
            assert abs(slope - c) <= 1e-12 * abs(c)
            checked += 1
        assert checked >= 5


class TestShapeInvariants:
    def test_monotone_hazards(self, demo):
        grid = np.linspace(0.0, 5.0, 2001)
        assert np.all(np.diff(np.asarray(demo["ifr"].hazard(grid))) >= 0.0)
        assert np.all(np.diff(np.asarray(demo["dfr"].hazard(grid))) <= 0.0)

    def test_lwb_bathtub_shape(self, demo):
        lwb = demo["lwb"]
        assert lwb.hazard(lwb.a) == lwb.lambda0
        grid = np.linspace(0.0, 5.0, 2001)
        h = np.asarray(lwb.hazard(grid))
        assert np.all(h >= lwb.lambda0)
        assert np.all(np.diff(h[grid <= lwb.a]) <= 0.0)
        assert np.all(np.diff(h[grid >= lwb.a]) >= 0.0)

    def test_lcv_log_convex(self, demo):
        grid = np.linspace(0.0, 5.0, 2001)
        log_h = np.log(np.asarray(demo["lcv"].hazard(grid)))
        assert np.min(np.diff(log_h, 2)) >= -1e-9

    def test_cum_hazard_starts_at_zero_and_grows(self, demo):
        grid = np.linspace(0.0, 5.0, 2001)
        for model in demo.values():
            assert model.cum_hazard(0.0) == 0.0
            assert np.all(np.diff(np.asarray(model.cum_hazard(grid))) >= 0.0)

    def test_quadrature_consistency_light(self, demo):
        rng = np.random.default_rng(3)
        for name, model in demo.items():
            for t_end in rng.uniform(0.5, 5.0, size=3):
                total = _oracle.quad_hazard(model, t_end)
                exact = model.cum_hazard(float(t_end))
                assert abs(total - exact) <= 1e-6 * abs(exact), name


class TestSampling:
    def test_ks_fit_light(self, demo):
        for name in ("ifr", "mbt", "lcv"):
            model = demo[name]
            s = RandomStream(1234)
            samples = np.array([model.sample_failure(s) for _ in range(2000)])
            d = ks_distance(samples, lambda x: 1.0 - np.asarray(model.survival(x)))
            assert d < 0.05, name

    def test_sample_reproducible(self, demo):
        m = demo["ifr"]
        a = [m.sample_failure(RandomStream(5)) for _ in range(1)]
        b = [m.sample_failure(RandomStream(5)) for _ in range(1)]
        assert a == b


class TestSimulateDataset:
    def test_censoring_fraction_at_median(self, demo):
        model = demo["ifr"]
        tau = float(model.invert_cum_hazard(math.log(2.0)))  # survival(tau) = 1/2
        data = simulate_dataset(model, 10_000, tau, RandomStream(21))
        frac = 1.0 - data.n_observed / data.n
        assert abs(frac - 0.5) < 0.015

    def test_all_censored_below_small_tau(self, demo):
        data = simulate_dataset(demo["ifr"], 100, 1e-6, RandomStream(22))
        assert data.n_observed == 0
        assert np.all(data.times == 1e-6)

    def test_uncensored_when_tau_none(self, demo):
        data = simulate_dataset(demo["ifr"], 100, None, RandomStream(23))
        assert data.n_observed == 100
        assert data.tau is None

    def test_defective_without_tau_rejected(self, demo):
        dfr0 = DecreasingFailureRate(0.0, demo["ifr"].draw)
        with pytest.raises(ValueError, match="tau"):
            simulate_dataset(dfr0, 10, None, RandomStream(24))

    def test_defective_with_tau_censors_infinite_draws(self, demo):
        dfr0 = DecreasingFailureRate(0.0, demo["ifr"].draw)
        tau = dfr0.cum_hazard_limit()  # survival(tau) > exp(-limit) > 0
        data = simulate_dataset(dfr0, 500, tau, RandomStream(25))
        assert 0 < data.n_observed < 500
        assert np.all(np.isfinite(data.times))

    def test_bad_n(self, demo):
        with pytest.raises(ValueError):
            simulate_dataset(demo["ifr"], 0, None, RandomStream(0))


class TestDemoBehaviour:
    def test_bathtub_histograms_bimodal(self, demo):
        # the three bathtub configurations put an early-failure mode in the
        # first bin, dip, and rebound at later times (deterministic at the
        # documented seed)
        from gphazard.stats import histogram

        for i, name in enumerate(("lwb", "sbt", "mbt")):
            data = simulate_dataset(demo[name], 1000, None, RandomStream(400 + i))
            _, counts = histogram(data.times, bin_width=0.25)
            assert counts[0] == counts.max(), name
            rebounds = any(
                counts[i] < 0.7 * counts[i + 1 :].max() for i in range(1, counts.size - 1)
            )
            assert rebounds, name

    def test_lwb_density_valley_near_minimum(self, demo):
        # the hazard is flat at lambda0 on a window around a, so the density
        # valley is a plateau containing a rather than a point
        lwb = demo["lwb"]
        window = np.linspace(0.2, 1.0, 801)
        dens = np.asarray(lwb.density(window))
        assert abs(window[np.argmin(dens)] - lwb.a) <= 0.1


class TestDrawModelParams:
    def test_offset_prior_mean(self):
        # lambda0 | gamma ~ Exp(nu/gamma) has mean gamma/nu
        g = GammaProcessDraw.from_atoms([1.0], [2.0])
        hyper = HyperParams(nu=4.0)
        s = RandomStream(31)
        lams = np.array(
            [draw_model_params("ifr", [g], hyper, s).lambda0 for _ in range(100_000)]
        )
        assert abs(lams.mean() - 0.5) < 0.01

    def test_lcv_w0_prior_sd(self):
        g = GammaProcessDraw.from_atoms([1.0], [3.0])
        hyper = HyperParams(nu=3.0)
        s = RandomStream(32)
        w0s = np.array([draw_model_params("lcv", [g], hyper, s).w0 for _ in range(100_000)])
        assert abs(w0s.std() - 1.0) < 0.02

    def test_sbt_offset_uses_second_draw(self):
        g1 = GammaProcessDraw.from_atoms([1.0], [1000.0])
        g2 = GammaProcessDraw.from_atoms([2.0], [2.0])
        hyper = HyperParams(nu=4.0)
        s = RandomStream(33)
        lams = np.array(
            [
                draw_model_params("sbt", [g1, g2], hyper, s).lambda0
                for _ in range(20_000)
            ]
        )
        assert abs(lams.mean() - 0.5) < 0.02  # gamma2/nu, not gamma1/nu

    def test_mbt_pi_must_be_supplied(self):
        g = GammaProcessDraw.from_atoms([1.0], [2.0])
        hyper = HyperParams(nu=1.0)
        with pytest.raises(ValueError, match="pi"):
            draw_model_params("mbt", [g, g], hyper, RandomStream(34))
        m = draw_model_params("mbt", [g, g], hyper, RandomStream(34), pi=0.3)
        assert m.pi == 0.3
        m = draw_model_params("mbt", [g, g], hyper, RandomStream(34), draw_pi=True)
        assert 0.0 < m.pi < 1.0

    def test_lwb_requires_a(self):
        g = GammaProcessDraw.from_atoms([1.0], [2.0])
        with pytest.raises(ValueError, match="a"):
            draw_model_params("lwb", [g], HyperParams(nu=1.0), RandomStream(35))

    def test_draw_count_checked(self):
        g = GammaProcessDraw.from_atoms([1.0], [2.0])
        with pytest.raises(ValueError):
            draw_model_params("sbt", [g], HyperParams(nu=1.0), RandomStream(36))
        with pytest.raises(ValueError):
            draw_model_params("ifr", [g, g], HyperParams(nu=1.0), RandomStream(36))


class TestValidationAndSerialization:
    def test_parameter_validation(self):
        g = GammaProcessDraw.from_atoms([1.0], [2.0])
        with pytest.raises(ValueError):
            IncreasingFailureRate(-0.1, g)
        with pytest.raises(ValueError):
            LoWengBathtub(0.1, -1.0, g)
        with pytest.raises(ValueError):
            MixtureBathtub(0.0, 0.1, g, 0.1, g)
        with pytest.raises(ValueError):
            MixtureBathtub(1.5, 0.1, g, 0.1, g)
        with pytest.raises(ValueError):
            LogConvexHazard(0.0, -1.0, g)

    def test_round_trip_all_variants(self, demo):
        ts = np.linspace(0.0, 5.0, 23)
        for name, model in demo.items():
            back = model_from_dict(model_to_dict(model))
            assert back.variant == model.variant == name
            np.testing.assert_array_equal(
                np.asarray(back.cum_hazard(ts)), np.asarray(model.cum_hazard(ts))
            )
            np.testing.assert_array_equal(
                np.asarray(back.hazard(ts)), np.asarray(model.hazard(ts))
            )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"model": "weibull"})

    @pytest.mark.parametrize("tag", [["ifr"], {"a": 1}, None, 3, ("ifr",), b"ifr"])
    def test_a_tag_that_is_not_a_string_is_a_value_error(self, tag):
        """Hashable or not, a non-string tag is an unknown variant, before any field is read."""
        g = GammaProcessDraw.from_atoms([1.0], [2.0])
        with pytest.raises(ValueError, match="unknown model variant"):
            model_from_dict({"model": tag, "lambda0": 0.1, "draw": g.to_dict()})
        with pytest.raises(ValueError, match="unknown model variant"):
            draw_model_params(tag, [g], HyperParams(), RandomStream(1))

    @pytest.mark.parametrize(
        "name, keys",
        [
            ("ifr", ["model", "lambda0", "draw"]),
            ("dfr", ["model", "lambda0", "draw"]),
            ("lwb", ["model", "lambda0", "a", "draw"]),
            ("sbt", ["model", "lambda0", "draw1", "draw2"]),
            ("mbt", ["model", "pi", "lambda01", "draw1", "lambda02", "draw2"]),
            ("lcv", ["model", "lambda0", "w0", "draw"]),
        ],
    )
    def test_document_keys_in_order(self, demo, name, keys):
        assert list(model_to_dict(demo[name])) == keys


VARIANTS = ["ifr", "dfr", "lwb", "sbt", "mbt", "lcv"]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("method", ["hazard", "cum_hazard", "invert_cum_hazard"])
    @pytest.mark.parametrize("name", VARIANTS)
    def test_nan_rejected(self, demo, name, method):
        evaluate = getattr(demo[name], method)
        for arg in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="NaN"):
                evaluate(arg)

    def test_lcv_overflow_is_silent(self, demo):
        lcv = demo["lcv"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lcv.hazard(800.0) == math.inf
            assert lcv.cum_hazard(800.0) == math.inf
            assert np.all(np.asarray(lcv.cum_hazard(np.array([1.0, 800.0])))[1:] == math.inf)


class TestMixtureLogSpace:
    """The mixture's log-weight evaluation and its concave-segment Newton inverse."""

    @staticmethod
    def _defective(demo):
        mbt = demo["mbt"]
        return MixtureBathtub(0.3, 0.0, mbt.draw1, 0.2, mbt.draw2)

    def test_hazard_where_both_survivals_underflow(self, demo):
        assert demo["mbt"].hazard(1e4) == pytest.approx(0.1)

    @pytest.mark.parametrize("frac", [0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-12])
    def test_defective_round_trip(self, demo, frac):
        m = self._defective(demo)
        targets = np.linspace(0.0, m.cum_hazard_limit() * frac, 2001)
        t = np.asarray(m.invert_cum_hazard(targets))
        assert np.all(np.isfinite(t))
        back = np.asarray(m.cum_hazard(t))
        assert np.max(np.abs(back - targets) / np.maximum(1.0, targets)) <= 1e-9

    @pytest.mark.parametrize("factor", [1.0, 1.01, math.inf])
    def test_defective_at_and_past_limit(self, demo, factor):
        m = self._defective(demo)
        assert m.invert_cum_hazard(m.cum_hazard_limit() * factor) == math.inf

    def test_pi_one_is_its_decreasing_component(self, demo):
        mbt = demo["mbt"]
        mix = MixtureBathtub(1.0, mbt.lambda01, mbt.draw1, mbt.lambda02, mbt.draw2)
        dfr = DecreasingFailureRate(mbt.lambda01, mbt.draw1)
        ts = np.linspace(0.0, 8.0, 801)
        assert np.array_equal(mix.cum_hazard(ts), dfr.cum_hazard(ts))
        assert np.array_equal(mix.hazard(ts), dfr.hazard(ts))
        targets = np.random.default_rng(7).uniform(0.0, 5.0, 2000)
        np.testing.assert_allclose(
            mix.invert_cum_hazard(targets), dfr.invert_cum_hazard(targets), rtol=1e-14, atol=0.0
        )

    def test_pi_one_density_where_the_increasing_density_is_inf(self):
        # from 1e-306 on the increasing level is 1e308 + 1e308 = inf, where its weight is 0
        draw = GammaProcessDraw.from_atoms([1.0], [1.0])
        mix = MixtureBathtub(1.0, 0.1, draw, 1e308, GammaProcessDraw.from_atoms([1e-306], [1e308]))
        dfr = DecreasingFailureRate(0.1, draw)
        assert mix.components[1].density(1e-306) == math.inf
        assert mix.density(1e-306) == dfr.density(1e-306) == 1.1
        ts = np.array([0.0, 5e-307, 1e-306, 0.5, 1.0, 2.0, 1e308, math.inf])
        np.testing.assert_array_equal(_bits(mix.density(ts)), _bits(dfr.density(ts)))

    @settings(max_examples=300, deadline=None)
    @given(generated_models(("mbt",)),
           st.lists(st.floats(0.0, 20.0) | st.floats(1e15, 1e308), max_size=10))
    # both components' hazards are 1 (0.9447 at 1e15 and 2.0 at 1e16 from weights exp(a_i - log S))
    @example(MixtureBathtub(0.5, 1.0, draw_of([]), 1.0, draw_of([])), [1.0, 1e15, 1e16])
    @example(MixtureBathtub(0.5, 1e308, draw_of([]), 1e308, draw_of([])), [0.1])  # not inf
    def test_hazard_between_the_components_hazards(self, model, extra):
        """The weights sum to 1 on the whole time axis, also where both L are large."""
        t = np.concatenate((time_grid(model.breakpoints()), extra))
        h, (h1, h2) = model.hazard(t), (c.hazard(t) for c in model.components)
        low = np.nextafter(np.nextafter(np.minimum(h1, h2), -math.inf), -math.inf)
        high = np.nextafter(np.nextafter(np.maximum(h1, h2), math.inf), math.inf)  # 2 ulp
        outside = ~((low <= h) & (h <= high))
        assert not outside.any(), (t[outside], h[outside], h1[outside], h2[outside])

    def test_equal_component_hazards_where_both_cumulative_hazards_are_large(self):
        e = draw_of([])
        hazard = MixtureBathtub(0.5, 1.0, e, 1.0, e).hazard(np.array([1.0, 1e15, 1e16]))
        np.testing.assert_array_equal(hazard, 1.0)  # both weights are 1/2 at every t

    def test_cum_hazard_where_the_hazard_is_subnormal(self):
        """0.5 * 5e-324 * 2 is the smallest double: H keeps it, where 1 - S rounds to 0."""
        e = draw_of([])
        assert MixtureBathtub(0.5, 0.0, e, 5e-324, e).cum_hazard(2.0) == 5e-324

    @settings(max_examples=300, deadline=None)
    @given(mixtures_at_the_ends(), st.lists(st.floats(0.0, 1.0), max_size=8))
    @example(MixtureBathtub(0.5, 0.0, draw_of([]), 5e-324, draw_of([])), [0.5])
    # the hazard falls from about 1 to 5e-324 once the first component dies, past t = 1e-306
    @example(MixtureBathtub(1.1125369292536007e-308, 1e308, draw_of([]), 5e-324, draw_of([])),
             [0.8])
    # past t = 0.25 a level of 1e308 takes the second component: H jumps by -log of the first's
    # weight there
    @example(MixtureBathtub(0.25, 5e-324, draw_of([(0.0, 0.3), (3.5, 4.3)]), 5e-324,
                            draw_of([(0.0, 0.3), (3.5, 4.3), (0.25, 1e308)])), [0.5])
    # a hazard below the normal range all along: every step comes from the logs
    @example(MixtureBathtub(3.2537054242262414e-106, 5e-324, draw_of([]), 0.0, draw_of([])), [])
    def test_the_inverse_at_the_ends_of_the_range(self, model, fractions):
        """H at the doubles either side of each target's inverse brackets it, to within 4 ulp
        where the hazard there is normal and 1024 where its step came from the logs (2 and 452
        were the most over 5,000 examples); or the inverse is inf and the target lies above H
        at the largest double, or at a limit not taken at the last knot.

        A bracket, not a round trip: where H moves by more than a few ulp between adjacent
        doubles (a jump at a knot, the first subnormal t under a level of 1e308, H leaving
        the double range), no double has H within a few ulp of the target.  An H past the
        double range is read as the largest double.
        """
        largest = np.finfo(float).max
        top = float(model.cum_hazard(largest))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = model.cum_hazard(time_grid(model.breakpoints()))
            x = np.concatenate((grid, np.nextafter(grid, math.inf), np.nextafter(grid, -math.inf),
                                np.array(fractions) * min(top, 1e308),
                                [5e-324, 1e-300, 0.5, 1e300, 1e308]))
            x = x[(x >= 0.0) & (x < math.inf)]
            t = model.invert_cum_hazard(x)
            finite = t < math.inf
            low = model.cum_hazard(np.maximum(np.nextafter(t[finite], -math.inf), 0.0))
            with np.errstate(over="ignore"):  # the double past the largest is inf
                high = model.cum_hazard(np.nextafter(t[finite], math.inf))
            hazard = model.hazard(t[finite])
        xf = x[finite]
        ulp = np.spacing(np.minimum(xf, np.nextafter(largest, 0.0)))  # finite at the top
        err = np.maximum(np.maximum(np.minimum(low, largest) - xf, xf - high), 0.0) / ulp
        budget = np.where(hazard < np.finfo(float).tiny, 1024.0, 4.0)
        assert np.all(err <= budget), (xf[err > budget], t[finite][err > budget])
        beyond = x[~finite]
        assert np.all((beyond > top) | (beyond >= model.cum_hazard_limit())), beyond

    def test_a_target_above_h_at_the_largest_double(self, demo):
        """No finite time reaches it: inf, without Newton's step overflowing."""
        mbt = demo["mbt"]
        top = mbt.cum_hazard(np.finfo(float).max)
        assert top == 1.7976931348623158e307
        assert mbt.invert_cum_hazard(1e308) == mbt.invert_cum_hazard(np.nextafter(top, 1e308))
        assert mbt.invert_cum_hazard(1e308) == math.inf
        assert mbt.invert_cum_hazard(top) == np.finfo(float).max
        edge = MixtureBathtub(0.5, 5e-324, draw_of([(0.27034639947035694, 1e300)]), 5e-324,
                              draw_of([]))
        assert edge.cum_hazard(np.finfo(float).max) == pytest.approx(math.log(2.0))
        assert edge.invert_cum_hazard(0.7) == math.inf
        np.testing.assert_array_equal(mbt.invert_cum_hazard([1e308, top, 1e307]),
                                      [math.inf, np.finfo(float).max, mbt.invert_cum_hazard(1e307)])

    @pytest.mark.parametrize("target, expected", [(1.0, None), (0.0, 0.0)])
    def test_scalar_target_gives_float(self, demo, target, expected):
        out = demo["mbt"].invert_cum_hazard(target)
        assert type(out) is float
        if expected is not None:
            assert out == expected

    def test_knot_value_gives_knot(self, demo):
        mbt = demo["mbt"]
        knots = np.unique(np.concatenate(([0.0], mbt.breakpoints())))
        assert np.array_equal(mbt.invert_cum_hazard(mbt.cum_hazard(knots)), knots)

    def test_small_targets_converge(self, demo):
        targets = np.logspace(-16, 0, 4000)
        t = np.asarray(demo["mbt"].invert_cum_hazard(targets))
        back = np.asarray(demo["mbt"].cum_hazard(t))
        assert np.max(np.abs(back - targets) / np.maximum(1.0, targets)) <= 1e-9

    def test_iteration_cap_raises(self, demo, monkeypatch):
        monkeypatch.setattr(models, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="converge"):
            demo["mbt"].invert_cum_hazard(np.array([0.5, 1.0]))


class TestDensityPastUnderflow:
    def test_lcv_density_is_zero_where_survival_is(self, demo):
        lcv = demo["lcv"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lcv.density(800.0) == 0.0
            dens = np.asarray(lcv.density(np.array([0.5, 5.0, 800.0, 1e4])))
        assert dens[0] > 0.0
        np.testing.assert_array_equal(dens[2:], [0.0, 0.0])

    def test_density_unchanged_where_survival_is_positive(self, demo):
        ts = np.linspace(0.0, 5.0, 2001)
        for model in demo.values():
            if isinstance(model, MixtureBathtub):
                continue  # the mixture weights its components' densities
            expected = np.asarray(model.hazard(ts)) * np.asarray(model.survival(ts))
            np.testing.assert_array_equal(model.density(ts), expected)


class _NormalStream:
    """Stream stub for the lcv prior: hands out fixed normal draws and records them."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def normal(self, mean, sd):
        self.calls += 1
        return self.values.pop(0)


class TestLcvPriorOverflow:
    def test_overflowing_lambda0_is_a_value_error(self):
        g = draw_of([(1.0, 2.0)])
        stream = _NormalStream([800.0, 0.5])
        with pytest.raises(ValueError, match=r"lambda0.*800\.0"):
            draw_model_params("lcv", [g], HyperParams(), stream)
        assert stream.calls == 1  # log(lambda0) is drawn first, as before

    def test_underflowing_lambda0_names_the_drawn_log(self):
        g = draw_of([(1.0, 2.0)])
        with pytest.raises(ValueError, match=r"drew log\(lambda0\) = -\d.*too small for a float"):
            draw_model_params("lcv", [g], HyperParams(nu=2e-3), RandomStream(5))
        stream = _NormalStream([-800.0, 0.5])
        with pytest.raises(ValueError, match=r"log\(lambda0\) = -800\.0, too small"):
            draw_model_params("lcv", [g], HyperParams(), stream)
        assert stream.calls == 1

    def test_prior_order_is_log_lambda0_then_w0(self):
        g = draw_of([(1.0, 2.0)])
        model = draw_model_params("lcv", [g], HyperParams(), _NormalStream([0.5, -0.25]))
        assert model.lambda0 == math.exp(0.5)
        assert model.w0 == -0.25

    def test_tiny_nu_raises_value_error_not_overflow(self):
        g = draw_of([(1.0, 2.0)])
        hyper = HyperParams(nu=1e-6)  # sd 2e6: about half of the draws overflow exp
        overflowed = 0
        for seed in range(20):
            try:
                draw_model_params("lcv", [g], hyper, RandomStream(seed))
            except ValueError as e:
                overflowed += "log(lambda0)" in str(e)
        assert overflowed > 0


def _reference_draw_model_params(variant, draws, hyper, stream, *, a=None, pi=None,
                                 draw_pi=False):
    """The prior draws as once written out per variant; the stream order to keep."""

    def mass(draw):
        return _check_range("the total mass of a draw", draw.gamma, "positive")

    def offset(draw):
        return stream.exponential(hyper.nu / mass(draw))

    if variant in ("ifr", "dfr"):
        scalars = {"lambda0": offset(draws[0])}
    elif variant == "lwb":
        if a is None:
            raise ValueError("lwb requires the symmetry point a (no prior is defined)")
        scalars = {"lambda0": offset(draws[0]), "a": a}
    elif variant == "sbt":
        scalars = {"lambda0": offset(draws[1])}
    elif variant == "mbt":
        scalars = {"lambda01": offset(draws[0]), "lambda02": offset(draws[1])}
        if pi is None:
            if not draw_pi:
                raise ValueError("mbt requires the mixture weight pi")
            pi = stream.uniform()
        scalars["pi"] = pi
    else:  # lcv
        scale = mass(draws[0]) / hyper.nu
        log_lambda0 = stream.normal(0.0, scale)
        try:
            lambda0 = math.exp(log_lambda0)
        except OverflowError:
            lambda0 = math.inf
        if lambda0 in (0.0, math.inf):
            side = "large" if lambda0 else "small"
            raise ValueError(
                f"lcv prior drew log(lambda0) = {log_lambda0!r}, too {side} for a float lambda0"
            )
        scalars = {"lambda0": lambda0, "w0": stream.normal(0.0, scale)}
    return models._build_model(models._model_class(variant), scalars, draws)


class TestPriorStream:
    """``draw_model_params`` against the per-variant reference, bit for bit."""

    VARIANTS = ("ifr", "dfr", "lwb", "sbt", "mbt", "lcv")
    GIVEN = [dict(a=a, pi=pi, draw_pi=d) for a in (None, 0.6) for pi in (None, 0.3)
             for d in (False, True)]

    @staticmethod
    def _outcome(fn, variant, draws, nu, stream, given):
        """The model document or the error, and the stream's next uniform."""
        try:
            out = json.dumps(model_to_dict(fn(variant, draws, HyperParams(nu=nu), stream, **given)))
        except ValueError as e:
            out = e
        return out, stream.uniform()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("nu", [1e-3, 1.0, 50.0])
    def test_same_models_and_stream_as_the_reference(self, variant, nu):
        late = gamma_process.NormalBase(2.0, 1.0)
        params = [gamma_process.GammaProcessParams(3.0, 1.0, 20),
                  gamma_process.GammaProcessParams(3.0, 1.0, 20, late)]
        n_draws = len(models._model_class(variant)._fields()[2])
        for seed in range(50):
            draws = [gamma_process.draw_gamma_process(p, RandomStream(seed).split(k))
                     for k, p in enumerate(params[:n_draws])]
            for given in self.GIVEN:
                expected, next_ref = self._outcome(_reference_draw_model_params, variant, draws,
                                                   nu, RandomStream(seed).split(9), given)
                got, next_new = self._outcome(draw_model_params, variant, draws, nu,
                                              RandomStream(seed).split(9), given)
                if isinstance(expected, ValueError) and "requires" in str(expected):
                    # a missing scalar without a prior: named, and raised before any draw
                    assert isinstance(got, ValueError)
                    name = "a" if given["a"] is None and variant == "lwb" else "pi"
                    assert f"requires {name}:" in str(got)
                    assert next_new == RandomStream(seed).split(9).uniform()
                    continue
                if isinstance(expected, ValueError):
                    assert isinstance(got, ValueError) and str(got) == str(expected)
                else:
                    assert got == expected
                assert next_new == next_ref

    @pytest.mark.parametrize("normals", [[0.5, -0.25], [800.0, 0.5], [-3.0, 1e-300]])
    def test_same_lcv_draws_from_a_normal_only_stream(self, normals):
        g = draw_of([(1.0, 2.0)])
        outcomes = []
        for fn in (_reference_draw_model_params, draw_model_params):
            stream = _NormalStream(normals)
            try:
                out = json.dumps(model_to_dict(fn("lcv", [g], HyperParams(), stream)))
            except ValueError as e:
                out = str(e)
            outcomes.append((out, stream.calls))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("variant, given, name", [
        ("lwb", {}, "a"), ("lwb", {"pi": 0.3, "draw_pi": True}, "a"),
        ("mbt", {}, "pi"), ("mbt", {"a": 0.6}, "pi"),
    ])
    def test_missing_scalar_raises_before_any_draw(self, variant, given, name):
        g = draw_of([(1.0, 2.0)])
        draws = [g] * len(models._model_class(variant)._fields()[2])
        stream = RandomStream(40)
        with pytest.raises(ValueError, match=f"requires {name}:"):
            draw_model_params(variant, draws, HyperParams(nu=1.0), stream, **given)
        assert stream.uniform() == RandomStream(40).uniform()


class TestLcvSkeletonOverflow:
    """Skeleton coefficients that overflow to inf, from a large lambda0 and w0."""

    def test_inf_not_nan_at_and_past_the_overflowed_knots(self):
        draw = GammaProcessDraw.from_atoms([0.5, 1.0, 2.0], [1.0, 2.0, 3.0])
        model = LogConvexHazard(1e200, 500.0, draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_knots = np.asarray(model.cum_hazard(np.array([1.0, 2.0])))
            past = np.asarray(model.cum_hazard(np.array([1.5, 3.0])))
            assert model.cum_hazard(0.0) == 0.0
        assert np.all(at_knots == np.inf) and np.all(past == np.inf)


class TestLcvIncrementOverflow:
    """An increment expm1(r dt) / r * c that is finite where c * expm1(r dt) is not."""

    def test_finite_cum_hazard_and_log_likelihood(self):
        model = LogConvexHazard(1e306, 1000.0, GammaProcessDraw.from_atoms([], []))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cum = model.cum_hazard(0.01)
            got = log_likelihood(model, Dataset([0.01], [True]))
        assert cum == pytest.approx(1e306 * (math.expm1(10.0) / 1000.0), rel=1e-15)
        assert math.isfinite(got)
        assert got == pytest.approx(math.log(1e306) + 10.0 - cum, rel=1e-15)

    @pytest.mark.parametrize("lambda0, w0, atoms, t, expected, rel", [
        # expm1(r dt) / r overflows where |r| < 1, though c expm1(r dt) / r does not
        (1e-20, 0.5, [], 1419.5, 3.4796737465283211e288, 1e-12),
        (1e-20, 1e-11, [], 7e13, 1.0142320547350045e295, 1e-12),
        # the coefficient past t = 1 underflows to 0, and 0 * expm1(999) is nan
        (1.0, -1000.0, [(1.0, 1001.0)], 1000.0,
         math.exp(-1.0) - math.exp(-1000.0) + -math.expm1(-1000.0) / 1000.0, 1e-15),
    ])
    def test_increment_in_log_space(self, lambda0, w0, atoms, t, expected, rel):
        model = LogConvexHazard(lambda0, w0, draw_of(atoms))
        cum = model.cum_hazard(t)
        assert cum == pytest.approx(expected, rel=rel)
        np.testing.assert_array_equal(model.cum_hazard(np.array([0.0, t])), [0.0, cum])
        got = log_likelihood(model, Dataset([t], [True]))
        assert got == pytest.approx(math.log(model.hazard(t)) - cum, rel=1e-15)


class TestOneFormulaPerSegment:
    """lcv values past the double range, and at rates near 0, from the skeleton's one formula.

    Each is checked against the 60-digit oracle with warnings as errors.  A
    value taken from the logs has an exponent near 700 here, rounded to about
    1e-13, so those bounds are relative, not in ulp.
    """

    def test_inverse_past_an_underflowed_coefficient(self):
        # past t = 1 the coefficient exp(-1000) underflows to 0, while its log does not
        model = LogConvexHazard(1.0, -1000.0, draw_of([(1.0, 1001.0)]))
        t = model.invert_cum_hazard(5.0)
        assert t == pytest.approx(1002.6092378924314, rel=1e-15)
        # the slope there is about 5, so one ulp of t moves H by 1.1e-13 of it
        assert float(_oracle.lcv_cum_hazard(model, t)) == pytest.approx(5.0, rel=1e-13)
        np.testing.assert_array_equal(model.invert_cum_hazard(np.array([0.0, 5.0])), [0.0, t])

    def test_cum_hazard_past_an_overflowed_coefficient(self):
        # the coefficient at t = 0.5 is 1e200 exp(250), past the double range; its log is not
        model = LogConvexHazard(1e200, 500.0, draw_of([(0.5, 1.0), (1.0, 2.0), (2.0, 3.0)]))
        exact = _oracle.lcv_cum_hazard(model, 0.50536149)
        assert float(exact) == 1.0974965481457372e307
        assert model.cum_hazard(0.50536149) == pytest.approx(float(exact), rel=1e-13)
        got = log_likelihood(model, Dataset([0.505], [True]))
        log_hazard = math.log(1e200) + float(_oracle.lcv_log_terms(model, [0.505])[0][0])
        expected = log_hazard - float(_oracle.lcv_cum_hazard(model, 0.505))
        assert math.isfinite(got) and got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("lambda0, w0, expected", [(1e-300, 142.0, 2.2339947661618e8),
                                                       (1e300, -160.0, 3.6678745841776e-48)])
    def test_hazard_whose_product_leaves_the_double_range(self, lambda0, w0, expected):
        # lambda0 exp(710) and lambda0 exp(-800): the exp alone over- or underflows at t = 5
        model = LogConvexHazard(lambda0, w0, GammaProcessDraw.from_atoms([], []))
        exact = float(_oracle.hazard(model, 5.0))
        assert exact == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert model.hazard(5.0) == pytest.approx(exact, rel=1e-13, abs=0.0)
        np.testing.assert_array_equal(model.hazard(np.array([[5.0]])), [[model.hazard(5.0)]])
        assert model._hazard_and_cum(np.array([5.0]))[0][0] == model.hazard(5.0)

    def test_masks_only_where_an_underflowed_coefficient_moves_the_cumulative_hazard(self):
        # past t = 1 the coefficient exp(-1000) underflows to 0; at a rate of -800 the whole
        # tail adds exp(-1000) / 800, which underflows too, so no time takes the logs there
        flat = LogConvexHazard(1.0, -1000.0, draw_of([(1.0, 200.0)]))
        assert flat._skeleton._outside is None
        assert flat.cum_hazard(5.0) == flat.cum_hazard(1.0) == flat.cum_hazard_limit()
        # at a rate of 1 the same coefficient reaches 1 near t = 1001
        steep = LogConvexHazard(1.0, -1000.0, draw_of([(1.0, 1001.0)]))
        np.testing.assert_array_equal(steep._skeleton._outside, [False, True])

    @pytest.mark.parametrize("w0", [1e-13, -1e-13])
    def test_a_rate_near_zero_takes_the_exponential_formula(self, w0):
        # r t = +-1e-7 at t = 1e6, where c dt is off by 5e-8 of the increment
        model = LogConvexHazard(1.0, w0, GammaProcessDraw.from_atoms([], []))
        cum = model.cum_hazard(1e6)
        assert cum == pytest.approx(float(_oracle.lcv_cum_hazard(model, 1e6)), rel=1e-15)
        assert abs(cum - 1e6) > 0.04
        t = model.invert_cum_hazard(1e6)
        assert float(_oracle.lcv_cum_hazard(model, t)) == pytest.approx(1e6, rel=1e-15)
        assert abs(t - 1e6) > 0.04
        # a decaying tail adds 1 / -w0; at t = 1e17 the oracle is within exp(-1e4) of it
        expected = math.inf if w0 > 0.0 else float(_oracle.lcv_cum_hazard(model, 1e17))
        assert model.cum_hazard_limit() == pytest.approx(expected, rel=1e-15)


class TestNegLog:
    """The long-double ``_neg_log`` against ``math.log`` element by element."""

    @staticmethod
    def _reference(u):
        return -np.array([math.log(x) for x in u.tolist()])

    def test_a_million_uniforms(self):
        u = RandomStream(11).uniforms(10**6)
        np.testing.assert_array_equal(models._neg_log(u), self._reference(u))

    def test_inputs_next_to_rounding_midpoints(self):
        rng = np.random.default_rng(5)
        # uniforms of every magnitude, kept where the long-double log lies
        # within 0.02 ulp of a midpoint between two doubles
        u = rng.random(2 * 10**6) * 10.0 ** -rng.integers(0, 300, 2 * 10**6)
        u = u[u > 0.0]
        wide = np.log(u.astype(np.longdouble))
        gap = np.abs((wide - wide.astype(float)).astype(float)) / np.abs(np.spacing(wide.astype(float)))
        near = u[gap > 0.48]
        # logs next to powers of two, where the spacing halves
        powers = np.exp(-(2.0 ** np.arange(-30, 10)))
        steps = np.arange(-64, 65)
        around = (powers[:, None] * (1.0 + steps * np.finfo(float).eps)).ravel()
        u = np.concatenate((near, around[(around > 0.0) & (around < 1.0)]))
        assert near.size > 10**4
        np.testing.assert_array_equal(models._neg_log(u), self._reference(u))

    def test_math_log_everywhere_without_a_wide_long_double(self, monkeypatch):
        monkeypatch.setattr(models, "_WIDE_LOG", False)
        u = RandomStream(12).uniforms(1000)
        np.testing.assert_array_equal(models._neg_log(u), self._reference(u))


class TestLcvInverseOverflow:
    def test_vanishing_coefficient_gives_inf_without_a_warning(self):
        model = LogConvexHazard(1e-300, 0.0, GammaProcessDraw.from_atoms([], []))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.invert_cum_hazard(1e10) == math.inf
            np.testing.assert_array_equal(
                model.invert_cum_hazard(np.array([0.0, 1e-290, 1e10])), [0.0, 1e10, math.inf]
            )


class TestNonFiniteHorizon:
    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_defective_model_rejects_tau(self, demo, tau):
        dfr0 = DecreasingFailureRate(0.0, demo["ifr"].draw)
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            simulate_dataset(dfr0, 10, tau, RandomStream(26))


class TestSkeletonMatchesDrawIntegrals:
    """The step models' skeletons against the draws' closed-form double integrals."""

    @settings(max_examples=200, deadline=None)
    @given(dec=draws, inc=draws, lambda0=levels, probes=times((), min_size=0))
    @example(dec=draw_of([]), inc=draw_of([]), lambda0=0.0, probes=[1.0])
    @example(dec=draw_of([(1.0, 2.0)]), inc=draw_of([(0.5, 1.0)]), lambda0=0.0, probes=[0.5, 3.0])
    @example(dec=draw_of([(1.0, 2.0), (1.0, 0.0), (1.0, 3.0)]), inc=draw_of([(2.0, 0.0)]),
             lambda0=0.25, probes=[1.0, 2.0])
    # subnormal results, where the reference's own rounding is the larger error
    @example(dec=draw_of([(1.0, 5e-324)]), inc=draw_of([(0.5, 0.0)]), lambda0=0.0, probes=[])
    @example(dec=draw_of([]), inc=draw_of([(0.5, 0.0)]), lambda0=5e-324, probes=[])
    @example(dec=draw_of([]), inc=draw_of([(0.5, 5e-324)]), lambda0=0.0, probes=[])
    def test_cum_hazard_is_lambda0_t_plus_the_integrals(self, dec, inc, lambda0, probes):
        t = np.concatenate((time_grid(np.concatenate((dec.thetas, inc.thetas))), probes, [25.0]))
        # 1e-12 relative to the mass times max(t, 25), plus one smallest subnormal per rounded
        # term (the knots of both draws, lambda0*t and the sum), which a relative bound cannot
        # cover; at t = inf a finite value is a sum over atoms below 10, so its scale is 25
        scale = np.where(t < math.inf, np.maximum(t, 25.0), 25.0)
        floor = (1e-12 * (lambda0 + dec.gamma + inc.gamma) * scale
                 + np.finfo(float).smallest_subnormal * (dec.n_atoms + inc.n_atoms + 2))
        # inf past the double range; a zero lambda0 adds 0 at t = inf
        with np.errstate(over="ignore", invalid="ignore"):
            lead = np.where(lambda0 > 0.0, lambda0 * t, 0.0)
            cases = [
                (IncreasingFailureRate(lambda0, inc), lead + inc.double_integral_below(t)),
                (DecreasingFailureRate(lambda0, dec), lead + dec.double_integral_above(t)),
                (SuperpositionBathtub(lambda0, dec, inc),
                 lead + dec.double_integral_above(t) + inc.double_integral_below(t)),
            ]
        for model, expected in cases:
            got = model.cum_hazard(t)
            big = expected == math.inf
            np.testing.assert_array_equal(got[big], expected[big])
            g, e = got[~big], expected[~big]
            assert np.all(np.abs(g - e) <= 1e-12 * np.abs(e) + floor[~big]), model
            assert model.cum_hazard(float(t[-1])) == got[-1]


@pytest.mark.parametrize("t", [1e308, math.inf])
def test_closed_form_integrals_on_the_whole_axis(t):
    """Past the double range mass * t is inf with no warning, and a zero mass adds 0 at inf."""
    draw, empty = draw_of([(1.0, 2.0), (2.0, 3.0)]), draw_of([])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (draw.double_integral_below(t), draw.double_integral_above(t)) == (math.inf, 8.0)
        assert (empty.double_integral_below(t), empty.double_integral_above(t)) == (0.0, 0.0)


def _assert_given_segments_equal_the_lookup(model, t):
    """The lookup at each knot gives its value bit for bit, and so does each segment's increment
    to its end plus its knot's value; the kernel at ``t`` is ``hazard`` and ``cum_hazard``."""
    skeleton = model._skeleton
    knots, values = skeleton.knots, skeleton.values
    np.testing.assert_array_equal(_bits(skeleton._locate(knots)[1]), _bits(values))
    widths = knots[1:] - knots[:-1]
    ends = skeleton._increment(itemgetter(np.arange(knots.size - 1)), knots[1:], widths)
    np.testing.assert_array_equal(_bits(ends + values[:-1]), _bits(values[1:]))
    for got, want in zip(model._hazard_and_cum(t), (model.hazard(t), model.cum_hazard(t))):
        np.testing.assert_array_equal(_bits(got), _bits(want))


class TestSkeletonBranches:
    """Flat segments and decaying tails of the shared skeleton, for scalar and array input."""

    BRANCHES = {
        "flat-first-segment": IncreasingFailureRate(0.0, draw_of([(1.0, 2.0), (3.0, 1.0)])),
        "zero-slope-tail": DecreasingFailureRate(0.0, draw_of([(1.0, 2.0), (3.0, 1.0)])),
        "negative-rate-lcv-tail": LogConvexHazard(1.0, -2.0, draw_of([(1.0, 0.5)])),
    }

    @pytest.mark.parametrize("name", list(BRANCHES))
    def test_given_segments_equal_the_lookup(self, name):
        t = np.array([0.0, 0.5, 1.0, 1.0 + 1e-15, 2.0, 3.0, 10.0, 1e6])
        _assert_given_segments_equal_the_lookup(self.BRANCHES[name], t)

    def test_flat_first_segment(self):
        # hazard 0 on [0, 1), 2 on [1, 3), 3 after
        model = IncreasingFailureRate(0.0, draw_of([(1.0, 2.0), (3.0, 1.0)]))
        assert model.cum_hazard(0.5) == 0.0
        assert isinstance(model.cum_hazard(0.5), float)
        np.testing.assert_array_equal(
            model.cum_hazard(np.array([[0.0, 0.5], [1.0, 2.0]])), [[0.0, 0.0], [0.0, 2.0]]
        )
        assert model.invert_cum_hazard(0.0) == 0.0
        assert model.invert_cum_hazard(1e-300) == 1.0  # the first time past the flat stretch
        assert isinstance(model.invert_cum_hazard(2.0), float)
        np.testing.assert_array_equal(
            model.invert_cum_hazard(np.array([0.0, 1e-300, 2.0, 4.0, 7.0])), [0.0, 1.0, 2.0, 3.0, 4.0]
        )
        assert model.cum_hazard_limit() == math.inf

    def test_zero_slope_tail(self):
        # hazard 3 on [0, 1), 1 on [1, 3), 0 after: the limit is 5, reached at t = 3
        model = DecreasingFailureRate(0.0, draw_of([(1.0, 2.0), (3.0, 1.0)]))
        assert model.cum_hazard_limit() == 5.0
        assert model.cum_hazard(10.0) == 5.0
        assert model.invert_cum_hazard(5.0) == 3.0
        assert model.invert_cum_hazard(5.5) == math.inf
        assert isinstance(model.invert_cum_hazard(5.5), float)
        np.testing.assert_array_equal(
            model.invert_cum_hazard(np.array([0.0, 4.0, 5.0, 5.5])), [0.0, 2.0, 3.0, math.inf]
        )
        np.testing.assert_array_equal(model.cum_hazard(np.array([3.0, 10.0])), [5.0, 5.0])

    def test_negative_rate_lcv_tail(self):
        # log-slopes -2 on [0, 1) and -1.5 after: the hazard decays, so the limit is finite
        model = LogConvexHazard(1.0, -2.0, draw_of([(1.0, 0.5)]))
        knot_value = -math.expm1(-2.0) / 2.0
        limit = knot_value + math.exp(-2.0) / 1.5
        assert model.cum_hazard_limit() == pytest.approx(limit, rel=1e-15)
        assert model.cum_hazard(1.0) == pytest.approx(knot_value, rel=1e-15)
        assert model.cum_hazard(1e6) == pytest.approx(limit, rel=1e-15)
        targets = np.array([0.1, knot_value, 0.5, limit * (1.0 - 1e-9)])
        times = model.invert_cum_hazard(targets)
        assert np.all(np.isfinite(times)) and np.all(np.diff(times) > 0.0)
        np.testing.assert_allclose(model.cum_hazard(times), targets, rtol=1e-12)
        assert model.invert_cum_hazard(0.1) == times[0]
        assert isinstance(model.invert_cum_hazard(0.1), float)
        assert model.invert_cum_hazard(knot_value) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_array_equal(
            model.invert_cum_hazard(np.array([limit, 2.0 * limit])), [math.inf, math.inf]
        )
        assert model.invert_cum_hazard(2.0 * limit) == math.inf


class TestLcvGrowingInverseOverflow:
    """rate * excess / coeff overflows on a growing segment; the inverse is taken in log space."""

    def test_tiny_coefficient(self):
        model = LogConvexHazard(1e-300, 1.0, GammaProcessDraw.from_atoms([], []))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = model.invert_cum_hazard(1e10)
            array = model.invert_cum_hazard(np.array([0.0, 1.0, 1e10]))
        assert scalar == pytest.approx(math.log(1e10) - math.log(1e-300), rel=1e-15)
        assert array[2] == scalar
        assert array[0] == 0.0
        assert array[1] == np.log1p(1.0 / 1e-300)  # finite results keep the direct form

    def test_overflowing_product(self):
        # rate * excess overflows before the division by the coefficient
        model = LogConvexHazard(1e-100, 1e200, GammaProcessDraw.from_atoms([], []))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = model.invert_cum_hazard(1e200)
        assert t == pytest.approx(500.0 * math.log(10.0) / 1e200, rel=1e-14)


class TestFusedHazardAndCumHazard:
    """``_hazard_and_cum(t)`` is ``(hazard(t), cum_hazard(t))`` bit for bit, from one lookup."""

    @pytest.fixture(scope="class")
    def models(self, demo):
        empty = GammaProcessDraw.from_atoms([], [])
        return {**demo, "dfr-defective": DecreasingFailureRate(0.0, demo["dfr"].draw),
                "lcv-no-atoms": LogConvexHazard(0.7, -0.3, empty)}

    @staticmethod
    def _probes(model) -> np.ndarray:
        """0, every atom and knot, points past the last knot, and 2,048 random points."""
        draws = [getattr(model, f.name) for f in fields(model) if model._is_draw(f)]
        atoms = np.concatenate([d.thetas for d in draws])
        knots = np.unique(np.concatenate(([0.0], model.breakpoints())))
        last = float(knots[-1])
        grid = RandomStream(3).uniforms(2 * 1024) * 1.2 * (last + 1.0)
        return np.concatenate(([0.0, last + 1.0, 2.0 * last + 10.0], atoms, knots, grid))

    @pytest.mark.parametrize("name", ["ifr", "dfr", "lwb", "sbt", "mbt", "lcv",
                                      "dfr-defective", "lcv-no-atoms"])
    @pytest.mark.parametrize("order", ["unsorted", "ascending", "descending"])
    def test_bits_equal_the_two_calls(self, models, name, order):
        model = models[name]
        t = self._probes(model)
        if order != "unsorted":
            t = np.sort(t) if order == "ascending" else np.sort(t)[::-1]
        lam, cum = model._hazard_and_cum(t)
        np.testing.assert_array_equal(_bits(lam), _bits(model.hazard(t)))
        np.testing.assert_array_equal(_bits(cum), _bits(model.cum_hazard(t)))

    @pytest.mark.parametrize("name", ["ifr", "dfr", "lwb", "sbt", "mbt", "lcv",
                                      "dfr-defective", "lcv-no-atoms"])
    def test_callers_keep_scalars_and_shapes(self, models, name):
        model = models[name]
        grid = np.linspace(0.0, 4.0, 12)
        for method in (model.hazard, model.cum_hazard, model.survival, model.density,
                       model.invert_cum_hazard):
            flat = np.asarray(method(grid))
            assert isinstance(method(0.75), float) and method(grid[5]) == flat[5]
            np.testing.assert_array_equal(method(grid.reshape(3, 4)), flat.reshape(3, 4))
            for shape in ((0,), (2, 0)):
                empty = method(np.empty(shape))
                assert isinstance(empty, np.ndarray) and empty.shape == shape

    def test_step_levels_past_a_knot_one_ulp_wide(self):
        # the midpoint of two adjacent doubles rounds (to even) onto the upper one
        lo = np.nextafter(1.0, 2.0)
        draw = GammaProcessDraw.from_atoms([lo, np.nextafter(lo, 2.0)], [0.25, 0.5])
        for model in (IncreasingFailureRate(0.1, draw), DecreasingFailureRate(0.1, draw)):
            t = np.array([lo, np.nextafter(lo, 2.0), 1.5])
            lam, cum = model._hazard_and_cum(t)
            np.testing.assert_array_equal(_bits(lam), _bits(model.hazard(t)))
            np.testing.assert_array_equal(_bits(cum), _bits(model.cum_hazard(t)))

    def test_lwb_hazard_on_each_side_matches_both_lookups(self, models):
        # off the knots; at a knot the hazard is its segment's level (TestStepLevels)
        lwb = models["lwb"]
        d, mass = lwb.draw, lwb.draw._mass0
        t = self._probes(lwb)
        t = t[~np.isin(t, lwb.breakpoints())]
        early = mass[d._count_below(lwb.a - t, strict=True)]
        late = mass[d._count_below(t - lwb.a)]
        expected = lwb.lambda0 + np.where(t < lwb.a, early, late)
        np.testing.assert_array_equal(_bits(lwb.hazard(t)), _bits(expected))
        order = np.argsort(t, kind="stable")
        np.testing.assert_array_equal(_bits(lwb.hazard(t[order])), _bits(expected[order]))

    @pytest.mark.parametrize("name", ["ifr", "lwb", "sbt", "mbt"])
    def test_breakpoints_with_tied_atoms_equal_np_unique(self, models, name):
        th = np.array([0.0, 1.0, 1.0, 0.25, 2.0, 0.25, 0.6])
        doc = model_to_dict(models[name])
        for key in ("draw", "draw1", "draw2"):
            if key in doc:
                doc[key] = GammaProcessDraw.from_atoms(th, [0.1] * th.size).to_dict()
        model = model_from_dict(doc)
        if name == "lwb":
            a = model.a
            expected = np.unique(np.concatenate((a - th[th < a], [a], a + th)))
        else:
            expected = np.unique(th)
        np.testing.assert_array_equal(model.breakpoints(), expected)


def _step_models() -> dict:
    """ifr, dfr, lwb and sbt at 3 demo seeds, on tied atoms and with an atom at 0; lwb at a = 0."""
    out = {}
    for seed in (DEMO_SEED, 7, 1):
        demo = demo_models(seed)
        out.update({f"{name}-{seed}": demo[name] for name in ("ifr", "dfr", "lwb", "sbt")})
    for label, draw in (("tied", draw_of([(0.3, 0.5), (1.0, 0.125), (0.3, 0.25), (2.5, 1.0)])),
                        ("atom-at-0", draw_of([(0.7, 0.25), (0.0, 0.5), (1.2, 1.0)]))):
        out.update({f"ifr-{label}": IncreasingFailureRate(0.1, draw),
                    f"dfr-{label}": DecreasingFailureRate(0.1, draw),
                    f"lwb-{label}": LoWengBathtub(0.1, 0.6, draw),
                    f"sbt-{label}": SuperpositionBathtub(0.1, draw, draw)})
    out["lwb-a-0"] = LoWengBathtub(0.1, 0.0, demo_models(DEMO_SEED)["lwb"].draw)
    return out


STEP_MODELS = _step_models()


class TestStepLevels:
    """A step model's hazard takes each segment's level from the segment's left knot on."""

    @staticmethod
    def _segments(model):
        """The knots, and a point inside the segment each starts (the knot, if one ulp wide)."""
        knots = np.unique(np.concatenate(([0.0], model.breakpoints())))
        ends = np.append(knots[1:], knots[-1] + 1.0)
        inside = knots + 0.5 * (ends - knots)
        return knots, ends, np.where(inside < ends, inside, knots)

    @pytest.mark.parametrize("name", list(STEP_MODELS))
    def test_hazard_steps_at_every_knot(self, name):
        model = STEP_MODELS[name]
        knots, _, inside = self._segments(model)
        level = model.hazard(inside)
        np.testing.assert_array_equal(_bits(model.hazard(knots)), _bits(level))
        # just before a knot, the previous segment's level still holds
        before = np.nextafter(knots[1:], -np.inf)
        np.testing.assert_array_equal(_bits(model.hazard(before)), _bits(level[:-1]))
        np.testing.assert_array_equal(_bits(model._hazard_and_cum(knots)[0]), _bits(level))

    @pytest.mark.parametrize("name", list(STEP_MODELS))
    def test_level_is_the_cum_hazard_slope(self, name):
        model = STEP_MODELS[name]
        knots, ends, inside = self._segments(model)
        wide = ends - knots > 1e-3
        slope = (model.cum_hazard(ends) - model.cum_hazard(knots)) / (ends - knots)
        np.testing.assert_allclose(slope[wide], model.hazard(knots)[wide], rtol=1e-9)

    def test_atoms_near_the_top_of_the_double_range(self):
        # the midpoint of these two knots overflows; the levels are read at the knots
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = IncreasingFailureRate(0.0, GammaProcessDraw.from_atoms([1e308, 1.6e308],
                                                                           [1.0, 1.0]))
            assert model.cum_hazard(1.5e308) == 5e307
            assert model.invert_cum_hazard(5e307) == 1.5e308


class TestInfiniteTarget:
    """``invert_cum_hazard(inf)`` is inf, also where the skeleton's knot values overflowed."""

    @pytest.mark.parametrize("name", ["ifr", "dfr", "lwb", "sbt", "mbt", "lcv", "dfr-defective",
                                      "lcv-overflow"])
    def test_inverts_to_inf(self, demo, name):
        if name == "dfr-defective":
            model = DecreasingFailureRate(0.0, demo["dfr"].draw)
        elif name == "lcv-overflow":
            model = LogConvexHazard(1e200, 500.0, draw_of([(0.5, 1.0), (1.0, 2.0), (2.0, 3.0)]))
        else:
            model = demo[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.invert_cum_hazard(math.inf) == math.inf
            np.testing.assert_array_equal(model.invert_cum_hazard(np.full(3, math.inf)),
                                          np.full(3, math.inf))


_PLATEAUS = [  # (model, a value it keeps over several knots or from its last knot on, that knot)
    (SuperpositionBathtub(0.0, draw_of([(1.0, 1.0)]), draw_of([(3.0, 1.0)])), 1.0, 1.0),
    (LoWengBathtub(0.0, 2.0, draw_of([(0.5, 1.0)])), 1.5, 1.5),
    (MixtureBathtub(0.5, 0.0, draw_of([(1.0, 1.0), (2.0, 0.5)]), 0.0, draw_of([])),
     0.5662191695169728, 2.0),
    (MixtureBathtub(1.0, 0.0, draw_of([]), 0.0, draw_of([])), 0.0, 0.0),
]


class TestInverseOnPlateaus:
    """The inverse is the left-continuous generalised inverse inf{t : H(t) >= x}: at a value
    that H keeps over several knots, or from its last knot on, it is the first of those knots."""

    @pytest.mark.parametrize("model, target, expected", _PLATEAUS,
                             ids=["sbt", "lwb", "mbt-at-its-limit", "mbt-of-zero"])
    def test_first_knot_of_a_plateau(self, model, target, expected):
        assert model.cum_hazard(expected) == target
        assert model.invert_cum_hazard(target) == expected
        np.testing.assert_array_equal(model.invert_cum_hazard(np.full(2, target)),
                                      np.full(2, expected))

    @settings(max_examples=300, deadline=None)
    @given(hazard_models())
    # at pi = 1 the second draw's atoms are not knots, where H = 5e-324 t rounds to 1e-323 twice
    @example(MixtureBathtub(1.0, 5e-324, draw_of([]), 0.0, draw_of([(1.5, 0.0), (2.0, 0.0)])))
    def test_repeated_knot_value_gives_its_first_knot(self, model):
        t = np.append(model._knots, math.inf)  # the value at inf is the limit
        values = np.asarray(model.cum_hazard(t))
        first = np.searchsorted(values, values, "left")
        repeated = (np.bincount(first, minlength=t.size)[first] > 1) & (values < math.inf)
        np.testing.assert_array_equal(model.invert_cum_hazard(values[repeated]),
                                      t[first[repeated]])


# prior draws with exponential and normal bases: lambda0 = 0 on the first makes a defective
# dfr, and with the second a defective mbt
_D1 = draw_gamma_process(GammaProcessParams(3.0, 1.0, 50, ExponentialBase(1.0)), RandomStream(2))
_D2 = draw_gamma_process(GammaProcessParams(3.0, 1.0, 50, NormalBase(2.0, 1.0)), RandomStream(3))


class TestWholeTimeAxis:
    """Every curve is defined, with no warning, at every t >= 0, and at inf takes its limit."""

    @settings(max_examples=200, deadline=None)
    @given(hazard_models())
    @example(DecreasingFailureRate(0.0, _D1))
    @example(MixtureBathtub(0.5, 0.0, _D1, 0.0, _D2))
    @example(MixtureBathtub(1.0, 0.1, _D1, 0.1, _D2))
    @example(LogConvexHazard(2.0, -1.0, draw_of([])))
    def test_curves_on_the_time_grid(self, model):
        t = np.sort(time_grid(model.breakpoints()))  # inf last
        h, cum, surv, dens = (np.asarray(getattr(model, name)(t))
                              for name in ("hazard", "cum_hazard", "survival", "density"))
        for name, values in zip(("hazard", "cum_hazard", "survival", "density"),
                                (h, cum, surv, dens)):
            assert not np.isnan(values).any(), (name, t[np.isnan(values)])
        assert np.all(cum[1:] >= cum[:-1])
        if isinstance(model, MixtureBathtub):
            s1, s2 = (np.asarray(c.survival(t)) for c in model.components)
            expected = model.pi * s1 + (1.0 - model.pi) * s2
        else:
            expected = np.exp(-cum)
        np.testing.assert_array_equal(_bits(surv), _bits(expected))
        limit = model.cum_hazard_limit()
        assert cum[-1] == model.cum_hazard(math.inf) == limit
        assert dens[-1] == model.density(math.inf) == 0.0

    def test_defective_values_at_inf(self):
        dfr, mbt = DecreasingFailureRate(0.0, _D1), MixtureBathtub(0.5, 0.0, _D1, 0.0, _D2)
        assert dfr.cum_hazard(math.inf) == pytest.approx(0.66676, abs=5e-6)
        assert dfr.survival(math.inf) == pytest.approx(0.51337, abs=5e-6)
        assert dfr.density(math.inf) == 0.0
        assert mbt.cum_hazard(math.inf) == pytest.approx(1.35991, abs=5e-6)
        assert mbt.hazard(math.inf) == mbt.density(math.inf) == 0.0
        # the atom at infinity of the KS distance: 1 - exp(-0.66676)
        d = ks_distance(np.full(100, np.inf), lambda x: 1.0 - np.asarray(dfr.survival(x)))
        assert d == pytest.approx(0.48663, abs=5e-6)

    @pytest.mark.parametrize("variant", ["ifr", "dfr", "lwb", "sbt", "mbt"])
    def test_step_levels_past_the_double_range(self, variant):
        """lambda0 = 1e308 and a 1e308 atom: a level past the double range is inf, quietly."""
        huge = draw_of([(1.0, 1e308)])
        model = model_of(variant, huge, huge, 1e308, a=0.5)
        t = np.array([0.5, 2.0, math.inf])
        np.testing.assert_array_equal(model.cum_hazard(t)[1:], [math.inf, math.inf])
        np.testing.assert_array_equal(model.survival(t)[1:], [0.0, 0.0])
        np.testing.assert_array_equal(model.density(t)[1:], [0.0, 0.0])
        assert model.cum_hazard_limit() == model.invert_cum_hazard(math.inf) == math.inf
        event = Dataset(times=np.array([2.0]), observed=np.array([True]), tau=None)
        assert log_likelihood(model, event) == -math.inf
        assert not np.isnan(model.hazard(t)).any()
        if variant == "ifr":
            assert (model.cum_hazard(0.5), model.invert_cum_hazard(5e307)) == (5e307, 0.5)

    @pytest.mark.parametrize("variant", ["ifr", "lcv"])
    def test_knot_values_past_the_double_range(self, variant):
        """Levels of 1e308 over two unit segments: the second knot's value is inf, quietly."""
        model = model_of(variant, draw_of([(1.0, 0.0), (2.0, 0.0)]), None, 1e308, w0=0.0)
        np.testing.assert_array_equal(model.cum_hazard([1.5, 2.0]), [1.5e308, math.inf])
        np.testing.assert_array_equal(model.invert_cum_hazard([1.5e308, math.inf]),
                                      [1.5, math.inf])

    def test_mixture_hazard_beside_an_infinite_level(self):
        huge = draw_of([(1.0, 1e308)])
        model = MixtureBathtub(0.5, 1e308, huge, 1e308, huge)
        # below 1 the decreasing component's level is inf and its weight 0: the hazard is 1e308
        assert model.hazard(0.5) == 1e308
        np.testing.assert_array_equal(model.hazard([0.25, 0.5, 0.999]), [1e308] * 3)

    @pytest.mark.parametrize("pi", [0.5, 1.0])
    def test_mixture_hazard_at_inf_is_its_limit(self, demo, pi):
        mbt = demo["mbt"]
        model = MixtureBathtub(pi, mbt.lambda01, mbt.draw1, mbt.lambda02, mbt.draw2)
        # the decreasing component's hazard past its atoms, lambda01 = 0.1, is the lower
        assert model.hazard(math.inf) == model.hazard(1e308) == 0.1


def _masked_cum_hazard(skeleton, t) -> np.ndarray:
    """The skeleton's cumulative hazard element by element, from the masked formula.

    An increment is 0 where dt = 0, c*dt where |r| < 1e-12 and expm1(r*dt)/r*c
    otherwise, taken from the log level where that is inf while the log is
    finite; the knot values accumulate the increments over whole segments.
    """
    knots, rates, coeffs = skeleton.knots, skeleton.rates, skeleton.coeffs

    def increment(seg, dt):
        c, r = coeffs[seg], rates[seg]
        if dt == 0.0:
            return 0.0
        if abs(r) < 1e-12:
            return c * dt
        with np.errstate(over="ignore"):
            out = np.expm1(r * dt) / r * c
            log_c, x = skeleton.log_coeffs[seg], r * dt
            if out == np.inf and np.isfinite(log_c):  # log|expm1(x)| = max(x, 0) + log(1 - e^-|x|)
                out = np.exp(log_c + max(x, 0.0) + np.log(-np.expm1(-abs(x))) - np.log(abs(r)))
            return out

    widths = np.diff(knots)
    values = np.concatenate(([0.0], np.cumsum([increment(s, w) for s, w in enumerate(widths)])))
    out = []
    for x in t:
        seg = int(np.searchsorted(knots, x, side="right")) - 1
        out.append(values[seg] + increment(seg, x - knots[seg]))
    return np.array(out)


class TestExponentialSkeletonFixUp:
    """lcv skeletons with a zero-rate segment or an overflowed coefficient, which take the
    fix-up after the exponential formula, against the masked formula bit for bit; and tied
    atoms, which give one knot."""

    CASES = {
        # w0 = 0 makes the first segment linear
        "w0-zero": LogConvexHazard(1.0, 0.0, draw_of([(0.5, 0.3), (1.5, 0.7)])),
        # tied atoms, then a zero-rate segment of positive width
        "tied-zero-rate": LogConvexHazard(0.8, -0.75, draw_of([(1.0, 0.25), (1.0, 0.5),
                                                              (2.0, 0.75)])),
        # tied atoms with a zero rate between them: one knot, so no zero-width segment
        "tied-zero-width": LogConvexHazard(0.8, -0.25, draw_of([(1.0, 0.25), (1.0, 0.5),
                                                               (2.0, 0.75)])),
        # the coefficients overflow to inf past the first knot
        "overflow": LogConvexHazard(1e200, 500.0, draw_of([(0.5, 1.0), (1.0, 2.0), (2.0, 3.0)])),
    }

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("order", ["unsorted", "ascending"])
    def test_cum_hazard_bits(self, name, order):
        model = self.CASES[name]
        skeleton = model._skeleton
        if name == "tied-zero-width":
            np.testing.assert_array_equal(skeleton.knots, [0.0, 1.0, 2.0])
        elif name == "overflow":  # a coefficient that overflowed to inf while its log is finite
            assert np.any((skeleton.coeffs == np.inf) & np.isfinite(skeleton.log_coeffs))
        else:  # an exact zero rate
            assert np.any(skeleton.rates == 0.0)
        knots = skeleton.knots
        grid = RandomStream(8).uniforms(1024 + 10) * (knots[-1] + 2.0)
        t = np.concatenate(([0.0], knots, 0.5 * (knots[:-1] + knots[1:]), knots + 0.25, grid))
        if order == "ascending":
            t = np.sort(t)
        expected = _masked_cum_hazard(skeleton, t)
        np.testing.assert_array_equal(_bits(model.cum_hazard(t)), _bits(expected))
        np.testing.assert_array_equal(_bits([model.cum_hazard(float(x)) for x in t[:40]]),
                                      _bits(expected[:40]))
        np.testing.assert_array_equal(_bits(model._hazard_and_cum(t)[1]), _bits(expected))

    @pytest.mark.parametrize("name", ["linear", "exponential", "log-space", *CASES])
    def test_given_segments_equal_the_lookup(self, name):
        model = {
            "linear": IncreasingFailureRate(0.1, draw_of([(0.5, 0.3), (1.5, 0.7)])),
            "exponential": LogConvexHazard(1.0, 0.5, draw_of([(1.0, 0.5), (2.0, 1.0)])),
            # the coefficient past t = 1 underflows to 0: its increments are taken in log space
            "log-space": LogConvexHazard(1.0, -1000.0, draw_of([(1.0, 1001.0)])),
        }.get(name) or self.CASES[name]
        knots = model._skeleton.knots
        grid = RandomStream(8).uniforms(1024 + 10) * (knots[-1] + 2.0)
        t = np.concatenate(([0.0], knots, np.nextafter(knots, np.inf), knots + 0.25, grid))
        _assert_given_segments_equal_the_lookup(model, t)

    def test_exact_knots_of_the_overflowed_model(self):
        model = self.CASES["overflow"]
        knots = model._skeleton.knots
        expected = _masked_cum_hazard(model._skeleton, knots)
        # 1e200 * expm1(250) / 500 at the first knot past 0, finite though 1e200 * expm1(250)
        # is not; the coefficients are inf from that knot on
        assert expected[0] == 0.0 and np.all(expected[2:] == np.inf)
        assert expected[1] == pytest.approx(1e200 / 500.0 * math.exp(250.0), rel=1e-14)
        assert expected[1] == pytest.approx(7.493e305, rel=1e-4)
        np.testing.assert_array_equal(_bits(model.cum_hazard(knots)), _bits(expected))


class TestMixtureCumHazardOracle:
    """The mixture's cumulative hazard within its budget of the oracle built from the atoms,
    its table's knot values bit for bit, and a scalar time the same as in an array."""

    @pytest.mark.parametrize("variant", ["demo", "defective-dfr", "pi-one"])
    @pytest.mark.parametrize("order", ["unsorted", "ascending", "descending"])
    def test_bits(self, demo, variant, order):
        mbt = demo["mbt"]
        model = {
            "demo": mbt,
            "defective-dfr": MixtureBathtub(0.3, 0.0, mbt.draw1, 0.1, mbt.draw2),
            "pi-one": MixtureBathtub(1.0, 0.1, mbt.draw1, 0.1, mbt.draw2),
        }[variant]
        knots = np.unique(np.concatenate(([0.0], model.breakpoints())))
        grid = RandomStream(9).uniforms(1024 + 10) * (knots[-1] + 2.0)
        t = np.concatenate(([0.0, 1e3], knots, grid))
        if order != "unsorted":
            t = np.sort(t) if order == "ascending" else np.sort(t)[::-1]
        got = model.cum_hazard(t)
        errors = [_oracle.error_ulp(g, exact)
                  for g, exact in zip(got.tolist(), _oracle.mbt_cum_hazard(model, t.tolist()))]
        # twice the most of these three models at seeds 20250812, 7 and 1: 6.9 ulp, from the
        # running sums of the knot values
        assert max(errors) <= 14.0, max(errors)
        table = model._skeleton
        np.testing.assert_array_equal(_bits(table.values), _bits(model.cum_hazard(table.knots)))
        assert model.cum_hazard(float(t[7])) == got[7]
        assert isinstance(model.cum_hazard(float(t[7])), float)


# one weight 2^66 times the other, and lambda0 below both: a difference of prefix sums
# loses the small weight and lambda0
_DOMINATED = GammaProcessDraw.from_atoms([1.0, 2.0], [1e20, 0.5])


class TestSumsOfNonNegativeTerms:
    """Levels and log hazards from suffix and integrated masses, with no cancelling difference."""

    @pytest.mark.parametrize("t, expected", [(1.5, 0.8), (2.5, 0.3)])
    @pytest.mark.parametrize("variant", ["dfr", "sbt"])
    def test_a_small_weight_behind_a_large_one(self, variant, t, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if variant == "dfr":
                model = DecreasingFailureRate(0.3, _DOMINATED)
            else:
                model = SuperpositionBathtub(0.3, _DOMINATED, GammaProcessDraw.from_atoms([], []))
            assert model.hazard(t) == expected
            assert model._hazard_and_cum(np.array([t]))[0][0] == expected

    def test_lcv_log_hazard_beside_a_large_weight(self):
        # log hazard(3) = log 0.3 - 3000 + (0.5 * 2 + 3 + 3): 0.3 e^-2993 rounds to 0
        model = LogConvexHazard(0.3, -1000.0, draw_of([(3.0, 1e200), (1.0, 0.5), (2.0, 3.0),
                                                      (2.0, 3.0)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.hazard(3.0) == 0.0
            assert model._hazard_and_cum(np.array([3.0]))[0][0] == 0.0
            np.testing.assert_array_equal(model._skeleton.knots, [0.0, 1.0, 2.0, 3.0])


def _lcv_in_reach(model, hazard: float, t: float) -> bool:
    """Whether lcv's budget holds at t: everywhere on the domain it was set on (1-8 atoms of
    weight at most 2, lambda0 >= 1e-3, t <= 12), and past it where the hazard is 0 or inf or
    its log terms, |w0| t and sum_k w_k max(t - theta_k, 0), sum to at most 71, the most the
    runs behind the budget reached; its error grows with them (item 6).  At t = inf the
    oracle's terms are inf - inf."""
    weights = model.draw.weights
    if 0 < weights.size <= 8 and weights.max() <= 2.0 and model.lambda0 >= 1e-3 and t <= 12.0:
        return True
    if t == math.inf:
        return False
    w0t = _oracle.D(model.w0) * _oracle.D(t)
    terms = abs(w0t) + _oracle.lcv_log_terms(model, [t])[0][0] - w0t
    return not 0.0 < hazard < math.inf or terms <= 71


class TestHazardAgainstTheAtoms:
    """The hazard within a per-model ulp budget of a 60-digit evaluation from the atoms alone.

    Each budget is twice the worst error over four 1,000-example runs of the
    strategy it was set on (1-8 atoms of weight at most 2, times to 12), with
    ``target`` steering each run toward large errors: ifr 1.97, dfr 1.21,
    sbt 2.04 and lcv 117.2 ulp.  On the shared generator, 1,000-example runs
    reached ifr 1.60, dfr 1.95 and sbt 1.91 ulp, and six for lcv 112-147 ulp
    where ``_lcv_in_reach`` (93 on the old domain).  lcv's error grows with the
    size of the terms of its log hazard, as exp turns their rounding into a
    relative error.  mbt's were set on the shared generator, a derandomized
    and three seeded 1,000-example runs: 1,070 ulp for the hazard and 643 for
    the cumulative hazard, both where pi is below 1e-270.  A weight of
    1 / (1 + e^-g) carries the rounding of its log-odds g, about |log pi| ulp
    of 1, as a relative error.  The run here is derandomized, so it is the
    same every time.
    """

    BUDGET_ULP = {"ifr": 4.0, "dfr": 2.5, "sbt": 4.1, "mbt": 2140.0, "lcv": 235.0}
    CUM_BUDGET_ULP = {"mbt": 1290.0}

    @pytest.mark.xfail(strict=True, reason="item 6: lcv's log terms carry their rounding")
    def test_lcv_past_the_reach_of_the_budget(self):
        model = LogConvexHazard(1.0, 1.2445386308905517, draw_of([  # log terms of 221 at t
            (5.239056296069081, 0.07972914593345795), (6.977927309314874, 4.859503849853999),
            (2.952102720844341, 4.859503849853999), (1.0, 1.7914522166211946),
            (1.0, 2.438783351353589), (-0.0, 2.7914522166211944), (2.5, 1.9739065285171717)]))
        t = 13.91846434179434
        assert _oracle.error_ulp(model.hazard(t), _oracle.hazard(model, t)) <= 235.0

    @pytest.mark.parametrize("variant", list(BUDGET_ULP))
    def test_within_budget(self, variant):
        @settings(max_examples=75, deadline=None, database=None, derandomize=True)
        @given(models_and_times((variant,)))
        def check(case):
            model, ts = case
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = np.asarray(model.hazard(np.array(ts))).tolist()
            errors = [_oracle.error_ulp(g, _oracle.hazard(model, t)) for g, t in zip(got, ts)
                      if variant != "lcv" or _lcv_in_reach(model, g, t)]
            assume(errors)  # an example checks at least one time
            target(max(errors))
            assert max(errors) <= self.BUDGET_ULP[variant], (ts, errors)

        check()

    @pytest.mark.parametrize("variant", list(CUM_BUDGET_ULP))
    def test_cum_hazard_within_budget(self, variant):
        """On the time grid of the breakpoints, from 0 and the smallest double to inf, and at
        the generated times."""
        @settings(max_examples=75, deadline=None, database=None, derandomize=True)
        @given(models_and_times((variant,)))
        def check(case):
            model, ts = case
            grid = np.concatenate((time_grid(model.breakpoints()), ts))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = np.asarray(model.cum_hazard(grid)).tolist()
            errors = [_oracle.error_ulp(g, exact)
                      for g, exact in zip(got, _oracle.mbt_cum_hazard(model, grid.tolist()))]
            target(max(errors))
            assert max(errors) <= self.CUM_BUDGET_ULP[variant], (grid, errors)

        check()

"""Stick-breaking draws, measure integrals, ordered views, and serialization."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gphazard.gamma_process import (
    ExponentialBase,
    GammaProcessDraw,
    GammaProcessParams,
    NormalBase,
    base_measure_from_dict,
    draw_gamma_process,
    expected_tail_mass,
    stick_weights,
)
from gphazard.likelihood import HyperParams
from gphazard.models import draw_model_params
from gphazard.rng import RandomStream


def _demo_params(n_atoms=100):
    return GammaProcessParams(alpha=3.0, beta=1.0, n_atoms=n_atoms, base=ExponentialBase(1.0))


class TestStickWeights:
    def test_two_sticks(self):
        np.testing.assert_allclose(stick_weights([0.5, 0.5], 3), [0.5, 0.25, 0.25])

    def test_closure_only(self):
        np.testing.assert_allclose(stick_weights([], 1), [1.0])

    def test_three_sticks(self):
        np.testing.assert_allclose(stick_weights([0.2, 0.5, 0.5], 4), [0.2, 0.4, 0.2, 0.2])

    def test_sum_is_one_exactly_by_closure(self):
        s = RandomStream(0)
        sticks = [s.beta(1.0, 3.0) for _ in range(99)]
        w = stick_weights(sticks, 100)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            stick_weights([0.5], 3)  # wrong length
        for bad in (1.1, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                stick_weights([bad, 0.5], 3)

    def test_endpoints(self):
        # a stick of 0 takes nothing, and a stick of 1 ends the breaking
        np.testing.assert_array_equal(stick_weights([0.0, 1.0, 0.5], 4), [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(stick_weights([0.5, 0.0], 3), [0.5, 0.0, 0.5])


class TestDraw:
    def test_closure_invariants(self):
        s = RandomStream(1)
        for _ in range(10):
            d = draw_gamma_process(_demo_params(), s)
            assert abs(d.unscaled_weights.sum() - 1.0) <= 1e-12
            assert abs(d.weights.sum() - d.gamma) <= 1e-12 * d.gamma
            assert np.all(d.weights >= 0.0) and np.all(d.thetas >= 0.0)

    def test_single_atom(self):
        d = draw_gamma_process(_demo_params(n_atoms=1), RandomStream(2))
        np.testing.assert_allclose(d.unscaled_weights, [1.0])
        assert d.weights[0] == d.gamma

    def test_first_four_weights_mc(self):
        # E[sum of first 4 unscaled weights] = 1 - (alpha/(1+alpha))**4 at alpha=3;
        # the first four sticks do not depend on the truncation level
        s = RandomStream(3)
        params = _demo_params(n_atoms=5)
        means = np.array(
            [draw_gamma_process(params, s).unscaled_weights[:4].sum() for _ in range(1000)]
        )
        assert abs(means.mean() - (1.0 - 0.75**4)) < 0.02

    def test_mean_weight_stochastically_decreasing(self):
        # n_atoms=12 keeps the first 11 weights ahead of the closure term,
        # which is deliberately larger (it absorbs the whole tail)
        s = RandomStream(4)
        params = _demo_params(n_atoms=12)
        w = np.array([draw_gamma_process(params, s).unscaled_weights for _ in range(1000)])
        mean = w.mean(axis=0)
        se = w.std(axis=0, ddof=1) / math.sqrt(w.shape[0])
        for k in range(10):
            assert mean[k + 1] <= mean[k] + 3.0 * (se[k] + se[k + 1])

    @pytest.mark.parametrize("alpha", [1e-6, 1e-300])
    def test_tiny_alpha_draws_zero_mass(self, alpha):
        # Gamma(alpha) rounds to 0 with probability about 1 - 744 alpha
        d = draw_gamma_process(GammaProcessParams(alpha, 1.0, 20), RandomStream(1))
        assert d.gamma == 0.0 and d.total_mass() == 0.0
        np.testing.assert_array_equal(d.weights, 0.0)
        assert d.sticks[0] == 1.0  # 1 - V has mass 2**(-54 alpha) at 0
        with pytest.raises(ValueError, match="the total mass of a draw must be finite and positive"):
            draw_model_params("ifr", [d], HyperParams(), RandomStream(2))

    def test_normal_base_truncated(self):
        params = GammaProcessParams(alpha=3.0, beta=1.0, n_atoms=100, base=NormalBase(-1.0, 1.0))
        d = draw_gamma_process(params, RandomStream(5))
        assert np.all(d.thetas >= 0.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GammaProcessParams(alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            GammaProcessParams(alpha=1.0, beta=1.0, n_atoms=0)
        with pytest.raises(ValueError):
            ExponentialBase(rate=0.0)
        with pytest.raises(ValueError):
            NormalBase(mean=0.0, sd=0.0)


class TestIntegrals:
    def test_single_atom_values(self):
        d = GammaProcessDraw.from_atoms([1.0], [2.0])
        assert d.integral_below(0.0) == 0.0
        assert d.integral_below(2.0) == 2.0
        assert d.integral_above(0.0) == 2.0
        assert d.integral_above(2.0) == 0.0
        assert d.double_integral_below(0.0) == 0.0
        assert d.double_integral_below(3.0) == 4.0
        assert d.double_integral_above(3.0) == 2.0

    def test_below_total_mass_beyond_largest_atom(self):
        d = draw_gamma_process(_demo_params(), RandomStream(6))
        t = d.thetas.max() + 1.0
        assert abs(d.integral_below(t) - d.gamma) <= 1e-12 * d.gamma

    def test_complement_identity(self):
        d = draw_gamma_process(_demo_params(), RandomStream(7))
        s = RandomStream(8)
        for _ in range(50):
            t = 8.0 * s.uniform()
            if t in d.thetas:
                continue
            gap = abs(d.integral_below(t) + d.integral_above(t) - d.gamma)
            assert gap <= 1e-12 * d.gamma

    def test_double_integrals_match_quadrature(self):
        # integrating the step-valued single integrals over [0, t] reproduces
        # the closed double-integral forms
        d = draw_gamma_process(_demo_params(n_atoms=20), RandomStream(9))
        t_end = float(np.quantile(d.thetas, 0.8))
        edges = np.concatenate(([0.0], np.sort(d.thetas[d.thetas < t_end]), [t_end]))
        below = sum(
            quad(lambda u: d.integral_below(u), lo, hi, limit=100)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        above = sum(
            quad(lambda u: d.integral_above(u), lo, hi, limit=100)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        assert abs(below - d.double_integral_below(t_end)) <= 1e-8 * max(1.0, below)
        assert abs(above - d.double_integral_above(t_end)) <= 1e-8 * max(1.0, above)

    def test_double_integrals_piecewise_linear_in_t(self):
        d = GammaProcessDraw.from_atoms([1.0, 2.0], [0.5, 1.5])
        ts = np.linspace(0.0, 4.0, 401)
        for f in (d.double_integral_below, d.double_integral_above):
            vals = f(ts)
            assert np.all(np.diff(vals) >= -1e-15)  # non-decreasing
            # kinks only at atoms: second differences vanish away from them
            second = np.diff(vals, 2)
            interior = ts[1:-1]
            away = ~np.isin(interior, [1.0, 2.0])
            assert np.max(np.abs(second[away])) <= 1e-12

    def test_negative_t_rejected(self):
        d = GammaProcessDraw.from_atoms([1.0], [1.0])
        for f in (
            d.integral_below,
            d.integral_above,
            d.double_integral_below,
            d.double_integral_above,
        ):
            with pytest.raises(ValueError):
                f(-0.5)

    def test_nan_t_rejected(self):
        d = GammaProcessDraw.from_atoms([1.0], [1.0])
        for f in (
            d.integral_below,
            d.integral_above,
            d.double_integral_below,
            d.double_integral_above,
        ):
            with pytest.raises(ValueError, match="t must be non-negative, not NaN"):
                f(math.nan)
            with pytest.raises(ValueError, match="t must be non-negative, not NaN"):
                f(np.array([0.5, math.nan]))

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("tied", [False, True])
    def test_long_sorted_cuts_equal_scalar_calls(self, descending, tied):
        rng = np.random.default_rng(11)
        thetas = rng.exponential(1.0, 40)
        if tied:
            thetas = np.repeat(np.round(thetas[:20], 1), 2)
        d = GammaProcessDraw.from_atoms(thetas, rng.exponential(1.0, thetas.size))
        # cuts exactly at every atom, at 0, and between atoms
        t = np.sort(np.concatenate(([0.0], thetas, rng.exponential(1.5, 1024 + 333))))
        if descending:
            t = t[::-1]
        for name in ("integral_below", "integral_above", "double_integral_below",
                     "double_integral_above"):
            f = getattr(d, name)
            got = f(t)
            expected = np.array([f(float(x)) for x in t])
            assert got.tobytes() == expected.tobytes(), name
            below, at = thetas < t[:, None], thetas == t[:, None]
            reference = {  # atoms at the cut count neither below nor above it
                "integral_below": below @ d.weights,
                "integral_above": ~(below | at) @ d.weights,
                "double_integral_below": np.maximum(t[:, None] - thetas, 0.0) @ d.weights,
                "double_integral_above": np.minimum(t[:, None], thetas) @ d.weights,
            }[name]
            np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-12)
            nan_at = t.copy()
            nan_at[t.size // 2] = math.nan
            with pytest.raises(ValueError, match="t must be non-negative, not NaN"):
                f(nan_at)


class TestSumsOfNonNegativeTerms:
    """The integrals from suffix and integrated masses, with no cancelling difference."""

    def test_mass_above_a_large_weight(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert GammaProcessDraw.from_atoms([1.0, 2.0], [1e20, 0.5]).integral_above(1.5) == 0.5

    def test_integrated_mass_near_the_top_of_the_double_range(self):
        # 0.6 * 0.5e308 + 1.2 * 0.1e308, where t * mass = 1.92e308 overflows
        d = GammaProcessDraw.from_atoms([1e308, 1.5e308], [0.6, 0.6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.double_integral_below(1.6e308) == pytest.approx(4.2e307, rel=1e-15)
            assert d.double_integral_below(1.25e308) == pytest.approx(1.5e307, rel=1e-15)


class TestOrderedView:
    def test_hand_example(self):
        d = GammaProcessDraw.from_atoms([2.0, 1.0], [1.0, 3.0])
        o = d.ordered
        np.testing.assert_allclose(o.thetas, [1.0, 2.0])
        np.testing.assert_allclose(o.cum_mass, [3.0, 4.0])
        np.testing.assert_allclose(o.cum_moment, [3.0, 5.0])

    def test_single_atom_identity(self):
        d = GammaProcessDraw.from_atoms([1.5], [2.0])
        o = d.ordered
        np.testing.assert_allclose(o.thetas, [1.5])
        np.testing.assert_allclose(o.cum_mass, [2.0])

    def test_total_matches_gamma(self):
        d = draw_gamma_process(_demo_params(), RandomStream(10))
        assert abs(d.ordered.cum_mass[-1] - d.gamma) <= 1e-12 * d.gamma

    def test_total_mass_sums_every_atom(self):
        assert GammaProcessDraw.from_atoms([1.0, 2.0], [0.25, 0.75]).total_mass() == 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tied_atoms_keep_their_given_order(self, seed):
        # the same arrays as a stable sort, so the prefix sums keep their bits under ties
        rng = np.random.default_rng(seed)
        thetas = rng.integers(0, 20, 500).astype(float)
        weights = rng.exponential(size=thetas.size)
        o = GammaProcessDraw.from_atoms(thetas, weights).ordered
        idx = np.argsort(thetas, kind="stable")
        for got, expected in [(o.thetas, thetas[idx]), (o.weights, weights[idx]),
                              (o.cum_mass, np.cumsum(weights[idx])),
                              (o.cum_moment, np.cumsum(weights[idx] * thetas[idx]))]:
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_ties_behind_a_unique_smallest_atom_keep_their_given_order(self):
        # a tie anywhere takes the stable sort, not only a tie with the smallest atom
        rng = np.random.default_rng(4)
        weights = np.arange(1.0, 13.0)
        for _ in range(200):
            thetas = np.concatenate(([0.5], rng.choice([1.0, 2.0, 3.0], 11)))
            o = GammaProcessDraw.from_atoms(thetas, weights).ordered
            np.testing.assert_array_equal(o.weights, weights[np.argsort(thetas, kind="stable")])


class TestExpectedTailMass:
    def test_exact_values(self):
        assert expected_tail_mass(3.0, 0) == 1.0
        assert expected_tail_mass(3.0, 4) == 0.31640625
        assert 0.9e-5 < expected_tail_mass(3.0, 40) < 1.1e-5

    def test_monte_carlo_agreement(self):
        s = RandomStream(11)
        reps = 1000
        tails = np.empty(reps)
        for i in range(reps):
            sticks = [s.beta(1.0, 3.0) for _ in range(4)]
            tails[i] = np.prod(1.0 - np.asarray(sticks))
        se = tails.std(ddof=1) / math.sqrt(reps)
        assert abs(tails.mean() - expected_tail_mass(3.0, 4)) <= 3.0 * se

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_tail_mass(0.0, 1)
        with pytest.raises(ValueError):
            expected_tail_mass(3.0, -1)


class TestSerialization:
    def test_json_round_trip_bytes(self):
        d = draw_gamma_process(_demo_params(), RandomStream(12))
        text = d.to_json()
        assert GammaProcessDraw.from_json(text).to_json() == text

    def test_round_trip_values(self):
        d = draw_gamma_process(_demo_params(), RandomStream(13))
        back = GammaProcessDraw.from_json(d.to_json())
        assert back.gamma == d.gamma
        np.testing.assert_array_equal(back.thetas, d.thetas)
        np.testing.assert_array_equal(back.sticks, d.sticks)
        np.testing.assert_array_equal(back.weights, d.weights)

    def test_validation_rejects_inconsistent_mass(self):
        with pytest.raises(ValueError):
            GammaProcessDraw(gamma=5.0, thetas=[1.0], sticks=[], weights=[1.0])
        with pytest.raises(ValueError):
            GammaProcessDraw(gamma=1.0, thetas=[-1.0], sticks=[], weights=[1.0])

    def test_mass_below_one_closes_to_an_absolute_tolerance(self):
        # the closure tolerance is 1e-9 times max(1, gamma): 7e-10 off a total mass of 0.5 passes
        d = GammaProcessDraw(gamma=0.5, thetas=[1.0, 2.0], sticks=[], weights=[0.25, 0.25 + 7e-10])
        assert d.gamma == 0.5

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: GammaProcessParams.from_dict({"alpha": [3], "beta": 1.0}), "'alpha'"),
            (lambda: GammaProcessParams.from_dict({"alpha": 3.0, "beta": True}), "'beta'"),
            (lambda: GammaProcessParams.from_dict({"alpha": 3.0, "beta": 1.0, "K": "20"}), "'K'"),
            (lambda: GammaProcessParams.from_dict({"alpha": 3.0, "beta": 1.0, "base": 5}),
             "base measure must be a JSON object"),
            (lambda: base_measure_from_dict({"kind": "normal", "mean": 2.0}), "'sd'"),
            (lambda: base_measure_from_dict({"kind": "exponential"}), "'rate'"),
            (lambda: GammaProcessDraw.from_dict(
                {"gamma": [2.0], "thetas": [1.0], "sticks": [], "weights": [2.0]}), "'gamma'"),
            (lambda: GammaProcessDraw.from_dict(
                {"gamma": 2.0, "thetas": {"a": 1}, "sticks": [], "weights": [2.0]}), "'thetas'"),
            (lambda: GammaProcessDraw.from_dict(
                {"gamma": 2.0, "thetas": [[1.0]], "sticks": [], "weights": [2.0]}), "'thetas'"),
            (lambda: GammaProcessDraw.from_dict(
                {"gamma": 2.0, "thetas": [1.0], "sticks": "x", "weights": [2.0]}), "'sticks'"),
            (lambda: GammaProcessDraw.from_dict(
                {"gamma": 2.0, "thetas": [1.0], "sticks": [], "weights": [True]}), "'weights'"),
            (lambda: GammaProcessDraw.from_dict(
                {"gamma": 2.0, "thetas": [1.0], "sticks": [], "weights": ["2.0"]}), "'weights'"),
        ],
    )
    def test_malformed_fields_raise_value_error_naming_them(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()


class TestInfiniteAtomLocations:
    """An atom at inf would add its mass to every finite-time integral; draws reject it."""

    def test_from_atoms_names_the_locations(self):
        with pytest.raises(ValueError, match=r"^atom locations must be finite, got inf for 1 of 2"):
            GammaProcessDraw.from_atoms([1.0, math.inf], [1.0, 1.0])

    def test_from_dict_rejects_infinity(self):
        doc = {"gamma": 2.0, "thetas": [1.0, math.inf], "sticks": [0.5], "weights": [1.0, 1.0]}
        with pytest.raises(ValueError, match="atom locations must be finite"):
            GammaProcessDraw.from_dict(doc)

    @pytest.mark.parametrize("base", [ExponentialBase(rate=1e-320), NormalBase(1e308, 1e308)])
    def test_in_domain_priors_that_draw_inf(self, base):
        params = GammaProcessParams(alpha=3.0, beta=1.0, n_atoms=20, base=base)
        with pytest.raises(ValueError, match="atom locations must be finite, got inf"):
            draw_gamma_process(params, RandomStream(1))

    def test_finite_extremes_still_pass(self):
        d = GammaProcessDraw.from_atoms([0.0, np.finfo(float).max], [1.0, 1.0])
        assert d.thetas[1] == np.finfo(float).max

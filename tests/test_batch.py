"""Block sampling and the O(n log n) Kaplan-Meier against scalar and exact references."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gphazard.datasets import Dataset
from gphazard.gamma_process import (
    ExponentialBase,
    GammaProcessDraw,
    GammaProcessParams,
    NormalBase,
    draw_gamma_process,
    stick_weights,
)
from gphazard.models import DecreasingFailureRate, MixtureBathtub, simulate_dataset
from gphazard.rng import RandomStream
from gphazard.stats import kaplan_meier


def _same_state(a: RandomStream, b: RandomStream) -> bool:
    return a._gen.bit_generator.state == b._gen.bit_generator.state


class _ListGenerator:
    """Stand-in for numpy's Generator that hands out a fixed list and counts what it used."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def _take(self, size):
        k = 1 if size is None else size
        out = self.values[self.used:self.used + k]
        self.used += k
        return out[0] if size is None else np.array(out, dtype=float)

    def random(self, size=None):
        return self._take(size)

    def exponential(self, scale, size=None):
        return self._take(size)

    def beta(self, a, b, size=None):
        return self._take(size)

    def normal(self, loc, scale, size=None):
        return self._take(size)


def _stub_pair(values):
    streams = RandomStream(0), RandomStream(0)
    for s in streams:
        s._gen = _ListGenerator(values)
    return streams


class TestBlockDraws:
    N = 2000

    @pytest.mark.parametrize("seed", [0, 1, 20250812])
    @pytest.mark.parametrize(
        "scalar, block",
        [
            (lambda s: s.uniform(), lambda s, n: s.uniforms(n)),
            (lambda s: s.exponential(2.5), lambda s, n: s.exponentials(2.5, n)),
            (lambda s: s.beta(1.0, 3.0), lambda s, n: s.betas(1.0, 3.0, n)),
            (lambda s: s.beta(0.4, 0.7), lambda s, n: s.betas(0.4, 0.7, n)),
            (lambda s: ExponentialBase(1.5).sample(s), lambda s, n: ExponentialBase(1.5).samples(n, s)),
            (lambda s: NormalBase(2.0, 1.0).sample(s), lambda s, n: NormalBase(2.0, 1.0).samples(n, s)),
            # a mean below zero rejects about 84 % of the proposals
            (lambda s: NormalBase(-1.0, 1.0).sample(s), lambda s, n: NormalBase(-1.0, 1.0).samples(n, s)),
        ],
    )
    def test_block_equals_scalar_calls(self, seed, scalar, block):
        a, b = RandomStream(seed), RandomStream(seed)
        expected = np.array([scalar(a) for _ in range(self.N)])
        got = block(b, self.N)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)
        assert _same_state(a, b)

    def test_zero_length_block_draws_nothing(self):
        a, b = RandomStream(3), RandomStream(3)
        assert a.uniforms(0).shape == (0,)
        assert a.betas(1.0, 2.0, 0).shape == (0,)
        assert _same_state(a, b)

    @pytest.mark.parametrize(
        "values, scalar, block, n",
        [
            ([0.5, 0.0, 0.25, 0.0, 0.0, 0.75, 0.1, 0.2, 0.3], lambda s: s.uniform(),
             lambda s, n: s.uniforms(n), 4),
            ([0.0, 1.5, 0.0, 0.0, 2.0, 3.0, 0.0, 4.0], lambda s: s.exponential(1.0),
             lambda s, n: s.exponentials(1.0, n), 3),
            ([1.0, 0.3, 0.0, 0.6, 1.0, 0.9, 0.2, 0.4], lambda s: s.beta(1.0, 3.0),
             lambda s, n: s.betas(1.0, 3.0, n), 4),
            ([-1.0, 2.0, -0.5, -3.0, 0.0, 1.0, -2.0, 5.0, 6.0], lambda s: NormalBase(0.0, 1.0).sample(s),
             lambda s, n: NormalBase(0.0, 1.0).samples(n, s), 4),
        ],
    )
    def test_rejected_endpoints_are_redrawn_in_order(self, values, scalar, block, n):
        a, b = _stub_pair(values)
        expected = [scalar(a) for _ in range(n)]
        got = block(b, n)
        assert got.tolist() == expected
        assert a._gen.used == b._gen.used < len(values)

    def test_negative_block_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RandomStream(1).uniforms(-1)


def _scalar_failure(model, stream):
    """The record-at-a-time sampler: one uniform (two for a mixture) and one inversion."""
    if isinstance(model, MixtureBathtub):
        if model.pi == 1.0:
            return _scalar_failure(model.components[0], stream)
        c = stream.categorical((model.pi, 1.0 - model.pi))
        return _scalar_failure(model.components[c], stream)
    return float(model.invert_cum_hazard(-math.log(stream.uniform())))


def _scalar_dataset(model, n, tau, stream):
    times, observed = [], []
    for _ in range(n):
        t = _scalar_failure(model, stream)
        if tau is not None and t > tau:
            times.append(tau)
            observed.append(False)
        else:
            times.append(t)
            observed.append(True)
    return np.array(times), np.array(observed)


def _models(demo):
    g = demo["ifr"].draw
    mbt = demo["mbt"]
    extra = {
        "dfr-defective": DecreasingFailureRate(0.0, g),
        "mbt-pi1": MixtureBathtub(1.0, mbt.lambda01, mbt.draw1, mbt.lambda02, mbt.draw2),
    }
    return {**demo, **extra}


class TestBatchSimulation:
    @pytest.mark.parametrize("tau", [None, 3.0, 0.4])
    @pytest.mark.parametrize(
        "name", ["ifr", "dfr", "lwb", "sbt", "mbt", "lcv", "dfr-defective", "mbt-pi1"]
    )
    def test_simulate_equals_scalar_loop(self, demo, name, tau):
        model = _models(demo)[name]
        if tau is None and math.isfinite(model.cum_hazard_limit()):
            with pytest.raises(ValueError, match="defective"):
                simulate_dataset(model, 500, tau, RandomStream(1))
            return
        for seed in (1, 2):
            a, b = RandomStream(seed), RandomStream(seed)
            times, observed = _scalar_dataset(model, 500, tau, a)
            data = simulate_dataset(model, 500, tau, b)
            np.testing.assert_array_equal(data.times, times)
            np.testing.assert_array_equal(data.observed, observed)
            assert _same_state(a, b)

    @pytest.mark.parametrize("name", ["ifr", "lcv", "mbt", "dfr-defective", "mbt-pi1"])
    def test_sample_failure_is_one_record(self, demo, name):
        model = _models(demo)[name]
        a, b = RandomStream(4), RandomStream(4)
        expected = [_scalar_failure(model, a) for _ in range(50)]
        got = [model.sample_failure(b) for _ in range(50)]
        assert got == expected
        assert _same_state(a, b)

    def test_defective_draws_are_inf(self, demo):
        model = _models(demo)["dfr-defective"]
        samples = model.sample_failures(2000, RandomStream(5))
        assert np.isinf(samples).any() and np.isfinite(samples).any()


def _scalar_gamma_process(params, stream):
    """The atom-at-a-time draw: locations, then sticks, then the total mass."""
    k = params.n_atoms
    thetas = np.array([params.base.sample(stream) for _ in range(k)])
    sticks = np.array([stream.beta(1.0, params.alpha) for _ in range(k - 1)])
    unscaled = stick_weights(sticks, k)
    gamma = stream.gamma(params.alpha, params.beta)
    return GammaProcessDraw(gamma=gamma, thetas=thetas, sticks=sticks,
                            weights=gamma * unscaled, unscaled_weights=unscaled)


class TestBatchGammaProcess:
    @pytest.mark.parametrize(
        "base", [ExponentialBase(1.0), ExponentialBase(0.2), NormalBase(2.0, 1.0), NormalBase(-0.5, 1.0)]
    )
    @pytest.mark.parametrize("k", [1, 2, 100, 1000])
    def test_draw_equals_scalar_loop(self, base, k):
        params = GammaProcessParams(alpha=3.0, beta=1.0, n_atoms=k, base=base)
        for seed in (1, 20250812):
            a, b = RandomStream(seed), RandomStream(seed)
            expected = _scalar_gamma_process(params, a)
            got = draw_gamma_process(params, b)
            assert got.gamma == expected.gamma
            for name in ("thetas", "sticks", "weights", "unscaled_weights"):
                np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))
            assert got.to_json() == expected.to_json()
            assert _same_state(a, b)


def _fraction_km(times, observed):
    """Product-limit levels in exact rational arithmetic, one event time at a time."""
    events = sorted(set(t for t, o in zip(times, observed) if o))
    s = Fraction(1)
    out = []
    for t in events:
        at_risk = sum(1 for x in times if x >= t)
        deaths = sum(1 for x, o in zip(times, observed) if o and x == t)
        s *= Fraction(at_risk - deaths, at_risk)
        out.append(s)
    return events, out


_records = st.lists(
    st.tuples(st.integers(1, 12).map(lambda i: i * 0.25), st.booleans()), min_size=1, max_size=120
)


class TestKaplanMeierExactness:
    @settings(max_examples=300, deadline=None)
    @given(_records)
    def test_matches_rational_product(self, records):
        times = [t for t, _ in records]
        observed = [o for _, o in records]
        km = kaplan_meier(Dataset(times=times, observed=observed))
        events, levels = _fraction_km(times, observed)
        np.testing.assert_array_equal(km.breakpoints, np.array(events, dtype=float))
        expected = np.array([float(s) for s in levels])
        censored = [t for t, o in records if not o]
        if not events or not censored or min(censored) >= events[-1]:
            np.testing.assert_array_equal(km.values, expected)
        else:
            # censoring between events: run factors multiply in float
            rel = np.abs(km.values - expected) / np.where(expected > 0.0, expected, 1.0)
            assert np.all(km.values[expected == 0.0] == 0.0)
            assert rel.max() <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=200), st.integers(1, 30))
    def test_horizon_censoring_is_exact(self, event_steps, tau_step):
        tau = tau_step * 0.5
        times = [min(t * 0.5, tau) for t in event_steps]
        observed = [t * 0.5 <= tau for t in event_steps]
        km = kaplan_meier(Dataset(times=times, observed=observed, tau=tau))
        _, levels = _fraction_km(times, observed)
        np.testing.assert_array_equal(km.values, np.array([float(s) for s in levels]))

    def test_censoring_between_events_example(self):
        # 5 at risk at t=1 (one death), one censored at 2, 3 at risk at t=3 (one death)
        km = kaplan_meier(Dataset(times=[1.0, 2.0, 3.0, 4.0, 5.0],
                                  observed=[True, False, True, True, False]))
        np.testing.assert_array_equal(km.breakpoints, [1.0, 3.0, 4.0])
        assert km.values[0] == 0.8
        assert km.values[1] == pytest.approx(0.8 * 2.0 / 3.0, rel=1e-15)
        assert km.values[2] == pytest.approx(0.8 * 1.0 / 3.0, rel=1e-15)

    def test_large_dataset(self):
        rng = np.random.default_rng(0)
        times = np.round(rng.exponential(1.0, 100_000), 3) + 0.001
        observed = rng.random(times.size) < 0.7
        km = kaplan_meier(Dataset(times=times, observed=observed))
        assert np.all(np.diff(km.values) <= 0.0)
        assert 0.0 <= km.values[-1] < km.values[0] < 1.0

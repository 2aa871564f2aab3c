"""Determinism, distributional contracts, and domain errors of RandomStream."""

import time

import numpy as np
import pytest
from scipy.stats import norm

from gphazard.rng import RandomStream
from gphazard.stats import ks_distance


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomStream(42)
        b = RandomStream(42)
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = [RandomStream(1).uniform() for _ in range(10)]
        b = [RandomStream(2).uniform() for _ in range(10)]
        assert a != b

    def test_split_streams_differ_and_are_deterministic(self):
        s0 = RandomStream(7).split(0)
        s1 = RandomStream(7).split(1)
        again = RandomStream(7).split(0)
        seq0 = [s0.uniform() for _ in range(10)]
        assert seq0 != [s1.uniform() for _ in range(10)]
        assert seq0 == [again.uniform() for _ in range(10)]

    def test_nested_split_is_deterministic(self):
        a = RandomStream(3).split(2).split(5)
        b = RandomStream(3).split(2).split(5)
        assert a.uniform() == b.uniform()

    def test_negative_child_id_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(0).split(-1)


class TestUniform:
    def test_open_interval(self):
        s = RandomStream(0)
        u = s.uniforms(10_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_mean(self):
        s = RandomStream(1)
        assert abs(s.uniforms(100_000).mean() - 0.5) < 0.01

    def test_ks_fit(self):
        s = RandomStream(2)
        assert ks_distance(s.uniforms(10_000), lambda x: x) < 0.02


class TestGamma:
    def test_shape_one_is_exponential(self):
        s = RandomStream(3)
        beta = 2.0
        draws = np.array([s.gamma(1.0, beta) for _ in range(10_000)])
        assert ks_distance(draws, lambda t: 1.0 - np.exp(-beta * t)) < 0.02

    def test_moments(self):
        s = RandomStream(4)
        draws = np.array([s.gamma(3.0, 1.0) for _ in range(100_000)])
        assert abs(draws.mean() - 3.0) < 0.05

    def test_small_shape(self):
        s = RandomStream(5)
        draws = np.array([s.gamma(0.5, 1.0) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain(self, shape, rate):
        with pytest.raises(ValueError):
            RandomStream(0).gamma(shape, rate)


class TestBeta:
    def test_ks_against_one_alpha_cdf(self):
        # Beta(1, alpha) has CDF 1 - (1 - v)**alpha
        s = RandomStream(6)
        alpha = 3.0
        draws = np.array([s.beta(1.0, alpha) for _ in range(10_000)])
        assert ks_distance(draws, lambda v: 1.0 - (1.0 - v) ** alpha) < 0.02

    def test_mean(self):
        s = RandomStream(7)
        draws = np.array([s.beta(1.0, 3.0) for _ in range(100_000)])
        assert abs(draws.mean() - 0.25) < 0.01

    def test_beta_one_one_is_uniform(self):
        s = RandomStream(8)
        draws = np.array([s.beta(1.0, 1.0) for _ in range(10_000)])
        assert ks_distance(draws, lambda v: v) < 0.02

    def test_domain(self):
        with pytest.raises(ValueError):
            RandomStream(0).beta(0.0, 1.0)
        with pytest.raises(ValueError):
            RandomStream(0).beta(1.0, -1.0)


class TestExponential:
    def test_mean(self):
        s = RandomStream(9)
        draws = np.array([s.exponential(1.0) for _ in range(100_000)])
        assert abs(draws.mean() - 1.0) < 0.02

    def test_unit_rate_ks(self):
        s = RandomStream(10)
        draws = np.array([s.exponential(1.0) for _ in range(10_000)])
        assert ks_distance(draws, lambda t: 1.0 - np.exp(-t)) < 0.02

    def test_domain(self):
        with pytest.raises(ValueError):
            RandomStream(0).exponential(0.0)


class TestNormal:
    def test_degenerate_sd_zero(self):
        assert RandomStream(0).normal(2.0, 0.0) == 2.0

    def test_moments(self):
        s = RandomStream(11)
        draws = np.array([s.normal(2.0, 1.0) for _ in range(100_000)])
        assert abs(draws.mean() - 2.0) < 0.02
        assert abs(draws.std() - 1.0) < 0.02

    def test_standard_normal_ks(self):
        # the gamma/nu = 3/3 prior scale reduces to a standard normal
        s = RandomStream(12)
        draws = np.array([s.normal(0.0, 3.0 / 3.0) for _ in range(10_000)])
        assert ks_distance(draws, norm.cdf) < 0.02

    def test_domain(self):
        with pytest.raises(ValueError):
            RandomStream(0).normal(0.0, -1.0)


class TestCategorical:
    def test_degenerate(self):
        s = RandomStream(13)
        assert all(s.categorical((1.0, 0.0)) == 0 for _ in range(100))

    def test_frequencies(self):
        s = RandomStream(14)
        draws = np.array([s.categorical((0.5, 0.5)) for _ in range(100_000)])
        assert abs(np.mean(draws == 0) - 0.5) < 0.01

    def test_zero_weight_index_never_chosen(self):
        s = RandomStream(15)
        draws = [s.categorical((0.3, 0.0, 0.7)) for _ in range(1000)]
        assert 1 not in draws

    def test_domain(self):
        with pytest.raises(ValueError):
            RandomStream(0).categorical((0.0, 0.0))
        with pytest.raises(ValueError):
            RandomStream(0).categorical((-0.5, 1.0))
        with pytest.raises(ValueError):
            RandomStream(0).categorical(())


class TestGammaDrawCap:
    @staticmethod
    def _uncapped(gen, shape, rate):
        """The draw-until-positive loop without a cap."""
        x = gen.gamma(shape, 1.0 / rate)
        while x <= 0.0:
            x = gen.gamma(shape, 1.0 / rate)
        return float(x)

    @pytest.mark.parametrize("shape", [1e-3, 1.0, 3.0, 50.0])
    def test_values_and_state_match_the_uncapped_loop(self, shape):
        for seed in range(1, 21):
            stream, ref = RandomStream(seed), RandomStream(seed)._gen
            for _ in range(50):
                assert stream.gamma(shape, 2.0) == self._uncapped(ref, shape, 2.0)
            assert stream._gen.bit_generator.state == ref.bit_generator.state

    def test_tiny_shape_raises_naming_the_parameters(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"shape=1e-320, rate=1\.0"):
            RandomStream(1).gamma(1e-320, 1.0)
        assert time.perf_counter() - start < 30.0

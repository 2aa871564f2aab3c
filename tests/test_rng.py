"""Determinism, distributional contracts, and domain errors of RandomStream."""

import math
import time

import numpy as np
import pytest
from scipy.stats import kstwo, norm

from gphazard.gamma_process import NormalBase
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

    # 1 - V for V ~ Beta(1, alpha) is Beta(alpha, 1), with mean alpha/(1 + alpha); where alpha
    # is small most draws of V round to 1 and are kept, so 1 - V is 0
    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_mean_of_one_minus_the_stick_at_small_alpha(self, alpha):
        n = 200_000
        w = 1.0 - RandomStream(1).betas(1.0, alpha, n)
        se = math.sqrt(alpha / ((1.0 + alpha) ** 2 * (2.0 + alpha)) / n)
        assert abs(w.mean() - alpha / (1.0 + alpha)) < 4.0 * se

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 1.0, 3.0])
    def test_ks_of_one_minus_the_stick_against_the_law_of_its_rounded_value(self, alpha):
        """V rounds to the nearest double, 2**-53 apart below 1, so 1 - V <= x, at each value
        it takes, has probability min(1, (x + 2**-54)**alpha) and 1 - V < x has (x - 2**-54)**alpha;
        0 has mass 2**(-54 alpha).  The limit is kstwo's at a false-alarm rate of 1e-3 for a
        continuous law; for this law, with its atom at 0, the rate is at most that."""
        n, half_gap = 10_000, 2.0**-54
        x = np.sort(1.0 - RandomStream(2).betas(1.0, alpha, n))
        i = np.arange(1, n + 1)
        at = np.minimum(1.0, (x + half_gap) ** alpha)
        below = np.maximum(0.0, x - half_gap) ** alpha
        d = max(np.max(i / n - at), np.max(below - (i - 1) / n))
        assert d < kstwo.isf(1e-3, n)

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


class TestNumpysDrawIsKept:
    """gamma, beta and exponential draws are numpy's scalar draws, 0 and 1 included: the
    same values, and the same generator state, with no redraw."""

    CASES = {  # the stream's draw and numpy's
        # about half of these round to 0
        "gamma-1e-3": (lambda s: s.gamma(1e-3, 2.0), lambda g: g.gamma(1e-3, 1.0 / 2.0)),
        "gamma-1": (lambda s: s.gamma(1.0, 2.0), lambda g: g.gamma(1.0, 1.0 / 2.0)),
        "gamma-3": (lambda s: s.gamma(3.0, 2.0), lambda g: g.gamma(3.0, 1.0 / 2.0)),
        "gamma-50": (lambda s: s.gamma(50.0, 2.0), lambda g: g.gamma(50.0, 1.0 / 2.0)),
        "beta-1-3": (lambda s: s.beta(1.0, 3.0), lambda g: g.beta(1.0, 3.0)),
        "beta-0.4-0.7": (lambda s: s.beta(0.4, 0.7), lambda g: g.beta(0.4, 0.7)),
        "beta-5-0.5": (lambda s: s.beta(5.0, 0.5), lambda g: g.beta(5.0, 0.5)),
        # about 69 % of these round to 1
        "beta-1-0.01": (lambda s: s.beta(1.0, 0.01), lambda g: g.beta(1.0, 0.01)),
        "exponential": (lambda s: s.exponential(3.0), lambda g: g.exponential(1.0 / 3.0)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_values_and_state_match_numpy(self, name):
        draw, numpy_draw = self.CASES[name]
        for seed in range(1, 21):
            stream, ref = RandomStream(seed), RandomStream(seed)._gen
            for _ in range(50):
                assert draw(stream) == float(numpy_draw(ref))
            assert stream._gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize(
        "draw, value",
        [
            (lambda: RandomStream(1).gamma(1e-320, 1.0), 0.0),
            (lambda: RandomStream(1).beta(1e-320, 1.0), 0.0),
            (lambda: RandomStream(1).betas(1e-320, 1.0, 3), 0.0),
            (lambda: RandomStream(1).betas(1.0, 1e-320, 3), 1.0),
        ],
        ids=["gamma", "beta", "betas", "betas-near-1"],
    )
    def test_tiny_parameters_draw_the_boundary(self, draw, value):
        np.testing.assert_array_equal(draw(), value)


class TestBlockDrawCap:
    """One capped top-up loop for the uniform and the normal base, whose laws reject."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: NormalBase(-50.0, 1.0).sample(RandomStream(1)),
            lambda: NormalBase(-50.0, 1.0).samples(3, RandomStream(1)),
        ],
        ids=["sample", "samples"],
    )
    def test_hopeless_parameters_raise_naming_them(self, call):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"NormalBase\(mean=-50\.0, sd=1\.0\) rejected"):
            call()
        assert time.perf_counter() - start < 2.0

    @staticmethod
    def _uncapped_normal_base(gen, mean, sd):
        x = float(gen.normal(mean, sd))
        while x < 0.0:
            x = float(gen.normal(mean, sd))
        return x

    @pytest.mark.parametrize("mean", [2.0, 0.0, -1.0])
    def test_normal_base_values_and_state_match_the_scalar_loop(self, mean):
        base = NormalBase(mean, 1.0)
        for seed in range(1, 21):
            stream, ref = RandomStream(seed), RandomStream(seed)._gen
            for _ in range(50):
                assert base.sample(stream) == self._uncapped_normal_base(ref, mean, 1.0)
            assert stream._gen.bit_generator.state == ref.bit_generator.state


class TestScalarDrawIsABlockOfOne:
    """A scalar draw's values and generator state match numpy's block of one."""

    CASES = {  # the stream's scalar draw, numpy's block of one, and the accepted values
        "uniform": (lambda s: s.uniform(), lambda g: g.random(1), lambda x: 0.0 < x < 1.0),
        "gamma": (lambda s: s.gamma(0.5, 2.0), lambda g: g.gamma(0.5, 1.0 / 2.0, 1),
                  lambda x: True),
        "beta": (lambda s: s.beta(0.4, 0.7), lambda g: g.beta(0.4, 0.7, 1), lambda x: True),
        "exponential": (lambda s: s.exponential(3.0), lambda g: g.exponential(1.0 / 3.0, 1),
                        lambda x: True),
        # rejects about five draws in six
        "normal base": (lambda s: NormalBase(-1.0, 1.0).sample(s), lambda g: g.normal(-1.0, 1.0, 1),
                        lambda x: x >= 0.0),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_values_and_state(self, name):
        scalar, block, accept = self.CASES[name]
        stream, ref = RandomStream(11), RandomStream(11)._gen
        expected = []
        for _ in range(10**4):
            x = block(ref)[0]
            while not accept(x):
                x = block(ref)[0]
            expected.append(float(x))
        assert [scalar(stream) for _ in range(10**4)] == expected
        assert stream._gen.bit_generator.state == ref.bit_generator.state

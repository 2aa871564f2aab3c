"""The one generator of atoms, weights, draws, models, times and records for the property tests.

It reaches ties and atoms at -0.0 and 0.0, K = 0 and 1, zero weights and weight ratios up to
1e20, defective models, and times at 0, a subnormal, the knots and one ulp either side, 1e300,
1e308 and inf.  A test whose assertion holds on part of it filters, and says why.
"""

import math

import numpy as np
from hypothesis import strategies as st

from gphazard.gamma_process import GammaProcessDraw
from gphazard.models import (DecreasingFailureRate, IncreasingFailureRate, LoWengBathtub,
                             LogConvexHazard, MixtureBathtub, SuperpositionBathtub)
from gphazard.validation import DEMO_SEED, demo_models

VARIANTS = ("ifr", "dfr", "lwb", "sbt", "mbt", "lcv")


def draw_of(pairs) -> GammaProcessDraw:
    """The draw whose atoms are the (location, weight) pairs."""
    return GammaProcessDraw.from_atoms([th for th, _ in pairs], [w for _, w in pairs])


# a small pool, so that ties and atoms at -0.0 and 0.0 come up often
thetas = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.6, 1.0, 1.5, 2.0, 2.5]) | st.floats(0.0, 10.0)
weights = (st.just(0.0) | st.floats(0.0, 5.0)
           | st.builds(lambda m, k: m * 10.0 ** k, st.floats(0.5, 2.0), st.integers(-20, 0)))
draws = st.lists(st.tuples(thetas, weights), max_size=12).map(draw_of)
levels = st.just(0.0) | st.floats(0.0, 10.0)  # lambda0 = 0: a defective dfr or mbt
slopes = st.floats(-3.0, 3.0)  # lcv's w0; below minus the mass, its tail decays


def model_of(variant, d1, d2, lambda0, *, a=1.0, pi=0.4, lambda02=None, w0=-0.5):
    """The model of ``variant`` on ``d1`` and, for sbt and mbt, ``d2``; mbt's second offset is
    ``lambda0`` unless given, and lcv's lambda0 is 1 where ``lambda0`` is 0."""
    return {
        "ifr": lambda: IncreasingFailureRate(lambda0, d1),
        "dfr": lambda: DecreasingFailureRate(lambda0, d1),
        "lwb": lambda: LoWengBathtub(lambda0, a, d1),
        "sbt": lambda: SuperpositionBathtub(lambda0, d1, d2),
        "mbt": lambda: MixtureBathtub(pi, lambda0, d1, lambda0 if lambda02 is None else lambda02,
                                      d2),
        "lcv": lambda: LogConvexHazard(lambda0 or 1.0, w0, d1),
    }[variant]()


@st.composite
def generated_models(draw, variants=VARIANTS):
    """A model of one of ``variants`` on generated draws and scalars; lwb's a sits below, at or
    among the atoms, and mbt's pi is 1 at times."""
    variant, d1, d2, lambda0 = (draw(st.sampled_from(variants)), draw(draws), draw(draws),
                                draw(levels))
    a = draw(st.sampled_from([0.0, -0.0, *d1.thetas.tolist()]) | st.floats(0.0, 4.0))
    pi = draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True))
    return model_of(variant, d1, d2, lambda0, a=a, pi=pi, lambda02=draw(levels), w0=draw(slopes))


# the ends of the mixture's range: offsets of 0, the smallest double and 1e308, and an atom of
# weight 1e308 (the most a finite total mass allows) among the generator's own
end_levels = st.sampled_from([0.0, 5e-324, 1e308])
end_draws = st.builds(lambda pairs, big: draw_of(pairs + big),
                      st.lists(st.tuples(thetas, weights), max_size=3),
                      st.lists(st.tuples(thetas, st.just(1e308)), max_size=1))


@st.composite
def mixtures_at_the_ends(draw):
    """An mbt whose offsets are each 0, the smallest double or 1e308, on draws with atoms of
    weight 1e308; pi is 1 or 1/2 at times."""
    pi = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.0, 1.0, exclude_min=True))
    return MixtureBathtub(pi, draw(end_levels), draw(end_draws), draw(end_levels), draw(end_draws))


def hazard_models(variants=VARIANTS):
    """A model of ``variants``: a demonstration model one time in five, else a generated one."""
    demo = st.sampled_from([demo_models(DEMO_SEED)[v] for v in variants])
    return st.one_of(demo, *[generated_models(variants)] * 4)


def time_grid(knots) -> np.ndarray:
    """The ends of the time axis, and each knot with the doubles either side of it (those >= 0)."""
    knots = np.asarray(knots, dtype=float)
    grid = np.concatenate(([-0.0, 0.0, 5e-324, 1e-300, 1e300, 1e308, math.inf], knots,
                           np.nextafter(knots, -math.inf), np.nextafter(knots, math.inf)))
    return grid[grid >= 0.0]


def times(knots, min_size=1):
    """Lists of up to 10 times from the grid of ``knots`` and from [0, 20]."""
    return st.lists(st.sampled_from(time_grid(knots).tolist()) | st.floats(0.0, 20.0),
                    min_size=min_size, max_size=10)


def models_and_times(variants=VARIANTS):
    """A generated model of ``variants``, and times at, beside and between its breakpoints."""
    return generated_models(variants).flatmap(
        lambda m: st.tuples(st.just(m), times(m.breakpoints())))


fractions = st.lists(st.floats(0.0, 1.0), max_size=8)  # of a scale of mbt's Newton targets
# record times: multiples of 1/4, so that ties come up often, and the smallest and largest doubles
record_times = (st.integers(1, 60).map(lambda i: i * 0.25) | st.floats(1e-3, 20.0)
                | st.sampled_from([5e-324, 1e300, 1e308]))
records = st.lists(st.tuples(record_times, st.booleans()), min_size=1, max_size=120)


@st.composite
def horizon_records(draw):
    """Times, observed flags and tau of 1-200 failure times censored at a horizon tau."""
    failures, tau = draw(st.lists(record_times, min_size=1, max_size=200)), draw(record_times)
    return [min(t, tau) for t in failures], [t <= tau for t in failures], tau

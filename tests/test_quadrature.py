"""The vectorised Gauss-Legendre quadrature behind validate's quadrature-consistency checks."""

import numpy as np
import pytest

from gphazard.gamma_process import GammaProcessDraw
from gphazard.models import LogConvexHazard
from gphazard.rng import RandomStream
from gphazard.validation import DEMO_SEED, DEMO_T_MAX, integrate_hazard

import _oracle

NAMES = ["ifr", "dfr", "lwb", "sbt", "mbt", "lcv"]


def _endpoints(model) -> np.ndarray:
    """0, a breakpoint itself, a point past the last atom, and points in between."""
    bps = model.breakpoints()
    inner = bps[(bps > 0.0) & (bps < 5.0)]
    return np.array([0.0, inner[inner.size // 2], bps[-1] + 0.5, 0.37, 1.9, 4.2])


class _Counting:
    """A model's hazard and breakpoints, counting the hazard calls and the points they take."""

    def __init__(self, model):
        self.model = model
        self.calls = 0
        self.points = 0

    def breakpoints(self):
        return self.model.breakpoints()

    def hazard(self, t):
        self.calls += 1
        self.points += np.size(t)
        return self.model.hazard(t)


class _Stub:
    """A hazard given as a function, with breakpoints at 1 and 2."""

    def __init__(self, fn):
        self.fn = fn

    def breakpoints(self):
        return np.array([1.0, 2.0])

    def hazard(self, t):
        return self.fn(np.asarray(t, dtype=float))


@pytest.mark.parametrize("name", NAMES)
def test_matches_quad_oracle(demo, name):
    model = demo[name]
    ends = _endpoints(model)
    numeric = integrate_hazard(model, ends)
    oracle = np.array([_oracle.quad_hazard(model, float(t)) for t in ends])
    exact = np.asarray(model.cum_hazard(ends))
    assert numeric[0] == 0.0
    np.testing.assert_allclose(numeric, oracle, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(numeric, exact, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", NAMES)
def test_array_equals_scalar_calls(demo, name):
    model = demo[name]
    ends = _endpoints(model)
    together = integrate_hazard(model, ends)
    assert isinstance(together, np.ndarray) and together.shape == ends.shape
    alone = np.array([integrate_hazard(model, float(t)) for t in ends])
    np.testing.assert_allclose(together, alone, rtol=1e-15, atol=0.0)
    grid = integrate_hazard(model, ends.reshape(2, 3))
    assert grid.shape == (2, 3)
    np.testing.assert_array_equal(grid.ravel(), together)


def test_scalar_returns_python_float(demo):
    for model in demo.values():
        assert type(integrate_hazard(model, 1.5)) is float
        assert type(integrate_hazard(model, np.float64(1.5))) is float
        assert integrate_hazard(model, 0.0) == 0.0


def test_steep_lcv_bisects_and_matches_closed_form():
    draw = GammaProcessDraw.from_atoms([2.0, 3.0], [1.5, 4.0])
    model = LogConvexHazard(1e-3, 25.0, draw)  # e^50 across the first 2-wide segment
    counting = _Counting(model)
    ends = np.array([1.0, 2.0, 3.5, 6.0])
    numeric = integrate_hazard(counting, ends)
    assert counting.calls > 2  # the first rule, then more than one bisection round
    np.testing.assert_allclose(numeric, np.asarray(model.cum_hazard(ends)), rtol=1e-12, atol=0.0)


def _validate_endpoints(demo) -> dict:
    """The 20 endpoints per model that validate's quadrature-consistency group integrates to."""
    stream = RandomStream(DEMO_SEED).split(99).split(4)
    return {name: stream.uniforms(20) * DEMO_T_MAX for name in demo}


@pytest.mark.parametrize("name", NAMES)
def test_each_segment_is_integrated_once(demo, name):
    """At most 30 points (the rule, then its halves once) per knot segment and per endpoint."""
    ends = _validate_endpoints(demo)[name]
    counting = _Counting(demo[name])
    numeric = integrate_hazard(counting, ends)
    bps = demo[name].breakpoints()
    segments = 1 + np.count_nonzero((bps > 0.0) & (bps < ends.max()))  # those starting below
    assert counting.points <= 30 * (segments + ends.size), (counting.points, segments)
    np.testing.assert_allclose(numeric, np.asarray(demo[name].cum_hazard(ends)), rtol=1e-12)


@pytest.mark.parametrize("name", NAMES)
def test_array_and_scalar_calls_agree_to_the_rule_s_rounding(demo, name):
    """An endpoint's integral does not depend on the other endpoints of its call, bit for bit.

    Each segment is integrated alone, the rule is summed node by node and the
    totals are prefix sums, so nothing rounds by the batch.
    """
    ends = np.concatenate((_validate_endpoints(demo)[name], _endpoints(demo[name])))
    together = integrate_hazard(demo[name], ends)
    alone = np.array([integrate_hazard(demo[name], float(t)) for t in ends])
    np.testing.assert_array_equal(_oracle.bits(together), _oracle.bits(alone))


@pytest.mark.parametrize("name", NAMES)
def test_edge_endpoints(demo, name):
    """0, a knot itself, duplicates, unsorted, past the last knot, empty and 2-d endpoints."""
    model = demo[name]
    bps = model.breakpoints()
    knot = float(bps[(bps > 0.0) & (bps < 3.0)][3])
    ends = np.array([2.5, 0.0, knot, 0.7, knot, float(bps[-1]) + 1.5, 2.5, 0.0, 0.7])
    numeric = integrate_hazard(model, ends)
    np.testing.assert_allclose(numeric, np.asarray(model.cum_hazard(ends)), rtol=1e-12, atol=0.0)
    assert numeric[1] == numeric[7] == 0.0
    assert numeric[2] == numeric[4] and numeric[0] == numeric[6] and numeric[3] == numeric[8]
    # the knot's integral is its whole segments, the same bits in a call that also goes past it
    assert integrate_hazard(model, knot) == numeric[2]
    empty = integrate_hazard(model, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    grid = integrate_hazard(model, ends.reshape(3, 3))
    assert grid.shape == (3, 3)
    np.testing.assert_array_equal(grid.ravel(), numeric)


def test_nan_hazard_raises():
    with pytest.raises(RuntimeError, match="not finite"):
        integrate_hazard(_Stub(lambda t: np.full(t.shape, np.nan)), 3.0)


def test_unlisted_jump_exhausts_the_round_cap():
    # a step at 0.3 that breakpoints() does not list never passes the halves test
    with pytest.raises(RuntimeError, match="did not converge"):
        integrate_hazard(_Stub(lambda t: np.where(t < 0.3, 1.0, 2.0)), 0.9)


@pytest.mark.parametrize("t_end", [-1.0, np.nan, np.inf, [1.0, -0.5]])
def test_bad_endpoint_raises(demo, t_end):
    with pytest.raises(ValueError, match="t_end"):
        integrate_hazard(demo["ifr"], t_end)


def test_validate_runs_without_scipy(probe):
    validate = probe["validate"]
    assert validate.returncode == 0, validate.stdout + validate.stderr
    assert "43 checks, 43 passed, 0 failed" in validate.stdout
    assert validate.stderr == ""
    assert [m for m in validate.loaded if m.split(".")[0] == "scipy"] == []

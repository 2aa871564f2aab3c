"""Distinct values from arrays already sorted: breakpoints, step skeletons, Kaplan-Meier steps.

Each site is compared bit for bit with an ``np.unique``-based reference
written here.  The one value ``np.unique`` leaves open is the sign of a zero
knot when the atoms hold both -0.0 and 0.0.  The package keeps the first zero
of the sorted atoms: for one draw the first in atom order, for lwb its ``a``,
and for the two-draw models whichever zero the sort puts first.  These tests
pin the sign where it is fixed and show that no level, hazard, cumulative
hazard or inverse depends on it.
"""

import math
import warnings
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings

from _oracle import bits as _bits
from _probe import COMMANDS
from _strategies import (draw_of, draws, fractions, generated_models, levels, model_of,
                         models_and_times, records, slopes, time_grid)
from gphazard.datasets import Dataset
from gphazard.gamma_process import GammaProcessDraw, _distinct
from gphazard.models import (
    DecreasingFailureRate,
    IncreasingFailureRate,
    LoWengBathtub,
    LogConvexHazard,
    MixtureBathtub,
    SuperpositionBathtub,
    _MixtureTable,
    _Skeleton,
    model_to_dict,
    simulate_dataset,
)
from gphazard.rng import RandomStream
from gphazard.stats import kaplan_meier
from gphazard.validation import _GL_NODES, _GL_WEIGHTS, demo_models


class TestDistinct:
    @pytest.mark.parametrize("values", [[], [2.0], [1.0, 1.0, 1.0], [0.0, 0.5, 0.5, 2.0, 3.0, 3.0],
                                        [-1.0, 0.25, 7.0]])
    def test_values_and_run_ends(self, values):
        arr = np.array(values, dtype=float)
        distinct, run_ends = _distinct(arr)
        expected, counts = np.unique(arr, return_counts=True)
        np.testing.assert_array_equal(_bits(distinct), _bits(expected))
        np.testing.assert_array_equal(run_ends, np.cumsum(counts))
        assert run_ends.dtype == np.intp

    @pytest.mark.parametrize("zeros", [[-0.0, 0.0], [0.0, -0.0, -0.0]])
    def test_a_run_keeps_its_first_zero(self, zeros):
        distinct, run_ends = _distinct(np.array(zeros + [1.0]))
        assert np.signbit(distinct[0]) == np.signbit(zeros[0])
        np.testing.assert_array_equal(run_ends, [len(zeros), len(zeros) + 1])


def _assert_distinct_equal(new, reference, zero):
    """``new`` is ``reference`` bit for bit, but for a zero, which carries the sign of ``zero``.

    ``zero`` is None where the sign is left open.
    """
    np.testing.assert_array_equal(new, reference)  # equal values, -0.0 == 0.0
    nonzero = reference != 0.0
    np.testing.assert_array_equal(_bits(new[nonzero]), _bits(reference[nonzero]))
    if zero is not None:
        assert np.signbit(new[~nonzero]).tolist() == [np.signbit(zero)]


def _reference_breakpoints(model) -> np.ndarray:
    """The breakpoints as ``np.unique`` gives them."""
    if isinstance(model, LoWengBathtub):
        th, a = model.draw.thetas, model.a
        return np.unique(np.concatenate((a - th[th < a], [a], a + th)))
    doc = model_to_dict(model)
    # a pi = 1 mixture is its decreasing component: the second draw's atoms move nothing
    keys = ("draw1",) if doc.get("pi") == 1.0 else ("draw", "draw1", "draw2")
    return np.unique(np.concatenate([np.asarray(doc[k]["thetas"], dtype=float)
                                     for k in keys if k in doc]))


def _zero_of(model):
    """The zero a zero knot equals bit for bit, None if there is none or its sign is open."""
    if isinstance(model, LoWengBathtub):  # a - theta > 0 and a + theta >= a: a zero knot is a
        return model.a if model.a == 0.0 else None
    if isinstance(model, (SuperpositionBathtub, MixtureBathtub)):
        return None
    return next((x for x in model.draw.thetas if x == 0.0), None)  # ties keep the atoms' order


class TestBreakpointsProperty:
    @settings(max_examples=300, deadline=None)
    @given(generated_models())
    @example(IncreasingFailureRate(0.1, draw_of([(0.0, 0.5), (-0.0, 0.5), (1.0, 0.5)])))
    @example(IncreasingFailureRate(0.1, draw_of([(-0.0, 0.5), (0.0, 0.5), (0.0, 0.5)])))
    @example(SuperpositionBathtub(0.1, draw_of([(1.0, 0.5), (0.0, 0.5)]), draw_of([(-0.0, 0.5)])))
    @example(LoWengBathtub(0.1, -0.0, draw_of([(0.0, 0.5), (0.6, 0.5), (0.6, 0.5)])))
    @example(LoWengBathtub(0.1, 0.6, draw_of([(0.25, 0.5), (0.6, 0.5), (1.0, 0.5)])))
    @example(DecreasingFailureRate(0.1, draw_of([])))
    @example(LogConvexHazard(1.0, -1.0, draw_of([(2.0, 1.0)])))
    def test_equal_np_unique(self, model):
        _assert_distinct_equal(model.breakpoints(), _reference_breakpoints(model), _zero_of(model))

    @settings(max_examples=300, deadline=None)
    @given(models_and_times(("ifr", "dfr", "lwb", "sbt")))
    @example((IncreasingFailureRate(0.1, draw_of([(0.0, 0.5), (-0.0, 0.5), (1.0, 0.5)])), []))
    @example((DecreasingFailureRate(0.1, draw_of([(-0.0, 0.5), (0.0, 0.5), (2.0, 0.5)])), []))
    @example((LoWengBathtub(0.1, -0.0, draw_of([(0.0, 0.5), (-0.0, 0.5), (0.6, 0.5)])), []))
    @example((SuperpositionBathtub(0.1, draw_of([(0.0, 0.5), (1.0, 0.5)]), draw_of([(-0.0, 0.5)])),
              []))
    def test_step_skeleton_equals_the_reference(self, case):
        """Knots, levels and knot values bit for bit; no lookup or inverse sees a zero's sign."""
        model, ts = case
        knots = np.unique(np.concatenate(([0.0], _reference_breakpoints(model))))
        reference = _Skeleton(knots, np.zeros(knots.size), _searched_step_levels(model, knots))
        skeleton = model._skeleton
        _assert_distinct_equal(skeleton.knots, knots, _zero_of(model))
        np.testing.assert_array_equal(_bits(skeleton.coeffs), _bits(reference.coeffs))
        np.testing.assert_array_equal(_bits(skeleton.values), _bits(reference.values))
        probes = np.concatenate((time_grid(knots), ts))
        for got, want in zip(skeleton._locate(probes), reference._locate(probes)):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        targets = np.concatenate(([0.0, 0.5, 3.0], reference.values))
        np.testing.assert_array_equal(_bits(skeleton.invert(targets)),
                                      _bits(reference.invert(targets)))


def _on_one_draw(*models) -> list:
    """The models, an mbt as its two components: each reads its levels from one draw."""
    return [c for m in models for c in (m.components if isinstance(m, MixtureBathtub) else [m])]


def _searched_levels(model, knots):
    """coeffs and log_coeffs at ``knots`` from the atoms at or below each, searched in the draw."""
    draw = model.draw
    j = draw._count_below(knots)
    if isinstance(model, LogConvexHazard):
        lead = model.w0 * knots + draw._integrated0[j]
        return model.lambda0 * np.exp(lead), math.log(model.lambda0) + lead
    coeffs = model.lambda0 + (draw._mass0 if isinstance(model, IncreasingFailureRate)
                              else draw._above0)[j]
    with np.errstate(divide="ignore"):  # a zero level has log -inf
        return coeffs, np.log(coeffs)


def _searched_step_levels(model, knots):
    """A step model's levels at ``knots``, from the atoms each knot's level counts, searched."""
    if isinstance(model, (IncreasingFailureRate, DecreasingFailureRate)):
        return _searched_levels(model, knots)[0]
    if isinstance(model, SuperpositionBathtub):
        d1, d2 = model.draw_decreasing, model.draw_increasing
        j1, j2 = d1._count_below(knots), d2._count_below(knots)
        return model.lambda0 + d1._above0[j1] + d2._mass0[j2]
    # lwb: before a, the atoms whose knot a - theta lies above it; from a on, those whose
    # knot a + theta does not
    th = model.draw.ordered.thetas
    down, up = model.a - th[th < model.a], model.a + th
    above = down.size - np.searchsorted(down[::-1], knots, "right")
    j = np.where(knots < model.a, above, np.searchsorted(up, knots, "right"))
    return model.draw._mass0[j] + model.lambda0


# ties, an atom at exactly 0 (and at -0.0), K = 1 and no atoms
_KNOT_DRAWS = {
    "ties": GammaProcessDraw.from_atoms([1.0, 0.5, 1.0, 2.0, 0.5], [0.3, 0.2, 0.7, 0.1, 0.4]),
    "zero-atom": GammaProcessDraw.from_atoms([0.0, 1.5, 0.0, 0.7], [0.5, 0.25, 0.125, 1.0]),
    "signed-zeros": GammaProcessDraw.from_atoms([-0.0, 0.0, 2.0], [0.5, 0.25, 1.0]),
    "k1": GammaProcessDraw.from_atoms([0.8], [1.3]),
    "k1-zero": GammaProcessDraw.from_atoms([0.0], [1.3]),
    "no-atoms": GammaProcessDraw.from_atoms([], []),
}


class TestKnotCountsFromTheDraw:
    """One-draw models read their knots and knot counts from the draw, with no search."""

    @staticmethod
    def _assert_levels_equal_the_search(model):
        skeleton = model._skeleton
        knots = np.unique(np.concatenate(([0.0], model.draw.thetas)))
        _assert_distinct_equal(skeleton.knots, knots, _zero_of(model))
        coeffs, log_coeffs = _searched_levels(model, skeleton.knots)
        np.testing.assert_array_equal(_bits(skeleton.coeffs), _bits(coeffs))
        np.testing.assert_array_equal(_bits(skeleton.log_coeffs), _bits(log_coeffs))

    @pytest.mark.parametrize("first", list(_KNOT_DRAWS))
    def test_levels_equal_the_searched_counts(self, first, monkeypatch):
        g1 = _KNOT_DRAWS[first]
        models = _on_one_draw(IncreasingFailureRate(0.1, g1), DecreasingFailureRate(0.0, g1),
                              LogConvexHazard(2.0, -1.5, g1),
                              MixtureBathtub(0.4, 0.1, g1, 0.0, _KNOT_DRAWS["ties"]))
        with monkeypatch.context() as patch:  # building the skeletons searches no atom
            patch.setattr(GammaProcessDraw, "_count_below", None)
            for model in models:
                model._skeleton
        for model in models:
            self._assert_levels_equal_the_search(model)

    @settings(max_examples=200, deadline=None)
    @given(draws, draws, levels, levels, slopes)
    def test_levels_equal_the_searched_counts_on_generated_atoms(self, g1, g2, lambda0, lambda02,
                                                                 w0):
        for model in _on_one_draw(*(model_of(v, g1, g2, lambda0, lambda02=lambda02, w0=w0)
                                    for v in ("ifr", "dfr", "lcv", "mbt"))):
            self._assert_levels_equal_the_search(model)

    def test_models_on_one_draw_share_its_read_only_knots(self, demo):
        draw = demo["ifr"].draw
        knots, counts = draw._knots
        assert not knots.flags.writeable and not counts.flags.writeable
        for model in (demo["ifr"], demo["dfr"], demo["lcv"], demo["mbt"].components[0]):
            assert model._skeleton.knots is knots
        np.testing.assert_array_equal(counts, draw._count_below(knots))


def _reference_kaplan_meier(dataset: Dataset):
    """The product-limit estimate with its event times and deaths from ``np.unique``."""
    obs, cens = dataset._ascending
    event_times, deaths = np.unique(obs, return_counts=True)
    if event_times.size == 0:
        return event_times, event_times
    at_risk = (dataset.n - np.searchsorted(obs, event_times, side="left")
               - np.searchsorted(cens, event_times, side="left"))
    after = at_risk - deaths
    starts = np.concatenate(([True], at_risk[1:] != after[:-1]))
    run = np.cumsum(starts) - 1
    within = after / at_risk[starts][run]
    ends = np.append(np.flatnonzero(starts)[1:] - 1, event_times.size - 1)
    before = np.concatenate(([1.0], np.cumprod(within[ends])[:-1]))
    return event_times, before[run] * within


class TestKaplanMeierProperty:
    @settings(max_examples=300, deadline=None)
    @given(records)
    @example([(1.0, True), (1.0, True), (1.0, False), (2.0, True)])
    @example([(1.0, False), (2.0, False)])
    @example([(0.5, True)])
    def test_equal_np_unique(self, records):
        data = Dataset.from_records(records)
        km = kaplan_meier(data)
        times, values = _reference_kaplan_meier(data)
        np.testing.assert_array_equal(_bits(km.breakpoints), _bits(times))
        np.testing.assert_array_equal(_bits(km.values), _bits(values))

    @pytest.mark.parametrize("name", ["ifr", "lwb", "mbt"])
    def test_tied_simulated_times(self, demo, name):
        times = simulate_dataset(demo[name], 3000, 3.0, RandomStream(5))
        tied = Dataset(times=np.maximum(np.round(times.times, 1), 0.1), observed=times.observed,
                       tau=3.0)
        km = kaplan_meier(tied)
        expected = _reference_kaplan_meier(tied)
        assert km.breakpoints.size < tied.n_observed  # the rounding tied the times
        np.testing.assert_array_equal(_bits(km.breakpoints), _bits(expected[0]))
        np.testing.assert_array_equal(_bits(km.values), _bits(expected[1]))


def _target_segments(kvals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each target's pooled segment: the last knot whose value is below it, or the first knot
    whose value equals it."""
    j = np.maximum(np.searchsorted(kvals, x, side="right") - 1, 0)
    return np.where(x == kvals[j], np.searchsorted(kvals, x, side="left"), j)


def _full_array_newton(model: MixtureBathtub, x: np.ndarray) -> np.ndarray:
    """The mixture's Newton inverse with every target evaluated in every round.

    Newton runs on the increment of each target's table segment, in t from
    the segment's knot.  No step passes the segment's end (past the last
    knot, the largest double), and a step lost to rounding moves one double.
    It starts one double past the knot where the first step is lost to
    rounding, and a target that start already reaches gives the knot.  A
    target stops once the increment reaches it, or once a round neither
    narrows its gap nor doubles its step.  Where the hazard is below the
    normal range the step comes from the logs.  A target at a knot value,
    the limit included where H takes it at its last knot, starts at the
    first knot that has it.  A target above H at the largest double gives
    inf without Newton.
    """
    table = model._skeleton
    knots, kvals, limit = table.knots, table.values, table.limit
    top = math.nextafter(limit, math.inf) if kvals[-1] == limit < math.inf else limit
    above = x > model.cum_hazard(np.finfo(float).max)
    out = np.where((x >= top) | above, np.inf, 0.0)
    live = (x > 0.0) & (x < top) & ~above
    xs = x[live]
    j = _target_segments(kvals, xs)
    start, end = knots[j], np.append(knots[1:], np.finfo(float).max)[j]
    excess = xs - kvals[j]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lost = (start + excess / table.hazard(j, start) == start) & (excess > 0.0)
    t = np.where(lost, np.nextafter(start, np.inf), start)
    gap, last = np.full(xs.size, np.inf), np.zeros(xs.size)
    for _ in range(100):
        lam = table.hazard(j, t)
        resid = excess - table._increment(itemgetter(j), t, t - start)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = np.where(lam < np.finfo(float).tiny,
                            np.exp(np.log(resid) - table._log_hazard(j, t)), resid / lam)
        going = (resid > 0.0) & ((resid < gap) | (0.5 * step > last))
        if not going.any():
            break
        gap[going], last[going] = resid[going], step[going]
        with np.errstate(over="ignore"):
            t[going] = np.minimum(np.maximum(t[going] + step[going],
                                             np.nextafter(t[going], np.inf)), end[going])
    else:
        raise RuntimeError("no convergence")
    out[live] = np.where(gap < np.inf, t, start)
    return out


class TestNewtonOnLiveTargets:
    @pytest.mark.parametrize("seed", [20250812, 7, 1])
    @pytest.mark.parametrize("n", [1, 5, 1000, 12000])
    def test_bits_equal_the_full_array_loop(self, seed, n):
        models = demo_models(seed)
        mbt = models["mbt"]
        defective = MixtureBathtub(0.3, 0.0, mbt.draw1, 0.1, mbt.draw2)
        for model in (mbt, defective):
            scale = min(float(model.cum_hazard(8.0)), 1.2 * model.cum_hazard_limit())
            x = RandomStream(seed).split(n).uniforms(n) * scale
            for targets in (x, np.sort(x)):
                np.testing.assert_array_equal(_bits(model.invert_cum_hazard(targets)),
                                              _bits(_full_array_newton(model, targets)))

    @staticmethod
    def _assert_bits_at_and_beside_the_knot_values(model, extra=()):
        """Targets at each pooled knot value, one ulp above and below it, and ``extra``."""
        knots, kvals = model._skeleton.knots, model._skeleton.values
        x = np.concatenate((kvals, np.nextafter(kvals, np.inf), np.nextafter(kvals, -np.inf),
                            extra))
        x = x[x >= 0.0]
        t = model.invert_cum_hazard(x)
        np.testing.assert_array_equal(_bits(t), _bits(_full_array_newton(model, x)))
        # each live inverse lies in its target's table segment [knot, next knot]
        j = _target_segments(kvals, x)
        live = (x > 0.0) & (t < np.inf)
        assert np.all(knots[j][live] <= t[live]), x[live][knots[j][live] > t[live]]
        past = t[live] > np.append(knots[1:], np.inf)[j][live]
        assert not past.any(), (x[live][past], t[live][past])

    @pytest.mark.parametrize("variant", ["demo", "defective-dfr", "pi-one"])
    def test_bits_at_and_beside_the_knot_values(self, demo, variant):
        mbt = demo["mbt"]
        model = {
            "demo": mbt,
            "defective-dfr": MixtureBathtub(0.3, 0.0, mbt.draw1, 0.1, mbt.draw2),
            "pi-one": MixtureBathtub(1.0, 0.1, mbt.draw1, 0.1, mbt.draw2),
        }[variant]
        self._assert_bits_at_and_beside_the_knot_values(model)

    @settings(max_examples=300, deadline=None)
    @given(generated_models(("mbt",)), fractions)
    @example(MixtureBathtub(0.4, 0.1, draw_of([(0.5, 0.7), (0.5, 0.7), (1.0, 0.7)]), 0.2,
                            draw_of([(1.0, 1.4), (1.0, 1.4), (2.0, 1.4)])), [0.5])
    @example(MixtureBathtub(0.4, 0.0, draw_of([]), 0.2, draw_of([(0.6, 2.6), (0.6, 2.6)])), [0.9])
    # one ulp below the knot value at 0.47, rounding carries the iterate past the knot
    @example(MixtureBathtub(0.9, 0.1, draw_of([]), 0.2, draw_of([(0.47, 2.14)])), [])
    # the decreasing component's level is inf below t = 1, so H jumps by log 2 just past 0
    @example(MixtureBathtub(0.5, 1e308, draw_of([(1.0, 1e308)]), 1e308, draw_of([(1.0, 1e308)])),
             [0.5])
    def test_bits_on_generated_draws_with_ties(self, model, fractions):
        """Targets at fractions of a scale, and the cumulative hazard on the time grid."""
        scale = min(float(model.cum_hazard(5.0)), 1.2 * model.cum_hazard_limit())
        extra = np.concatenate((np.array(fractions) * scale,
                                model.cum_hazard(time_grid(model.breakpoints()))))
        self._assert_bits_at_and_beside_the_knot_values(model, extra)

    def test_an_underflowing_hazard(self):
        model = MixtureBathtub(0.5, 0.0, draw_of([]), 5e-324, draw_of([]))  # hazard 0.5 * 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.invert_cum_hazard(5e-324) == pytest.approx(2.0, rel=1e-12)

    def test_a_target_at_h_of_the_largest_double_where_the_hazard_is_subnormal(self):
        """The step 6e-16 / 5e-324 leaves the double range; a finite time reaches the target."""
        d = GammaProcessDraw.from_atoms([0.27034639947035694], [1e300])
        model = MixtureBathtub(0.5, 5e-324, d, 5e-324, draw_of([]))
        x = model.cum_hazard(np.finfo(float).max)
        t = model.invert_cum_hazard(x)
        assert math.isfinite(t) and model.cum_hazard(t) == x

    def test_a_target_above_a_jump_at_an_infinite_hazard(self):
        """The decreasing component's level is inf below t = 1, so H jumps by log 2 just past
        t = 0 and then rises as 1e308 t: 0.5 lies inside the jump, 1e307 above it."""
        d = GammaProcessDraw.from_atoms([1.0], [1e308])
        model = MixtureBathtub(0.5, 1e308, d, 1e308, d)
        t = model.invert_cum_hazard(1e307)
        assert t == pytest.approx(0.1, rel=1e-15) and model.cum_hazard(t) == 1e307
        assert model.invert_cum_hazard(0.5) == 0.0
        x = np.array([1e307, 0.5])
        np.testing.assert_array_equal(_bits(model.invert_cum_hazard(x)),
                                      _bits([model.invert_cum_hazard(v) for v in x]))

    def test_each_component_is_searched_once_per_model(self, demo):
        """The table is built from one search of each component's knots, for the pooled
        knots; its cumulative hazard and its Newton loop search no component's knots."""

        class CountedKnots(np.ndarray):
            searches = 0

            def searchsorted(self, *args, **kwargs):
                CountedKnots.searches += 1
                return np.asarray(self).searchsorted(*args, **kwargs)

        mbt = demo["mbt"]
        model = MixtureBathtub(mbt.pi, mbt.lambda01, mbt.draw1, mbt.lambda02, mbt.draw2)
        for component in model.components:
            component._skeleton.knots = component._skeleton.knots.view(CountedKnots)
        CountedKnots.searches = 0
        x = RandomStream(3).uniforms(1000) * float(model.cum_hazard(8.0))
        expected = _full_array_newton(MixtureBathtub(mbt.pi, mbt.lambda01, mbt.draw1,
                                                     mbt.lambda02, mbt.draw2), x)
        np.testing.assert_array_equal(_bits(model.invert_cum_hazard(x)), _bits(expected))
        assert CountedKnots.searches == 2  # one per component, for the pooled knots
        model.invert_cum_hazard(x[::-1])
        assert CountedKnots.searches == 2

    def test_newton_starts_from_the_knot_table(self, demo, monkeypatch):
        """The first Newton step reads the hazard at each start knot from the table, where the
        increment is 0, so the loop evaluates no start knot whose hazard is finite."""
        mbt = demo["mbt"]
        x = RandomStream(3).uniforms(10_000) * float(mbt.cum_hazard(8.0))
        knots = mbt._skeleton.knots
        j = _target_segments(mbt._skeleton.values, x)
        starts = np.unique(knots[j][mbt.hazard(knots[j]) < np.inf])
        expected = _full_array_newton(mbt, x)
        points = []
        pair = _MixtureTable._pair

        def counted(self, seg, t):
            points.append(np.array(t, dtype=float).ravel())
            return pair(self, seg, t)

        monkeypatch.setattr(_MixtureTable, "_pair", counted)
        np.testing.assert_array_equal(_bits(mbt.invert_cum_hazard(x)), _bits(expected))
        points = np.concatenate(points)
        assert starts.size > 1 and points.size > 0
        assert not np.isin(points, starts).any(), np.count_nonzero(np.isin(points, starts))


class TestGaussLegendreConstants:
    def test_equal_leggauss_bit_for_bit(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(10)
        np.testing.assert_array_equal(_bits(_GL_NODES), _bits(nodes))
        np.testing.assert_array_equal(_bits(_GL_WEIGHTS), _bits(weights))


# The probe process records which modules it has loaded after each CLI command.
@pytest.mark.parametrize("command", list(COMMANDS))
def test_no_command_loads_numpy_ma_or_polynomial(probe, command):
    record = probe[command]
    assert record.returncode == 0, record.stderr
    assert [m for m in ("numpy.ma", "numpy.polynomial") if m in record.loaded] == []

"""A 60-digit ``decimal`` evaluation of the ifr, dfr, sbt and lcv hazards from a draw's atoms alone.

A test-only reference: it reads each draw's (location, weight) pairs and the
model's scalars, and nothing the package builds from them (no sorted view,
prefix sum, table, knot or level).  Every float converts to ``Decimal``
exactly, so the only rounding is the context's, at 60 digits.
"""

import bisect
import decimal
import itertools
import math

import numpy as np

D = decimal.Decimal

# no Overflow trap: a hazard past the decimal range is Infinity, which is also the
# float hazard's correctly rounded value
_CONTEXT = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                           traps=[decimal.InvalidOperation, decimal.DivisionByZero])


def _atoms(draw):
    return [(D(th), D(w)) for th, w in zip(draw.thetas.tolist(), draw.weights.tolist())]


def _at_or_below(draw, x):
    return sum((w for th, w in _atoms(draw) if th <= x), D(0))


def _above(draw, x):
    return sum((w for th, w in _atoms(draw) if th > x), D(0))


def lcv_log_terms(model, ts) -> list[tuple[decimal.Decimal, decimal.Decimal]]:
    """lcv's log hazard over lambda0, ``w0 t + sum_k w_k max(t - theta_k, 0)``, and its slope
    from t on, ``w0`` plus the mass at or below t, at each time of ``ts``.

    The atoms are sorted here and summed into prefix masses and moments, and
    the integrated mass is ``mass * t - moment``.  A t above an atom lies at
    least 2^-53 t past it, so that difference loses at most 16 of the 60
    digits.
    """
    with decimal.localcontext(_CONTEXT):
        atoms = sorted(_atoms(model.draw))
        thetas = [th for th, _ in atoms]
        mass = list(itertools.accumulate((w for _, w in atoms), initial=D(0)))
        moment = list(itertools.accumulate((w * th for th, w in atoms), initial=D(0)))
        w0, out = D(model.w0), []
        for x in map(D, ts):
            below, at_or_below = bisect.bisect_left(thetas, x), bisect.bisect_right(thetas, x)
            out.append((w0 * x + mass[below] * x - moment[below], w0 + mass[at_or_below]))
        return out


def hazard(model, t: float) -> decimal.Decimal:
    """The model's hazard at t: ifr, dfr and sbt from the atom masses, lcv from its log hazard."""
    with decimal.localcontext(_CONTEXT):
        x, lambda0 = D(t), D(model.lambda0)
        if model.variant == "ifr":
            return lambda0 + _at_or_below(model.draw, x)
        if model.variant == "dfr":
            return lambda0 + _above(model.draw, x)
        if model.variant == "sbt":
            d1, d2 = model.draw_decreasing, model.draw_increasing
            return lambda0 + _above(d1, x) + _at_or_below(d2, x)
        if model.variant == "lcv":
            return lambda0 * lcv_log_terms(model, [t])[0][0].exp()
        raise ValueError(f"no oracle for {model.variant}")


def error_ulp(got: float, exact: decimal.Decimal) -> float:
    """|got - exact| in units of the last place of ``exact`` rounded to a double.

    0 where both are infinite, inf where only one is.
    """
    nearest = float(exact)
    if math.isinf(nearest) or math.isinf(got):
        return 0.0 if got == nearest else math.inf
    with decimal.localcontext(_CONTEXT):
        return float(abs(D(got) - exact) / D(float(np.spacing(abs(nearest)))))

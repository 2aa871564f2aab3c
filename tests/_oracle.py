"""A 60-digit ``decimal`` evaluation of the ifr, dfr, sbt and lcv hazards, and of lcv's cumulative
hazard, from a draw's atoms alone; and the tests' other references, QUADPACK and bits.

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
from scipy.integrate import quad

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


def lcv_cum_hazard(model, t: float) -> decimal.Decimal:
    """lcv's cumulative hazard at t, summed over the segments between the distinct atoms below t.

    On a segment from ``a`` with log hazard ``log(lambda0) + lead`` there and
    log-slope ``r``, the hazard integrates to ``lambda0 e^lead (e^(r dt) - 1) / r``,
    or ``lambda0 e^lead dt`` where r is 0.  ``e^x - 1`` loses as many of the
    60 digits as ``x`` has leading zeros, which leaves 40 for ``|x|`` down to
    1e-20.
    """
    with decimal.localcontext(_CONTEXT):
        x, lambda0 = D(t), D(model.lambda0)
        cuts = sorted({th for th, _ in _atoms(model.draw) if th < x} | {D(0)})
        total = D(0)
        for (lead, rate), a, b in zip(lcv_log_terms(model, [float(c) for c in cuts]), cuts,
                                      cuts[1:] + [x]):
            scale = ((rate * (b - a)).exp() - 1) / rate if rate else b - a
            total += lambda0 * lead.exp() * scale
        return total


def error_ulp(got: float, exact: decimal.Decimal) -> float:
    """|got - exact| in units of the last place of ``exact`` rounded to a double.

    0 where both are infinite, inf where only one is.
    """
    nearest = float(exact)
    if math.isinf(nearest) or math.isinf(got):
        return 0.0 if got == nearest else math.inf
    with decimal.localcontext(_CONTEXT):
        return float(abs(D(got) - exact) / D(float(np.spacing(abs(nearest)))))


def quad_hazard(model, t_end: float) -> float:
    """QUADPACK on each segment between breakpoints, one scalar hazard call per node."""
    pts = model.breakpoints()
    pts = pts[(pts > 0.0) & (pts < t_end)]
    edges = np.concatenate(([0.0], pts, [t_end]))
    return sum(
        quad(lambda s: float(model.hazard(s)), lo, hi, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
        if hi > lo
    )


def bits(x) -> np.ndarray:
    """The doubles of ``x`` as their bit patterns, which compare equal only bit for bit."""
    return np.asarray(x, dtype=float).view(np.uint64)

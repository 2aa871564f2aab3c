"""A 60-digit ``decimal`` evaluation of the ifr, dfr, sbt, mbt and lcv hazards, and of lcv's and
mbt's cumulative hazards, from a draw's atoms alone; and the tests' other references, QUADPACK and
bits.

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


def mbt_terms(model, ts) -> list:
    """The mixture's components at each time of ``ts``: their hazards (h1, h2), cumulative
    hazards (L1, L2) with L_i = h_i t + b_i, and d = L1 - L2; None for d where both L_i are inf
    (at t = inf, an L_i of positive level is inf).

    Each draw's atoms are sorted here and summed into prefix masses and
    moments.  The sums and products run at 700 digits, past the span of the
    doubles, so they are exact, and d keeps what a difference of rounded L_i
    would lose (d is 1 where both are 1e300).
    """
    with decimal.localcontext(_CONTEXT) as ctx:
        ctx.prec = 700
        prefix = []
        for draw in (model.draw1, model.draw2):
            atoms = sorted(_atoms(draw))
            prefix.append(([th for th, _ in atoms],
                           list(itertools.accumulate((w for _, w in atoms), initial=D(0))),
                           list(itertools.accumulate((w * th for th, w in atoms), initial=D(0)))))
        (th1, mass1, moment1), (th2, mass2, moment2) = prefix
        out = []
        for x in map(D, ts):
            k1, k2 = bisect.bisect_right(th1, x), bisect.bisect_right(th2, x)
            h1 = D(model.lambda01) + mass1[-1] - mass1[k1]  # the atoms above t
            h2 = D(model.lambda02) + mass2[k2]  # the atoms at or below t
            b1, b2 = moment1[k1], -moment2[k2]
            if x.is_infinite():
                l1, l2 = (D("Infinity") if h else b for h, b in ((h1, b1), (h2, b2)))
                both = l1.is_infinite() and l2.is_infinite()
                out.append(((h1, h2), (l1, l2), None if both else l1 - l2))
            else:
                out.append(((h1, h2), (h1 * x + b1, h2 * x + b2), (h1 - h2) * x + (b1 - b2)))
        return out


def _expm1(x: decimal.Decimal) -> decimal.Decimal:
    """e^x - 1, by its series where |x| <= 0.5, which keeps its digits as x nears 0."""
    if abs(x) > D("0.5"):
        return x.exp() - 1
    term, total, k = x, x, 1
    while abs(term) > abs(total) * D("1e-70"):
        k += 1
        term = term * x / k
        total += term
    return total


def mbt_cum_hazard(model, ts) -> list:
    """The mixture's cumulative hazard -log(pi e^-L1 + (1 - pi) e^-L2) at each time of ``ts``.

    It is the lower L_i minus ``log1p(z)``, with z the other component's
    weight times ``expm1(-|d|)``.  For |z| <= 1/2 that is ``sum_k (-z)^k / k``,
    a sum of positive terms, with ``expm1`` from its series near 0, so H
    keeps 60 digits however small it is; else the log of the sum of the
    weighted survivals over the larger one, all positive.
    """
    out = []
    for _, (l1, l2), d in mbt_terms(model, ts):
        with decimal.localcontext(_CONTEXT):
            pi = D(model.pi)
            if d is None:  # both L_i are inf
                out.append(D("Infinity"))
                continue
            if pi == 1:
                out.append(l1)
                continue
            low, w, other, e = (l1, pi, 1 - pi, d) if d <= 0 else (l2, 1 - pi, pi, -d)
            z = other * _expm1(e)
            if z < D("-0.5"):
                out.append(low - (w + other * e.exp()).ln())
                continue
            term, total, k = -z, -z, 1
            while term > total * D("1e-70"):
                term *= -z
                k += 1
                total += term / k
            out.append(low + total)
    return out


def hazard(model, t: float) -> decimal.Decimal:
    """The model's hazard at t: ifr, dfr and sbt from the atom masses, mbt from its components'
    weights, lcv from its log hazard."""
    if model.variant == "mbt":
        (h1, h2), _, d = mbt_terms(model, [t])[0]
        with decimal.localcontext(_CONTEXT):
            pi = D(model.pi)
            if d is None or pi == 1:  # the weights' limit: the lower hazard of a weighted one
                return h1 if pi == 1 else min(h1, h2)
            # the weights over the larger survival, from e^-|d| <= 1
            s1, s2 = (pi, (1 - pi) * d.exp()) if d <= 0 else (pi * (-d).exp(), 1 - pi)
            return (s1 * h1 + s2 * h2) / (s1 + s2)
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

"""What counts as valid input; this module imports no other gphazard module, so all can use it."""

from __future__ import annotations

import math
import numbers
from dataclasses import fields

import numpy as np

_DOMAINS = {  # each domain's test, which NaN fails, and the words an error gives for it
    "finite": (lambda x: -math.inf < x < math.inf, "finite"),
    "positive": (lambda x: 0.0 < x < math.inf, "finite and positive"),
    "non-negative": (lambda x: 0.0 <= x < math.inf, "finite and non-negative"),
    "(0, 1]": (lambda x: 0.0 < x <= 1.0, "in (0, 1]"),
}


def _check_range(what: str, x, domain: str = "finite") -> float:
    """``x`` as a float; ValueError naming ``what`` and the value unless it lies in ``domain``."""
    x = float(x)
    inside, words = _DOMAINS[domain]
    if not inside(x):
        raise ValueError(f"{what} must be {words}, got {x!r}")
    return x


def _check_count(what: str, x, lo: int = 0) -> int:
    """``x`` as an int; ValueError naming ``what`` unless it is a whole number in [lo, 2**63).

    2.0 counts; 2.5, NaN, inf and 1e300 do not.  Ints of any size compare exactly.
    """
    if not (_is_real(x) and lo <= x < 2**63 and x == int(x)):
        bound = "non-negative" if lo == 0 else "positive" if lo == 1 else f">= {lo}"
        raise ValueError(f"{what} must be {bound}, integral and below 2**63, got {x!r}")
    return int(x)


def _horizon(tau) -> float:
    """The censoring horizon as a float; ValueError unless it is finite and positive."""
    return _check_range("tau", tau, "positive")


def _as_times(t, what: str = "t") -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(arr >= 0.0):  # false for NaN as well as for negatives
        raise ValueError(f"{what} must be non-negative, not NaN")
    return arr


def _frozen(x, dtype=float) -> np.ndarray:
    """A read-only copy of ``x`` as a ``dtype`` array; the caller's own array stays writeable."""
    arr = np.array(x, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _rebuild(obj):
    """``__reduce__`` of the immutable dataclasses: a copy or an unpickled one is built anew.

    Passing the fields to the constructor checks them again, freezes fresh
    copies of the arrays and starts with no cache, as for any new object.
    """
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


def _is_real(value) -> bool:
    """A real number that is not a bool and converts to a float (an int below about 1.8e308)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _require_keys(d, keys, what: str) -> None:
    """Raise ValueError unless ``d`` is a JSON object holding every one of ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")


def _require_reals(d: dict, keys, what: str) -> None:
    """Raise ValueError naming the first of ``keys`` whose value in ``d`` is missing or not real."""
    for key in keys:
        value = d.get(key)
        if not _is_real(value):
            raise ValueError(f"{what} needs a real number for {key!r}, got {value!r}")


def _require_real_lists(d: dict, keys, what: str) -> None:
    """Raise ValueError naming the first of ``keys`` whose value in ``d`` is not a list of reals."""
    for key in keys:
        value = d.get(key)
        # a JSON array of floats passes on its element types alone
        if not (isinstance(value, list)
                and (set(map(type, value)) <= {float} or all(map(_is_real, value)))):
            raise ValueError(f"{what} needs a list of real numbers for {key!r}, got {value!r}")

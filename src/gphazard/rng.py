"""Seeded, splittable random streams (numpy's PCG64) and the samplers the package draws from."""

from __future__ import annotations

import numpy as np

from ._checks import _as_times, _check_count, _check_range

__all__ = ["RandomStream"]

# _block gives up after this many draws in a row in top-up rounds that accepted
# none: under a second for a block of one, and a chance of about e**-100 per
# variate to give up at an acceptance rate of 1e-3
_BLOCK_MAX_REJECTS = 10**5


class RandomStream:
    """Seedable single-owner source of random variates.

    Two streams built from the same seed (and the same chain of ``split``
    ids) produce bit-identical sequences within one build.  A stream must
    not be shared between threads; use ``split`` to hand independent
    streams to parallel work.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = _check_count("seed", seed)
        self._spawn_key = tuple(_spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self._spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, spawn_key={self._spawn_key})"

    def split(self, child_id: int) -> "RandomStream":
        """Derive an independent child stream, deterministic in (seed, child_id)."""
        return RandomStream(self.seed, self._spawn_key + (_check_count("child_id", child_id),))

    def uniform(self) -> float:
        """Uniform draw strictly inside (0, 1), so that -log(u) is finite and positive."""
        return float(self.uniforms(1)[0])

    def _block(self, n: int, draw, reject, describe) -> np.ndarray:
        """n variates from ``draw(generator, size)`` with the ``reject`` mask's values redrawn.

        numpy's block draws reproduce its scalar draws, so dropping the
        rejected values and topping up with exactly as many fresh draws as
        are missing gives the sequence, and the generator consumption, of n
        scalar draw-until-accepted loops.  When the top-up draws in a row that
        accepted none reach the cap, raises ValueError naming the
        distribution that ``describe()`` returns.
        """
        n = _check_count("n", n)
        if n == 1:  # numpy's scalar draw is its block of one, at a fraction of the cost
            x = draw(self._gen, None)
            if not reject(x):
                return np.array([x])
            out = np.empty(0)
        else:
            out = draw(self._gen, n)
            out = out[~reject(out)]
        rejected = 0
        while out.size < n:
            more = draw(self._gen, n - out.size)
            kept = more[~reject(more)]
            if kept.size:
                rejected = 0
                out = np.concatenate((out, kept))
            else:
                rejected += more.size
                if rejected >= _BLOCK_MAX_REJECTS:
                    raise ValueError(
                        f"{describe()} rejected {rejected} draws in a row; "
                        "its parameters leave almost no mass where draws are accepted"
                    )
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """n successive uniform draws, identical to n calls of :meth:`uniform`."""
        return self._block(n, lambda g, k: g.random(k), lambda u: (u <= 0.0) | (u >= 1.0),
                           lambda: "uniform()")

    def gamma(self, shape: float, rate: float) -> float:
        """Gamma draw with mean shape/rate and variance shape/rate**2."""
        _check_range("gamma shape", shape, "positive")
        _check_range("gamma rate", rate, "positive")
        # tiny shapes can underflow to exactly 0
        return float(self._block(1, lambda g, k: g.gamma(shape, 1.0 / rate, k), lambda x: x <= 0.0,
                                 lambda: f"gamma(shape={shape!r}, rate={rate!r})")[0])

    def beta(self, a: float, b: float) -> float:
        """Beta(a, b) draw strictly inside (0, 1)."""
        return float(self.betas(a, b, 1)[0])

    def betas(self, a: float, b: float, n: int) -> np.ndarray:
        """n successive Beta(a, b) draws, identical to n calls of :meth:`beta`."""
        _check_range("beta a", a, "positive")
        _check_range("beta b", b, "positive")
        return self._block(n, lambda g, k: g.beta(a, b, k), lambda x: (x <= 0.0) | (x >= 1.0),
                           lambda: f"beta(a={a!r}, b={b!r})")

    def exponential(self, rate: float) -> float:
        """Exponential draw with the given rate (mean 1/rate)."""
        return float(self.exponentials(rate, 1)[0])

    def exponentials(self, rate: float, n: int) -> np.ndarray:
        """n successive exponential draws, identical to n calls of :meth:`exponential`."""
        _check_range("exponential rate", rate, "positive")
        return self._block(n, lambda g, k: g.exponential(1.0 / rate, k), lambda x: x <= 0.0,
                           lambda: f"exponential(rate={rate!r})")

    def normal(self, mean: float, sd: float) -> float:
        """Normal(mean, sd**2) draw; sd=0 returns mean exactly."""
        _check_range("normal mean", mean)
        _check_range("normal sd", sd, "non-negative")
        if sd == 0.0:
            return float(mean)
        return float(self._gen.normal(mean, sd))

    def categorical(self, weights) -> int:
        """Index k drawn with probability weights[k] / sum(weights)."""
        w = _as_times(weights, "weights")
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        _check_range("the sum of the weights", w.sum(), "positive")
        return int(_categorical_pick(w, self.uniform()))


def _categorical_pick(w: np.ndarray, u):
    """The index (or indices) that uniform(s) ``u`` select under non-negative weights ``w``."""
    return np.searchsorted(np.cumsum(w), u * float(w.sum()), side="left")

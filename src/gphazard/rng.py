"""Deterministic, splittable random streams and the scalar samplers used everywhere else.

A :class:`RandomStream` wraps numpy's PCG64 generator seeded through a
``SeedSequence``, so the same seed always reproduces the same sequence and
``split`` derives statistically independent child streams from ``(seed,
spawn key)`` without any coordination between them.

Uniform draws are guaranteed to lie strictly inside (0, 1): endpoint values
are rejected and redrawn so that ``-log(u)`` is always finite and positive.
The block samplers (``uniforms``, ``exponentials``, ``betas``) return the
same values, and advance the generator exactly as far, as the same number
of scalar calls.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream"]

_GAMMA_MAX_DRAWS = 10**6  # gamma's redraws of an underflowed 0; about a second of draws


class RandomStream:
    """Seedable single-owner source of random variates.

    Two streams built from the same seed (and the same chain of ``split``
    ids) produce bit-identical sequences within one build.  A stream must
    not be shared between threads; use ``split`` to hand independent
    streams to parallel work.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = tuple(_spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self._spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, spawn_key={self._spawn_key})"

    def split(self, child_id: int) -> "RandomStream":
        """Derive an independent child stream, deterministic in (seed, child_id)."""
        if child_id < 0:
            raise ValueError("child_id must be non-negative")
        return RandomStream(self.seed, self._spawn_key + (int(child_id),))

    def uniform(self) -> float:
        """Uniform draw strictly inside (0, 1)."""
        u = self._gen.random()
        while u <= 0.0 or u >= 1.0:
            u = self._gen.random()
        return float(u)

    def _block(self, n: int, draw, reject) -> np.ndarray:
        """n variates from ``draw(generator, size)`` with the ``reject`` mask's values redrawn.

        numpy's block draws reproduce its scalar draws, so dropping the
        rejected values and topping up with exactly as many fresh draws as
        are missing gives the sequence, and the generator consumption, of n
        scalar draw-until-accepted loops.
        """
        n = int(n)
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        out = draw(self._gen, n)
        out = out[~reject(out)]
        while out.size < n:
            more = draw(self._gen, n - out.size)
            out = np.concatenate((out, more[~reject(more)]))
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """n successive uniform draws, identical to n calls of :meth:`uniform`."""
        return self._block(n, lambda g, k: g.random(k), lambda u: (u <= 0.0) | (u >= 1.0))

    def gamma(self, shape: float, rate: float) -> float:
        """Gamma draw with mean shape/rate and variance shape/rate**2."""
        if shape <= 0.0 or rate <= 0.0:
            raise ValueError(f"gamma requires shape > 0 and rate > 0, got ({shape}, {rate})")
        for _ in range(_GAMMA_MAX_DRAWS):
            x = self._gen.gamma(shape, 1.0 / rate)
            if x > 0.0:  # tiny shapes can underflow to exactly 0
                return float(x)
        raise ValueError(
            f"gamma(shape={shape!r}, rate={rate!r}) underflowed to 0 in "
            f"{_GAMMA_MAX_DRAWS} draws; the shape is too small"
        )

    def beta(self, a: float, b: float) -> float:
        """Beta(a, b) draw strictly inside (0, 1)."""
        if a <= 0.0 or b <= 0.0:
            raise ValueError(f"beta requires positive parameters, got ({a}, {b})")
        x = self._gen.beta(a, b)
        while x <= 0.0 or x >= 1.0:
            x = self._gen.beta(a, b)
        return float(x)

    def betas(self, a: float, b: float, n: int) -> np.ndarray:
        """n successive Beta(a, b) draws, identical to n calls of :meth:`beta`."""
        if a <= 0.0 or b <= 0.0:
            raise ValueError(f"beta requires positive parameters, got ({a}, {b})")
        return self._block(n, lambda g, k: g.beta(a, b, k), lambda x: (x <= 0.0) | (x >= 1.0))

    def exponential(self, rate: float) -> float:
        """Exponential draw with the given rate (mean 1/rate)."""
        if rate <= 0.0:
            raise ValueError(f"exponential requires rate > 0, got {rate}")
        x = self._gen.exponential(1.0 / rate)
        while x <= 0.0:
            x = self._gen.exponential(1.0 / rate)
        return float(x)

    def exponentials(self, rate: float, n: int) -> np.ndarray:
        """n successive exponential draws, identical to n calls of :meth:`exponential`."""
        if rate <= 0.0:
            raise ValueError(f"exponential requires rate > 0, got {rate}")
        return self._block(n, lambda g, k: g.exponential(1.0 / rate, k), lambda x: x <= 0.0)

    def normal(self, mean: float, sd: float) -> float:
        """Normal(mean, sd**2) draw; sd=0 returns mean exactly."""
        if sd < 0.0:
            raise ValueError(f"normal requires sd >= 0, got {sd}")
        if sd == 0.0:
            return float(mean)
        return float(self._gen.normal(mean, sd))

    def categorical(self, weights) -> int:
        """Index k drawn with probability weights[k] / sum(weights)."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        if float(w.sum()) <= 0.0:
            raise ValueError("at least one weight must be positive")
        return int(_categorical_pick(w, self.uniform()))


def _categorical_pick(w: np.ndarray, u):
    """The index (or indices) that uniform(s) ``u`` select under non-negative weights ``w``."""
    return np.searchsorted(np.cumsum(w), u * float(w.sum()), side="left")

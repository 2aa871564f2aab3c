"""Failure/censoring datasets and their CSV form (header ``time,status``)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset", "read_dataset_csv", "write_dataset_csv"]


def _horizon(tau) -> float:
    """The censoring horizon as a float; ValueError unless it is finite and positive."""
    tau = float(tau)
    if not 0.0 < tau < math.inf:  # false for NaN as well
        raise ValueError(f"tau must be finite and positive, got {tau}")
    return tau


@dataclass(eq=False)
class Dataset:
    """Failure times with status flags and an optional common censoring horizon.

    Every record carries its own time; a censored record's time is the
    horizon it survived past.  When a common ``tau`` is given, censored
    times must equal it.
    """

    times: np.ndarray
    observed: np.ndarray
    tau: float | None = None
    _orders: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.observed = np.asarray(self.observed, dtype=bool)
        if self.times.shape != self.observed.shape or self.times.ndim != 1:
            raise ValueError("times and observed must be 1-d arrays of equal length")
        if not np.all(self.times > 0.0):  # false for NaN as well
            raise ValueError("all record times must be positive, not NaN")
        if not np.all(self.times < math.inf):
            raise ValueError("all record times must be finite, not inf")
        if self.tau is not None:
            self.tau = _horizon(self.tau)
            if not np.all(self.times[~self.observed] == self.tau):
                raise ValueError("censored records must sit at the common horizon tau")

    @classmethod
    def from_records(cls, records, tau: float | None = None) -> "Dataset":
        """Build from an iterable of (time, observed) pairs."""
        records = list(records)
        times = np.array([t for t, _ in records], dtype=float)
        observed = np.array([bool(o) for _, o in records])
        return cls(times=times, observed=observed, tau=tau)

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def n_observed(self) -> int:
        return int(self.observed.sum())

    def observed_times(self) -> np.ndarray:
        return self.times[self.observed]

    def censored_times(self) -> np.ndarray:
        return self.times[~self.observed]

    def _ascending(self, observed: bool) -> tuple[np.ndarray | None, np.ndarray]:
        """(order, times[order]) ascending for the observed (or censored) times.

        The first request returns (None, times) unsorted, so a dataset used
        once pays for no sort; later ones share one stable sort.  The kept
        order is checked to still sort the times on every request, and the
        times are sorted afresh when they were changed in place or replaced.
        """
        t = self.observed_times() if observed else self.censored_times()
        if observed not in self._orders:
            self._orders[observed] = None
            return None, t
        order = self._orders[observed]
        if order is not None and order.size == t.size:
            ascending = t[order]
            if (ascending[1:] >= ascending[:-1]).all():
                return order, ascending
        order = self._orders[observed] = np.argsort(t, kind="stable")
        return order, t[order]


def write_dataset_csv(dataset: Dataset, path) -> None:
    lines = ["time,status"]
    for t, obs in zip(dataset.times, dataset.observed):
        lines.append(f"{float(t)!r},{1 if obs else 0}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset_csv(path, tau: float | None = None) -> Dataset:
    """Parse a ``time,status`` CSV; rejects non-positive or infinite times naming the row."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as e:
        raise ValueError(f"cannot read dataset {path}: {e}") from None
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = [c.strip().lower() for c in lines[0].split(",")]
    if header[:2] != ["time", "status"]:
        raise ValueError(f"{path}: expected header 'time,status', got {lines[0]!r}")
    times = []
    observed = []
    for i, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) < 2:
            raise ValueError(f"{path}: row {i}: expected two columns, got {line!r}")
        try:
            t = float(cols[0])
        except ValueError:
            raise ValueError(f"{path}: row {i}: cannot parse time {cols[0]!r}") from None
        if not t > 0.0:  # rejects NaN too
            raise ValueError(f"{path}: row {i}: time must be positive, got {t}")
        if t == math.inf:
            raise ValueError(f"{path}: row {i}: time must be finite, got {t}")
        status = cols[1].strip()
        if status not in ("0", "1"):
            raise ValueError(f"{path}: row {i}: status must be 0 or 1, got {status!r}")
        times.append(t)
        observed.append(status == "1")
    return Dataset(times=np.array(times), observed=np.array(observed), tau=tau)

"""Failure/censoring datasets and their CSV form (header ``time,status``)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._checks import _frozen, _horizon, _rebuild

__all__ = ["Dataset", "read_dataset_csv", "write_dataset_csv"]

_CSV_ROWS = 2**16  # rows per chunk of CSV text: a file is written a block at a time


@dataclass(frozen=True, eq=False)
class Dataset:
    """Failure times with status flags and an optional common censoring horizon.

    Every record carries its own time; a censored record's time is the
    horizon it survived past.  When a common ``tau`` is given, censored
    times must equal it.  Immutable: the arrays are read-only copies of
    those given.
    """

    times: np.ndarray
    observed: np.ndarray
    tau: float | None = None

    __reduce__ = _rebuild

    def __post_init__(self):
        vars(self).update(times=_frozen(self.times), observed=_frozen(self.observed, bool))
        if self.times.shape != self.observed.shape or self.times.ndim != 1:
            raise ValueError("times and observed must be 1-d arrays of equal length")
        if not np.all(self.times > 0.0):  # false for NaN as well
            raise ValueError("all record times must be positive, not NaN")
        if not np.all(self.times < math.inf):
            raise ValueError("all record times must be finite, not inf")
        if self.tau is not None:
            vars(self)["tau"] = _horizon(self.tau)
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

    @cached_property
    def _ascending(self) -> tuple[np.ndarray, np.ndarray]:
        """The observed times and the censored times, each sorted ascending and read-only.

        Sorted on first use and kept: the likelihood and Kaplan-Meier share it.
        """
        obs, cens = np.sort(self.observed_times()), np.sort(self.censored_times())
        obs.flags.writeable = cens.flags.writeable = False
        return obs, cens


def _write(path, texts) -> None:
    """Write the text chunks ``texts`` to the file at ``path``; ValueError naming the path."""
    try:
        with open(path, "w") as fh:
            fh.writelines(texts)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from None


def _csv(header: str, columns):
    """CSV text: the header line, then the equal-length arrays' rows, ``_CSV_ROWS`` to a chunk.

    Each value is written as its ``repr``, for a float the shortest text that
    reads back to the same bits.
    """
    yield header + "\n"
    for i in range(0, len(columns[0]), _CSV_ROWS):
        cells = [map(repr, col[i:i + _CSV_ROWS].tolist()) for col in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_dataset_csv(dataset: Dataset, path) -> None:
    _write(path, _csv("time,status", (dataset.times, dataset.observed.astype(int))))


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

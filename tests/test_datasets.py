"""Dataset validation and the time,status CSV format."""

import re

import numpy as np
import pytest

from gphazard import datasets
from gphazard.datasets import Dataset, read_dataset_csv, write_dataset_csv


class TestDataset:
    def test_counts(self):
        d = Dataset(times=[1.0, 2.0, 5.0], observed=[True, True, False], tau=5.0)
        assert d.n == 3
        assert d.n_observed == 2
        np.testing.assert_allclose(d.observed_times(), [1.0, 2.0])
        np.testing.assert_allclose(d.censored_times(), [5.0])

    def test_from_records(self):
        d = Dataset.from_records([(1.0, 1), (2.0, 0)])
        assert d.n_observed == 1
        assert d.tau is None

    def test_positive_times_required(self):
        with pytest.raises(ValueError):
            Dataset(times=[0.0], observed=[True])
        with pytest.raises(ValueError):
            Dataset(times=[-1.0], observed=[True])

    def test_censored_must_sit_at_tau(self):
        with pytest.raises(ValueError):
            Dataset(times=[1.0, 4.0], observed=[True, False], tau=5.0)
        Dataset(times=[1.0, 5.0], observed=[True, False], tau=5.0)

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            Dataset(times=[1.0], observed=[True], tau=0.0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        d = Dataset(times=[1.5, 2.25, 7.0], observed=[True, False, True])
        path = tmp_path / "data.csv"
        write_dataset_csv(d, path)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.times, d.times)
        np.testing.assert_array_equal(back.observed, d.observed)

    @pytest.mark.parametrize("t", [0.1 + 0.2, 1.0 / 3.0, 5e-324, 1.7976931348623157e308])
    def test_round_trip_keeps_every_bit(self, tmp_path, t):
        d = Dataset(times=[t, 2.0], observed=[True, False])
        path = tmp_path / "data.csv"
        write_dataset_csv(d, path)
        assert path.read_text() == f"time,status\n{t!r},1\n2.0,0\n"
        back = read_dataset_csv(path)
        assert back.times.tobytes() == d.times.tobytes()
        np.testing.assert_array_equal(back.observed, d.observed)

    def test_an_unwritable_path_is_a_value_error_naming_it(self, tmp_path):
        path = tmp_path / "missing" / "data.csv"
        with pytest.raises(ValueError, match=f"^cannot write {re.escape(str(path))}: "):
            write_dataset_csv(Dataset(times=[1.0], observed=[True]), path)

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 14, 15])
    def test_blocks_join_to_the_whole_text(self, monkeypatch, n):
        monkeypatch.setattr(datasets, "_CSV_ROWS", 7)
        x, s = np.arange(n) / 3.0, np.arange(n) % 2
        chunks = list(datasets._csv("x,s", (x, s)))
        rows = [f"{a!r},{b!r}" for a, b in zip(x.tolist(), s.tolist())]
        assert "".join(chunks) == "\n".join(["x,s", *rows]) + "\n"
        assert len(chunks) == 1 + -(-n // 7)  # the header, then one chunk per block

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1.0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_dataset_csv(path)

    def test_nonpositive_time_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status\n1.0,1\n-2.0,1\n")
        with pytest.raises(ValueError, match="row 3"):
            read_dataset_csv(path)

    def test_bad_status_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status\n1.0,2\n")
        with pytest.raises(ValueError, match="row 2"):
            read_dataset_csv(path)

    def test_unparseable_time_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status\nxyz,1\n")
        with pytest.raises(ValueError, match="row 2"):
            read_dataset_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_dataset_csv(path)


class TestNaNTimes:
    def test_dataset_rejects_nan(self):
        with pytest.raises(ValueError, match="positive, not NaN"):
            Dataset(times=[1.0, float("nan")], observed=[True, True])

    def test_csv_names_the_nan_row(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("time,status\n1.0,1\nnan,1\n2.0,0\n")
        with pytest.raises(ValueError, match=r"row 3: time must be positive, got nan"):
            read_dataset_csv(path)


class TestNonFiniteTimesAndHorizon:
    def test_dataset_rejects_infinite_time(self):
        with pytest.raises(ValueError, match="record times must be finite, not inf"):
            Dataset(times=[1.0, float("inf")], observed=[True, True])

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1.0])
    def test_dataset_rejects_tau(self, tau):
        with pytest.raises(ValueError, match=f"tau must be finite and positive, got {tau}"):
            Dataset(times=[1.0], observed=[True], tau=tau)

    def test_csv_names_the_infinite_row(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("time,status\n1.0,1\ninf,1\n")
        with pytest.raises(ValueError, match=r"row 3: time must be finite, got inf"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_csv_rejects_tau(self, tmp_path, tau):
        path = tmp_path / "data.csv"
        path.write_text("time,status\n1.0,1\n")
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            read_dataset_csv(path, tau=tau)

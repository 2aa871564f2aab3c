"""Dataset validation and the time,status CSV format."""

import numpy as np
import pytest

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

"""End-to-end command-line behaviour on small configurations."""

import json
import subprocess
import sys

import numpy as np
import pytest

from gphazard.cli import main
from gphazard.gamma_process import GammaProcessDraw
from gphazard.models import IncreasingFailureRate, model_to_dict

DEMO_PRIOR = {"alpha": 3.0, "beta": 1.0, "K": 20, "base": {"kind": "exponential", "rate": 1.0}}


def _write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


class TestDraw:
    def test_single_atom_draw(self, tmp_path):
        cfg = _write_config(tmp_path, prior={**DEMO_PRIOR, "K": 1}, seed=3)
        out = tmp_path / "draw.json"
        assert main(["draw", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["thetas"]) == 1 and doc["sticks"] == []
        csv_lines = (tmp_path / "draw.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 2  # header + one atom

    def test_mass_adds_up(self, tmp_path):
        cfg = _write_config(tmp_path, prior=DEMO_PRIOR, seed=4)
        out = tmp_path / "draw.json"
        main(["draw", "--config", cfg, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert abs(sum(doc["weights"]) - doc["gamma"]) <= 1e-12 * doc["gamma"]

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, prior=DEMO_PRIOR, seed=5)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["draw", "--config", cfg, "--out", str(a)])
        main(["draw", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unwritable_path_reports_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, prior=DEMO_PRIOR, seed=5)
        rc = main(["draw", "--config", cfg, "--out", str(tmp_path / "no" / "dir.json")])
        assert rc == 1
        assert "dir.json" in capsys.readouterr().err


class TestCurves:
    def test_survival_is_exp_of_cum_hazard(self, tmp_path):
        cfg = _write_config(
            tmp_path, model="ifr", lambda0=0.1, prior=DEMO_PRIOR, seed=6, t_max=4.0, points=80
        )
        out = tmp_path / "curves.csv"
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["t", "hazard", "cum_hazard", "density", "survival"]
        np.testing.assert_allclose(rows[:, 4], np.exp(-rows[:, 2]), rtol=1e-12)

    def test_ifr_hazard_column_nondecreasing(self, tmp_path):
        cfg = _write_config(
            tmp_path, model="ifr", lambda0=0.1, prior=DEMO_PRIOR, seed=7, t_max=4.0, points=80
        )
        out = tmp_path / "curves.csv"
        main(["curves", "--config", cfg, "--out", str(out)])
        _, rows = _read_csv(out)
        assert np.all(np.diff(rows[:, 1]) >= 0.0)

    def test_lwb_minimum_at_a(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            model="lwb",
            lambda0=0.1,
            a=0.6,
            prior=DEMO_PRIOR,
            seed=8,
            t_max=4.0,
            points=80,
        )
        out = tmp_path / "curves.csv"
        main(["curves", "--config", cfg, "--out", str(out)])
        _, rows = _read_csv(out)
        at_a = rows[rows[:, 0] == 0.6]
        assert at_a.shape[0] == 1
        assert at_a[0, 1] == rows[:, 1].min() == 0.1

    def test_grid_includes_breakpoint_pairs(self, tmp_path):
        cfg = _write_config(
            tmp_path, model="ifr", lambda0=0.1, prior=DEMO_PRIOR, seed=9, t_max=4.0, points=10
        )
        out = tmp_path / "curves.csv"
        main(["curves", "--config", cfg, "--out", str(out)])
        _, rows = _read_csv(out)
        ts = rows[:, 0]
        gaps = np.diff(ts)
        assert np.any(gaps < 1e-10)  # nextafter pairs straddle each jump

    def test_sidecar_reproduces_run(self, tmp_path):
        cfg = _write_config(
            tmp_path, model="dfr", lambda0=0.2, prior=DEMO_PRIOR, seed=10, t_max=3.0, points=40
        )
        out1 = tmp_path / "c1.csv"
        main(["curves", "--config", cfg, "--out", str(out1)])
        out2 = tmp_path / "c2.csv"
        main(["curves", "--config", str(out1) + ".config.json", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_grid_rejected(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, model="ifr", lambda0=0.1, prior=DEMO_PRIOR, seed=6, t_max=-1.0
        )
        assert main(["curves", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1

    def test_missing_scalars_reported(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, model="lwb", prior=DEMO_PRIOR, seed=6)
        assert main(["curves", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "lambda0" in err and "nu" in err

    def test_scalars_drawn_from_priors_when_nu_given(self, tmp_path):
        cfg = _write_config(
            tmp_path, model="lcv", nu=3.0, prior=DEMO_PRIOR, seed=11, t_max=2.0, points=20
        )
        out = tmp_path / "lcv.csv"
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 0


class TestSimulate:
    def test_row_count_and_status(self, tmp_path):
        cfg = _write_config(
            tmp_path, model="ifr", lambda0=0.1, prior=DEMO_PRIOR, seed=12, n=200
        )
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "time,status"
        assert len(lines) == 201
        assert all(ln.endswith(",1") for ln in lines[1:])  # no tau, all observed

    def test_tiny_tau_censors_everything(self, tmp_path):
        cfg = _write_config(
            tmp_path, model="ifr", lambda0=0.1, prior=DEMO_PRIOR, seed=13, n=100
        )
        out = tmp_path / "cens.csv"
        main(["simulate", "--config", cfg, "--out", str(out), "--tau", "0.0001"])
        lines = out.read_text().strip().splitlines()[1:]
        assert all(ln == "0.0001,0" for ln in lines)

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = _write_config(
            tmp_path, model="mbt", pi=0.5, lambda01=0.1, lambda02=0.1,
            prior=DEMO_PRIOR, prior2=DEMO_PRIOR, seed=14, n=50,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(a)])
        main(["simulate", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_frozen_draw_reuse(self, tmp_path):
        cfg = _write_config(tmp_path, prior=DEMO_PRIOR, seed=15)
        draw_path = tmp_path / "frozen.json"
        main(["draw", "--config", cfg, "--out", str(draw_path)])
        cfg2 = _write_config(
            tmp_path,
            name="cfg2.json",
            model="ifr",
            lambda0=0.1,
            prior={"file": str(draw_path)},
            seed=16,
            n=20,
        )
        out = tmp_path / "reused.csv"
        assert main(["simulate", "--config", cfg2, "--out", str(out)]) == 0


class TestLoglik:
    def _write_model(self, tmp_path):
        model = IncreasingFailureRate(1.0, GammaProcessDraw.from_atoms([10.0], [2.0]))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model)))
        return str(path)

    def test_constant_hazard_example(self, tmp_path, capsys):
        model = self._write_model(tmp_path)
        data = tmp_path / "data.csv"
        data.write_text("time,status\n1.0,1\n2.0,1\n5.0,0\n")
        assert main(["loglik", "--model", model, "--data", str(data), "--tau", "5.0"]) == 0
        assert capsys.readouterr().out.strip() == "-8"

    def test_finite_on_simulated_data(self, tmp_path, capsys):
        model = self._write_model(tmp_path)
        cfg = _write_config(
            tmp_path, model="ifr", lambda0=1.0, prior=DEMO_PRIOR, seed=17, n=30
        )
        data = tmp_path / "sim.csv"
        main(["simulate", "--config", cfg, "--out", str(data)])
        capsys.readouterr()
        assert main(["loglik", "--model", model, "--data", str(data)]) == 0
        assert np.isfinite(float(capsys.readouterr().out))

    def test_nonpositive_time_is_parse_error(self, tmp_path, capsys):
        model = self._write_model(tmp_path)
        data = tmp_path / "bad.csv"
        data.write_text("time,status\n1.0,1\n0.0,1\n")
        assert main(["loglik", "--model", model, "--data", str(data)]) == 1
        assert "row 3" in capsys.readouterr().err

    def test_missing_dataset_reports_cleanly(self, tmp_path, capsys):
        model = self._write_model(tmp_path)
        assert main(["loglik", "--model", model, "--data", str(tmp_path / "nope.csv")]) == 1
        assert "nope.csv" in capsys.readouterr().err


class TestKm:
    def test_censored_hand_example(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("time,status\n1.0,1\n2.0,0\n3.0,1\n")
        out = tmp_path / "km.csv"
        assert main(["km", "--data", str(data), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,value"
        assert lines[1] == f"{1.0!r},{2.0 / 3.0!r}"
        assert lines[2] == f"{3.0!r},{0.0!r}"

    def test_empty_dataset_fails(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("time,status\n")
        assert main(["km", "--data", str(data), "--out", str(tmp_path / "km.csv")]) == 1


class TestValidate:
    def test_default_seed_passes(self, validate_proc):
        assert validate_proc.returncode == 0
        lines = validate_proc.stdout.strip().splitlines()
        assert len(lines) >= 14  # header + >=12 checks + summary
        assert "failed" in lines[-1]

    def test_corrupted_tolerances_fail(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gphazard.cli", "validate", "--tol-scale", "1e-9"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout


class TestMalformedInput:
    """Bad scalars and missing keys end in one 'error:' line naming the field, exit 1."""

    MODEL = {
        "model": "ifr",
        "lambda0": 1.0,
        "draw": {"gamma": 2.0, "thetas": [10.0], "sticks": [], "weights": [2.0]},
    }

    @staticmethod
    def _run(*args):
        return subprocess.run(
            [sys.executable, "-m", "gphazard.cli", *args], capture_output=True, text=True
        )

    def _assert_reported(self, proc, field):
        assert proc.returncode == 1
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({k: v for k, v in MODEL.items() if k != "lambda0"}, "lambda0"),
            ({k: v for k, v in MODEL.items() if k != "draw"}, "draw"),
            ({**MODEL, "lambda0": "0.1"}, "lambda0"),
            ([1], "model"),
        ],
    )
    def test_model_file(self, tmp_path, doc, field):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        data = tmp_path / "data.csv"
        data.write_text("time,status\n1.0,1\n")
        self._assert_reported(self._run("loglik", "--model", str(model), "--data", str(data)), field)

    @pytest.mark.parametrize(
        "command, fields, field",
        [
            ("curves", {"lambda0": "0.1"}, "lambda0"),
            ("curves", {"lambda0": [1]}, "lambda0"),
            ("simulate", {"lambda0": "0.1"}, "lambda0"),
            ("simulate", {"lambda0": [1]}, "lambda0"),
            ("curves", {"prior": {k: v for k, v in DEMO_PRIOR.items() if k != "alpha"}}, "alpha"),
            ("curves", {"prior": "no-sticks"}, "sticks"),
        ],
    )
    def test_config(self, tmp_path, command, fields, field):
        doc = {"model": "ifr", "lambda0": 0.1, "prior": DEMO_PRIOR, "seed": 1, **fields}
        if doc["prior"] == "no-sticks":
            draw = tmp_path / "draw.json"
            draw.write_text(json.dumps({"gamma": 2.0, "thetas": [1.0], "weights": [2.0]}))
            doc["prior"] = {"file": str(draw)}
        cfg = _write_config(tmp_path, **doc)
        proc = self._run(command, "--config", cfg, "--out", str(tmp_path / "out.csv"))
        self._assert_reported(proc, field)


def test_import_loads_no_scipy():
    code = (
        "import sys, gphazard, gphazard.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["km", "loglik"])
def test_nan_time_is_reported_with_row(tmp_path, command):
    data = tmp_path / "nan.csv"
    data.write_text("time,status\nnan,1\n1.0,0\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(TestMalformedInput.MODEL))
    args = {"km": ["km", "--data", str(data), "--out", str(tmp_path / "km.csv")],
            "loglik": ["loglik", "--model", str(model), "--data", str(data)]}[command]
    proc = subprocess.run([sys.executable, "-m", "gphazard.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "row 2: time must be positive, got nan" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_non_finite_tau_is_reported(tmp_path, tau):
    cfg = _write_config(tmp_path, model="dfr", lambda0=0.0, prior=DEMO_PRIOR, seed=1, n=10)
    out = tmp_path / "data.csv"
    proc = subprocess.run([sys.executable, "-m", "gphazard.cli", "simulate", "--config", cfg,
                           "--tau", tau, "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert f"tau must be finite and positive, got {tau}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["km", "loglik"])
def test_infinite_time_is_reported_with_row(tmp_path, command):
    data = tmp_path / "inf.csv"
    data.write_text("time,status\n1.0,0\ninf,1\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(TestMalformedInput.MODEL))
    args = {"km": ["km", "--data", str(data), "--out", str(tmp_path / "km.csv")],
            "loglik": ["loglik", "--model", str(model), "--data", str(data)]}[command]
    proc = subprocess.run([sys.executable, "-m", "gphazard.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "row 3: time must be finite, got inf" in proc.stderr
    assert "Traceback" not in proc.stderr

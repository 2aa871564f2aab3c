"""End-to-end command-line behaviour on small configurations."""

import json
import tracemalloc

import numpy as np
import pytest

from gphazard import cli, datasets
from gphazard.cli import build_model, main
from gphazard.gamma_process import GammaProcessDraw
from gphazard.models import IncreasingFailureRate, model_to_dict
from gphazard.rng import RandomStream

DEMO_PRIOR = {"alpha": 3.0, "beta": 1.0, "K": 20, "base": {"kind": "exponential", "rate": 1.0}}
LATE_PRIOR = {**DEMO_PRIOR, "base": {"kind": "normal", "mean": 2.0, "sd": 1.0}}
IFR = {"model": "ifr", "lambda0": 0.1, "prior": DEMO_PRIOR}


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
        cfg = _write_config(tmp_path, **IFR, seed=6, t_max=4.0, points=80)
        out = tmp_path / "curves.csv"
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["t", "hazard", "cum_hazard", "density", "survival"]
        np.testing.assert_allclose(rows[:, 4], np.exp(-rows[:, 2]), rtol=1e-12)

    def test_ifr_hazard_column_nondecreasing(self, tmp_path):
        cfg = _write_config(tmp_path, **IFR, seed=7, t_max=4.0, points=80)
        out = tmp_path / "curves.csv"
        main(["curves", "--config", cfg, "--out", str(out)])
        _, rows = _read_csv(out)
        assert np.all(np.diff(rows[:, 1]) >= 0.0)

    def test_lwb_minimum_at_a(self, tmp_path):
        cfg = _write_config(tmp_path, model="lwb", lambda0=0.1, a=0.6, prior=DEMO_PRIOR, seed=8,
                            t_max=4.0, points=80)
        out = tmp_path / "curves.csv"
        main(["curves", "--config", cfg, "--out", str(out)])
        _, rows = _read_csv(out)
        at_a = rows[rows[:, 0] == 0.6]
        assert at_a.shape[0] == 1
        assert at_a[0, 1] == rows[:, 1].min() == 0.1

    @pytest.mark.parametrize("seed", [8, 20250812])
    def test_lwb_hazard_steps_at_every_breakpoint(self, tmp_path, seed):
        doc = {"model": "lwb", "lambda0": 0.1, "a": 0.6, "prior": DEMO_PRIOR, "seed": seed}
        out = tmp_path / "curves.csv"
        assert main(["curves", "--config", _write_config(tmp_path, **doc), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        bps = build_model(doc, RandomStream(seed)).breakpoints()
        bps = bps[(bps > 0.0) & (bps <= 5.0) & (bps != 0.6)]  # the minimum a need not step
        at = np.searchsorted(rows[:, 0], bps)
        np.testing.assert_array_equal(rows[at, 0], bps)
        assert np.all(rows[at, 1] != rows[at - 1, 1])

    def test_grid_includes_breakpoint_pairs(self, tmp_path):
        cfg = _write_config(tmp_path, **IFR, seed=9, t_max=4.0, points=10)
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

    # the six variants, flat tails (a zero level adds 0 up to t = inf), a decaying lcv tail,
    # a step level past the double range (1e308 plus a 1e308 atom is inf), an mbt whose
    # component of weight 0 has an inf level, and a pi = 1 mbt whose increasing component,
    # of weight 0, has an inf density
    TOP = {
        "ifr": {"model": "ifr", "lambda0": 0.1},
        "dfr": {"model": "dfr", "lambda0": 0.1},
        "lwb": {"model": "lwb", "lambda0": 0.1, "a": 0.6},
        "sbt": {"model": "sbt", "lambda0": 0.1},
        "mbt": {"model": "mbt", "pi": 0.5, "lambda01": 0.1, "lambda02": 0.1},
        "lcv": {"model": "lcv", "lambda0": 1.0, "w0": -1.0},
        "dfr-flat": {"model": "dfr", "lambda0": 0.0},
        "lcv-decaying": {"model": "lcv", "lambda0": 1.0, "w0": -100.0},
        "mbt-flat": {"model": "mbt", "pi": 0.5, "lambda01": 0.0, "lambda02": 0.0},
        "ifr-huge": {"model": "ifr", "lambda0": 1e308, "prior": {"file": "huge.json"}},
        "mbt-huge": {"model": "mbt", "pi": 0.5, "lambda01": 1e308, "lambda02": 1e308,
                     "prior": {"file": "huge.json"}, "prior2": {"file": "huge.json"}},
        "mbt-pi1": {"model": "mbt", "pi": 1.0, "lambda01": 0.1, "lambda02": 1e308,
                    "prior": {"file": "small.json"}, "prior2": {"file": "big.json"}},
    }

    @pytest.mark.parametrize("name", list(TOP))
    def test_tmax_at_the_top_of_the_double_range(self, tmp_path, run_cli, name):
        for file, (theta, weight) in {"huge": (1.0, 1e308), "small": (1.0, 1.0),
                                      "big": (1e-306, 1e308)}.items():
            draw = GammaProcessDraw.from_atoms([theta], [weight])
            (tmp_path / f"{file}.json").write_text(draw.to_json())
        cfg = _write_config(tmp_path, **{"seed": 1, "prior": DEMO_PRIOR, "prior2": LATE_PRIOR,
                                         **self.TOP[name]})
        rc, _, err = run_cli("curves", "--config", cfg, "--tmax", "1e308", "--out", "top.csv")
        assert rc == 0, err
        _, rows = _read_csv(tmp_path / "top.csv")
        assert not np.isnan(rows).any()

    def test_invalid_grid_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, **IFR, seed=6, t_max=-1.0)
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


class TestScalarsUnderNu:
    """With nu set, the priors are drawn as always and the scalars the config gives are kept."""

    MBT = {"model": "mbt", "pi": 0.5, "nu": 1.0, "prior": DEMO_PRIOR, "prior2": DEMO_PRIOR}

    @pytest.mark.parametrize("doc, kept", [
        ({**MBT, "lambda01": 7.0}, {"lambda01": 7.0}),
        ({**MBT, "lambda02": 3}, {"lambda02": 3.0}),
        ({"model": "lcv", "nu": 2.0, "w0": -0.5, "prior": DEMO_PRIOR}, {"w0": -0.5}),
    ])
    def test_given_scalars_replace_the_drawn_ones(self, doc, kept):
        stream, drawn_stream = RandomStream(1), RandomStream(1)
        model = build_model(doc, stream)
        drawn = build_model({k: v for k, v in doc.items() if k not in kept}, drawn_stream)
        assert model_to_dict(model) == {**model_to_dict(drawn), **kept}
        assert stream.uniform() == drawn_stream.uniform()  # the same draws, in the same order

    def test_partial_config_replays_from_its_sidecar(self, tmp_path):
        cfg = _write_config(tmp_path, **self.MBT, lambda01=7.0, seed=1, n=50, tau=3.0)
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(out1) + ".config.json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # the scalars each variant draws under nu, and its sidecar's replay of them
    NU = {"ifr": {}, "dfr": {}, "lwb": {"a": 0.6}, "sbt": {"prior2": LATE_PRIOR},
          "mbt": {"pi": 0.5, "prior2": LATE_PRIOR}, "lcv": {}}

    @pytest.mark.parametrize("variant", list(NU))
    def test_simulate_replays_from_its_sidecar(self, tmp_path, variant):
        cfg = _write_config(tmp_path, model=variant, nu=1.0, prior=DEMO_PRIOR, **self.NU[variant],
                            seed=1, n=200, tau=3.0)
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(out1) + ".config.json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_a_given_lambda0_skips_its_discarded_draw(self, tmp_path, seed):
        # sd 2e6 for log(lambda0): the draw overflows or underflows exp, yet lambda0 is given
        prior = {"alpha": 2.0, "beta": 1.0, "K": 20}
        cfg = _write_config(tmp_path, model="lcv", lambda0=1.0, nu=1e-6, prior=prior, seed=seed)
        for command, flags in (("curves", []), ("simulate", ["--n", "200", "--tau", "3"])):
            out1, out2 = tmp_path / f"{command}1.csv", tmp_path / f"{command}2.csv"
            assert main([command, "--config", cfg, *flags, "--out", str(out1)]) == 0
            assert main([command, "--config", str(out1) + ".config.json", "--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("doc, message", [
        ({"model": "lwb", "lambda0": 0.1}, "lwb needs ['a'] in the config"),
        ({"model": "lwb"}, "lwb needs ['lambda0', 'a'] in the config "
                           "(or 'nu' to draw ['lambda0'] from their priors)"),
        ({"model": "lwb", "lambda0": 0.1, "nu": 1.0}, "lwb requires a: it has no prior"),
        ({"model": "lcv", "w0": "0.1", "nu": 1.0},
         "config needs a real number for 'w0', got '0.1'"),
    ])
    def test_missing_or_malformed_scalar(self, tmp_path, capsys, doc, message):
        cfg = _write_config(tmp_path, **doc, prior=DEMO_PRIOR, seed=1)
        assert main(["curves", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("draw_pi", ["false", "true", 0, 1, None])
    def test_draw_pi_must_be_a_boolean(self, tmp_path, capsys, draw_pi):
        cfg = _write_config(tmp_path, **self.MBT, draw_pi=draw_pi, seed=1)
        assert main(["curves", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config needs true or false for 'draw_pi', got {draw_pi!r}"
        ]


class TestSimulate:
    def test_row_count_and_status(self, tmp_path):
        cfg = _write_config(tmp_path, **IFR, seed=12, n=200)
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "time,status"
        assert len(lines) == 201
        assert all(ln.endswith(",1") for ln in lines[1:])  # no tau, all observed

    def test_null_tau_means_no_horizon(self, tmp_path):
        fields = dict(**IFR, seed=12, n=50)
        runs = {}
        for name, extra in (("absent", {}), ("null", {"tau": None})):
            cfg = _write_config(tmp_path, name=f"{name}.json", **fields, **extra)
            runs[name] = tmp_path / f"{name}.csv"
            assert main(["simulate", "--config", cfg, "--out", str(runs[name])]) == 0
        assert runs["null"].read_bytes() == runs["absent"].read_bytes()

    def test_tiny_tau_censors_everything(self, tmp_path):
        cfg = _write_config(tmp_path, **IFR, seed=13, n=100)
        out = tmp_path / "cens.csv"
        main(["simulate", "--config", cfg, "--out", str(out), "--tau", "0.0001"])
        lines = out.read_text().strip().splitlines()[1:]
        assert all(ln == "0.0001,0" for ln in lines)

    def test_draws_past_an_underflowed_lcv_coefficient_are_not_censored(self, tmp_path):
        # past t = 1 the coefficient exp(-1000) underflows to 0, yet the log-slope of 1 there
        # brings every draw to fail by t = 1010 or so, well before tau
        draw = tmp_path / "steep.json"
        draw.write_text(GammaProcessDraw.from_atoms([1.0], [1001.0]).to_json())
        cfg = _write_config(tmp_path, model="lcv", lambda0=1.0, w0=-1000.0,
                            prior={"file": str(draw)}, seed=1, n=200, tau=2000.0)
        out = tmp_path / "steep.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert rows.shape == (200, 2) and np.all(rows[:, 1] == 1.0)

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
        cfg2 = _write_config(tmp_path, name="cfg2.json", model="ifr", lambda0=0.1,
                             prior={"file": str(draw_path)}, seed=16, n=20)
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
    def test_default_seed_passes(self, probe):
        assert probe["validate"].returncode == 0
        lines = probe["validate"].stdout.strip().splitlines()
        assert len(lines) >= 14  # header + >=12 checks + summary
        assert "failed" in lines[-1]

    def test_corrupted_tolerances_fail(self, run_cli):
        rc, out, _ = run_cli("validate", "--tol-scale", "1e-9")
        assert rc == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0"])
    def test_a_tolerance_scale_that_is_not_finite_and_positive_is_one_error(self, run_cli, scale):
        rc, out, err = run_cli("validate", "--tol-scale", scale)
        assert rc == 1 and out == ""
        assert err.splitlines() == [f"error: tol_scale must be finite and positive, "
                                    f"got {float(scale)!r}"]


class TestMalformedInput:
    """Bad scalars and missing keys end in one 'error:' line naming the field, exit 1."""

    MODEL = {
        "model": "ifr",
        "lambda0": 1.0,
        "draw": {"gamma": 2.0, "thetas": [10.0], "sticks": [], "weights": [2.0]},
    }

    @staticmethod
    def _assert_reported(result, field):
        """``result`` is ``run_cli``'s; returns its stderr."""
        rc, _, err = result
        assert rc == 1
        assert field in err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        return err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({k: v for k, v in MODEL.items() if k != "lambda0"}, "lambda0"),
            ({k: v for k, v in MODEL.items() if k != "draw"}, "draw"),
            ({**MODEL, "lambda0": "0.1"}, "lambda0"),
            ([1], "model"),
            ({**MODEL, "draw": {**MODEL["draw"], "gamma": [2.0]}}, "gamma"),
            ({**MODEL, "draw": {**MODEL["draw"], "thetas": {"a": 1}}}, "'thetas'"),
            ({**MODEL, "draw": {**MODEL["draw"], "thetas": [[1.0]]}}, "'thetas'"),
            ({**MODEL, "draw": {**MODEL["draw"], "weights": [True]}}, "'weights'"),
            ({**MODEL, "lambda0": float("nan")}, "lambda0 must be finite"),
        ],
    )
    def test_model_file(self, tmp_path, run_cli, doc, field):
        (tmp_path / "model.json").write_text(json.dumps(doc))
        (tmp_path / "data.csv").write_text("time,status\n1.0,1\n")
        self._assert_reported(run_cli("loglik", "--model", "model.json", "--data", "data.csv"),
                              field)

    @pytest.mark.parametrize(
        "command, fields, field",
        [
            ("curves", {"lambda0": "0.1"}, "lambda0"),
            ("curves", {"lambda0": [1]}, "lambda0"),
            ("simulate", {"lambda0": "0.1"}, "lambda0"),
            ("simulate", {"lambda0": [1]}, "lambda0"),
            ("curves", {"prior": {k: v for k, v in DEMO_PRIOR.items() if k != "alpha"}}, "alpha"),
            ("curves", {"prior": "no-sticks"}, "sticks"),
            ("draw", {"prior": {**DEMO_PRIOR, "alpha": [3]}}, "alpha"),
            ("curves", {"prior": [1]}, "prior"),
            ("curves", {"prior": {**DEMO_PRIOR, "K": [20]}}, "K"),
            ("curves", {"prior": {**DEMO_PRIOR, "base": 5}}, "base"),
            ("curves", {"prior": {**DEMO_PRIOR, "base": {"kind": "normal", "mean": 2.0}}}, "sd"),
            ("curves", {"prior": {**DEMO_PRIOR, "base": {"kind": "exponential"}}}, "rate"),
            ("simulate", {"prior": {"file": 5}}, "file"),
            ("curves", {"seed": [1]}, "'seed'"),
            ("curves", {"seed": "1"}, "'seed'"),
            ("simulate", {"n": [5]}, "'n'"),
            ("simulate", {"tau": [3]}, "'tau'"),
            ("curves", {"points": "x"}, "'points'"),
            ("curves", {"t_max": [1]}, "'t_max'"),
            ("draw", {"K": [3]}, "'K'"),
            ("curves", {"model": "lcv", "nu": [1]}, "'nu'"),  # no w0: nu draws the scalars
            ("curves", {"seed": float("inf")}, "seed must be"),
            ("simulate", {"n": 1e300}, "n must be"),
            ("curves", {"points": 2.5}, "points must be"),
            ("curves", {"prior": {**DEMO_PRIOR, "K": 2.5}}, "K must be"),
            ("curves", {"prior": {**DEMO_PRIOR, "alpha": float("inf")}}, "alpha must be"),
            ("curves", {"model": "lcv", "lambda0": 1.0, "w0": float("nan")}, "w0 must be"),
            ("curves", {"model": "lcv", "lambda0": float("inf"), "w0": 0.1}, "lambda0 must be"),
            ("curves", {"model": "lwb", "a": float("nan")}, "a must be"),
            ("curves", {"model": "lwb", "a": 0.5, "t_max": float("inf")}, "t_max must be"),
        ],
    )
    def test_config(self, tmp_path, run_cli, command, fields, field):
        doc = {**IFR, "seed": 1, **fields}
        if doc["prior"] == "no-sticks":
            draw = tmp_path / "draw.json"
            draw.write_text(json.dumps({"gamma": 2.0, "thetas": [1.0], "weights": [2.0]}))
            doc["prior"] = {"file": str(draw)}
        cfg = _write_config(tmp_path, **doc)
        self._assert_reported(run_cli(command, "--config", cfg, "--out", "out.csv"), field)

    @pytest.mark.parametrize("where", ["lambda0", "prior alpha", "draw file thetas"])
    def test_int_too_large_for_a_float(self, tmp_path, run_cli, where):
        huge = 10**400
        doc = {**IFR, "seed": 1}
        if where == "lambda0":
            doc["lambda0"] = huge
        elif where == "prior alpha":
            doc["prior"] = {**DEMO_PRIOR, "alpha": huge}
        else:
            draw = tmp_path / "draw.json"
            draw.write_text(json.dumps({"gamma": 2.0, "thetas": [1.0, huge], "sticks": [0.5],
                                        "weights": [1.0, 1.0]}))
            doc["prior"] = {"file": str(draw)}
        cfg = _write_config(tmp_path, **doc)
        err = self._assert_reported(run_cli("curves", "--config", cfg, "--out", "out.csv"),
                                    repr(where.split()[-1]))
        assert len([ln for ln in err.splitlines() if ln.startswith("error:")]) == 1

    @pytest.mark.parametrize("prior, message", [
        (None, "config is missing the 'prior' section"),
        ("file", "draw needs prior parameters, not a frozen draw file"),
    ])
    def test_draw_without_prior_parameters(self, tmp_path, capsys, prior, message):
        doc = {"seed": 1}
        if prior == "file":
            draw = tmp_path / "frozen.json"
            draw.write_text(GammaProcessDraw.from_atoms([1.0], [2.0]).to_json())
            doc["prior"] = {"file": str(draw)}
        cfg = _write_config(tmp_path, **doc)
        assert main(["draw", "--config", cfg, "--out", str(tmp_path / "draw.json")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "draw.json").exists()

    @pytest.mark.parametrize("command", ["draw", "curves", "simulate"])
    def test_out_that_is_not_a_path_string(self, tmp_path, run_cli, command):
        cfg = _write_config(tmp_path, **IFR, seed=1, out=5)
        self._assert_reported(run_cli(command, "--config", cfg),
                              "needs a path string for 'out', got 5")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]  # rejected before any write

    @pytest.mark.parametrize("what, text", [("draw file", "{not json"), ("model file", "oops")])
    def test_malformed_json_file_is_named(self, tmp_path, run_cli, what, text):
        (tmp_path / "bad.json").write_text(text)
        if what == "draw file":
            cfg = _write_config(tmp_path, **{**IFR, "prior": {"file": "bad.json"}})
            argv = ("curves", "--config", cfg, "--out", "out.csv")
        else:
            (tmp_path / "data.csv").write_text("time,status\n1.0,1\n")
            argv = ("loglik", "--model", "bad.json", "--data", "data.csv")
        err = self._assert_reported(run_cli(*argv), f"error: {what} bad.json is not valid JSON: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["draw", "curves", "simulate"])
    def test_config_that_is_not_an_object(self, tmp_path, run_cli, command):
        (tmp_path / "cfg.json").write_text("[1]")
        self._assert_reported(run_cli(command, "--config", "cfg.json", "--out", "out.csv"),
                              "must be a JSON object, got list")


def test_import_loads_no_scipy(probe):
    record = probe["import"]  # import gphazard, gphazard.cli in a fresh process
    assert record.returncode == 0, record.stderr
    assert [m for m in record.loaded if m.split(".")[0] == "scipy"] == []


def test_import_loads_no_validation_suite(probe):
    record = probe["import"]
    assert record.returncode == 0, record.stderr
    assert ("gphazard.validation" in record.loaded) is False


def test_validate_help_names_the_documented_seed(capsys):
    from gphazard.validation import DEMO_SEED

    with pytest.raises(SystemExit) as exit_info:
        main(["validate", "--help"])
    assert exit_info.value.code == 0
    assert f"default {DEMO_SEED}," in capsys.readouterr().out


@pytest.mark.parametrize("tag", [["ifr"], {"a": 1}, None, 3])
def test_loglik_model_tag_that_is_not_a_string(tmp_path, capsys, tag):
    g = GammaProcessDraw.from_atoms([1.0], [2.0])
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": tag, "lambda0": 0.1, "draw": g.to_dict()}))
    data = tmp_path / "data.csv"
    data.write_text("time,status\n1.0,1\n")
    assert main(["loglik", "--model", str(model), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: unknown model variant"), err


def _run_on_rows(tmp_path, run_cli, command, rows):
    """km, or loglik of TestMalformedInput.MODEL, on a dataset of ``rows``."""
    (tmp_path / "data.csv").write_text("time,status\n" + rows)
    (tmp_path / "model.json").write_text(json.dumps(TestMalformedInput.MODEL))
    return run_cli(*{"km": ["km", "--data", "data.csv", "--out", "km.csv"],
                     "loglik": ["loglik", "--model", "model.json", "--data", "data.csv"]}[command])


@pytest.mark.parametrize("command", ["km", "loglik"])
def test_nan_time_is_reported_with_row(tmp_path, run_cli, command):
    rc, _, err = _run_on_rows(tmp_path, run_cli, command, "nan,1\n1.0,0\n")
    assert rc == 1
    assert "row 2: time must be positive, got nan" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_non_finite_tau_is_reported(tmp_path, run_cli, tau):
    cfg = _write_config(tmp_path, model="dfr", lambda0=0.0, prior=DEMO_PRIOR, seed=1, n=10)
    out = tmp_path / "data.csv"
    rc, _, err = run_cli("simulate", "--config", cfg, "--tau", tau, "--out", str(out))
    assert rc == 1
    assert f"tau must be finite and positive, got {tau}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["km", "loglik"])
def test_infinite_time_is_reported_with_row(tmp_path, run_cli, command):
    rc, _, err = _run_on_rows(tmp_path, run_cli, command, "1.0,0\ninf,1\n")
    assert rc == 1
    assert "row 3: time must be finite, got inf" in err
    assert "Traceback" not in err


class TestDrawKFlag:
    """``--K`` sets the truncation level, also over a ``K`` in the prior section."""

    @pytest.mark.parametrize("prior_k", [20, None])
    def test_flag_overrides_the_prior(self, tmp_path, prior_k):
        prior = {k: v for k, v in DEMO_PRIOR.items() if k != "K" or prior_k is not None}
        cfg = _write_config(tmp_path, prior=prior, seed=3)
        out = tmp_path / "draw.json"
        assert main(["draw", "--config", cfg, "--K", "5", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["thetas"]) == 5
        sidecar = json.loads((tmp_path / "draw.json.config.json").read_text())
        assert sidecar["K"] == 5 and sidecar["prior"].get("K") == (5 if prior_k else None)
        again = tmp_path / "again.json"
        assert main(["draw", "--config", str(out) + ".config.json", "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "draw.csv").read_bytes()

    def test_without_the_flag_the_prior_k_stands(self, tmp_path):
        cfg = _write_config(tmp_path, prior=DEMO_PRIOR, seed=3, K=5)
        out = tmp_path / "draw.json"
        assert main(["draw", "--config", cfg, "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["thetas"]) == DEMO_PRIOR["K"]


@pytest.mark.parametrize("command", ["draw", "curves", "simulate"])
@pytest.mark.parametrize("base", [{"kind": "exponential", "rate": 1e-320},
                                  {"kind": "normal", "mean": 1e308, "sd": 1e308}])
def test_prior_drawing_infinite_atoms_is_one_error(tmp_path, run_cli, command, base):
    cfg = _write_config(tmp_path, model="ifr", lambda0=0.1, seed=1,
                        prior={**DEMO_PRIOR, "base": base})
    out = tmp_path / "out.csv"
    rc, _, err = run_cli(command, "--config", cfg, "--out", str(out))
    assert rc == 1
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert errors == [errors[0]] and "atom locations must be finite, got inf" in errors[0]
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("error", [
    RuntimeError("mixture inverse did not converge in 100 steps"),
    RuntimeError("hazard quadrature did not converge in 12 rounds"),
    MemoryError("Unable to allocate 64. PiB for an array with shape (9223372036854775807,)"),
    MemoryError(),
])
def test_runtime_and_memory_errors_end_in_one_error_line(monkeypatch, capsys, error):
    # the command raises as it is entered, so nothing large is allocated
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_simulate", failing)
    assert main(["simulate", "--n", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: {str(error) or type(error).__name__}"]


class TestOneWriter:
    """Every command writes its files through ``datasets._write``, each CSV in row blocks."""

    # each file-writing command, run where cfg.json and data.csv are, with {d} its output directory
    ARGV = {
        "draw": "draw --config cfg.json --out {d}/draw.json",
        "curves": "curves --config cfg.json --out {d}/curves.csv",
        "simulate": "simulate --config cfg.json --n 50 --tau 3 --out {d}/sim.csv",
        "km": "km --data data.csv --out {d}/km.csv",
    }
    # the K = 100 configs that the file layer's sizes were measured on
    PRIOR = {"alpha": 3.0, "beta": 1.0, "K": 100}
    LARGE = {
        "mbt": {"seed": 3, "model": "mbt", "pi": 0.5, "lambda01": 0.1, "lambda02": 0.1,
                "prior": {**PRIOR, "base": {"kind": "exponential", "rate": 1.0}},
                "prior2": {**PRIOR, "base": {"kind": "normal", "mean": 2.0, "sd": 1.0}}},
        "ifr": {"seed": 3, "model": "ifr", "lambda0": 0.1, "prior": PRIOR},
    }

    @staticmethod
    def _inputs(tmp_path, run_cli):
        _write_config(tmp_path, **IFR, seed=1)
        assert run_cli("simulate", "--config", "cfg.json", "--n", "50", "--tau", "1",
                       "--out", "data.csv")[0] == 0

    @pytest.mark.parametrize("command", list(ARGV))
    def test_an_unwritable_output_is_one_error_line(self, tmp_path, run_cli, command):
        self._inputs(tmp_path, run_cli)
        rc, _, err = run_cli(*self.ARGV[command].format(d="missing").split())
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write missing/"), err

    @pytest.mark.parametrize("rows", [1, 7])
    def test_small_blocks_write_the_same_bytes(self, tmp_path, run_cli, monkeypatch, rows):
        self._inputs(tmp_path, run_cli)
        for d in ("whole", "blocks"):
            (tmp_path / d).mkdir()
            if d == "blocks":
                monkeypatch.setattr(datasets, "_CSV_ROWS", rows)
            for argv in self.ARGV.values():
                assert run_cli(*argv.format(d=d).split())[0] == 0
        names = sorted(p.name for p in (tmp_path / "whole").glob("*.csv"))
        assert names == ["curves.csv", "draw.csv", "km.csv", "sim.csv"]
        for name in names:
            whole = (tmp_path / "whole" / name).read_bytes()
            assert whole.count(b"\n") > 2 * 7  # three blocks of seven rows at least
            assert (tmp_path / "blocks" / name).read_bytes() == whole, name

    def test_an_all_censored_km_writes_the_header_alone(self, tmp_path, run_cli):
        (tmp_path / "data.csv").write_text("time,status\n1.0,0\n2.0,0\n")
        rc, _, err = run_cli("km", "--data", "data.csv", "--out", "km.csv")
        assert rc == 0, err
        assert (tmp_path / "km.csv").read_text() == "t,value\n"

    def test_the_probe_writes_a_file_of_two_blocks(self, probe):
        record = probe["simulate-two-blocks"]
        assert record.returncode == 0 and "(70000 rows, " in record.stdout
        assert datasets._CSV_ROWS < 70000 <= 2 * datasets._CSV_ROWS

    # whole-file CSV text peaked at 127 and 47.4 MiB; in blocks, at about 31 and 12.5 MiB
    @pytest.mark.parametrize("argv, mib", [
        ("curves --config mbt.json --points 200000 --out curves.csv", 48),
        ("simulate --config ifr.json --n 200000 --tau 3 --out sim.csv", 24),
    ])
    def test_peak_memory_of_a_large_file(self, tmp_path, run_cli, argv, mib):
        for name, doc in self.LARGE.items():
            _write_config(tmp_path, f"{name}.json", **doc)
        tracemalloc.start()
        try:
            rc, _, err = run_cli(*argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0, err
        assert peak < mib * 2**20, f"peak {peak / 2**20:.1f} MiB"

"""The numpy-only probe: ``python -W error tests/_probe.py DIR``.

It writes its inputs to DIR, imports gphazard and gphazard.cli, then runs
COMMANDS there, validate last through the ``python -m gphazard.cli`` entry
point.  It prints one JSON record per step: the return code, stdout, stderr
and the watched modules loaded after it.  It imports only the stdlib before
its first record, and needs neither pytest nor scipy, so it runs on an install
without the ``test`` extra.  It exits with one line saying why if a step
returns nonzero or raises, if scipy, numpy.ma or numpy.polynomial is loaded
after a step, or if gphazard.validation is loaded before the validate step.
Under ``-W error`` every warning raises, so a step that warns fails the probe.
"""

import contextlib
import io
import json
import pathlib
import runpy
import sys

_PRIOR = {"alpha": 3.0, "beta": 1.0, "K": 20}
_LATE = {**_PRIOR, "base": {"kind": "normal", "mean": 2.0, "sd": 1.0}}
CONFIGS = {
    "ifr": {"model": "ifr", "lambda0": 0.1, "prior": _PRIOR},
    "lwb": {"model": "lwb", "lambda0": 0.1, "a": 0.6, "prior": _PRIOR},
    "sbt": {"model": "sbt", "lambda0": 0.1, "prior": _PRIOR, "prior2": _LATE},
    "mbt": {"model": "mbt", "pi": 0.5, "lambda01": 0.1, "lambda02": 0.1, "prior": _PRIOR,
            "prior2": _LATE},
    "lcv": {"model": "lcv", "lambda0": 1.0, "w0": -1.0, "prior": _PRIOR},
    # a total mass of 0, and sticks that round to 1: the drawn values are kept
    "ifr-tiny-alpha": {"model": "ifr", "lambda0": 0.1, "prior": {**_PRIOR, "alpha": 1e-300}},
}
# the loglik steps' models, each written on the draw step's draw
MODELS = {"dfr": {"lambda0": 0.1}, "ifr": {"lambda0": 0.1}, "lwb": {"lambda0": 0.1, "a": 0.6},
          "sbt": {"lambda0": 0.1}, "mbt": {"pi": 0.5, "lambda01": 0.1, "lambda02": 0.1},
          "lcv": {"lambda0": 1.0, "w0": -1.0}}
# each command's arguments, with {d} the directory of its input and output files: CONFIGS,
# the MODELS as <variant>_model.json and the simulate step's data.csv
COMMANDS = {
    "draw": "draw --config {d}/ifr.json --seed 1 --out {d}/draw.json",
    **{f"curves-{m}": f"curves --config {{d}}/{m}.json --seed 1 --out {{d}}/{m}.csv"
       for m in ("lwb", "sbt", "mbt", "lcv", "ifr-tiny-alpha")},
    "simulate": "simulate --config {d}/ifr.json --seed 1 --tau 3 --n 200 --out {d}/data.csv",
    # more rows than datasets._CSV_ROWS, so that the file is written in two blocks
    "simulate-two-blocks": "simulate --config {d}/ifr.json --seed 1 --tau 3 --n 70000 "
                           "--out {d}/big.csv",
    **{"loglik" if m == "dfr" else f"loglik-{m}":
       f"loglik --model {{d}}/{m}_model.json --data {{d}}/data.csv --tau 3" for m in MODELS},
    "km": "km --data {d}/data.csv --out {d}/km.csv",
    "validate": "validate",
}


def _loaded():
    return [m for m in ("gphazard.validation", "numpy.ma", "numpy.polynomial", "scipy")
            if m in sys.modules]


def _run(args):
    if args[0] != "validate":
        return gphazard.cli.main(args)
    sys.argv = ["gphazard", *args]
    del sys.modules["gphazard.cli"]  # as under python -m, not yet imported when run as __main__
    try:
        runpy.run_module("gphazard.cli", run_name="__main__")
    except SystemExit as e:
        return e.code


def _check(name, record):
    """The step's record, or exit with one line saying why it fails the probe."""
    if record["returncode"] != 0:
        last = (record["stderr"] or record["stdout"]).strip().splitlines() or ["no output"]
        sys.exit(f"_probe.py: {name} exited {record['returncode']}: {last[-1]}")
    loaded = [m for m in record["loaded"] if m != "gphazard.validation" or name != "validate"]
    if loaded:
        sys.exit(f"_probe.py: {name} loaded {', '.join(loaded)}")
    return record


if __name__ == "__main__":
    d = pathlib.Path(sys.argv[1])
    for name, config in CONFIGS.items():
        (d / f"{name}.json").write_text(json.dumps(config))

    import gphazard
    import gphazard.cli

    records = {"import": _check("import", {"returncode": 0, "stdout": "", "stderr": "",
                                           "loaded": _loaded()})}
    for name, command in COMMANDS.items():
        if name == "loglik":
            draw = json.loads((d / "draw.json").read_text())
            for m, fields in MODELS.items():
                draws = {"draw1": draw, "draw2": draw} if m in ("sbt", "mbt") else {"draw": draw}
                (d / f"{m}_model.json").write_text(json.dumps({"model": m, **fields, **draws}))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = _run(command.format(d=d).split())
        except Exception as e:  # a warning made an error, say: one line, not a traceback
            sys.exit(f"_probe.py: {name} raised {type(e).__name__}: {e}")
        records[name] = _check(name, {"returncode": rc, "stdout": out.getvalue(),
                                      "stderr": err.getvalue(), "loaded": _loaded()})
    print(json.dumps(records))

"""The one child process behind the ``probe`` fixture: ``python _probe.py DIR``.

It imports gphazard and gphazard.cli, then runs COMMANDS on the files in DIR,
validate last through the ``python -m gphazard.cli`` entry point.  It prints one
JSON record per step: the return code, stdout, stderr and the watched modules
loaded after it.  It imports only the stdlib before its first record.
"""

import contextlib
import io
import json
import runpy
import sys

_PRIOR = {"alpha": 3.0, "beta": 1.0, "K": 20}
CONFIGS = {
    "ifr": {"model": "ifr", "lambda0": 0.1, "prior": _PRIOR},
    "lwb": {"model": "lwb", "lambda0": 0.1, "a": 0.6, "prior": _PRIOR},
    "mbt": {"model": "mbt", "pi": 0.5, "lambda01": 0.1, "lambda02": 0.1, "prior": _PRIOR,
            "prior2": {**_PRIOR, "base": {"kind": "normal", "mean": 2.0, "sd": 1.0}}},
    "lcv": {"model": "lcv", "lambda0": 1.0, "w0": -1.0, "prior": _PRIOR},
}
# each command's arguments, with {d} the directory of its input and output files;
# the files are CONFIGS, model.json (a dfr model) and data.csv (a dataset it simulated)
COMMANDS = {
    "draw": "draw --config {d}/ifr.json --seed 1 --out {d}/draw.json",
    **{f"curves-{m}": f"curves --config {{d}}/{m}.json --seed 1 --out {{d}}/{m}.csv"
       for m in ("lwb", "mbt", "lcv")},
    "simulate": "simulate --config {d}/ifr.json --seed 1 --tau 3 --n 200 --out {d}/simulated.csv",
    "loglik": "loglik --model {d}/model.json --data {d}/data.csv --tau 3",
    "km": "km --data {d}/data.csv --out {d}/km.csv",
    "validate": "validate",
}


def _loaded():
    watched = ("numpy.ma", "numpy.polynomial", "gphazard.validation")
    return sorted(m for m in sys.modules if m in watched or m.split(".")[0] == "scipy")


def _run(args):
    if args[0] != "validate":
        return gphazard.cli.main(args)
    sys.argv = ["gphazard", *args]
    del sys.modules["gphazard.cli"]  # as under python -m, not yet imported when run as __main__
    try:
        runpy.run_module("gphazard.cli", run_name="__main__")
    except SystemExit as e:
        return e.code


if __name__ == "__main__":
    import gphazard
    import gphazard.cli

    records = {"import": {"returncode": 0, "stdout": "", "stderr": "", "loaded": _loaded()}}
    for name, command in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = _run(command.format(d=sys.argv[1]).split())
        records[name] = {"returncode": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                         "loaded": _loaded()}
    print(json.dumps(records))

"""Command-line front end: draw priors, tabulate curves, simulate data, score likelihoods.

Every command is a pure function of (config file, flags, seed): rerunning
with the same inputs produces byte-identical outputs.  Flags override
config-file fields; each file-writing command also emits a
``<out>.config.json`` sidecar holding the fully resolved configuration,
which reproduces the run when fed back through ``--config``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ._checks import _check_count, _check_range, _require_keys, _require_reals
from .datasets import _csv_text, read_dataset_csv, write_dataset_csv
from .gamma_process import GammaProcessDraw, GammaProcessParams, _distinct, draw_gamma_process
from .likelihood import HyperParams, log_likelihood
from .models import (HazardModel, _build_model, _draw_model_params, _model_class, model_from_dict,
                     simulate_dataset)
from .rng import RandomStream
from .stats import kaplan_meier


def _read_json(path: str, what: str):
    """The JSON document in the file at ``path``; ValueError naming the ``what`` and the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read {what} {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{what} {path} is not valid JSON: {e}") from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = _read_json(path, "config")
    _require_keys(cfg, (), f"config {path}")
    return cfg


def _resolve(cfg: dict, args, defaults: dict) -> dict:
    """The config document with the command's flags (when given) laid over it, then its defaults.

    ``defaults`` maps each of the command's fields, which is also its flag's
    name in ``args``, to its default (None for none).  Raises ValueError
    naming the field unless 'out' is a path string and every other field
    given is a real number ('tau' may also be null).
    """
    out = dict(cfg)
    for key, default in defaults.items():
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
        elif default is not None:
            out.setdefault(key, default)
    if not isinstance(out["out"], str):
        raise ValueError(f"config needs a path string for 'out', got {out['out']!r}")
    given = [k for k in defaults if k in out and k != "out" and not (k == "tau" and out[k] is None)]
    _require_reals(out, given, "config")
    return out


def _section(cfg: dict, key: str) -> dict | None:
    """The config's ``key`` draw section, None when absent; its 'file', if any, is a path string."""
    spec = cfg.get(key)
    if spec is not None:
        _require_keys(spec, (), f"config section {key!r}")
        if not isinstance(spec.get("file", ""), str):
            raise ValueError(f"config section {key!r} needs a path string for 'file', "
                             f"got {spec['file']!r}")
    return spec


def _resolve_draw(cfg: dict, key: str, stream: RandomStream) -> GammaProcessDraw:
    spec = _section(cfg, key)
    if spec is None:
        raise ValueError(f"config is missing the {key!r} section")
    if "file" in spec:
        return GammaProcessDraw.from_dict(_read_json(spec["file"], "draw file"))
    params = GammaProcessParams.from_dict({"K": cfg.get("K", 100), **spec})
    return draw_gamma_process(params, stream)


def build_model(cfg: dict, stream: RandomStream) -> HazardModel:
    """Assemble the configured model, drawing priors (and scalars, if nu is set) in order.

    With nu set, every prior is drawn, in field order, and a scalar the
    config gives takes the place of its draw.
    """
    cls = _model_class(cfg.get("model"))
    _, scalars, draw_keys, drawable = cls._fields()
    draw_pi = cfg.get("draw_pi", False)
    if not isinstance(draw_pi, bool):
        raise ValueError(f"config needs true or false for 'draw_pi', got {draw_pi!r}")
    draws = [_resolve_draw(cfg, key, stream) for key in ("prior", "prior2")[: len(draw_keys)]]
    missing = [k for k in scalars if k not in cfg]
    if not missing:
        return _build_model(cls, cfg, draws)
    if "nu" not in cfg:
        offer = [k for k in missing if k in drawable]
        hint = f" (or 'nu' to draw {offer} from their priors)" if offer else ""
        raise ValueError(f"{cls.variant} needs {missing} in the config{hint}")
    given = [k for k in drawable if k in cfg]
    _require_reals(cfg, ["nu", *given], "config")
    return _draw_model_params(cls, draws, HyperParams(nu=cfg["nu"]), stream, cfg, draw_pi)


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from None


def _write_sidecar(out_path, cfg: dict, command: str) -> None:
    sidecar = dict(cfg)
    sidecar["command"] = command
    _write_text(str(out_path) + ".config.json", json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def _cmd_draw(args) -> int:
    cfg = _resolve(_load_config(args.config), args, {"seed": 0, "out": "draw.json", "K": None})
    spec = _section(cfg, "prior") or {}
    if args.K is not None and "K" in spec:  # the flag overrides it
        cfg["prior"] = {**spec, "K": args.K}
    if "file" in spec:
        raise ValueError("draw needs prior parameters, not a frozen draw file")
    draw = _resolve_draw(cfg, "prior", RandomStream(cfg["seed"]))
    out = Path(cfg["out"])
    _write_text(out, draw.to_json() + "\n")
    table = (np.arange(1, draw.n_atoms + 1), draw.thetas, draw.weights)
    _write_text(out.with_suffix(".csv"), _csv_text("k,theta,weight", table))
    _write_sidecar(out, cfg, "draw")
    print(f"wrote {out} and {out.with_suffix('.csv')} (total mass {draw.gamma!r})")
    return 0


def _curve_grid(model: HazardModel, t_max: float, points: int) -> np.ndarray:
    t_max = _check_range("t_max", t_max, "positive")
    grid = np.linspace(0.0, t_max, _check_count("points", points, 2))
    bps = model.breakpoints()
    bps = bps[(bps > 0.0) & (bps <= t_max)]
    # paired rows just before and at each breakpoint render steps exactly
    before = np.nextafter(bps, -np.inf)
    return _distinct(np.sort(np.concatenate((grid, bps, before[before >= 0.0]))))[0]


def _cmd_curves(args) -> int:
    cfg = _resolve(_load_config(args.config), args,
                   {"seed": 0, "out": "curves.csv", "t_max": 5.0, "points": 201})
    model = build_model(cfg, RandomStream(cfg["seed"]))
    ts = _curve_grid(model, cfg["t_max"], cfg["points"])
    table = (ts, model.hazard(ts), model.cum_hazard(ts), model.density(ts), model.survival(ts))
    _write_text(cfg["out"], _csv_text("t,hazard,cum_hazard,density,survival", table))
    _write_sidecar(cfg["out"], cfg, "curves")
    print(f"wrote {cfg['out']} ({len(ts)} rows)")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _resolve(_load_config(args.config), args,
                   {"seed": 0, "out": "dataset.csv", "n": 1000, "tau": None})
    stream = RandomStream(cfg["seed"])
    model = build_model(cfg, stream)
    data = simulate_dataset(model, cfg["n"], cfg.get("tau"), stream)
    write_dataset_csv(data, cfg["out"])
    _write_sidecar(cfg["out"], cfg, "simulate")
    print(f"wrote {cfg['out']} ({data.n} rows, {data.n - data.n_observed} censored)")
    return 0


def _cmd_loglik(args) -> int:
    model = model_from_dict(_read_json(args.model, "model file"))
    data = read_dataset_csv(args.data, tau=args.tau)
    print(f"{log_likelihood(model, data):.12g}")
    return 0


def _cmd_km(args) -> int:
    data = read_dataset_csv(args.data)
    step = kaplan_meier(data)
    out = args.out or "km.csv"
    step.to_csv(out)
    print(f"wrote {out} ({step.breakpoints.size} steps)")
    return 0


def _cmd_validate(args) -> int:
    from . import validation  # only this command loads the suite; its names are read at call time
    seed = validation.DEMO_SEED if args.seed is None else args.seed
    results = validation.run_validation(seed=seed, tol_scale=args.tol_scale)
    print(validation.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gphazard",
        description="Hazard-rate models on truncated gamma process priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--seed", type=int, help="random seed (overrides config)")
        p.add_argument("--out", help="output path (overrides config)")

    p = sub.add_parser("draw", help="sample a prior draw to JSON + CSV")
    common(p)
    p.add_argument("--K", type=int, help="truncation level (overrides config)")
    p.set_defaults(func=_cmd_draw)

    p = sub.add_parser("curves", help="tabulate hazard/cum-hazard/density/survival")
    common(p)
    p.add_argument("--tmax", dest="t_max", type=float, help="grid upper end")
    p.add_argument("--points", type=int, help="grid size")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("simulate", help="simulate a (possibly censored) dataset CSV")
    common(p)
    p.add_argument("--n", type=int, help="number of records")
    p.add_argument("--tau", type=float, help="censoring horizon")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("loglik", help="log-likelihood of a dataset under a saved model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--data", required=True, help="dataset CSV file")
    p.add_argument("--tau", type=float, help="common censoring horizon")
    p.set_defaults(func=_cmd_loglik)

    p = sub.add_parser("km", help="Kaplan-Meier curve of a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV file")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=_cmd_km)

    p = sub.add_parser("validate", help="run the built-in verification suite")
    p.add_argument("--seed", type=int, help="suite seed (default 20250812, the documented seed)")
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiply all tolerances (diagnostic)")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run one command; its return code, or 1 after one ``error:`` line for a failure it reports.

    A RuntimeError (an inverse or a quadrature that did not converge) and a
    MemoryError (a size too large to allocate) end the same way as bad input.
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

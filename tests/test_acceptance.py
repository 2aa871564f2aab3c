"""Acceptance gate: one test per criterion, each printing a PASS line.

All six models use the documented demonstration configuration: shape 3,
rate 1, K=100 truncation, unit-rate exponential base for the early draw
(Normal(2,1) base for the late draw of the two-draw models), bathtub
minimum a=0.6, mixture weight pi=0.5, offsets 0.1 (log-convex: lambda0=1,
w0=-1), at seed 20250812.  Tolerances are pinned below.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import gphazard as gp

import _oracle

SEED = 20250812
T_MAX = 5.0


@pytest.fixture(scope="module")
def models():
    stream = gp.RandomStream(SEED)
    early = gp.draw_gamma_process(
        gp.GammaProcessParams(alpha=3.0, beta=1.0, n_atoms=100, base=gp.ExponentialBase(1.0)),
        stream.split(0),
    )
    late = gp.draw_gamma_process(
        gp.GammaProcessParams(alpha=3.0, beta=1.0, n_atoms=100, base=gp.NormalBase(2.0, 1.0)),
        stream.split(1),
    )
    return {
        "ifr": gp.IncreasingFailureRate(0.1, early),
        "dfr": gp.DecreasingFailureRate(0.1, early),
        "lwb": gp.LoWengBathtub(0.1, 0.6, early),
        "sbt": gp.SuperpositionBathtub(0.1, early, late),
        "mbt": gp.MixtureBathtub(0.5, 0.1, early, 0.1, late),
        "lcv": gp.LogConvexHazard(1.0, -1.0, early),
    }


def test_criterion_01_inversion_round_trip(models):
    """|cum_hazard(invert(x)) - x| <= 1e-9 * max(1, x) on 10^4 targets per model."""
    rng = np.random.default_rng(1)
    for name, model in models.items():
        lam_max = float(model.cum_hazard(T_MAX))
        targets = (1.0 - rng.random(10_000)) * lam_max  # in (0, lam_max]
        t = np.asarray(model.invert_cum_hazard(targets))
        assert np.all(np.isfinite(t)), name
        err = np.max(np.abs(np.asarray(model.cum_hazard(t)) - targets) / np.maximum(1.0, targets))
        assert err <= 1e-9, (name, err)
    print("ACCEPTANCE 1: PASS — inversion round-trip within 1e-9 for all six models")


def test_criterion_02_quadrature_consistency(models):
    """Numeric integration of the hazard matches cum_hazard to 1e-6 relative."""
    rng = np.random.default_rng(2)
    for name, model in models.items():
        for t_end in rng.uniform(0.0, T_MAX, size=20):
            if t_end == 0.0:
                continue
            exact = float(model.cum_hazard(t_end))
            numeric = _oracle.quad_hazard(model, float(t_end))
            assert abs(numeric - exact) <= 1e-6 * abs(exact), (name, t_end)
    print("ACCEPTANCE 2: PASS — quadrature consistency within 1e-6 at 20 points per model")


def test_criterion_03_sampling_goodness_of_fit(models):
    """KS distance of 10^4 samples to the analytic survival below 0.025 (seed 20250812)."""
    for i, (name, model) in enumerate(models.items()):
        stream = gp.RandomStream(SEED).split(100 + i)
        samples = np.array([model.sample_failure(stream) for _ in range(10_000)])
        d = gp.ks_distance(samples, lambda x: 1.0 - np.asarray(model.survival(x)))
        assert d < 0.025, (name, d)
    print("ACCEPTANCE 3: PASS — sampling KS below 0.025 for all six models")


def test_criterion_04_truncation_mass():
    """Mean unscaled tail mass after 4 atoms is 1-(3/4)^4 within 3 SE; after 40, ~1e-5."""
    stream = gp.RandomStream(SEED).split(200)
    params = gp.GammaProcessParams(alpha=3.0, beta=1.0, n_atoms=41, base=gp.ExponentialBase(1.0))
    tail4 = np.empty(1000)
    tail40 = np.empty(1000)
    for i in range(1000):
        w = gp.draw_gamma_process(params, stream).unscaled_weights
        tail4[i] = w[4:].sum()
        tail40[i] = w[40]  # closure term = product of the first 40 stick complements
    for k, tails in ((4, tail4), (40, tail40)):
        target = gp.expected_tail_mass(3.0, k)
        se = tails.std(ddof=1) / math.sqrt(tails.size)
        assert abs(tails.mean() - target) <= 3.0 * se, k
    assert 1e-6 < tail40.mean() < 1e-4  # order of magnitude of (3/4)**40
    assert abs(1.0 - tail4.mean() - (1.0 - 0.75**4)) <= 0.02  # first four carry ~0.684
    print("ACCEPTANCE 4: PASS — truncation tail mass matches (3/4)^k within 3 SE (k=4, 40)")


def test_criterion_05_model_identities(models):
    """Superposition, mixture, reflection, and log-slope identities at 1e-12."""
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.0, T_MAX, size=1000)

    sbt = models["sbt"]
    decomposed = (
        sbt.lambda0
        + np.asarray(gp.DecreasingFailureRate(0.0, sbt.draw_decreasing).hazard(ts))
        + np.asarray(gp.IncreasingFailureRate(0.0, sbt.draw_increasing).hazard(ts))
    )
    np.testing.assert_allclose(np.asarray(sbt.hazard(ts)), decomposed, rtol=1e-12)

    mbt = models["mbt"]
    dfr = gp.DecreasingFailureRate(mbt.lambda01, mbt.draw1)
    ifr = gp.IncreasingFailureRate(mbt.lambda02, mbt.draw2)
    np.testing.assert_allclose(
        np.asarray(mbt.survival(ts)),
        mbt.pi * np.asarray(dfr.survival(ts)) + (1 - mbt.pi) * np.asarray(ifr.survival(ts)),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        np.asarray(mbt.density(ts)),
        mbt.pi * np.asarray(dfr.density(ts)) + (1 - mbt.pi) * np.asarray(ifr.density(ts)),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        np.asarray(mbt.hazard(ts)) * np.asarray(mbt.survival(ts)),
        np.asarray(mbt.density(ts)),
        rtol=1e-12,
    )

    lwb = models["lwb"]
    offs = rng.uniform(0.0, lwb.a, size=1000)
    offs = offs[~np.isin(offs, lwb.draw.thetas)]
    np.testing.assert_array_equal(
        np.asarray(lwb.hazard(lwb.a - offs)), np.asarray(lwb.hazard(lwb.a + offs))
    )

    lcv = models["lcv"]
    o = lcv.draw.ordered
    knots = np.concatenate(([0.0], o.thetas))
    rates = lcv.w0 + np.concatenate(([0.0], o.cum_mass))
    widths = np.diff(np.append(knots, knots[-1] + 1.0))
    checked = 0
    for k, c, w in zip(knots, rates, widths):
        if w < 0.05 or abs(c) < 0.25:
            continue
        t1, t2 = k + 0.25 * w, k + 0.75 * w
        slope = (math.log(lcv.hazard(t2)) - math.log(lcv.hazard(t1))) / (t2 - t1)
        assert abs(slope - c) <= 1e-12 * abs(c)
        checked += 1
    assert checked >= 5
    print("ACCEPTANCE 5: PASS — superposition/mixture/reflection/log-slope identities at 1e-12")


def test_criterion_06_shape_invariants(models):
    """Monotone hazards, bathtub minimum, log-convexity, monotone cumulative hazards."""
    grid = np.linspace(0.0, T_MAX, 2001)
    assert np.all(np.diff(np.asarray(models["ifr"].hazard(grid))) >= 0.0)
    assert np.all(np.diff(np.asarray(models["dfr"].hazard(grid))) <= 0.0)
    lwb = models["lwb"]
    assert lwb.hazard(lwb.a) == lwb.lambda0
    assert np.all(np.asarray(lwb.hazard(grid)) >= lwb.lambda0)
    log_h = np.log(np.asarray(models["lcv"].hazard(grid)))
    assert np.min(np.diff(log_h, 2)) >= -1e-9
    for name, model in models.items():
        assert model.cum_hazard(0.0) == 0.0, name
        assert np.all(np.diff(np.asarray(model.cum_hazard(grid))) >= 0.0), name
    print("ACCEPTANCE 6: PASS — shape invariants hold for all six models")


def test_criterion_07_likelihood_reduction():
    """Constant-hazard dataset scores exactly -8; MLE grid search matches n0/(sum t + c*tau)."""
    model = gp.IncreasingFailureRate(1.0, gp.GammaProcessDraw.from_atoms([10.0], [2.0]))
    data = gp.Dataset(times=[1.0, 2.0, 5.0], observed=[True, True, False], tau=5.0)
    assert gp.log_likelihood(model, data) == -8.0

    times = np.array([0.5, 1.2, 2.0, 3.0, 3.0])
    observed = np.array([True, True, True, False, False])
    data = gp.Dataset(times=times, observed=observed, tau=3.0)
    atoms = gp.GammaProcessDraw.from_atoms([50.0], [1.0])
    analytic = observed.sum() / (times[observed].sum() + 2 * 3.0)
    lo, hi = 1e-4, 5.0
    best = lo
    for _ in range(6):
        lams = np.linspace(lo, hi, 101)
        vals = [gp.log_likelihood(gp.IncreasingFailureRate(l, atoms), data) for l in lams]
        best = lams[int(np.argmax(vals))]
        span = (hi - lo) / 50.0
        lo, hi = max(1e-9, best - span), best + span
    assert abs(best - analytic) <= 1e-6
    print("ACCEPTANCE 7: PASS — likelihood equals -8 exactly; grid MLE within 1e-6")


def test_criterion_08_kaplan_meier(models):
    """KM equals the survival ECDF exactly without censoring; hand example reproduced."""
    data = gp.simulate_dataset(models["ifr"], 200, None, gp.RandomStream(SEED).split(300))
    km = gp.kaplan_meier(data)
    ts = np.sort(data.times)
    surv_ecdf = (200 - np.searchsorted(ts, ts, side="right")) / 200
    np.testing.assert_array_equal(km(ts), surv_ecdf)

    km = gp.kaplan_meier(gp.Dataset(times=[1.0, 2.0, 3.0], observed=[True, False, True]))
    assert km(1.0) == 2.0 / 3.0 and km(2.9) == 2.0 / 3.0 and km(3.0) == 0.0
    print("ACCEPTANCE 8: PASS — Kaplan-Meier exact on uncensored data and the hand example")


def test_criterion_09_defective_tails(models):
    """Finite total hazards yield inf draws past the limit; simulate censors them."""
    g = models["ifr"].draw

    dfr0 = gp.DecreasingFailureRate(0.0, g)
    lim = dfr0.cum_hazard_limit()
    assert math.isfinite(lim)
    np.testing.assert_allclose(lim, float((g.weights * g.thetas).sum()), rtol=1e-12)
    assert math.isinf(dfr0.invert_cum_hazard(lim * 1.000001))
    assert math.isfinite(dfr0.invert_cum_hazard(lim * 0.999))
    tau = lim / 4.0
    data = gp.simulate_dataset(dfr0, 400, tau, gp.RandomStream(SEED).split(301))
    assert 0 < data.n_observed < 400
    assert np.all(np.isfinite(data.times))
    assert np.all(data.times[~data.observed] == tau)

    lcv_def = gp.LogConvexHazard(1.0, -(g.gamma + 0.5), g)
    lim = lcv_def.cum_hazard_limit()
    assert math.isfinite(lim)
    # oracle: integrate the decaying hazard out to infinity
    t_last = float(g.thetas.max())
    tail, _ = quad(lambda s: float(lcv_def.hazard(s)), t_last, np.inf, limit=400)
    np.testing.assert_allclose(lim, float(lcv_def.cum_hazard(t_last)) + tail, rtol=1e-8)
    assert math.isinf(lcv_def.invert_cum_hazard(lim * 1.000001))
    assert math.isfinite(lcv_def.invert_cum_hazard(lim * 0.5))
    data = gp.simulate_dataset(lcv_def, 400, 2.0, gp.RandomStream(SEED).split(302))
    assert np.all(np.isfinite(data.times))

    flat = gp.LogConvexHazard(2.0, -1.0, gp.GammaProcessDraw.from_atoms([], []))
    ts = np.linspace(0.25, 4.0, 10)
    closed = 2.0 * (np.exp(-ts) - 1.0) / -1.0
    np.testing.assert_allclose(np.asarray(flat.cum_hazard(ts)), closed, rtol=1e-12)
    assert flat.cum_hazard_limit() == 2.0
    assert math.isinf(flat.invert_cum_hazard(3.0))
    print("ACCEPTANCE 9: PASS — defective tails return inf, censor under tau, closed form matches")


def test_criterion_10_cli_determinism(tmp_path, run_cli, probe):
    """Every CLI command run twice with one config and seed is byte-identical."""
    prior = {"alpha": 3.0, "beta": 1.0, "K": 30, "base": {"kind": "exponential", "rate": 1.0}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "lwb", "lambda0": 0.1, "a": 0.6, "prior": prior,
                               "seed": SEED, "n": 100, "t_max": 3.0, "points": 50}))
    model = gp.IncreasingFailureRate(1.0, gp.GammaProcessDraw.from_atoms([10.0], [2.0]))
    outputs = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        (base / "m.json").write_text(json.dumps(gp.model_to_dict(model)))
        stdout = []
        for args in (["draw", "--config", cfg, "--out", base / "d.json"],
                     ["curves", "--config", cfg, "--out", base / "c.csv"],
                     ["simulate", "--config", cfg, "--out", base / "s.csv"],
                     ["loglik", "--model", base / "m.json", "--data", base / "s.csv"],
                     ["km", "--data", base / "s.csv", "--out", base / "k.csv"]):
            rc, out, _ = run_cli(*map(str, args))
            assert rc == 0
            stdout.append(out)
        files = {
            p.name: p.read_bytes().replace(str(base).encode(), b"<BASE>")
            for p in base.iterdir()
            if p.is_file()
        }
        outputs[tag] = ([s.replace(str(base), "<BASE>") for s in stdout], files)
    assert outputs["one"][0] == outputs["two"][0]
    assert outputs["one"][1].keys() == outputs["two"][1].keys()
    for name in outputs["one"][1]:
        assert outputs["one"][1][name] == outputs["two"][1][name], name

    rc, out, _ = run_cli("validate")
    assert out == probe["validate"].stdout
    assert rc == probe["validate"].returncode == 0
    print("ACCEPTANCE 10: PASS — all CLI commands byte-identical across reruns")

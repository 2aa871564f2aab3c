"""The check table behind ``validate``: one loop, one tolerance scale, independent groups."""

import inspect

import pytest

from gphazard import validation
from gphazard.models import HazardModel, IncreasingFailureRate, MixtureBathtub
from gphazard.validation import DEMO_SEED, run_validation


def _bits(r):
    return r.name, r.value.hex(), r.limit.hex(), r.passed, r.note


@pytest.fixture(scope="module")
def full():
    return run_validation(DEMO_SEED)


def test_groups_are_generators_of_models_and_stream():
    for _, group in validation._GROUPS:
        assert inspect.isgeneratorfunction(group), group.__name__
        assert list(inspect.signature(group).parameters) == ["models", "stream"], group.__name__


def test_split_ids_are_unique():
    ids = [split_id for split_id, _ in validation._GROUPS]
    assert len(set(ids)) == len(ids)


def test_tol_scale_multiplies_every_limit_and_nothing_else(full):
    scaled = run_validation(DEMO_SEED, 3.5)
    assert [r.name for r in scaled] == [r.name for r in full]
    for r, s in zip(full, scaled):
        assert s.value.hex() == r.value.hex(), r.name
        assert s.note == r.note
        assert s.limit == float(r.limit * 3.5), r.name
        assert s.passed == (s.value <= s.limit)


def test_dropping_a_group_leaves_every_other_row_bit_equal(full, monkeypatch):
    table = validation._GROUPS
    dropped = []
    for i in range(len(table)):
        monkeypatch.setattr(validation, "_GROUPS", table[:i] + table[i + 1:])
        rest = [_bits(r) for r in run_validation(DEMO_SEED)]
        kept = set(r[0] for r in rest)
        gone = [_bits(r) for r in full if r.name not in kept]
        assert gone, table[i][1].__name__
        assert rest == [_bits(r) for r in full if r.name in kept]
        dropped += gone
    # every row belongs to exactly one group, and the groups are in report order
    assert dropped == [_bits(r) for r in full]


def test_one_check_result_per_row_built_as_soon_as_it_is_measured(monkeypatch):
    real = validation.CheckResult
    seen = []
    yielded = []

    def counting(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    def watched(group):
        def rows(models, stream):
            for row in group(models, stream):
                assert len(seen) == len(yielded), f"{yielded[-1]} was not built before {row[0]}"
                yielded.append(row[0])
                yield row
        return rows

    monkeypatch.setattr(validation, "CheckResult", counting)
    monkeypatch.setattr(validation, "_GROUPS",
                        tuple((i, watched(group)) for i, group in validation._GROUPS))
    results = run_validation(DEMO_SEED)
    assert len(seen) == 43
    assert len({r.name for r in seen}) == 43
    assert [r.name for r in seen] == yielded
    assert [id(r) for r in results] == [id(r) for r in seen]


def test_the_mixture_identity_rows_read_its_cumulative_hazard(monkeypatch):
    """The mixture's survival and density mix its components', so an H 1e-9 off fails both."""
    def scaled(self, t):
        return HazardModel.cum_hazard(self, t) * (1.0 + 1e-9)

    monkeypatch.setattr(MixtureBathtub, "cum_hazard", scaled)
    rows = {r.name: r for r in run_validation(DEMO_SEED)}
    for name in ("identity-mixture-survival", "identity-mixture-density"):
        assert not rows[name].passed, (name, rows[name].value)


def _likelihood_mle(monkeypatch):
    monkeypatch.setattr(validation, "_GROUPS", ((11, validation._likelihood_checks),))
    return {r.name: r for r in run_validation(DEMO_SEED)}["likelihood-mle"]


def test_the_likelihood_mle_row_finds_the_closed_form(monkeypatch):
    row = _likelihood_mle(monkeypatch)
    assert row.passed and row.value <= 1e-8, row.value


@pytest.mark.parametrize("wrong", ["maximum 1% off", "flat"])
def test_the_likelihood_mle_row_fails_a_wrong_likelihood(monkeypatch, wrong):
    real = validation.log_likelihood

    def shifted(model, data):  # the score at lambda0 / 1.01, so its maximum is 1% above
        return real(IncreasingFailureRate(model.lambda0 / 1.01, model.draw), data)

    def flat(model, data):
        return -1.0

    monkeypatch.setattr(validation, "log_likelihood",
                        {"maximum 1% off": shifted, "flat": flat}[wrong])
    row = _likelihood_mle(monkeypatch)
    assert not row.passed, row.value


# The FAIL rows that remain at the seeds below, each with its cause (ROADMAP item 15).
# Seeds 14, 15 and 19 failed defective-dfr-tail and seed 17 sampling-ks[lcv] before
# ks_distance took infinite samples as an atom at infinity and the tail row censored
# at a time, seed 257 identity-log-slope before that row fell back to the segment whose
# log hazard moves most, and seed 33 truncation-tail-mass[k=40] before that row held
# the mean of -log T_k to its exact Gamma law; seed 248 comes closest to that row's
# limit over seeds 0-399 (3.61 sd against 3.89).  A FAIL row not listed here fails the
# test, and so does a listed row that passes, so that the table stays the list of what
# is left.
KNOWN_FAILURES = {
    (396, "sampling-ks[lwb]"): "item 15: D = 0.0256 against 0.025, a rare draw of the stream",
}


@pytest.mark.parametrize("seed", [*range(20), 33, 248, 257, 396])
def test_every_fail_row_is_a_known_one(seed):
    failed = [r.name for r in run_validation(seed) if not r.passed]
    unknown = [name for name in failed if (seed, name) not in KNOWN_FAILURES]
    assert not unknown, f"seed {seed}: FAIL rows not in KNOWN_FAILURES: {unknown}"
    mended = [name for s, name in KNOWN_FAILURES if s == seed and name not in failed]
    assert not mended, f"seed {seed}: {mended} pass now; take them out of KNOWN_FAILURES"

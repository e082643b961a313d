"""Fuzz harness: reproducibility, families, precondition gating."""

import numpy as np
import pytest

from gapbound import (
    EnvelopeViolation,
    FuzzConfig,
    HoppingEnvelope,
    InvariantViolation,
    ModelSpec,
    NNBound,
    ValidationError,
    run_fuzz,
    trial_rng,
)
import gapbound.bounds as bounds_mod
import gapbound.fuzz as fuzz_mod
import gapbound.lattice as lattice_mod
from gapbound.fuzz import ENVELOPE_FAMILY, NN_FAMILY, _scaled_blocks, random_model
from gapbound.lattice import hopping_norms

from oracles import random_model_blocks


def test_config_validation():
    with pytest.raises(ValidationError):
        FuzzConfig(trials=0)
    with pytest.raises(ValidationError):
        FuzzConfig(size_range=(10, 4))
    with pytest.raises(ValidationError):
        FuzzConfig(family="chaotic")


def test_config_rejects_negative_or_non_integer_seed():
    for seed in (-1, 1.5, "3", None):
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
            FuzzConfig(seed=seed)
    assert FuzzConfig(seed=0).seed == 0
    assert FuzzConfig(seed=np.int64(3)).seed == 3


def test_config_rejects_non_integer_or_nonpositive_trials():
    for trials in (0, -1, 1.5, 2.0, "3", None):
        with pytest.raises(ValidationError, match="trials must be an integer >= 1"):
            FuzzConfig(trials=trials)
    assert FuzzConfig(trials=np.int64(2)).trials == 2
    report = run_fuzz(FuzzConfig(seed=5, trials=np.int64(1)))
    assert report.passed + report.skipped_degenerate == 1


def test_trial_rng_substreams_are_independent_of_history():
    a = trial_rng(42, 7).integers(0, 2**31)
    # consuming other substreams must not disturb trial 7
    for i in range(7):
        trial_rng(42, i).normal(size=100)
    b = trial_rng(42, 7).integers(0, 2**31)
    assert a == b
    assert trial_rng(42, 7).integers(0, 2**31) != trial_rng(43, 7).integers(0, 2**31)


def test_random_model_families():
    spec, env, nn = random_model(trial_rng(1, 0), family=ENVELOPE_FAMILY)
    assert env is not None and nn is None
    assert spec.offdiag
    spec, env, nn = random_model(trial_rng(1, 1), family=NN_FAMILY)
    assert env is None and nn is not None
    assert all(xp - x == 1 for (x, xp) in spec.offdiag)
    with pytest.raises(ValidationError):
        random_model(trial_rng(1, 2), size_range=(1, 1))


@pytest.mark.parametrize("family", [ENVELOPE_FAMILY, NN_FAMILY])
def test_small_run_passes(family):
    report = run_fuzz(FuzzConfig(seed=42, trials=40, family=family))
    assert not report.failures
    assert report.passed + report.skipped_degenerate == 40
    assert "status:  OK" in report.format()


def test_report_is_byte_identical_across_runs():
    config = FuzzConfig(seed=11, trials=25)
    r1 = run_fuzz(config)
    r2 = run_fuzz(config)
    assert r1.format() == r2.format()


def test_seed_42_five_hundred_nn_trials_pass():
    # theorem-guaranteed on valid inputs: the canonical schedule is clean
    report = run_fuzz(FuzzConfig(seed=42, trials=500, family=NN_FAMILY))
    assert not report.failures
    assert report.passed + report.skipped_degenerate == 500


def test_tail_check_reads_every_breakpoint(monkeypatch):
    # a rise of 1e-9 at the last breakpoint, however close it sits to the
    # one before it, fails the monotonicity check
    real = fuzz_mod.tail_steps

    def bumped(profile, mean):
        radii, tails = real(profile, mean)
        tails = tails.copy()
        tails[-1] = tails[-2] + 1e-9
        return radii, tails

    monkeypatch.setattr(fuzz_mod, "tail_steps", bumped)
    with pytest.raises(InvariantViolation, match="not monotone"):
        run_fuzz(FuzzConfig(seed=42, trials=3, family=NN_FAMILY))


def test_bad_envelope_declaration_is_rejected_not_reported(monkeypatch):
    def drawing(rng, *args):
        spec = ModelSpec(4, 1, [(x, x + 1, [[1.0]]) for x in range(1, 4)])
        return spec, HoppingEnvelope(cv=0.01, mu=1.0), None

    monkeypatch.setattr(fuzz_mod, "random_model", drawing)
    with pytest.raises(EnvelopeViolation):
        run_fuzz(FuzzConfig(seed=1, trials=3))


def test_bad_nn_declaration_is_rejected(monkeypatch):
    def drawing(rng, *args):
        spec = ModelSpec(4, 1, [(x, x + 1, [[2.0]]) for x in range(1, 4)])
        return spec, None, NNBound(v0=1.0)

    monkeypatch.setattr(fuzz_mod, "random_model", drawing)
    with pytest.raises(EnvelopeViolation):
        run_fuzz(FuzzConfig(seed=1, trials=3))


def test_degenerate_model_is_counted_as_skipped(monkeypatch):
    # two decoupled identical dimers: the ground state is twofold degenerate
    def drawing(rng, *args):
        spec = ModelSpec(4, 1, [(1, 2, [[1.0]]), (3, 4, [[1.0]])])
        return spec, None, NNBound(v0=1.0)

    monkeypatch.setattr(fuzz_mod, "random_model", drawing)
    report = run_fuzz(FuzzConfig(seed=1, trials=3, family=NN_FAMILY))
    assert (report.passed, report.skipped_degenerate, report.failures) == (0, 3, ())
    assert "trials:  3 (passed 0, skipped 3 degenerate, failed 0)" in report.format()


def test_generated_models_respect_their_declarations():
    from gapbound import block_norm, envelope_violations

    for i in range(30):
        spec, env, nn = random_model(trial_rng(33, i), family=ENVELOPE_FAMILY)
        assert envelope_violations(spec, env) == []
    for i in range(30):
        spec, env, nn = random_model(trial_rng(34, i), family=NN_FAMILY)
        assert all(
            block_norm(spec, x, xp) <= nn.v0 * (1 + 1e-12) for (x, xp) in spec.offdiag
        )


@pytest.mark.parametrize("family", [ENVELOPE_FAMILY, NN_FAMILY])
def test_batched_draws_match_per_block_reference(family):
    # batched draws and norms give byte-identical models, so recorded fuzz
    # outputs stay valid
    for i in range(200):
        spec, env, nn = random_model(trial_rng(77, i), family=family)
        length, n0, hops, onsites, ref_env, ref_v0 = random_model_blocks(
            trial_rng(77, i), envelope_family=family == ENVELOPE_FAMILY
        )
        ref = ModelSpec(length, n0, hops, onsites)
        assert (spec.length, spec.n0) == (length, n0)
        assert spec.hopping_bands.keys() == ref.hopping_bands.keys()
        for d, (blocks, mask) in spec.hopping_bands.items():
            assert blocks.tobytes() == ref.hopping_bands[d][0].tobytes()
            assert mask.tobytes() == ref.hopping_bands[d][1].tobytes()
        assert spec._onsite.tobytes() == ref._onsite.tobytes()
        assert spec._onsite_mask.tobytes() == ref._onsite_mask.tobytes()
        assert env == (HoppingEnvelope(*ref_env) if ref_env else None)
        assert nn == (NNBound(ref_v0) if ref_v0 is not None else None)


def test_scaled_blocks_zero_draw_falls_back_to_identity():
    draws = [np.zeros((2, 2, 2)), np.stack([np.eye(2) * 3.0, np.zeros((2, 2))])]
    blocks = _scaled_blocks(draws, [0.5, 2.0])
    np.testing.assert_array_equal(blocks, [0.5 * np.eye(2), 2.0 * np.eye(2)])


def test_hopping_norms_are_read_only_and_memoised():
    spec = random_model(trial_rng(78, 0))[0]
    norms = hopping_norms(spec)
    assert hopping_norms(spec) is norms
    for _, xs, values in norms:
        for arr in (xs, values):
            with pytest.raises(ValueError):
                arr[0] = 0


@pytest.mark.parametrize("family", [ENVELOPE_FAMILY, NN_FAMILY])
def test_fuzz_builds_band_and_norms_once_per_model(family, monkeypatch):
    # a call count, not a timing: each model pays for its band and its block
    # norms exactly once however many checks read them
    models, built = [], {"_band_operator": [], "_block_norms": []}

    def drawing(*args, **kwargs):
        out = random_model(*args, **kwargs)
        models.append(out[0])  # kept alive, so identities stay unique
        return out

    for name, seen in built.items():
        def spy(spec, _original=getattr(lattice_mod, name), _seen=seen):
            _seen.append(spec)
            return _original(spec)

        monkeypatch.setattr(lattice_mod, name, spy)
    monkeypatch.setattr(fuzz_mod, "random_model", drawing)
    run_fuzz(FuzzConfig(trials=50, family=family))
    assert len(models) == 50
    for seen in built.values():
        assert len(seen) == 50
        assert all(a is b for a, b in zip(seen, models))


@pytest.mark.parametrize("family", [ENVELOPE_FAMILY, NN_FAMILY])
def test_fuzz_reads_one_record_per_ground_state(family, monkeypatch):
    # a call count, not a timing: the complementary checks of three weights
    # and the Appendix-B check share one density and one pair-product pass,
    # and the power-law radii share one coupling profile
    counts = dict.fromkeys(("density", "_stored_pair_products", "site_coupling_profile"), 0)
    for owner, name in ((bounds_mod, "density"), (fuzz_mod, "density"),
                        (bounds_mod, "_stored_pair_products"),
                        (bounds_mod, "site_coupling_profile")):
        def spy(*args, _original=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    report = run_fuzz(FuzzConfig(trials=50, family=family))
    # a skipped (degenerate) trial stops at its solve
    assert report.passed > 40
    assert counts == {
        "density": report.passed,
        "_stored_pair_products": report.passed,
        "site_coupling_profile": 2 * report.passed,
    }

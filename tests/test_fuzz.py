"""Fuzz harness: reproducibility, families, precondition gating."""

import dataclasses
import math
import re

import numpy as np
import pytest

from gapbound import (
    EnvelopeViolation,
    FuzzConfig,
    GroundState,
    HoppingEnvelope,
    ModelSpec,
    NNBound,
    ValidationError,
    assemble,
    chebyshev_tail_bound,
    impurity_model,
    lowest_two,
    require_envelope,
    run_fuzz,
    trial_rng,
)
import gapbound.bounds as bounds_mod
import gapbound.fuzz as fuzz_mod
from gapbound.bounds import ENVELOPE_TOL
import gapbound.lattice as lattice_mod
import gapbound.localization as localization_mod
import gapbound.sweep as sweep_mod
from gapbound.fuzz import ENVELOPE_FAMILY, FAMILIES, NN_FAMILY, _scaled_blocks, random_model
from gapbound.lattice import hopping_norms

from oracles import random_model_blocks


def test_config_validation():
    with pytest.raises(ValidationError):
        FuzzConfig(trials=0)
    with pytest.raises(ValidationError):
        FuzzConfig(size_range=(10, 4))
    with pytest.raises(ValidationError):
        FuzzConfig(family="chaotic")


def test_config_ranges_must_be_integer_pairs():
    bad = [(2.5, 4), (2, 3, 4), (4,), [4, 40], (4, 40.0), "4-40", None]
    for value in bad:
        with pytest.raises(ValidationError, match="size range must be a pair of integers"):
            FuzzConfig(size_range=value)
        with pytest.raises(ValidationError, match="internal-dimension range must be a pair"):
            FuzzConfig(n0_range=value)
    config = FuzzConfig(size_range=(np.int64(4), 6), n0_range=(1, np.int64(2)))
    assert config.size_range == (4, 6) and config.n0_range == (1, 2)


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
    spec, declared = random_model(trial_rng(1, 0), family=ENVELOPE_FAMILY)
    assert isinstance(declared, HoppingEnvelope)
    assert spec.offdiag
    spec, declared = random_model(trial_rng(1, 1), family=NN_FAMILY)
    assert isinstance(declared, NNBound)
    assert all(xp - x == 1 for (x, xp) in spec.offdiag)
    with pytest.raises(ValidationError):
        random_model(trial_rng(1, 2), size_range=(1, 1))


@pytest.mark.parametrize("family", [ENVELOPE_FAMILY, NN_FAMILY])
def test_small_run_passes(family):
    report = run_fuzz(FuzzConfig(seed=42, trials=40, family=family))
    assert not report.failures
    assert report.first_failure is None
    assert report.passed + report.skipped_degenerate == 40
    assert "status:  OK" in report.format()


def test_report_is_byte_identical_across_runs():
    config = FuzzConfig(seed=11, trials=25)
    r1 = run_fuzz(config)
    r2 = run_fuzz(config)
    assert not r1.failures and r1.passed + r1.skipped_degenerate == 25
    assert r1.format() == r2.format()


def test_seed_42_five_hundred_nn_trials_pass():
    # theorem-guaranteed on valid inputs: the canonical schedule is clean
    report = run_fuzz(FuzzConfig(seed=42, trials=500, family=NN_FAMILY))
    assert not report.failures
    assert report.passed + report.skipped_degenerate == 500


def test_tail_check_reads_every_breakpoint(monkeypatch):
    # a rise of 1e-9 at the last breakpoint, however close it sits to the
    # one before it, fails the monotonicity check
    real = bounds_mod.tail_steps

    def bumped(profile, mean):
        radii, tails = real(profile, mean)
        tails = tails.copy()
        tails[-1] = tails[-2] + 1e-9
        return radii, tails

    monkeypatch.setattr(bounds_mod, "tail_steps", bumped)
    ((_, problems),) = run_fuzz(FuzzConfig(seed=42, trials=3, family=NN_FAMILY)).failures
    assert "not monotone" in problems


def test_tail_check_refuses_a_one_ulp_rise(monkeypatch):
    # the monotonicity check is exact: tail_steps never lets a tail grow
    real = bounds_mod.tail_steps

    def bumped(profile, mean):
        radii, tails = real(profile, mean)
        tails = tails.copy()
        tails[-1] = np.nextafter(tails[-2], 1.0)
        return radii, tails

    monkeypatch.setattr(bounds_mod, "tail_steps", bumped)
    ((_, problems),) = run_fuzz(FuzzConfig(seed=42, trials=3, family=NN_FAMILY)).failures
    assert "tail distribution is not monotone" in problems


def test_power_law_check_reads_every_breakpoint(monkeypatch):
    # a tail raised above the power law only near the last breakpoint, which
    # none of the radii deltaX, 2 deltaX and 5 deltaX reads off the tail, fails
    spec, nn = impurity_model(40, -1.0), NNBound(v0=1.0)
    res = lowest_two(assemble(spec))
    state = GroundState.of(res.psi0, spec)
    radii, tails = state.steps
    last = chebyshev_tail_bound(nn, spec.length, res.gap, radii[-1])
    raised = np.maximum(tails, 2.0 * last)  # still nonincreasing
    sampled = np.array([1.0, 2.0, 5.0]) * max(state.stats.delta_x, 0.5)
    at = np.searchsorted(radii, sampled, side="left")
    assert np.all(raised[at] <= chebyshev_tail_bound(nn, spec.length, res.gap, sampled))
    monkeypatch.setattr(fuzz_mod, "random_model", lambda rng, *args: (spec, nn))
    monkeypatch.setattr(bounds_mod, "tail_steps", lambda profile, mean: (radii, raised))
    ((_, problems),) = run_fuzz(FuzzConfig(seed=42, trials=1, family=NN_FAMILY)).failures
    assert "power-law tail bound violated at R=" in problems


def _failing_trial(monkeypatch) -> str:
    """The problems of one trial on the impurity chain, which passes unpatched."""
    spec = impurity_model(40, -1.0)
    monkeypatch.setattr(fuzz_mod, "random_model", lambda rng, *args: (spec, NNBound(1.0)))
    report = run_fuzz(FuzzConfig(seed=42, trials=1, family=NN_FAMILY))
    ((index, problems),) = report.failures
    assert (index, report.passed, report.first_failure) == (0, 0, (index, problems))
    return problems


def _patch_reports(monkeypatch, edit):
    """Let ``edit(call, report)`` rewrite each complementary report of the trial:
    call 0 is the drawn weight g, call 1 is g + 7.5 and call 2 is 2 g."""
    real, reports = GroundState.complementary, []

    def edited(self, g, gap):
        reports.append(edit(len(reports), real(self, g, gap)))
        return reports[-1]

    monkeypatch.setattr(GroundState, "complementary", edited)
    return reports


def test_trial_reports_a_negative_complementary_slack(monkeypatch):
    reports = _patch_reports(
        monkeypatch, lambda call, rep: dataclasses.replace(rep, slack=-rep.scale)
    )
    assert _failing_trial(monkeypatch) == (
        f"complementary check failed (slack={reports[0].slack:.3e}, "
        f"H_OD routes disagree by {reports[0].agreement:.3e})"
    )


def test_trial_reports_hod_routes_that_disagree(monkeypatch):
    reports = _patch_reports(monkeypatch, lambda call, rep: dataclasses.replace(
        rep, hod_commutator=rep.hod_explicit + rep.scale
    ))
    assert _failing_trial(monkeypatch) == (
        f"complementary check failed (slack={reports[0].slack:.3e}, "
        f"H_OD routes disagree by {reports[0].agreement:.3e})"
    )


def test_trial_reads_the_complementary_verdict_off_its_report(monkeypatch):
    # a NaN slack compares false both ways: the report's verdict refuses it,
    # so the trial must too
    reports = _patch_reports(
        monkeypatch, lambda call, rep: dataclasses.replace(rep, slack=math.nan)
    )
    assert _failing_trial(monkeypatch) == (
        f"complementary check failed (slack=nan, "
        f"H_OD routes disagree by {reports[0].agreement:.3e})"
    )
    assert not reports[0].ok


@pytest.mark.parametrize("moved, message", [
    (1, "weight shift g -> g + c changed var(G) or <H_OD>"),
    (2, "weight scaling g -> lam*g did not scale by lam^2"),
], ids=["shift", "scaling"])
def test_trial_reports_a_broken_weight_gauge(monkeypatch, moved, message):
    # var(G) of the shifted (call 1) or scaled (call 2) weight moved by the scale
    _patch_reports(monkeypatch, lambda call, rep: dataclasses.replace(
        rep, var_g=rep.var_g + rep.scale
    ) if call == moved else rep)
    assert _failing_trial(monkeypatch) == message


def test_trial_reports_a_broken_variance_bound(monkeypatch):
    spec = impurity_model(40, -1.0)
    variance = GroundState.of(lowest_two(assemble(spec)).psi0, spec).stats.variance
    monkeypatch.setattr(fuzz_mod, "variance_upper_bound", lambda *args: 0.0)
    assert _failing_trial(monkeypatch) == f"variance bound violated ({variance:.6g} > 0)"


def test_trial_reports_a_broken_theorem1_envelope(monkeypatch):
    # a theorem-1 envelope shrunk a millionfold lies below the tail past its onset
    real = fuzz_mod.theorem1_bound
    monkeypatch.setattr(fuzz_mod, "theorem1_bound", lambda *args: dataclasses.replace(
        real(*args), prefactor=real(*args).prefactor * 1e-6
    ))
    assert _failing_trial(monkeypatch) == "theorem1 envelope violated"


def test_trial_reports_a_broken_trapezoid_coupling_bound(monkeypatch):
    # the Appendix-B report's verdict is what the trial reads: a report whose
    # pointwise margin is -c1 fails by its own ok, and the trial words it
    # with the report's figures
    real, reports = GroundState.appendixB, []

    def failing(self, *args):
        rep = real(self, *args)
        reports.append(dataclasses.replace(rep, pointwise_margin=-rep.c1))
        return reports[-1]

    monkeypatch.setattr(GroundState, "appendixB", failing)
    problems = _failing_trial(monkeypatch)
    (rep,) = reports
    assert not rep.ok and rep.pointwise_margin < -rep.tolerance
    assert problems == (
        f"trapezoid coupling bound failed: |<H_OD>|={rep.hod_abs:.6g}, "
        f"direct={rep.bound_direct:.6g}, piecewise={rep.bound_piecewise:.6g}, "
        f"pointwise margin={rep.pointwise_margin:.3e}"
    )


def test_the_run_stops_at_the_first_failing_trial(monkeypatch):
    # trial 2 fails: the report counts the two trials before it and no
    # later trial runs
    real, calls = fuzz_mod._trial_problems, []

    def third_fails(*args):
        calls.append(args)
        problems = real(*args)
        return problems + ["forced"] if len(calls) == 3 else problems

    monkeypatch.setattr(fuzz_mod, "_trial_problems", third_fails)
    report = run_fuzz(FuzzConfig(seed=42, trials=10, family=NN_FAMILY))
    assert (report.passed, report.skipped_degenerate, report.failures) == (2, 0, ((2, "forced"),))
    assert len(calls) == 3
    assert "status:  FAIL at trial 2: forced" in report.format().splitlines()


def test_a_failed_coupling_bound_exits_2_with_the_reproduce_line(monkeypatch, capsys):
    # c1 a thousandfold too small fails the first trial's Appendix-B check;
    # the command prints the report, names the trial on stderr and exits 2
    from gapbound.cli import main

    real = bounds_mod.c1_constant
    monkeypatch.setattr(bounds_mod, "c1_constant", lambda envelope: 1e-3 * real(envelope))
    assert main(["fuzz", "--seed", "42", "--trials", "3"]) == 2
    out, err = capsys.readouterr()
    (status,) = [ln for ln in out.splitlines() if ln.startswith("status:")]
    problems = status.removeprefix("status:  FAIL at trial 0: ")
    assert problems.startswith("trapezoid coupling bound failed: |<H_OD>|=")
    assert err == (
        f"invariant violation: fuzz trial 0 failed (seed=42, family={ENVELOPE_FAMILY}): "
        f"{problems}; reproduce with seed=42, trial index 0\n"
    )


class _NoPairs:
    """A trial stream whose uniform draws in [0, 1) all land at 0.999, above
    every hopping and on-site chance of :func:`random_model`."""

    def __init__(self, rng):
        self._rng = rng

    def random(self):
        return 0.999

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("family", FAMILIES)
def test_random_model_without_a_drawn_pair_gets_one_nearest_hop(family):
    # no pair drawn: one block on (1, 2) at half the declared nearest amplitude
    spec, declared = random_model(_NoPairs(trial_rng(5, 0)), size_range=(2, 2), family=family)
    assert (spec.length, list(spec.offdiag), dict(spec.onsite)) == (2, [(1, 2)], {})
    ((d, xs, norms),) = hopping_norms(spec)
    assert (d, xs.tolist()) == (1, [1])
    assert norms[0] == pytest.approx(0.5 * declared.value(1), rel=1e-14)
    require_envelope(spec, declared)


@pytest.mark.parametrize("below", [0.5, 2.0])
def test_power_law_check_allows_the_envelope_tolerance(monkeypatch, below):
    # the power-law check's slack is ENVELOPE_TOL, that of the envelope checks
    # it mirrors: a tail above the power law by less passes, by more fails
    spec = impurity_model(40, -1.0)
    radii, tails = GroundState.of(lowest_two(assemble(spec)).psi0, spec).steps
    monkeypatch.setattr(fuzz_mod, "chebyshev_tail_bound",
                        lambda *args: tails[radii > 0] - below * ENVELOPE_TOL)
    if below < 1:
        monkeypatch.setattr(fuzz_mod, "random_model",
                            lambda rng, *args: (spec, NNBound(1.0)))
        assert run_fuzz(FuzzConfig(seed=42, trials=1, family=NN_FAMILY)).passed == 1
    else:
        first = radii[radii > 0][0]
        assert _failing_trial(monkeypatch) == f"power-law tail bound violated at R={first:.3g}"


def test_bad_envelope_declaration_is_rejected_not_reported(monkeypatch):
    def drawing(rng, *args):
        spec = ModelSpec(4, 1, [(x, x + 1, [[1.0]]) for x in range(1, 4)])
        return spec, HoppingEnvelope(cv=0.01, mu=1.0)

    monkeypatch.setattr(fuzz_mod, "random_model", drawing)
    with pytest.raises(EnvelopeViolation):
        run_fuzz(FuzzConfig(seed=1, trials=3))


def test_bad_nn_declaration_is_rejected(monkeypatch):
    def drawing(rng, *args):
        spec = ModelSpec(4, 1, [(x, x + 1, [[2.0]]) for x in range(1, 4)])
        return spec, NNBound(v0=1.0)

    monkeypatch.setattr(fuzz_mod, "random_model", drawing)
    with pytest.raises(EnvelopeViolation):
        run_fuzz(FuzzConfig(seed=1, trials=3))


def test_long_range_block_breaks_an_nn_declaration(monkeypatch):
    # a nearest-neighbor declaration allows 0 at distance 2: the one envelope
    # rule refuses the block, however small, before any theorem check runs
    def drawing(rng, *args):
        spec = ModelSpec(4, 1, [(1, 2, [[1.0]]), (2, 4, [[1e-9]])])
        return spec, NNBound(v0=1.0)

    monkeypatch.setattr(fuzz_mod, "random_model", drawing)
    with pytest.raises(EnvelopeViolation, match=r"declared NNBound\(v0=1.0\) does not "
                       r"dominate the model: block \(2,4\) has norm 1e-09 > 0$"):
        run_fuzz(FuzzConfig(seed=1, trials=3, family=NN_FAMILY))


def test_degenerate_model_is_counted_as_skipped(monkeypatch):
    # two decoupled identical dimers: the ground state is twofold degenerate
    def drawing(rng, *args):
        spec = ModelSpec(4, 1, [(1, 2, [[1.0]]), (3, 4, [[1.0]])])
        return spec, NNBound(v0=1.0)

    monkeypatch.setattr(fuzz_mod, "random_model", drawing)
    report = run_fuzz(FuzzConfig(seed=1, trials=3, family=NN_FAMILY))
    assert (report.passed, report.skipped_degenerate, report.failures) == (0, 3, ())
    assert "trials:  3 (passed 0, skipped 3 degenerate, failed 0)" in report.format()


def test_a_stopped_run_reports_how_many_trials_ran(monkeypatch):
    calls = []

    def problems(spec, declared, rng):
        calls.append(spec)
        return ["forced"] if len(calls) == 3 else []

    monkeypatch.setattr(fuzz_mod, "_trial_problems", problems)
    report = run_fuzz(FuzzConfig(seed=1, trials=5))
    assert (report.passed, report.failures) == (2, ((2, "forced"),))
    assert "trials:  3 of 5 (passed 2, skipped 0 degenerate, failed 1)" in report.format()


def test_generated_models_respect_their_declarations():
    from gapbound import envelope_violations

    for i in range(30):
        spec, env = random_model(trial_rng(33, i), family=ENVELOPE_FAMILY)
        assert envelope_violations(spec, env) == []
    for i in range(30):
        spec, nn = random_model(trial_rng(34, i), family=NN_FAMILY)
        assert envelope_violations(spec, nn) == []


@pytest.mark.parametrize("family", [ENVELOPE_FAMILY, NN_FAMILY])
def test_batched_draws_match_per_block_reference(family):
    # batched draws and norms give byte-identical models, so recorded fuzz
    # outputs stay valid
    for i in range(200):
        spec, declared = random_model(trial_rng(77, i), family=family)
        length, n0, hops, onsites, ref_env, ref_v0 = random_model_blocks(
            trial_rng(77, i), envelope_family=family == ENVELOPE_FAMILY
        )
        ref = ModelSpec(length, n0, hops, onsites)
        assert (spec.length, spec.n0) == (length, n0)
        assert spec.hopping_bands.keys() == ref.hopping_bands.keys()
        for d, blocks in spec.hopping_bands.items():
            assert blocks.tobytes() == ref.hopping_bands[d].tobytes()
        assert spec._onsite.tobytes() == ref._onsite.tobytes()
        assert list(spec.onsite) == list(ref.onsite)
        assert declared == (HoppingEnvelope(*ref_env) if ref_env else NNBound(ref_v0))


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
    assert not run_fuzz(FuzzConfig(trials=50, family=family)).failures
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
    assert not report.failures and report.passed > 40
    assert counts == {
        "density": report.passed,
        "_stored_pair_products": report.passed,
        "site_coupling_profile": 2 * report.passed,
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_each_solved_state_computes_density_stats_and_tail_once(family, monkeypatch):
    # a call count, not a timing: a sweep point and a fuzz trial each build one
    # ground-state record, and every check reads its density, statistics and
    # sorted tail; every module's name for each function is counted
    counts = dict.fromkeys(("density", "position_stats", "tail_steps"), 0)
    for module in (bounds_mod, fuzz_mod, sweep_mod, localization_mod):
        for name in counts:
            if hasattr(module, name):
                def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, spy)
    row = sweep_mod.sweep_point(60, -0.5)
    assert (row.violations1, row.violations2) == (0, 0)
    assert counts == {"density": 1, "position_stats": 1, "tail_steps": 1}
    counts.update(dict.fromkeys(counts, 0))
    report = run_fuzz(FuzzConfig(trials=50, family=family))
    assert not report.failures
    assert report.passed > 40  # a skipped (degenerate) trial stops at its solve
    assert counts == dict.fromkeys(counts, report.passed)


@pytest.mark.parametrize("call, error, message", [
    (lambda: random_model(trial_rng(1, 0), family="other"), ValidationError,
     "unknown family 'other'"),
], ids=["unknown-family"])
def test_fuzz_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()

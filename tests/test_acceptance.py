"""Acceptance suite: the end-to-end checks this package must pass.

Each test prints one ``[criterion N]`` line (visible with ``pytest -s``)
and asserts the criterion at its stated tolerance.  Runtime budgets are
asserted where stated; they are generous on desk hardware.
"""

import math
import time

import numpy as np
import pytest

import gapbound as gb
from gapbound.fuzz import ENVELOPE_FAMILY, NN_FAMILY, random_model, trial_rng

from oracles import (
    c1_partial,
    charpoly_eigenvalues,
    hermitian_eigenvalues_bisect,
    random_hermitian,
)

_E = math.e


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def full_sweep():
    config = gb.SweepConfig()  # L=500, 100 log-spaced points, s=1/2, step 0.5
    t0 = time.perf_counter()
    rows = gb.run_sweep(config, write=False)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_1_equality_witness():
    spec = gb.ModelSpec(2, 1, [(1, 2, [[-1.0]])])
    g = gb.position_weight(2)

    def pipeline():
        res = gb.lowest_two(gb.assemble(spec))
        prof = gb.density(res.psi0, spec)
        stats = gb.position_stats(prof)
        rep = gb.g_expectations(res.psi0, spec, g, res.gap)
        return res, stats, rep

    pipeline()  # warm-up
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        res, stats, rep = pipeline()
        best = min(best, time.perf_counter() - t0)

    lhs = res.gap * stats.variance
    rhs = abs(rep.hod_explicit) / 2.0
    ok = (
        abs(lhs - 0.5) <= 1e-12
        and abs(rhs - 0.5) <= 1e-12
        and abs(lhs - rhs) <= 1e-12
        and best < 1e-3
    )
    _report(1, "two-site equality witness", ok,
            f"lhs={lhs:.15f}, rhs={rhs:.15f}, best runtime {best * 1e6:.0f} us")


def test_criterion_2_complementary_fuzz():
    t0 = time.perf_counter()
    tested = 0
    worst_slack = math.inf
    worst_agreement = 0.0
    i = 0
    while tested < 1000 and i < 1200:
        rng = trial_rng(20260810, i)
        family = ENVELOPE_FAMILY if i % 2 == 0 else NN_FAMILY
        spec, _ = random_model(rng, size_range=(3, 40), n0_range=(1, 3), family=family)
        i += 1
        try:
            res = gb.lowest_two(gb.assemble(spec))
        except gb.DegenerateGroundState:
            continue
        g = gb.WeightFunction(rng.normal(size=spec.length) * rng.uniform(0.5, 4.0))
        rep = gb.g_expectations(res.psi0, spec, g, res.gap)
        tol = 1e-9 * rep.scale
        worst_slack = min(worst_slack, rep.slack / rep.scale)
        worst_agreement = max(worst_agreement, rep.agreement / rep.scale)
        assert rep.slack >= -tol, f"complementary violation at trial {i - 1}"
        assert rep.agreement <= tol, f"H_OD route disagreement at trial {i - 1}"
        tested += 1
    elapsed = time.perf_counter() - t0
    ok = tested == 1000 and elapsed < 30.0
    _report(2, "complementary-inequality fuzz (1000 specs)", ok,
            f"worst slack/scale={worst_slack:.2e}, "
            f"worst route disagreement/scale={worst_agreement:.2e}, {elapsed:.1f} s")


def test_criterion_3_variance_bound():
    t0 = time.perf_counter()
    tested = 0
    worst_margin = math.inf
    i = 0
    while tested < 500 and i < 700:
        rng = trial_rng(31415, i)
        spec, env = random_model(rng, size_range=(3, 40), n0_range=(1, 3),
                                 family=ENVELOPE_FAMILY)
        i += 1
        try:
            res = gb.lowest_two(gb.assemble(spec))
        except gb.DegenerateGroundState:
            continue
        prof = gb.density(res.psi0, spec)
        stats = gb.position_stats(prof)
        bound = gb.variance_upper_bound(env, spec.length, res.gap)
        worst_margin = min(worst_margin, bound - stats.variance)
        assert stats.variance <= bound * (1 + 1e-9) + 1e-12, f"trial {i - 1}"
        tested += 1
    elapsed = time.perf_counter() - t0
    ok = tested == 500 and elapsed < 30.0
    _report(3, "gap-based variance bound (500 specs)", ok,
            f"smallest margin={worst_margin:.3g}, {elapsed:.1f} s")


def test_criterion_4_theorem_envelopes_on_sweep(full_sweep):
    rows, elapsed = full_sweep
    bad1 = sum(r.violations1 for r in rows)
    bad2 = sum(r.violations2 for r in rows)
    ok = len(rows) == 100 and bad1 == 0 and bad2 == 0 and elapsed < 120.0
    _report(4, "zero envelope violations on the full sweep", ok,
            f"theorem1={bad1}, theorem2={bad2} violations over "
            f"{len(rows)} points, {elapsed:.1f} s")


def test_criterion_5_tightness_ordering(full_sweep):
    rows, _ = full_sweep
    ordering = all(r.ratio2 <= r.ratio1 for r in rows)
    clean = [r for r in rows if math.isfinite(r.fit_r_squared) and r.fit_r_squared >= 0.99]
    lower = all(r.ratio1 >= 1.0 and r.ratio2 >= 1.0 for r in clean)
    ok = ordering and lower and len(clean) > 0
    _report(5, "envelope tightness ordering", ok,
            f"ratio2<=ratio1 on all {len(rows)} rows; ratios>=1 on "
            f"{len(clean)} clean-fit rows "
            f"(min ratio2={min(r.ratio2 for r in clean):.3f})")


def test_criterion_6_decay_length_matches_spread(full_sweep):
    rows, _ = full_sweep
    window = [r for r in rows if -1.0 - 1e-12 <= r.h0 <= -0.2 + 1e-12]
    worst = 0.0
    for r in window:
        target = r.delta_x / math.sqrt(2.0)
        worst = max(worst, abs(r.xi_fit - target) / target)
    ok = len(window) >= 10 and worst <= 0.10
    _report(6, "fitted decay length vs spread / sqrt(2)", ok,
            f"{len(window)} rows in [-1, -0.2], worst relative error {worst:.3%}")


def test_criterion_7_coupling_constant():
    closed = gb.c1_constant(gb.HoppingEnvelope(cv=1.0, mu=1.0))
    summed = c1_partial(1.0, 1.0)
    rel = abs(closed - summed) / summed
    ok = rel <= 1e-12 and abs(closed - 21.66) < 0.01
    _report(7, "closed-form coupling constant", ok,
            f"closed={closed:.12f}, partial sum={summed:.12f}, rel diff={rel:.2e}")


def test_criterion_8_eigensolver_certification():
    rng = np.random.default_rng(846)
    tested = 0
    worst = 0.0
    while tested < 200:
        n = int(rng.integers(2, 7))
        h = random_hermitian(rng, n, scale=float(rng.uniform(0.5, 3.0)))
        oracle = charpoly_eigenvalues(h)
        if oracle[1] - oracle[0] < 1e-6:
            continue
        res = gb.lowest_two(h)
        scale = max(1.0, gb.spectral_scale(h))
        err = max(abs(res.e0 - oracle[0]), abs(res.e1 - oracle[1]))
        bisected = hermitian_eigenvalues_bisect(h, k=2)
        err = max(err, abs(res.e0 - bisected[0]), abs(res.e1 - bisected[1]))
        worst = max(worst, err / scale)
        assert err <= 1e-10 * scale
        assert res.residual0 <= 1e-10 * scale and res.residual1 <= 1e-10 * scale
        tested += 1

    h = random_hermitian(rng, 30)
    base = gb.lowest_two(h)
    shift_err = 0.0
    for c in (-2.5, 0.7, 40.0):
        shifted = gb.lowest_two(h + c * np.eye(30))
        shift_err = max(shift_err, abs(shifted.gap - base.gap))
        assert abs(np.vdot(base.psi0, shifted.psi0)) > 1 - 1e-10
    ok = worst <= 1e-10 and shift_err < 1e-10
    _report(8, "eigensolver oracle agreement and certification", ok,
            f"200 matrices, worst oracle error/scale={worst:.2e}, "
            f"worst gap shift error={shift_err:.2e}")


def test_criterion_9_trapezoid_coupling_diagnostic():
    spec = gb.impurity_model(500, -0.5)
    res = gb.lowest_two(gb.assemble(spec))
    prof = gb.density(res.psi0, spec)
    stats = gb.position_stats(prof)
    env = gb.fit_envelope(spec, mu=1.0)
    rng = np.random.default_rng(271828)
    regions = 0
    for _ in range(20):
        r_inner = float(rng.uniform(0.0, 60.0))
        delta_r = float(rng.uniform(3.5, 30.0))
        g = gb.trapezoid_g(spec.length, stats.mean, r_inner, delta_r, "theorem1")
        rep = gb.verify_appendixB(spec, env, g, res.psi0, (r_inner, delta_r, stats.mean))
        assert rep.ok
        regions += 1

    tested = 0
    i = 0
    while tested < 200 and i < 260:
        rng_t = trial_rng(99, i)
        mspec, menv = random_model(rng_t, size_range=(6, 40), family=ENVELOPE_FAMILY)
        i += 1
        try:
            mres = gb.lowest_two(gb.assemble(mspec))
        except gb.DegenerateGroundState:
            continue
        mprof = gb.density(mres.psi0, mspec)
        mstats = gb.position_stats(mprof)
        r_inner = float(rng_t.uniform(0.0, mspec.length / 4))
        delta_r = float(rng_t.uniform(3.2, max(4.2, mspec.length / 3)))
        g = gb.trapezoid_g(mspec.length, mstats.mean, r_inner, delta_r, "theorem1")
        rep = gb.verify_appendixB(
            mspec, menv, g, mres.psi0, (r_inner, delta_r, mstats.mean)
        )
        assert rep.ok
        tested += 1
    ok = regions == 20 and tested == 200
    _report(9, "trapezoid coupling diagnostic", ok,
            f"impurity model: {regions}/20 regions, fuzzed specs: {tested}/200")

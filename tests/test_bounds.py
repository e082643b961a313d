"""Complementary inequality, coupling constants, tail envelopes, diagnostics."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from gapbound import (
    DensityProfile,
    EnvelopeViolation,
    HoppingEnvelope,
    ModelSpec,
    NNBound,
    TailEnvelope,
    ValidationError,
    WeightFunction,
    assemble,
    best_s,
    check_nearest_neighbor,
    c1_constant,
    chebyshev_tail_bound,
    density,
    fit_envelope,
    g_expectations,
    impurity_model,
    lowest_two,
    position_stats,
    position_weight,
    site_coupling_profile,
    theorem1_bound,
    theorem2_bound,
    trapezoid_g,
    variance_upper_bound,
    verify_appendixB,
    verify_envelope,
    write_bound_csv,
    write_envelope_csv,
)
from gapbound.localization import tail, tail_steps
from gapbound.bounds import ENVELOPE_TOL, GroundState
from gapbound.eigensolver import spectral_scale
from gapbound.errors import DegenerateGroundState
from gapbound.fuzz import FAMILIES, _random_weight, random_model, trial_rng
from gapbound.lattice import strip_model

from oracles import (
    band_to_dense,
    brute_tail,
    c1_partial,
    envelope_coupling_partial,
    reference_appendixB,
    reference_g_expectations,
    shifted_onsite,
)

_E = math.e


def _solve(spec):
    res = lowest_two(assemble(spec))
    prof = density(res.psi0, spec)
    return res, prof, position_stats(prof)


def test_two_site_equality_witness():
    spec = ModelSpec(2, 1, [(1, 2, [[-1.0]])])
    res, prof, stats = _solve(spec)
    rep = g_expectations(res.psi0, spec, position_weight(2), res.gap)
    assert rep.var_g == pytest.approx(0.25, abs=1e-14)
    assert rep.hod_explicit == pytest.approx(-1.0, abs=1e-12)
    assert rep.hod_commutator == pytest.approx(-1.0, abs=1e-12)
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert rep.rhs == pytest.approx(0.5, abs=1e-12)
    assert abs(rep.slack) <= 1e-12
    assert rep.ok


def test_constant_weight_gives_zeros():
    spec = ModelSpec(3, 1, [(1, 2, [[1.0]]), (2, 3, [[1.0]])])
    res, _, _ = _solve(spec)
    rep = g_expectations(res.psi0, spec, WeightFunction(np.full(3, 4.2)), res.gap)
    assert rep.var_g == pytest.approx(0.0, abs=1e-15)
    assert rep.hod_explicit == 0.0
    assert abs(rep.hod_commutator) <= 1e-12
    assert rep.slack >= -1e-15


def test_random_spec_random_weight_holds():
    spec, _ = random_model(trial_rng(77, 0), size_range=(8, 8), n0_range=(2, 2))
    res, _, _ = _solve(spec)
    rng = np.random.default_rng(5)
    for _ in range(10):
        rep = g_expectations(res.psi0, spec, WeightFunction(rng.normal(size=8)), res.gap)
        tol = 1e-9 * rep.scale
        assert rep.slack >= -tol
        assert rep.agreement <= tol
        assert rep.hod_explicit <= tol  # signed value is never positive on the ground state


def test_weight_gauge_invariance():
    spec, _ = random_model(trial_rng(78, 1), size_range=(10, 10))
    res, _, _ = _solve(spec)
    g = np.random.default_rng(6).normal(size=10)
    base = g_expectations(res.psi0, spec, WeightFunction(g), res.gap)
    shifted = g_expectations(res.psi0, spec, WeightFunction(g + 11.0), res.gap)
    assert shifted.var_g == pytest.approx(base.var_g, abs=1e-10 * base.scale)
    assert shifted.hod_explicit == pytest.approx(base.hod_explicit, abs=1e-10 * base.scale)
    lam = 3.0
    scaled = g_expectations(res.psi0, spec, WeightFunction(lam * g), res.gap)
    assert scaled.var_g == pytest.approx(lam**2 * base.var_g, rel=1e-12)
    assert scaled.hod_explicit == pytest.approx(lam**2 * base.hod_explicit, rel=1e-12)


def test_hod_routes_match_entrywise_brute_force():
    # third, fully independent evaluation: weight every matrix entry by
    # (g_a - g_b)^2 and contract with the state in explicit loops
    spec, _ = random_model(trial_rng(55, 0), size_range=(7, 7), n0_range=(2, 2))
    res, _, _ = _solve(spec)
    g = np.random.default_rng(0).normal(size=7)
    rep = g_expectations(res.psi0, spec, WeightFunction(g), res.gap)
    h = band_to_dense(assemble(spec))
    gfull = np.repeat(g, spec.n0)
    brute = 0.0
    for a in range(h.shape[0]):
        for b in range(h.shape[0]):
            brute += (
                (gfull[a] - gfull[b]) ** 2
                * (np.conj(res.psi0[a]) * h[a, b] * res.psi0[b]).real
            )
    assert rep.hod_explicit == pytest.approx(brute, abs=1e-13)
    assert rep.hod_commutator == pytest.approx(brute, abs=1e-12)


def test_commutator_route_matches_dense_matmul():
    # the scaling form of [G, [G, H]] against the matmul with G = diag(g)
    spec, _ = random_model(trial_rng(56, 0), size_range=(9, 9), n0_range=(3, 3))
    res, _, _ = _solve(spec)
    g = np.random.default_rng(1).normal(size=9)
    rep = g_expectations(res.psi0, spec, WeightFunction(g), res.gap)
    h = band_to_dense(assemble(spec))
    gm = np.diag(np.repeat(g, spec.n0).astype(complex))
    comm = gm @ h - h @ gm
    comm2 = gm @ comm - comm @ gm
    ref = float(np.real(np.vdot(res.psi0, comm2 @ res.psi0)))
    assert rep.hod_commutator == pytest.approx(ref, rel=1e-12, abs=1e-14 * rep.scale)


def test_ground_state_reads_the_models_band():
    # the commutator route and the scale read the band memoised on the model;
    # the record keeps no operator of its own
    spec = impurity_model(20, -1.0)
    h = assemble(spec)
    res = lowest_two(h)
    state = GroundState.of(res.psi0, spec)
    rep = state.complementary(position_weight(spec.length), res.gap)
    assert rep.ok and rep.tolerance == 1e-9 * rep.scale
    assert assemble(spec) is h
    assert not any(value is h for value in vars(state).values())


def test_weight_dimension_mismatch():
    spec = ModelSpec(3, 1, [(1, 2, [[1.0]])])
    res, _, _ = _solve(spec)
    with pytest.raises(ValidationError):
        g_expectations(res.psi0, spec, position_weight(4), res.gap)


def test_g_expectations_refuses_a_weight_it_cannot_square():
    spec = impurity_model(10, -0.5)
    res = lowest_two(assemble(spec))
    scale = spectral_scale(assemble(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alternating = 8e153 * (-1.0) ** np.arange(1, spec.length + 1)
        for top in (1e200, 1e154, np.sqrt(np.finfo(float).max / scale) * 1.001):
            g = WeightFunction(np.linspace(0.0, top, spec.length))
            with pytest.raises(ValidationError, match="weight function too large"):
                g_expectations(res.psi0, spec, g, res.gap)
        # max|g|^2 * scale is finite, but (g(x) - g(x'))^2 = 2.56e308 is not
        assert np.isfinite(np.max(np.abs(alternating)) ** 2 * scale)
        with pytest.raises(ValidationError, match="weight function too large"):
            g_expectations(res.psi0, spec, WeightFunction(alternating), res.gap)
        # the largest weights whose squared maximum times the scale is finite
        for top in (1e150, np.sqrt(np.finfo(float).max / scale) * 0.999):
            rep = g_expectations(res.psi0, spec, WeightFunction(np.linspace(0.0, top, spec.length)), res.gap)
            assert np.isfinite(rep.scale) and np.isfinite(rep.hod_commutator)
            assert rep.ok


def _differential_cases():
    """(spec, envelope or None, rng) for 100 fuzz models of each family, one
    disordered strip and one impurity chain."""
    for family in FAMILIES:
        for i in range(100):
            rng = trial_rng(2718, i)
            spec, declared = random_model(rng, family=family)
            yield spec, declared if isinstance(declared, HoppingEnvelope) else None, rng
    rng = np.random.default_rng(5)
    strip = strip_model(24, 3)
    onsite = [(x, b + np.diag(rng.uniform(-3.0, 3.0, 3))) for x, b in strip.onsite.items()]
    hops = [(x, xp, b) for (x, xp), b in strip.offdiag.items()]
    yield ModelSpec(24, 3, hops, onsite), None, rng
    yield impurity_model(60, -0.5), None, rng


def test_ground_state_record_matches_per_call_formulas():
    # the record's statistics, tail steps and envelope checks, and the fuzz
    # trial's three weights and its trapezoid read off it, against the
    # functions and formulas that recompute everything from psi0 per call
    solved, checked = 0, {"theorem1": 0, "theorem2": 0}
    for spec, env, rng in _differential_cases():
        try:
            res = lowest_two(assemble(spec))
        except DegenerateGroundState:
            continue
        solved += 1
        state = GroundState.of(res.psi0, spec)
        prof = density(res.psi0, spec)
        np.testing.assert_array_equal(state.profile.p, prof.p)
        stats = position_stats(prof)
        assert state.stats == stats
        for got, want in zip(state.steps, tail_steps(prof, stats.mean)):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
        env = env or fit_envelope(spec, mu=1.0)
        bounds = [theorem1_bound(env, res.gap, 0.5, stats.delta_x)]
        try:
            v0 = check_nearest_neighbor(spec).v0
            bounds.append(theorem2_bound(v0, res.gap, 0.5, stats.delta_x))
        except EnvelopeViolation:
            pass
        for b in bounds:
            checked[b.kind] += 1
            chk, want = state.check(b), verify_envelope(prof, stats.mean, b)
            for field in dataclasses.fields(chk):
                np.testing.assert_array_equal(
                    getattr(chk, field.name), getattr(want, field.name), err_msg=field.name
                )
        g = _random_weight(rng, spec.length)
        for w in (g, WeightFunction(g.g + 7.5), WeightFunction(2.0 * g.g)):
            rep = state.complementary(w, res.gap)
            assert rep == g_expectations(res.psi0, spec, w, res.gap)
            want = reference_g_expectations(res.psi0, spec, w, res.gap)
            tol = 1e-12 * want["scale"]
            for name, value in want.items():
                assert abs(getattr(rep, name) - value) <= tol, name
        region = (float(rng.uniform(0.0, spec.length / 4.0)),
                  float(rng.uniform(3.2, max(4.2, spec.length / 3.0))), stats.mean)
        gtrap = trapezoid_g(spec.length, stats.mean, region[0], region[1], "theorem1")
        rep = state.appendixB(env, gtrap, region)
        assert rep.ok
        assert rep == verify_appendixB(spec, env, gtrap, res.psi0, region)
        want = reference_appendixB(spec, env, gtrap, res.psi0, region)
        assert rep.region == want.pop("region")
        tol = 1e-12 * max(want["c1"], spectral_scale(assemble(spec)) * max(1.0, region[1]) ** 2)
        for name, value in want.items():
            assert abs(getattr(rep, name) - value) <= tol, name
    assert solved >= 190
    assert checked["theorem1"] == solved and checked["theorem2"] >= 100


def test_potential_shift_invariance():
    spec = impurity_model(10, -0.7)
    res, prof, stats = _solve(spec)
    shifted_spec = shifted_onsite(spec, 3.3)
    res2, prof2, stats2 = _solve(shifted_spec)
    assert res2.gap == pytest.approx(res.gap, abs=1e-10)
    np.testing.assert_allclose(prof2.p, prof.p, atol=1e-12)
    g = position_weight(spec.length)
    rep = g_expectations(res.psi0, spec, g, res.gap)
    rep2 = g_expectations(res2.psi0, shifted_spec, g, res2.gap)
    assert rep2.hod_explicit == pytest.approx(rep.hod_explicit, abs=1e-10)
    b = theorem2_bound(1.0, res.gap, 0.5, stats.delta_x)
    b2 = theorem2_bound(1.0, res2.gap, 0.5, stats2.delta_x)
    assert b2.xi == pytest.approx(b.xi, rel=1e-8)
    assert b2.r1 == pytest.approx(b.r1, rel=1e-8)


def test_c1_constant_against_partial_sum():
    env = HoppingEnvelope(cv=1.0, mu=1.0)
    closed = c1_constant(env)
    assert closed == pytest.approx(c1_partial(1.0, 1.0), rel=1e-12)
    assert 21.6 < closed < 21.7
    # linear in cv
    assert c1_constant(HoppingEnvelope(cv=2.0, mu=1.0)) == pytest.approx(2 * closed, rel=1e-14)
    # large decay rate leaves only the first term
    assert c1_constant(HoppingEnvelope(cv=1.0, mu=50.0)) == pytest.approx(4.0, rel=1e-12)
    for cv, mu in ((0.5, 0.3), (3.0, 2.2)):
        assert c1_constant(HoppingEnvelope(cv, mu)) == pytest.approx(
            c1_partial(cv, mu), rel=1e-12
        )


def test_a_non_finite_c1_is_refused():
    # 4 cv (1+q)/(1-q)^3 overflows to inf: theorem 1 would give xi = inf and
    # Appendix B a tolerance of inf, so its check would pass whatever <H_OD> is
    env = HoppingEnvelope(cv=1e300, mu=1e-3)
    message = "envelope cv=1e+300, mu=0.001 is too large: c1 = 4 cv (1+q)/(1-q)^3 overflows"
    spec = impurity_model(40, -1.0)
    res, _, stats = _solve(spec)
    region = (0.0, 6.0, stats.mean)
    g = trapezoid_g(spec.length, stats.mean, 0.0, 6.0, "theorem1")
    for call in (
        lambda: c1_constant(env),
        lambda: theorem1_bound(env, res.gap, 0.5, stats.delta_x),
        lambda: GroundState.of(res.psi0, spec).appendixB(env, g, region),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()


def test_theorem1_and_appendixB_refuse_a_nearest_neighbour_bound():
    # c1 is a property of an exponential envelope: an NNBound is refused by
    # name, as best_s and site_coupling_profile refuse an unknown bound
    spec = impurity_model(40, -1.0)
    res, _, stats = _solve(spec)
    region = (0.0, 6.0, stats.mean)
    g = trapezoid_g(spec.length, stats.mean, 0.0, 6.0, "theorem1")
    for call in (
        lambda: c1_constant(NNBound(1.0)),
        lambda: theorem1_bound(NNBound(1.0), res.gap, 0.5, stats.delta_x),
        lambda: GroundState.of(res.psi0, spec).appendixB(NNBound(1.0), g, region),
    ):
        with pytest.raises(ValidationError, match="^unsupported hopping bound NNBound$"):
            call()


@pytest.mark.parametrize("field, value, message", [
    ("prefactor", math.nan, "envelope prefactor must be finite and > 0, got nan"),
    ("xi", math.nan, "envelope xi must be finite and > 0, got nan"),
    ("prefactor", math.inf, "envelope prefactor must be finite and > 0, got inf"),
    ("r1", math.nan, "envelope r1 must be finite and >= 0, got nan"),
    ("delta_x", -math.inf, "envelope delta_x must be finite, got -inf"),
    ("r1", -1.0, "envelope r1 must be finite and >= 0, got -1.0"),
    ("xi", 0.0, "envelope xi must be finite and > 0, got 0.0"),
    ("prefactor", -0.5, "envelope prefactor must be finite and > 0, got -0.5"),
], ids=["prefactor-nan", "xi-nan", "prefactor-inf", "r1-nan", "delta-x-inf", "r1-negative",
        "xi-zero", "prefactor-negative"])
def test_a_malformed_envelope_is_refused(field, value, message):
    # a NaN compares false with every tail, so such an envelope would pass
    # every check; it is refused when it is built
    spec = impurity_model(40, -1.0)
    res, _, stats = _solve(spec)
    b2 = theorem2_bound(1.0, res.gap, 0.5, stats.delta_x)
    assert GroundState.of(res.psi0, spec).check(b2).ok
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(b2, **{field: value})


@pytest.mark.parametrize(
    "call",
    [
        lambda: position_weight(2.5),
        lambda: position_weight(0),
        lambda: site_coupling_profile(HoppingEnvelope(1.0, 1.0), 2.5),
        lambda: site_coupling_profile(HoppingEnvelope(1.0, 1.0), None),
        lambda: site_coupling_profile(NNBound(1.0), 3.7),
        lambda: variance_upper_bound(HoppingEnvelope(1.0, 1.0), 2.5, 0.1),
        lambda: chebyshev_tail_bound(NNBound(1.0), 4.0, 0.1, 2.0),
    ],
    ids=["weight-half", "weight-empty", "envelope-half", "envelope-none", "nn-float",
         "variance-half", "chebyshev-float"],
)
def test_non_integer_lengths_are_refused(call):
    with pytest.raises(ValidationError, match="length must be a positive integer"):
        call()


def test_site_coupling_nearest_neighbor():
    v = site_coupling_profile(NNBound(v0=1.0), 6)
    np.testing.assert_allclose(v, [2, 4, 4, 4, 4, 2])
    # one site has no neighbour
    assert site_coupling_profile(NNBound(v0=1.0), 1).tolist() == [0.0]
    assert chebyshev_tail_bound(NNBound(v0=1.0), 6, 2.0, 3.0) == pytest.approx(
        2.0 / (3.0**2 * 2.0), rel=1e-14
    )


def test_site_coupling_envelope_matches_partial_sum():
    env = HoppingEnvelope(cv=1.0, mu=1.0)
    v = site_coupling_profile(env, 501)
    # interior value converges to the two-sided series (truncation ~ exp(-250))
    assert np.max(v) == pytest.approx(envelope_coupling_partial(1.0, 1.0), rel=1e-12)
    assert v[250] == pytest.approx(np.max(v), rel=1e-12)  # flat interior plateau


def test_site_coupling_envelope_brute_force_small():
    env = HoppingEnvelope(cv=1.3, mu=0.6)
    length = 9
    v = site_coupling_profile(env, length)
    for x in range(1, length + 1):
        brute = sum(
            2.0 * env.value(x - xp) * (x - xp) ** 2
            for xp in range(1, length + 1)
            if xp != x
        )
        assert v[x - 1] == pytest.approx(brute, rel=1e-14)


_ENVELOPE_COUPLING_CASES = [
    (1.0, 1.0, 1), (1.3, 0.6, 2), (0.7, 2.5, 17), (1.0, 1.0, 501), (0.5, 0.3, 400), (2.0, 0.05, 300),
]
_NN_COUPLING_CASES = [(1.0, 1), (0.8, 2), (1.7, 17), (2.5, 501)]


@pytest.mark.parametrize(
    "bound,length",
    [pytest.param(HoppingEnvelope(cv, mu), length, id=f"{cv}-{mu}-{length}")
     for cv, mu, length in _ENVELOPE_COUPLING_CASES]
    + [pytest.param(NNBound(v0), length, id=f"nn-{v0}-{length}")
       for v0, length in _NN_COUPLING_CASES],
)
def test_site_coupling_envelope_closed_form_vs_brute_sum(bound, length):
    # the one summed-by-distance formula of site_coupling_profile against the
    # pair sum over all sites, with each declaration's pair strength written out
    v = site_coupling_profile(bound, length)
    x = np.arange(length, dtype=float)
    d = np.abs(x[:, None] - x[None, :])
    if isinstance(bound, NNBound):
        pair = np.where(d == 1, bound.v0, 0.0)
    else:
        pair = bound.cv * np.exp(-bound.mu * d)
    brute = 2.0 * np.sum(pair * d * d, axis=1)
    np.testing.assert_allclose(v, brute, rtol=1e-13, atol=0)
    if isinstance(bound, NNBound) or length < 400:
        return
    # sites 50/mu from both edges miss less than 1e-17 of the two-sided series
    mu = bound.mu
    bulk = v[(x >= 50 / mu) & (x <= length - 1 - 50 / mu)]
    assert bulk.size
    np.testing.assert_allclose(bulk, envelope_coupling_partial(bound.cv, mu), rtol=1e-13)


def test_chebyshev_limits():
    env = HoppingEnvelope(cv=1.0, mu=1.0)
    assert chebyshev_tail_bound(env, 100, 1.0, 1e9) < 1e-14
    assert chebyshev_tail_bound(env, 100, 1e-12, 0.1) == 1.0  # capped at a probability
    with pytest.raises(ValidationError):
        chebyshev_tail_bound(env, 100, 1.0, 0.0)
    for gap in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            variance_upper_bound(env, 100, gap)


def test_chebyshev_takes_an_array_of_radii():
    # one coupling profile for all radii, and each value bit for bit the scalar call's
    radii = np.array([0.3, 1.0, 2.5, 7.0, 1e9, np.inf])
    for src in (HoppingEnvelope(cv=1.3, mu=0.7), NNBound(v0=0.8)):
        got = chebyshev_tail_bound(src, 30, 0.05, radii)
        assert isinstance(got, np.ndarray) and got.shape == radii.shape
        want = [chebyshev_tail_bound(src, 30, 0.05, float(r)) for r in radii]
        assert all(isinstance(w, float) for w in want)
        assert got.tobytes() == np.array(want).tobytes()
    env = HoppingEnvelope(cv=1.0, mu=1.0)
    for bad in ([1.0, 0.0], [2.0, -1.0], [np.nan, 1.0], np.nan, -3.0):
        with pytest.raises(ValidationError, match="radius must be positive"):
            chebyshev_tail_bound(env, 100, 1.0, bad)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda prof, b: tail(prof, 2.0, np.nan), "tail radius must not be NaN"),
        (lambda prof, b: tail(prof, 2.0, [1.0, np.nan]), "tail radius must not be NaN"),
        (lambda prof, b: b.evaluate(np.nan), "envelope defined for R >= r1"),
        (lambda prof, b: b.evaluate([3.0, np.nan]), "envelope defined for R >= r1"),
        (lambda prof, b: tail_steps(prof, np.nan), "mean position must be finite"),
        (lambda prof, b: tail_steps(prof, -np.inf), "mean position must be finite"),
    ],
    ids=["tail", "tail-array", "envelope", "envelope-array", "steps-nan-mean", "steps-inf-mean"],
)
def test_nan_radius_or_mean_is_refused(call, message):
    # a NaN radius used to read a tail of 0.0 and an envelope value of nan
    prof = DensityProfile(np.array([0.25, 0.5, 0.25]))
    bound = theorem2_bound(1.0, 0.5, 0.5, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            call(prof, bound)


def test_variance_bound_on_random_specs():
    for i in range(25):
        spec, env = random_model(trial_rng(202, i), size_range=(6, 30))
        try:
            res, prof, stats = _solve(spec)
        except Exception:
            continue
        assert stats.variance <= variance_upper_bound(env, spec.length, res.gap) * (
            1 + 1e-9
        ) + 1e-12


def test_theorem1_example_values():
    env = HoppingEnvelope(cv=1.0, mu=1.0)
    b = theorem1_bound(env, delta_e0=1.0, s=0.5, delta_x=1.0)
    assert b.amplitude == pytest.approx(c1_partial(1.0, 1.0), rel=1e-12)
    first_branch = 1.5 * math.sqrt((4 * _E**2 + 1) * b.amplitude / (_E * 0.5))
    assert first_branch == pytest.approx(33.1, abs=0.05)
    assert b.xi == pytest.approx(first_branch, rel=1e-14)
    assert b.r1 == pytest.approx(math.sqrt(2 * (2 * _E + 1)), rel=1e-14)
    assert b.r1 == pytest.approx(3.588, abs=1e-3)
    assert b.prefactor == pytest.approx((2 * _E * 1.5 + 1) / (4 * (2 * _E + 1)), rel=1e-14)
    assert 0 < b.prefactor < 1


def test_theorem1_floor_branch_and_scaling():
    env = HoppingEnvelope(cv=1.0, mu=1.0)
    floor = 3.0 * math.log(2 * _E)
    assert theorem1_bound(env, 1e9, 0.5, 1.0).xi == pytest.approx(floor, rel=1e-14)
    # exact halving under a fourfold gap while the first branch is active
    b1 = theorem1_bound(env, 0.01, 0.5, 1.0)
    b4 = theorem1_bound(env, 0.04, 0.5, 1.0)
    assert b4.xi == pytest.approx(b1.xi / 2.0, rel=1e-14)


def test_theorem_monotonicity():
    env = HoppingEnvelope(cv=1.0, mu=1.0)
    gaps = np.logspace(-4, 4, 30)
    xi1 = [theorem1_bound(env, g, 0.5, 1.0).xi for g in gaps]
    xi2 = [theorem2_bound(1.0, g, 0.5, 1.0).xi for g in gaps]
    assert all(a >= b - 1e-12 for a, b in zip(xi1, xi1[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(xi2, xi2[1:]))
    cvs = np.linspace(0.1, 5.0, 20)
    xi1_cv = [theorem1_bound(HoppingEnvelope(c, 1.0), 1.0, 0.5, 1.0).xi for c in cvs]
    assert all(b >= a - 1e-12 for a, b in zip(xi1_cv, xi1_cv[1:]))


def test_theorem2_example_values():
    b = theorem2_bound(v0=1.0, delta_e0=2.0, s=0.5, delta_x=1.0)
    assert b.xi == pytest.approx(math.sqrt(_E) + 2.0, rel=1e-14)
    assert b.xi == pytest.approx(3.6487, abs=5e-5)
    assert b.prefactor == pytest.approx(_E / (2 * (_E + 1)), rel=1e-14)
    assert b.prefactor == pytest.approx(0.3655, abs=1e-4)
    assert b.r1 == pytest.approx(math.sqrt((_E + 1) / 0.5), rel=1e-14)
    # additive floor at huge gaps
    assert theorem2_bound(1.0, 1e12, 0.5, 1.0).xi == pytest.approx(2.0, abs=1e-5)


def test_bound_parameter_validation():
    env = HoppingEnvelope(cv=1.0, mu=1.0)
    for s in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            theorem1_bound(env, 1.0, s, 1.0)
        with pytest.raises(ValidationError):
            theorem2_bound(1.0, 1.0, s, 1.0)
    for gap in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            theorem1_bound(env, gap, 0.5, 1.0)
        with pytest.raises(ValidationError):
            theorem2_bound(1.0, gap, 0.5, 1.0)
    for v0 in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            theorem2_bound(v0, 1.0, 0.5, 1.0)
    # the complementary inequality reads the gap too: a gap that is not
    # finite and positive would pass it with a positive slack
    spec = impurity_model(20, -0.5)
    res = lowest_two(assemble(spec))
    g = position_weight(spec.length)
    for gap in (-1.0, 0.0, -0.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="spectral gap"):
            g_expectations(res.psi0, spec, g, gap)
        with pytest.raises(ValidationError, match="spectral gap"):
            GroundState.of(res.psi0, spec).complementary(g, gap)
    b = theorem1_bound(env, 1.0, 0.5, 1.0)
    with pytest.raises(ValidationError):
        b.evaluate(b.r1 - 0.5)


def test_trapezoid_profiles():
    length, center = 101, 51.0
    g1 = trapezoid_g(length, center, r_inner=10.0, delta_r=9.0, variant="theorem1").g
    x = np.arange(1, length + 1, dtype=float)
    u = np.abs(x - center)
    assert np.all(g1[u <= 13.0] == 0.0)
    assert np.all(g1[u >= 16.0] == 3.0)  # plateau delta_r / 3
    mid = np.abs(u - 14.5) < 0.25
    np.testing.assert_allclose(g1[mid], u[mid] - 13.0)

    g2 = trapezoid_g(length, center, r_inner=10.0, delta_r=9.0, variant="theorem2").g
    assert np.all(g2[u <= 11.0] == 0.0)
    assert np.all(g2[u >= 18.0] == 7.0)  # plateau delta_r - 2 at r_outer - 1
    ramp = (u >= 11.0) & (u <= 18.0)
    np.testing.assert_allclose(g2[ramp], u[ramp] - 11.0)


def test_trapezoid_validation():
    with pytest.raises(ValidationError):
        trapezoid_g(10, 5.0, 1.0, 3.0, variant="theorem1")
    with pytest.raises(ValidationError):
        trapezoid_g(10, 5.0, 1.0, 2.0, variant="theorem2")
    with pytest.raises(ValidationError):
        trapezoid_g(10, 5.0, -1.0, 5.0)
    with pytest.raises(ValidationError):
        trapezoid_g(10, 5.0, 1.0, 5.0, variant="nope")
    for args in (
        (10, math.inf, 1.0, 5.0),
        (10, math.nan, 1.0, 5.0),
        (10, 5.0, math.inf, 5.0),
        (10, 5.0, math.nan, 5.0),
        (10, 5.0, 1.0, math.inf),
        (5.5, 5.0, 1.0, 5.0),
        (0, 5.0, 1.0, 5.0),
    ):
        for variant in ("theorem1", "theorem2"):
            with pytest.raises(ValidationError):
                trapezoid_g(*args, variant=variant)


def test_verify_envelope_impurity_theorem2():
    spec = impurity_model(500, -1.0)
    res, prof, stats = _solve(spec)
    b = theorem2_bound(1.0, res.gap, 0.5, stats.delta_x)
    chk = verify_envelope(prof, stats.mean, b)
    assert chk.ok
    dist = np.unique(np.abs(np.arange(1, prof.length + 1) - stats.mean))
    np.testing.assert_array_equal(chk.r_grid, dist[dist >= b.r1])
    assert np.all(np.diff(chk.r_grid) > 0)
    assert np.all(chk.tail_values <= chk.bound_values + chk.tolerance)


def test_verify_envelope_delta_profile():
    p = np.zeros(11)
    p[5] = 1.0
    prof = DensityProfile(p=p)
    stats = position_stats(prof)
    assert stats.variance == 0.0
    b = theorem2_bound(1.0, 1.0, 0.5, stats.delta_x)
    assert b.r1 == 0.0
    chk = verify_envelope(prof, stats.mean, b)
    assert chk.ok and chk.r_grid.size > 0
    assert chk.r_grid[0] == 1.0  # the R = 0 point carries no information


def test_verify_envelope_detects_corruption():
    # heavy-shouldered profile: the tail at the onset radius is ~0.12,
    # between prefactor/10 and prefactor, so only the corruption fails
    p = np.zeros(101)
    p[50] = 0.88
    p[20] = p[80] = 0.06
    prof = DensityProfile(p=p)
    stats = position_stats(prof)
    b = theorem2_bound(1.0, 0.05, 0.5, stats.delta_x)
    assert b.r1 < 30.0  # shoulders sit inside the checked range
    assert verify_envelope(prof, stats.mean, b).ok
    corrupted = dataclasses.replace(b, prefactor=b.prefactor / 10.0)
    chk = verify_envelope(prof, stats.mean, corrupted)
    assert chk.violations.size > 0
    assert not chk.ok


def test_verify_envelope_empty_grid_when_onset_exceeds_lattice():
    prof = DensityProfile(p=np.full(5, 0.2))
    b = theorem2_bound(1.0, 1.0, 0.5, 100.0)  # r1 far beyond the chain
    chk = verify_envelope(prof, 3.0, b)
    assert chk.ok and chk.r_grid.size == 0


def test_verify_envelope_finds_violation_between_grid_radii(tmp_path):
    # mean 11, the far site at distance 9; env(9) < 0.1 < env(8.75), so a
    # radius grid of step 0.5 from r1 = 0.25 steps over the violation
    p = np.zeros(21)
    p[9], p[19] = 0.9, 0.1
    prof = DensityProfile(p=p)
    mean = position_stats(prof).mean
    assert mean == 11.0
    r1, xi = 0.25, 2.0
    b = TailEnvelope("theorem2", 0.5, 1.0, r1, xi, 0.099 * math.exp((9.0 - r1) / xi), 1.0, 0.0)
    assert b.evaluate(9.0) < 0.1 < b.evaluate(8.75)
    chk = verify_envelope(prof, mean, b)
    np.testing.assert_array_equal(chk.r_grid, np.arange(1.0, 11.0))
    np.testing.assert_array_equal(chk.violations, [9.0])
    assert not chk.ok
    path = tmp_path / "env.csv"
    write_envelope_csv(chk, path)
    flags = {float(ln.split(",")[0]): ln.split(",")[3] for ln in path.read_text().splitlines()[1:]}
    assert flags == {r: ("1" if r == 9.0 else "0") for r in np.arange(1.0, 11.0)}


def test_verify_envelope_is_exact_over_all_radii():
    # the oracle probes every distance >= r1, every midpoint between two
    # neighbouring distances and a point just above each distance
    rng = np.random.default_rng(12)
    flagged = 0
    for trial in range(300):
        length = int(rng.integers(1, 40))
        p = rng.random(length) ** 4
        p /= p.sum()
        prof = DensityProfile(p=p)
        mean = (position_stats(prof).mean, float(rng.integers(1, length + 1)),
                rng.integers(1, 2 * length + 1) / 2.0)[trial % 3]
        dist = np.unique(np.abs(np.arange(1, length + 1) - mean))
        r1 = float(rng.choice([0.0, rng.uniform(0.0, dist[-1] + 1.0)]))
        xi = float(rng.uniform(0.3, 10.0))
        # pin the envelope near the tail at one distance so both outcomes occur;
        # with no distance >= r1 the tail there is 0 and nothing is checked,
        # so any prefactor does, and an envelope's must be > 0
        d0 = float(rng.choice(dist[dist >= r1])) if np.any(dist >= r1) else r1
        prefactor = ((brute_tail(p, mean, d0) or 1.0) * math.exp((d0 - r1) / xi)
                     * rng.uniform(0.7, 1.3))
        b = TailEnvelope("theorem1", 0.5, 1.0, r1, xi, prefactor, 1.0, 0.0)

        probes = np.concatenate([dist, (dist[1:] + dist[:-1]) / 2.0, dist + 1e-9, [r1]])
        probes = probes[(probes >= r1) & (probes > 0.0)]
        oracle_ok = all(
            brute_tail(p, mean, r) <= b.evaluate(r) + ENVELOPE_TOL for r in probes
        )
        chk = verify_envelope(prof, mean, b)
        assert chk.ok == oracle_ok, (trial, mean, r1)
        np.testing.assert_array_equal(chk.r_grid, dist[(dist >= r1) & (dist > 0.0)])
        flagged += not chk.ok
    assert 50 < flagged < 250


def test_verify_appendixB_impurity():
    spec = impurity_model(200, -0.8)
    res, prof, stats = _solve(spec)
    env = fit_envelope(spec, mu=1.0)
    for r_inner, delta_r in ((0.0, 4.0), (3.0, 6.5), (10.0, 12.0), (25.0, 40.0)):
        g = trapezoid_g(spec.length, stats.mean, r_inner, delta_r, "theorem1")
        rep = verify_appendixB(spec, env, g, res.psi0, (r_inner, delta_r, stats.mean))
        assert rep.ok
        assert rep.hod_abs <= rep.bound_direct + rep.tolerance
        assert rep.bound_direct <= rep.bound_piecewise + rep.tolerance


def test_verify_appendixB_far_sites_do_not_overflow():
    # exp(mu * (u - a)) overflows at sites far from the centre; the
    # piecewise bound must not evaluate it there
    spec = impurity_model(1600, -0.5)
    res, _, stats = _solve(spec)
    env = fit_envelope(spec, mu=1.0)
    g = trapezoid_g(spec.length, stats.mean, 0.0, 6.0, "theorem1")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = verify_appendixB(spec, env, g, res.psi0, (0.0, 6.0, stats.mean))
    assert rep.ok
    assert np.isfinite(rep.bound_piecewise) and np.isfinite(rep.pointwise_margin)


def test_verify_appendixB_holds_no_square_array():
    # the direct coupling sum runs over blocks of rows: at L = 2000 an L x L
    # float array alone takes 30.5 MiB
    spec = impurity_model(2000, -0.5)
    res, _, stats = _solve(spec)
    env = fit_envelope(spec, mu=1.0)
    region = (250.0, 250.0, stats.mean)
    g = trapezoid_g(spec.length, stats.mean, *region[:2], "theorem1")
    tracemalloc.start()
    try:
        rep = verify_appendixB(spec, env, g, res.psi0, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 32 * 2**20


def test_appendixB_row_blocks_match_the_square_sum():
    # several row blocks, each row summed as one L-long row: bit for bit the
    # sum over the whole L x L array
    spec = impurity_model(300, -0.5)
    res, prof, stats = _solve(spec)
    env = fit_envelope(spec, mu=1.0)
    region = (20.0, 60.0, stats.mean)
    g = trapezoid_g(spec.length, stats.mean, *region[:2], "theorem1")
    rep = verify_appendixB(spec, env, g, res.psi0, region)
    assert rep.ok
    x = np.arange(1, spec.length + 1, dtype=float)
    d = np.abs(x[:, None] - x[None, :])
    dg2 = (g.g[:, None] - g.g[None, :]) ** 2
    v_direct = 2.0 * np.sum(dg2 * env.cv * np.exp(-env.mu * d), axis=1)
    assert rep.bound_direct == float(np.dot(v_direct, prof.p))
    assert rep.bound_direct > 0.0


def test_verify_appendixB_degenerate_trapezoid_is_zero():
    spec = impurity_model(20, -0.5)
    res, _, stats = _solve(spec)
    env = fit_envelope(spec, mu=1.0)
    # whole lattice inside the zero region: g identically zero
    g = trapezoid_g(spec.length, stats.mean, 50.0, 6.0, "theorem1")
    assert not g.g.any()
    rep = verify_appendixB(spec, env, g, res.psi0, (50.0, 6.0, stats.mean))
    assert rep.hod_abs == 0.0
    assert rep.bound_direct == 0.0


def test_appendixB_failure_returns_its_report(monkeypatch):
    # a coupling constant a thousandfold too small puts the piecewise bound
    # below the direct per-site coupling: the record returns its failed report
    import gapbound.bounds as bounds_mod

    spec = impurity_model(200, -0.8)
    res, _, stats = _solve(spec)
    env = fit_envelope(spec, mu=1.0)
    region = (3.0, 6.5, stats.mean)
    g = trapezoid_g(spec.length, stats.mean, 3.0, 6.5, "theorem1")
    real = bounds_mod.c1_constant
    monkeypatch.setattr(bounds_mod, "c1_constant", lambda envelope: 1e-3 * real(envelope))
    rep = GroundState.of(res.psi0, spec).appendixB(env, g, region)
    assert not rep.ok and rep.pointwise_margin < -rep.tolerance
    assert rep == verify_appendixB(spec, env, g, res.psi0, region)


def test_verify_appendixB_rejects_mismatched_g():
    spec = impurity_model(20, -0.5)
    res, _, stats = _solve(spec)
    env = fit_envelope(spec, mu=1.0)
    g = trapezoid_g(spec.length, stats.mean, 2.0, 6.0, "theorem2")
    with pytest.raises(ValidationError, match="mismatched g shape"):
        verify_appendixB(spec, env, g, res.psi0, (2.0, 6.0, stats.mean))


def test_verify_appendixB_requires_valid_envelope():
    spec = impurity_model(20, -0.5)
    res, _, stats = _solve(spec)
    bad = HoppingEnvelope(cv=0.1, mu=1.0)
    g = trapezoid_g(spec.length, stats.mean, 2.0, 6.0, "theorem1")
    with pytest.raises(EnvelopeViolation):
        verify_appendixB(spec, bad, g, res.psi0, (2.0, 6.0, stats.mean))


def test_verify_appendixB_fuzzed():
    for i in range(40):
        rng = trial_rng(909, i)
        spec, env = random_model(rng, size_range=(8, 30))
        try:
            res, prof, stats = _solve(spec)
        except Exception:
            continue
        r_inner = float(rng.uniform(0.0, spec.length / 4))
        delta_r = float(rng.uniform(3.2, max(4.2, spec.length / 3)))
        g = trapezoid_g(spec.length, stats.mean, r_inner, delta_r, "theorem1")
        rep = verify_appendixB(spec, env, g, res.psi0, (r_inner, delta_r, stats.mean))
        assert rep.ok


def test_best_s_search():
    # the declared bound picks the theorem; the winners are the ones the
    # kind-string search returned for the same inputs
    env = HoppingEnvelope(cv=1.0, mu=1.0)
    s, b = best_s(env, delta_e0=0.5, delta_x=1.0, r=30.0)
    assert (s, b) == (0.9000000000000001, theorem1_bound(env, 0.5, s, 1.0))
    assert b.r1 <= 30.0
    # winner beats the default s = 0.5 at the probe radius
    b_half = theorem1_bound(env, 0.5, 0.5, 1.0)
    assert b.evaluate(30.0) <= b_half.evaluate(30.0) + 1e-15
    s2, b2 = best_s(NNBound(v0=1.0), delta_e0=0.5, delta_x=1.0, r=10.0)
    assert (s2, b2) == (0.9500000000000001, theorem2_bound(1.0, 0.5, s2, 1.0))
    assert b2.r1 <= 10.0
    with pytest.raises(ValidationError, match="no s in the grid has onset radius r1 <= 1"):
        best_s(env, 0.5, 50.0, 1.0)  # no feasible s


def test_bound_and_envelope_csv(tmp_path):
    env = HoppingEnvelope(cv=1.0, mu=1.0)
    b1 = theorem1_bound(env, 1.0, 0.5, 1.0)
    b2 = theorem2_bound(1.0, 1.0, 0.5, 1.0)
    path = tmp_path / "bounds.csv"
    write_bound_csv([b1, b2], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,s,r1,xi,prefactor,C1_or_V0,deltaE0,deltaX"
    assert lines[1].startswith("theorem1,0.5,")
    assert lines[2].startswith("theorem2,0.5,")
    assert float(lines[1].split(",")[5]) == b1.amplitude

    prof = DensityProfile(p=np.full(9, 1.0 / 9.0))
    chk = verify_envelope(prof, 5.0, b2)
    epath = tmp_path / "env.csv"
    write_envelope_csv(chk, epath)
    lines = epath.read_text().splitlines()
    assert lines[0] == "R,tail,bound,violation"
    assert len(lines) == 1 + chk.r_grid.size


@pytest.mark.parametrize("call, error, message", [
    (lambda: WeightFunction(np.zeros((2, 2))), ValidationError,
     "weight function must be a nonempty 1-d array"),
    (lambda: WeightFunction(np.zeros(0)), ValidationError,
     "weight function must be a nonempty 1-d array"),
    (lambda: WeightFunction(np.array([1.0, np.nan])), ValidationError,
     "weight function contains non-finite values"),
    (lambda: site_coupling_profile("chain", 4), ValidationError,
     "unsupported hopping bound str"),
    (lambda: theorem1_bound(HoppingEnvelope(1.0, 1.0), 0.5, 0.5, -1.0), ValidationError,
     "position spread must be finite and >= 0, got -1.0"),
    (lambda: theorem2_bound(1.0, 0.5, 0.5, math.nan), ValidationError,
     "position spread must be finite and >= 0, got nan"),
    (lambda: best_s("theorem1", 0.5, 1.0, 30.0), ValidationError,
     "unsupported hopping bound str"),
], ids=["weight-2d", "weight-empty", "weight-nan", "coupling-source", "spread-negative",
        "spread-nan", "best-s-bound"])
def test_bounds_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()

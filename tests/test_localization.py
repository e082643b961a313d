"""Density profiles, position statistics, tails, decay fits."""

import math
import re

import numpy as np
import pytest

from gapbound import (
    DensityProfile,
    ModelSpec,
    ValidationError,
    assemble,
    density,
    fit_localization_length,
    impurity_model,
    lowest_two,
    position_stats,
    tail,
    write_fit_csv,
    write_profile_csv,
)

from gapbound.localization import FIT_FLOOR, FIT_MARGIN, tail_steps
from gapbound.sweep import default_h0_grid

from oracles import brute_tail, polyfit_decay_fit


def _delta_profile(length, site):
    p = np.zeros(length)
    p[site - 1] = 1.0
    return DensityProfile(p=p)


def test_density_delta():
    spec = ModelSpec(4, 1)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    np.testing.assert_array_equal(density(psi, spec).p, [1, 0, 0, 0])


def test_density_symmetric_two_site():
    spec = ModelSpec(2, 1)
    psi = np.full(2, 1 / math.sqrt(2))
    np.testing.assert_allclose(density(psi, spec).p, [0.5, 0.5], atol=1e-15)


def test_density_sums_internal_states():
    spec = ModelSpec(2, 2)
    a, b = 0.6, 0.8j
    psi = np.array([a, b, 0, 0])
    np.testing.assert_allclose(density(psi, spec).p, [1.0, 0.0], atol=1e-15)


def test_density_validation():
    spec = ModelSpec(3, 1)
    with pytest.raises(ValidationError):
        density(np.ones(4), spec)  # dimension mismatch
    with pytest.raises(ValidationError):
        density(np.ones(3), spec)  # not normalized


@pytest.mark.parametrize("scale", [1 - 4e-13, 1 + 4e-13, 1 - 6e-13, 1 + 6e-13, 1 + 5e-11])
def test_density_norm_is_checked_once_at_the_profile_tolerance(scale):
    # the squared norm is the sum of the density: the vector is accepted
    # exactly when its profile sums to 1 within DENSITY_SUM_TOL = 1e-12
    spec = ModelSpec(3, 2)
    rng = np.random.default_rng(17)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi *= scale / np.linalg.norm(psi)
    if abs(scale**2 - 1.0) <= 1e-12:
        assert abs(density(psi, spec).p.sum() - 1.0) <= 1e-12
    else:
        with pytest.raises(ValidationError, match="coefficient vector has squared norm"):
            density(psi, spec)


def test_density_profile_invariants():
    with pytest.raises(ValidationError):
        DensityProfile(p=np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValidationError):
        DensityProfile(p=np.array([1.5, -0.5]))
    for p in ([np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]):
        with pytest.raises(ValidationError):
            DensityProfile(p=np.array(p))


def test_position_stats_examples():
    st = position_stats(_delta_profile(9, 5))
    assert st.mean == 5.0 and st.variance == 0.0
    st = position_stats(DensityProfile(p=np.array([0.5, 0.5])))
    assert st.mean == pytest.approx(1.5, abs=1e-15)
    assert st.variance == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("length", [2, 7, 100])
def test_position_stats_uniform_variance(length):
    st = position_stats(DensityProfile(p=np.full(length, 1.0 / length)))
    assert st.variance == pytest.approx((length**2 - 1) / 12.0, rel=1e-12)


def test_tail_examples():
    prof = _delta_profile(9, 5)
    assert tail(prof, 5.0, 0.5) == 0.0
    assert tail(prof, 5.0, 0.0) == 1.0
    two = DensityProfile(p=np.array([0.5, 0.5]))
    assert tail(two, 1.5, 0.5) == 1.0  # both sites exactly at distance 0.5
    uni = DensityProfile(p=np.full(4, 0.25))
    assert tail(uni, 2.5, 1.6) == 0.0  # maximum distance is 1.5


def test_tail_monotone_and_matches_brute_force():
    rng = np.random.default_rng(8)
    p = rng.random(31)
    p /= p.sum()
    prof = DensityProfile(p=p)
    mean = position_stats(prof).mean
    grid = np.arange(0.0, 32.0, 0.17)
    vals = np.array([tail(prof, mean, r) for r in grid])
    assert np.all(np.diff(vals) <= 1e-15)
    for r in grid[::5]:
        assert tail(prof, mean, r) == pytest.approx(brute_tail(p, mean, r), abs=1e-15)


def test_tail_array_path_matches_brute_force():
    rng = np.random.default_rng(10)
    for length in (1, 2, 9, 64):
        p = rng.random(length) ** 6
        p /= p.sum()
        prof = DensityProfile(p=p)
        for mean in (position_stats(prof).mean, 1.0, length / 2 + 0.5):
            # grid points on, between and beyond the integer distances
            grid = np.concatenate([np.arange(0.0, length + 1.0, 0.25), [1e9]])
            vals = tail(prof, mean, grid)
            assert vals.shape == grid.shape
            ref = np.array([brute_tail(p, mean, r) for r in grid])
            # same terms, summed in another order
            np.testing.assert_allclose(vals, ref, rtol=1e-13, atol=0)
            assert np.array_equal(vals == 0.0, ref == 0.0)


def test_tail_array_path_keeps_tiny_tails():
    # a tail of 1e-200 must survive next to an O(1) bulk
    p = np.array([1.0, 1e-200, 1e-210])
    prof = DensityProfile(p=p / p.sum())
    np.testing.assert_allclose(
        tail(prof, 1.0, np.array([1.0, 2.0])), [1e-200 + 1e-210, 1e-210], rtol=1e-15
    )


def test_tail_chebyshev_consistency():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = rng.random(41) ** 3
        p /= p.sum()
        prof = DensityProfile(p=p)
        st = position_stats(prof)
        for r in np.arange(0.25, 45.0, 0.25):
            assert tail(prof, st.mean, r) <= st.variance / r**2 + 1e-12


def _synthetic_exponential(length, center, xi):
    x = np.arange(1, length + 1)
    p = np.exp(-np.abs(x - center) / xi)
    return DensityProfile(p=p / p.sum())


def test_fit_recovers_exact_exponential():
    prof = _synthetic_exponential(101, 51.0, 3.0)
    fit = fit_localization_length(prof, center=51.0)
    assert fit.ok and fit.reason == ""
    assert fit.xi_fit == pytest.approx(3.0, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.window[0] >= 0.0
    assert fit.window[1] <= 40.0  # boundary margin of 10 on both ends


def test_fit_window_respects_floor():
    prof = _synthetic_exponential(101, 51.0, 1.0)
    fit = fit_localization_length(prof, center=51.0)
    # p >= FIT_FLOOR limits the usable distance to 29, inside the margins' 40
    assert fit.window == (0.0, 29.0)
    assert prof.p[50 + 29] >= FIT_FLOOR > prof.p[50 + 30]
    assert fit.xi_fit == pytest.approx(1.0, rel=1e-6)


def test_fit_without_a_center_fits_about_the_density_peak():
    prof = _synthetic_exponential(101, 37.0, 3.0)
    fit = fit_localization_length(prof)
    assert fit.center == 37.0
    assert fit == fit_localization_length(prof, center=float(np.argmax(prof.p) + 1))
    assert fit != fit_localization_length(prof, center=51.0)
    spec = impurity_model(500, -0.3)
    prof = density(lowest_two(assemble(spec)).psi0, spec)
    fit = fit_localization_length(prof)
    assert fit.center == 251.0
    assert fit == fit_localization_length(prof, center=251)


@pytest.mark.parametrize("center", [True, "30"], ids=["bool", "string"])
def test_a_bool_or_string_fit_center_is_refused(center):
    # a bool used to fit about site 1, a string to escape as a bare TypeError
    prof = _synthetic_exponential(60, 30.0, 3.0)
    message = f"fit center must be a real number, got {center!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        fit_localization_length(prof, center=center)


def test_fit_uniform_profile_is_nondecaying():
    fit = fit_localization_length(DensityProfile(p=np.full(60, 1.0 / 60.0)), center=30.0)
    assert not fit.ok
    assert fit.reason == "profile is exactly flat over the fit window"


def test_fit_insufficient_data():
    fit = fit_localization_length(_delta_profile(30, 15), center=15.0)
    assert not fit.ok
    assert fit.reason == "only 1 usable points (need >= 4); FIT_FLOOR=1e-13, FIT_MARGIN=10"
    prof2 = _synthetic_exponential(9, 5.0, 2.0)
    # the margins eat the whole chain; the message names the constants
    fit = fit_localization_length(prof2, center=5.0)
    assert not fit.ok
    assert fit.reason == "only 0 usable points (need >= 4); FIT_FLOOR=1e-13, FIT_MARGIN=10"


_GROWING = np.arange(1, 31) / np.arange(1, 31).sum()


@pytest.mark.parametrize("p, center, reason", [
    (_synthetic_exponential(9, 5.0, 2.0).p, 5.0,
     "only 0 usable points (need >= 4); FIT_FLOOR=1e-13, FIT_MARGIN=10"),
    (np.full(60, 1.0 / 60.0), 30.0, "profile is exactly flat over the fit window"),
    (_GROWING, 1.0, "fitted slope 6.589e-02 is not negative"),
], ids=["too-few-points", "flat-window", "growing-profile"])
def test_an_unavailable_fit_returns_its_reason(p, center, reason):
    # a fit with nothing to fit is a result: NaN numbers, the centre given
    fit = fit_localization_length(DensityProfile(p), center=center)
    assert not fit.ok
    assert fit.reason == reason
    numbers = [fit.xi_fit, fit.intercept, fit.r_squared, *fit.window]
    assert all(math.isnan(v) for v in numbers)
    assert fit.center == center


def test_fit_impurity_ground_state_matches_spread():
    spec = impurity_model(500, -1.0)
    res = lowest_two(assemble(spec))
    prof = density(res.psi0, spec)
    st = position_stats(prof)
    fit = fit_localization_length(prof, center=251.0)
    target = st.delta_x / math.sqrt(2)
    assert abs(fit.xi_fit - target) / target < 0.10
    assert fit.r_squared > 0.999


@pytest.mark.parametrize("h0", [-1.0, -0.5, -0.3])
def test_impurity_matches_analytic_bound_state(h0):
    # closed form for the infinite chain: the defect binds a state at
    # -sqrt(4 + h0^2) whose amplitude decays like exp(-kappa |x|) with
    # sinh(kappa) = |h0| / 2; at L = 500 the finite-size error is
    # below double precision
    spec = impurity_model(500, h0)
    res = lowest_two(assemble(spec))
    assert res.e0 == pytest.approx(-math.sqrt(4.0 + h0 * h0), abs=1e-12)
    prof = density(res.psi0, spec)
    fit = fit_localization_length(prof, center=251.0)
    kappa = math.asinh(abs(h0) / 2.0)
    assert fit.xi_fit == pytest.approx(1.0 / (2.0 * kappa), rel=1e-8)


def _assert_fit_matches_polyfit(prof, center):
    fit = fit_localization_length(prof, center=center)
    xi_fit, intercept, r_squared, window = polyfit_decay_fit(prof.p, center)
    assert fit.xi_fit == pytest.approx(xi_fit, rel=1e-12, abs=0)
    assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=0)
    assert fit.r_squared == pytest.approx(r_squared, rel=1e-12, abs=0)
    assert fit.window == window


def test_closed_form_fit_matches_polyfit_on_impurity_profiles():
    for h0 in default_h0_grid()[::10]:
        spec = impurity_model(500, h0)
        prof = density(lowest_two(assemble(spec)).psi0, spec)
        _assert_fit_matches_polyfit(prof, 251.0)


def test_closed_form_fit_matches_polyfit_on_a_noisy_profile():
    # the margin cuts the left side (sites 1..10 lie above the floor), the
    # floor the right side, where the noisy tail crosses it
    rng = np.random.default_rng(17)
    x = np.arange(1, 201)
    p = np.exp(-np.abs(x - 30.3) / 3.0 + rng.normal(scale=0.5, size=x.size))
    prof = DensityProfile(p=p / p.sum())
    assert np.all(prof.p[:FIT_MARGIN] >= FIT_FLOOR)
    assert np.any(prof.p[FIT_MARGIN:-FIT_MARGIN] < FIT_FLOOR)
    _assert_fit_matches_polyfit(prof, 30.3)


def test_csv_dumps(tmp_path):
    prof = _synthetic_exponential(31, 16.0, 3.0)
    ppath = tmp_path / "profile.csv"
    write_profile_csv(prof, ppath)
    lines = ppath.read_text().splitlines()
    assert lines[0] == "x,p_x"
    assert len(lines) == 32
    x, p = lines[1].split(",")
    assert x == "1" and float(p) == prof.p[0]

    fit = fit_localization_length(prof)
    fpath = tmp_path / "fit.csv"
    write_fit_csv(fit, fpath)
    lines = fpath.read_text().splitlines()
    assert lines[0] == "xi_fit,intercept,r_squared,window_lo,window_hi"
    row = [float(v) for v in lines[1].split(",")]
    assert row == [fit.xi_fit, fit.intercept, fit.r_squared, 0.0, 5.0]  # no center


@pytest.mark.parametrize("call, error, message", [
    (lambda: DensityProfile(np.full((2, 2), 0.25)), ValidationError,
     "density profile must be a nonempty 1-d array"),
], ids=["profile-2d"])
def test_localization_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_tail_steps_never_increase():
    # suffix sums of clamped (>= 0) densities never grow in floating point,
    # so the fuzz trial's monotonicity check needs no slack
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = rng.random(int(rng.integers(2, 60))) ** rng.uniform(1.0, 40.0)
        profile = DensityProfile(p / p.sum())
        radii, tails = tail_steps(profile, float(rng.uniform(0.0, p.size + 1.0)))
        assert np.all(np.diff(tails) <= 0)

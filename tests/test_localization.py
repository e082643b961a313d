"""Density profiles, position statistics, tails, decay fits."""

import math

import numpy as np
import pytest

from gapbound import (
    DensityProfile,
    InsufficientData,
    ModelSpec,
    NonDecaying,
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

from oracles import brute_tail


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


def test_density_profile_invariants():
    with pytest.raises(ValidationError):
        DensityProfile(p=np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValidationError):
        DensityProfile(p=np.array([1.5, -0.5]))


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


def test_tail_array_path_matches_scalar_path():
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
            ref = np.array([tail(prof, mean, r) for r in grid])
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
    assert fit.xi_fit == pytest.approx(3.0, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.window[0] >= 0.0
    assert fit.window[1] <= 40.0  # boundary margin of 10 on both ends


def test_fit_window_respects_floor():
    prof = _synthetic_exponential(101, 51.0, 2.0)
    fit = fit_localization_length(prof, center=51.0, floor=1e-6)
    # ln(p) >= ln(1e-6) limits the usable distance
    assert fit.window[1] < 30.0
    assert fit.xi_fit == pytest.approx(2.0, rel=1e-6)


def test_fit_uniform_profile_is_nondecaying():
    prof = DensityProfile(p=np.full(60, 1.0 / 60.0))
    with pytest.raises(NonDecaying):
        fit_localization_length(prof, center=30.0)


def test_fit_insufficient_data():
    prof = _delta_profile(30, 15)
    with pytest.raises(InsufficientData):
        fit_localization_length(prof, center=15.0)
    prof2 = _synthetic_exponential(9, 5.0, 2.0)
    with pytest.raises(InsufficientData):
        fit_localization_length(prof2, center=5.0)  # margins eat the whole chain


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


def test_csv_dumps(tmp_path):
    prof = _synthetic_exponential(21, 11.0, 3.0)
    ppath = tmp_path / "profile.csv"
    write_profile_csv(prof, ppath)
    lines = ppath.read_text().splitlines()
    assert lines[0] == "x,p_x"
    assert len(lines) == 22
    x, p = lines[1].split(",")
    assert x == "1" and float(p) == prof.p[0]

    fit = fit_localization_length(prof, center=11.0, boundary_margin=2)
    fpath = tmp_path / "fit.csv"
    write_fit_csv(fit, fpath)
    lines = fpath.read_text().splitlines()
    assert lines[0] == "xi_fit,intercept,r_squared,window_lo,window_hi"
    assert float(lines[1].split(",")[0]) == fit.xi_fit

"""Eigensolver: examples, certified residuals, oracle agreement."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eig_banded, eigh, eigh_tridiagonal

import gapbound.eigensolver as eigensolver_mod
from gapbound import (
    BandedHermitian,
    DegenerateGroundState,
    GapboundError,
    ModelSpec,
    NonHermitianError,
    ValidationError,
    assemble,
    impurity_model,
    lowest_two,
    spectral_scale,
    strip_model,
    write_spectrum,
)
from gapbound.fuzz import FAMILIES, NN_FAMILY, random_model, trial_rng
from gapbound.sweep import default_h0_grid

from oracles import (
    band_to_dense,
    bisect_eigenvalues,
    charpoly_eigenvalues,
    dense_assembly,
    dense_counts,
    hermitian_eigenvalues_bisect,
    random_hermitian,
    sturm_count,
)


def test_uncertified_residual_is_refused(monkeypatch):
    # residuals above the limit leave the tridiagonal route unproven, and the
    # band route's pair is refused, not returned
    real = eigensolver_mod._rayleigh_pairs

    def inflated(*args):
        w, psis, residuals = real(*args)
        return w, psis, [1e-3] * len(residuals)

    monkeypatch.setattr(eigensolver_mod, "_rayleigh_pairs", inflated)
    h = assemble(impurity_model(40, -1.0))
    limit = eigensolver_mod.DEFAULT_RESIDUAL_TOL * max(1.0, spectral_scale(h))
    with pytest.raises(GapboundError) as exc:
        lowest_two(h)
    assert exc.type is GapboundError
    assert str(exc.value) == (
        f"eigenpair residual 1.000e-03 exceeds {limit:.3e}; decomposition not certified"
    )


def test_two_site_example():
    res = lowest_two(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert res.e0 == pytest.approx(-1.0, abs=1e-14)
    assert res.e1 == pytest.approx(1.0, abs=1e-14)
    assert res.gap == pytest.approx(2.0, abs=1e-14)
    # phase convention makes the vector exactly (1, 1)/sqrt(2)
    np.testing.assert_allclose(res.psi0, np.full(2, 1 / math.sqrt(2)), atol=1e-14)


def test_three_site_free_chain():
    h = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    res = lowest_two(h)
    assert res.e0 == pytest.approx(-math.sqrt(2), abs=1e-12)
    assert res.e1 == pytest.approx(0.0, abs=1e-12)
    assert res.gap == pytest.approx(math.sqrt(2), abs=1e-12)


def test_degenerate_ground_state_refused():
    with pytest.raises(DegenerateGroundState):
        lowest_two(np.diag([3.0, 3.0]))
    with pytest.raises(DegenerateGroundState):
        lowest_two(np.zeros((4, 4)))


def test_input_validation():
    with pytest.raises(ValidationError):
        lowest_two(np.array([[1.0]]))
    with pytest.raises(ValidationError, match="dimension >= 2"):
        lowest_two(np.zeros((0, 0)))
    with pytest.raises(NonHermitianError):
        lowest_two(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValidationError):
        BandedHermitian.from_dense(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        BandedHermitian.from_dense(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(NonHermitianError):
        BandedHermitian.from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # row sums past the float limit: refused by the scale limit, with no
    # overflow warning on the way (the halves are summed, not the entries)
    with pytest.raises(ValidationError, match="spectral scale inf"):
        lowest_two(np.full((2, 2), 1e308))
    with pytest.raises(NonHermitianError, match=r"by 1\.000e\+308"):
        lowest_two(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_proof_helper_on_stub_counts():
    # E0 = 0, E1 = 1, residuals and pads 1e-3: sigma1 = 0.998 lies above
    # E0 + r0 + pad(E0) = 0.002 with a margin of 0.996
    pairs = (np.array([0.0, 1.0]), [None, None], [1e-3, 1e-3])
    shifts = []

    def stub(negatives, bound):
        def count(sigma):
            shifts.append(sigma)
            return negatives, bound
        return count

    def proven(pad, count, limit=1e-3, threshold=1.0):
        return eigensolver_mod._proven(pairs, lambda e: pad, count, limit, threshold)

    assert proven(1e-3, stub(1, 0.0)) is pairs
    assert shifts == [pytest.approx(0.998, abs=1e-15)]
    assert proven(1e-3, stub(0, 0.9)) is pairs
    assert proven(1e-3, stub(2, 0.0)) is None  # a second eigenvalue below sigma1
    assert proven(1e-3, stub(1, 0.997)) is None  # the count's bound eats the margin
    assert proven(1e-3, stub(1, math.nan)) is None
    # pads that close the window, a residual above the limit (or NaN), or a
    # gap below the degeneracy threshold: refused before any count
    shifts.clear()
    assert proven(0.5, stub(0, 0.0)) is None
    assert proven(1e-3, stub(0, 0.0), limit=np.nextafter(1e-3, 0)) is None
    assert proven(1e-3, stub(0, 0.0), limit=math.nan) is None
    assert proven(1e-3, stub(0, 0.0), threshold=np.nextafter(1.0, 2)) is None
    assert shifts == []


def test_imaginary_diagonal_is_refused_or_dropped():
    with pytest.raises(NonHermitianError, match="imaginary part 5.000e"):
        lowest_two(BandedHermitian(np.array([[1 + 5j, 2, 3], [0.5, 0.5, 0]])))
    # within HERMITIAN_TOL * max(1, max |entry|) the imaginary part is
    # dropped, and the caller's array is left as it was
    band = np.array([[1 + 1e-13j, 2, 3], [0.5, 0.5, 0]])
    h = BandedHermitian(band)
    assert band[0, 0] == 1 + 1e-13j
    assert h.band[0].tobytes() == np.array([1, 2, 3], dtype=complex).tobytes()


def test_slots_outside_the_matrix_are_read_as_zero():
    # band[k, n - k:] lies outside the matrix (LAPACK never reads it): a value
    # there neither sets the diagonal's tolerance nor widens the band
    band = np.array([[1 + 1e-6j, 2, 3], [0, 0, 1e7]])
    with pytest.raises(NonHermitianError, match="imaginary part 1.000e-06"):
        BandedHermitian(band)
    assert band[1, 2] == 1e7
    h = BandedHermitian(np.array([[1, 2, 3], [0, 0, 1]]))
    assert h.bandwidth == 0
    assert h.band.tobytes() == np.array([[1, 2, 3]], dtype=complex).tobytes()


def test_from_dense_exact_symmetry_and_immutability():
    rng = np.random.default_rng(0)
    a = random_hermitian(rng, 5) + 1e-14 * rng.normal(size=(5, 5))
    hm = BandedHermitian.from_dense(a)
    assert hm.bandwidth == 4
    dense = band_to_dense(hm)
    assert np.array_equal(dense, dense.conj().T)
    assert np.array_equal(dense, 0.5 * (a + a.conj().T))
    with pytest.raises(ValueError):
        hm.band[0, 0] = 1.0
    # the band stops at the true bandwidth
    assert BandedHermitian.from_dense(np.diag([1.0, 2.0, 3.0])).bandwidth == 0
    assert BandedHermitian.from_dense(np.triu(np.tril(a, 2), -2)).bandwidth == 2


def test_spectral_scale_is_max_row_sum():
    h = np.array([[1.0, -2.0], [-2.0, 0.5]])
    assert spectral_scale(h) == 3.0
    assert spectral_scale(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_small_matrices_match_charpoly_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        h = random_hermitian(rng, n)
        oracle = charpoly_eigenvalues(h)
        if n >= 2 and oracle[1] - oracle[0] < 1e-6:
            continue
        res = lowest_two(h)
        assert res.e0 == pytest.approx(oracle[0], abs=1e-10 * spectral_scale(h))
        assert res.e1 == pytest.approx(oracle[1], abs=1e-10 * spectral_scale(h))


@pytest.mark.parametrize("n", [12, 40])
def test_matches_bisection_oracle(n):
    rng = np.random.default_rng(n)
    h = random_hermitian(rng, n)
    res = lowest_two(h)
    oracle = hermitian_eigenvalues_bisect(h, k=2)
    np.testing.assert_allclose([res.e0, res.e1], oracle, atol=1e-11 * spectral_scale(h))


@pytest.mark.parametrize("n", [35, 120])
def test_cross_check_against_divide_and_conquer(n):
    # independent LAPACK route (syevd) as an extra consistency anchor
    rng = np.random.default_rng(n + 1)
    h = random_hermitian(rng, n)
    res = lowest_two(h)
    ref = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
    scale = max(1.0, spectral_scale(h))
    np.testing.assert_allclose(res.eigenvalues, ref, atol=1e-12 * scale)


def test_bisection_oracle_self_check():
    # the oracle itself must solve an exactly known tridiagonal spectrum
    n = 9
    d = np.zeros(n)
    e = np.ones(n - 1)
    expected = 2.0 * np.cos(np.pi * np.arange(n, 0, -1) / (n + 1))
    np.testing.assert_allclose(bisect_eigenvalues(d, e), expected, atol=1e-12)


def test_residuals_certified():
    rng = np.random.default_rng(7)
    for n in (2, 6, 17, 51):
        h = random_hermitian(rng, n, scale=3.0)
        res = lowest_two(h)
        scale = spectral_scale(h)
        assert res.residual0 <= 1e-10 * max(1.0, scale)
        assert res.residual1 <= 1e-10 * max(1.0, scale)
        # recompute independently
        a = 0.5 * (np.asarray(h) + np.asarray(h).conj().T)
        assert np.linalg.norm(a @ res.psi0 - res.e0 * res.psi0) <= 1e-10 * max(1.0, scale)
        assert abs(np.linalg.norm(res.psi0) - 1.0) <= 1e-12


def test_trace_identity():
    rng = np.random.default_rng(21)
    for n in (5, 23, 64):
        h = random_hermitian(rng, n)
        res = lowest_two(h)
        assert res.eigenvalues.shape == (n,)
        assert np.all(np.diff(res.eigenvalues) >= -1e-12)
        assert abs(res.eigenvalues.sum() - np.trace(h).real) <= 1e-8 * n * spectral_scale(h)


def test_shift_invariance():
    rng = np.random.default_rng(42)
    h = random_hermitian(rng, 20)
    base = lowest_two(h)
    for c in (-3.7, 0.25, 11.0):
        shifted = lowest_two(h + c * np.eye(20))
        assert abs(shifted.gap - base.gap) < 1e-10
        assert abs(shifted.e0 - (base.e0 + c)) < 1e-9
        assert abs(np.vdot(base.psi0, shifted.psi0)) > 1 - 1e-10


def test_phase_convention():
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 9)
    res = lowest_two(h)
    for psi in (res.psi0, res.psi1):
        top = psi[int(np.argmax(np.abs(psi)))]
        assert abs(top.imag) < 1e-14
        assert top.real > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=9))
def test_property_certified_spectrum(seed, n):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    try:
        res = lowest_two(h)
    except DegenerateGroundState:
        return
    scale = spectral_scale(h)
    assert res.e0 <= res.e1
    assert res.gap == res.e1 - res.e0
    assert res.residual0 <= 1e-10 * max(1.0, scale)
    oracle = hermitian_eigenvalues_bisect(h, k=2)
    np.testing.assert_allclose([res.e0, res.e1], oracle, atol=1e-10 * max(1.0, scale))


def test_write_spectrum(tmp_path):
    res = lowest_two(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    path = tmp_path / "spec.txt"
    write_spectrum(res, path)
    lines = path.read_text().splitlines()
    assert lines[0].split() == ["0", "-1"]
    assert lines[1].split() == ["1", "1"]


def _spectrum_models():
    for family in FAMILIES:
        for i in range(30):
            yield random_model(trial_rng(980, i), n0_range=(1, 3), family=family)[0]
    yield strip_model(9, 3, t_along=1.0, t_across=0.7)
    yield strip_model(4, 5, t_along=0.3, t_across=1.2)
    yield impurity_model(60, -0.4)
    # hopping-free: a diagonal band, and a complex band of on-site blocks only
    yield ModelSpec(4, 1, onsite_blocks=[(1, [[0.3]]), (2, [[-1.0]]), (4, [[2.0]])])
    onsite = [(1, [[0.5, 0.2j], [-0.2j, -1.0]]), (3, [[2.0, 0], [0, 0.1]])]
    yield ModelSpec(3, 2, onsite_blocks=onsite)


def test_banded_spectrum_matches_dense_assembly():
    kinds = set()
    for spec in _spectrum_models():
        h = assemble(spec)
        try:
            res = lowest_two(h)
        except DegenerateGroundState:
            continue
        w = res.eigenvalues
        assert not w.flags.writeable
        ref = np.linalg.eigvalsh(dense_assembly(spec))
        scale = max(1.0, spectral_scale(h))
        np.testing.assert_allclose(w, ref, rtol=0, atol=1e-12 * scale)
        kinds.add((min(h.bandwidth, 2), bool(h.band.imag.any())))
    # a diagonal band (always real), and tridiagonal and wider bands, real and complex
    assert kinds == {(0, False)} | {(b, c) for b in (1, 2) for c in (False, True)}


def _complex_tridiagonal(rng, n, sub=None):
    h = np.diag(rng.normal(size=n)).astype(complex)
    if sub is None:
        sub = rng.normal(size=n - 1) * np.exp(2j * np.pi * rng.random(n - 1))
    idx = np.arange(n - 1)
    h[idx + 1, idx] = sub
    h[idx, idx + 1] = np.conj(sub)
    return h


_ROUTES = {
    "_tridiagonal_pairs": "tridiagonal",
    "_inertia_pairs": "inertia",
    "_band_eigenvalues": "band",
}


@pytest.fixture()
def routes(monkeypatch):
    """Record which route (module-level route helper) each lowest_two call takes."""
    taken = []
    for name, route in _ROUTES.items():
        original = getattr(eigensolver_mod, name)

        def spy(*args, _route=route, _original=original, **kwargs):
            taken.append(_route)
            return _original(*args, **kwargs)

        monkeypatch.setattr(eigensolver_mod, name, spy)
    return taken


@pytest.mark.parametrize("n", [3, 8, 31, 120])
def test_complex_tridiagonal_route_matches_dense_route(n, routes):
    rng = np.random.default_rng(300 + n)
    h = _complex_tridiagonal(rng, n)
    res = lowest_two(h)
    assert routes == ["tridiagonal"]
    # the dense route, called directly on the same matrix
    w, v = eigh(h, subset_by_index=(0, 1))
    scale = max(1.0, spectral_scale(h))
    np.testing.assert_allclose([res.e0, res.e1], w, rtol=0, atol=1e-12 * scale)
    assert abs(np.vdot(res.psi0, v[:, 0])) >= 1 - 1e-10
    assert abs(np.vdot(res.psi1, v[:, 1])) >= 1 - 1e-10
    assert res.residual0 <= 1e-10 * scale
    assert res.residual1 <= 1e-10 * scale
    a = band_to_dense(BandedHermitian.from_dense(h))
    assert np.linalg.norm(a @ res.psi0 - res.e0 * res.psi0) <= 1e-10 * scale
    np.testing.assert_allclose(
        [res.e0, res.e1], hermitian_eigenvalues_bisect(h, k=2), atol=1e-11 * scale
    )


def test_zero_subdiagonal_entry_decoupled_blocks(routes):
    # two decoupled copies of the same block: degenerate, refused on the band
    # route after the unproven coarse pass
    block = np.array([0.3, -1.1 + 0.4j])
    sub = np.concatenate([block, [0.0], block])
    rng = np.random.default_rng(11)
    h = _complex_tridiagonal(rng, 6, sub)
    h[np.arange(3, 6), np.arange(3, 6)] = h[np.arange(3), np.arange(3)]
    with pytest.raises(DegenerateGroundState):
        lowest_two(h)
    assert routes == ["tridiagonal", "band"]
    # shift the second block up a little: psi0 lives on the first block and
    # psi1 on the second, whose phases continue across the zero entry; the
    # coarse pass is proven
    h[np.arange(3, 6), np.arange(3, 6)] += 1e-3
    res = lowest_two(h)
    assert routes == ["tridiagonal", "band", "tridiagonal"]
    oracle = hermitian_eigenvalues_bisect(h, k=2)
    np.testing.assert_allclose([res.e0, res.e1], oracle, atol=1e-12)
    assert res.gap == pytest.approx(1e-3, abs=1e-12)
    np.testing.assert_allclose(res.psi0[3:], 0.0, atol=1e-12)
    np.testing.assert_allclose(res.psi1[:3], 0.0, atol=1e-12)
    assert max(res.residual0, res.residual1) <= 1e-10 * max(1.0, spectral_scale(h))


def test_diagonal_and_two_site_input(routes):
    res = lowest_two(np.diag([2.0, -1.0, 5.0, 0.5]))
    assert (res.e0, res.e1) == (-1.0, 0.5)
    np.testing.assert_array_equal(np.abs(res.psi0), [0, 1, 0, 0])
    res = lowest_two(np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -1.0]]))
    assert res.e0 == pytest.approx(-math.sqrt(6.0), abs=1e-14)
    assert res.e1 == pytest.approx(math.sqrt(6.0), abs=1e-14)
    assert routes == ["tridiagonal", "tridiagonal"]


def test_stalled_bisection_falls_back_to_the_band_route(monkeypatch, routes):
    # _bisect_two gives up after _MAX_BISECTIONS counts: the inertia route
    # returns no pair and the band route solves the same band
    h = assemble(strip_model(100, 4))
    assert repr(h) == "BandedHermitian(n=400, bandwidth=4)"
    want = lowest_two(h)
    assert routes == ["inertia"]
    bisected = []
    original = eigensolver_mod._bisect_two

    def spy(*args):
        bisected.append(original(*args))
        return bisected[-1]

    monkeypatch.setattr(eigensolver_mod, "_bisect_two", spy)
    monkeypatch.setattr(eigensolver_mod, "_MAX_BISECTIONS", 1)
    got = lowest_two(h)
    assert bisected == [None]
    assert routes == ["inertia", "inertia", "band"]
    # the two routes are not bit-identical in general
    np.testing.assert_allclose([got.e0, got.e1], [want.e0, want.e1], rtol=0,
                               atol=1e-12 * spectral_scale(h))


def test_strip_takes_band_route(routes):
    # reflection-symmetric strip: the first excited state is odd, so it has
    # no overlap with an all-ones vector
    h = assemble(strip_model(9, 3, t_along=1.0, t_across=0.7))
    assert h.bandwidth > 1
    res = lowest_two(h)
    assert routes == ["band"]
    scale = spectral_scale(h)
    oracle = hermitian_eigenvalues_bisect(band_to_dense(h), k=2)
    np.testing.assert_allclose([res.e0, res.e1], oracle, atol=1e-11 * scale)
    assert max(res.residual0, res.residual1) <= 1e-10 * max(1.0, scale)
    assert abs(res.psi1.sum()) <= 1e-10


def _assert_matches_dense(res, h):
    w, v = eigh(band_to_dense(h), subset_by_index=(0, 1))
    scale = max(1.0, spectral_scale(h))
    np.testing.assert_allclose([res.e0, res.e1], w, rtol=0, atol=1e-12 * scale)
    assert abs(np.vdot(res.psi0, v[:, 0])) >= 1 - 1e-10
    assert abs(np.vdot(res.psi1, v[:, 1])) >= 1 - 1e-10
    assert max(res.residual0, res.residual1) <= 1e-10 * scale


@pytest.mark.parametrize("family", FAMILIES)
def test_random_banded_models_match_dense_route(family, routes):
    solved = set()
    for i in range(40):
        spec = random_model(trial_rng(970, i), n0_range=(1, 3), family=family)[0]
        h = assemble(spec)
        if h.bandwidth <= 1:
            continue
        try:
            res = lowest_two(h)
        except DegenerateGroundState:
            continue
        assert routes[-1] == "band"
        _assert_matches_dense(res, h)
        solved.add(spec.n0)
    assert solved == ({1, 2, 3} if family == FAMILIES[0] else {2, 3})


def _banded_block(rng, n):
    a = random_hermitian(rng, n)
    return np.triu(np.tril(a, 2), -2)


def test_decoupled_banded_blocks_zero_pivot(routes):
    rng = np.random.default_rng(31)
    block = _banded_block(rng, 7)
    # site 0 is isolated below the rest of the spectrum: H - E0 I has an
    # exactly zero column, so its LU factor has an exactly zero pivot
    a = np.zeros((8, 8), dtype=complex)
    a[0, 0] = -10.0
    a[1:, 1:] = block
    h = BandedHermitian.from_dense(a)
    res = lowest_two(h)
    assert routes == ["band"]
    assert res.e0 == -10.0
    np.testing.assert_allclose(np.abs(res.psi0), np.eye(8)[0], rtol=0, atol=1e-14)
    _assert_matches_dense(res, h)
    # two identical decoupled blocks: degenerate, refused
    twin = np.zeros((14, 14), dtype=complex)
    twin[:7, :7] = twin[7:, 7:] = block
    with pytest.raises(DegenerateGroundState):
        lowest_two(BandedHermitian.from_dense(twin))


def _near_degenerate(delta, eps=1e-10):
    # a banded double well: two copies of one block, the second shifted up
    # by delta, joined by a coupling eps inside the band
    rng = np.random.default_rng(41)
    block = _banded_block(rng, 10)
    a = np.zeros((20, 20), dtype=complex)
    a[:10, :10] = block
    a[10:, 10:] = block + delta * np.eye(10)
    a[10, 9] = eps
    a[9, 10] = eps
    return BandedHermitian.from_dense(a)


def test_near_degenerate_banded_gap():
    h = _near_degenerate(0.0)
    scale = spectral_scale(h)
    h = _near_degenerate(1e-7 * scale)
    res = lowest_two(h)
    assert res.gap == pytest.approx(1e-7 * scale, rel=1e-3)
    _assert_matches_dense(res, h)
    with pytest.raises(DegenerateGroundState):
        lowest_two(_near_degenerate(5e-9 * scale))


def test_eigenvalues_computed_lazily(routes):
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 12)
    res = lowest_two(h)
    assert routes == ["band"]
    assert "eigenvalues" not in vars(res)
    w = res.eigenvalues
    assert res.eigenvalues is w
    assert not w.flags.writeable
    assert w[0] == pytest.approx(res.e0, abs=1e-12)
    assert w[1] == pytest.approx(res.e1, abs=1e-12)


def _nn_chains():
    yield impurity_model(60, -0.4)
    for i in range(20):
        yield random_model(trial_rng(950, i), n0_range=(1, 1), family=NN_FAMILY)[0]


def test_band_route_matches_dense_route(routes):
    for spec in _nn_chains():
        h = assemble(spec)
        assert h.bandwidth <= 1
        try:
            res = lowest_two(h)
        except DegenerateGroundState:
            continue
        assert routes[-1] == "tridiagonal"
        w, v = eigh(band_to_dense(h), subset_by_index=(0, 1))
        scale = max(1.0, spectral_scale(h))
        np.testing.assert_allclose([res.e0, res.e1], w, rtol=0, atol=1e-12 * scale)
        assert abs(np.vdot(res.psi0, v[:, 0])) >= 1 - 1e-10
        # the same operator given as a dense array takes the same route, same bits
        dense = lowest_two(band_to_dense(h))
        assert (dense.e0, dense.e1) == (res.e0, res.e1)
        assert dense.psi0.tobytes() == res.psi0.tobytes()


def test_wide_array_is_solved_on_its_band(routes):
    # bandwidth >= 2 on the sbevx route and on the inertia route: the array
    # and the band it stands for give the same bits
    for h in (assemble(strip_model(9, 3, t_along=1.0, t_across=0.7)),
              assemble(random_model(trial_rng(970, 0), n0_range=(3, 3))[0]),
              assemble(_disordered_strip(100, 4, 0))):
        assert h.bandwidth >= 2
        res, dense = lowest_two(h), lowest_two(band_to_dense(h))
        assert routes[-2] == routes[-1]
        assert (dense.e0, dense.e1, dense.gap) == (res.e0, res.e1, res.gap)
        assert (dense.residual0, dense.residual1) == (res.residual0, res.residual1)
        assert dense.psi0.tobytes() == res.psi0.tobytes()
        assert dense.psi1.tobytes() == res.psi1.tobytes()
        assert np.array_equal(dense.matrix.band, h.band)
    assert routes == ["band"] * 4 + ["inertia"] * 2


def test_banded_matvec_and_scale_match_dense():
    rng = np.random.default_rng(8)
    specs = [strip_model(6, 3, 1.0, 0.4), impurity_model(20, -1.0)]
    specs += [random_model(trial_rng(960, i), family=f)[0] for f in FAMILIES for i in range(10)]
    for spec in specs:
        h = assemble(spec)
        v = rng.normal(size=h.n) + 1j * rng.normal(size=h.n)
        dense = band_to_dense(h)
        np.testing.assert_allclose(h.matvec(v), dense @ v, rtol=0, atol=1e-13 * np.abs(v).sum())
        assert spectral_scale(h) == pytest.approx(spectral_scale(dense), rel=1e-14)


def _route_test_operators():
    rng = np.random.default_rng(990)
    for n in (3, 8, 31, 120):
        yield BandedHermitian.from_dense(_complex_tridiagonal(rng, n))
    yield assemble(impurity_model(60, -0.4))
    yield assemble(strip_model(9, 3, t_along=1.0, t_across=0.7))
    yield BandedHermitian.from_dense(_banded_block(rng, 20))
    for family in FAMILIES:
        for i in range(20):
            yield assemble(random_model(trial_rng(970, i), family=family)[0])


def test_direct_lapack_calls_match_scipy_wrappers():
    # bandwidths 0 and 1 too: the band route is every route's fallback
    kinds = set()
    for h in _route_test_operators():
        band = eigensolver_mod._lapack_band(h)
        w = eigensolver_mod._band_eigenvalues(band)
        w_ref = eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(0, 1))
        assert w.tobytes() == w_ref.tobytes()
        kinds.add((min(h.bandwidth, 2), band.dtype.kind))
    # real and complex bands, tridiagonal and wider, all covered
    assert kinds == {(b, k) for b in (1, 2) for k in "fc"}


def test_nonzero_lapack_info_is_refused(monkeypatch):
    real = eigensolver_mod.get_lapack_funcs

    def failing(names, *args, **kwargs):
        def fail(f):
            def call(*a, **k):
                out = f(*a, **k)
                return (*out[:-1], -1) if isinstance(out, tuple) else out
            return call
        return tuple(fail(f) for f in real(names, *args, **kwargs))

    monkeypatch.setattr(eigensolver_mod, "get_lapack_funcs", failing)
    for h in (assemble(impurity_model(10, -0.5)), assemble(strip_model(5, 2))):
        with pytest.raises(GapboundError, match="LAPACK"):
            lowest_two(h)


def _chain_form(h):
    """The real symmetric ``(d, e)`` the tridiagonal route solves."""
    return h.band[0].real, np.abs(h.band[1, : h.n - 1])


@pytest.mark.parametrize("length", [500, 5000])
def test_coarse_tridiagonal_pass_is_proven_on_the_default_grid(length, routes):
    # the coarse pass is proven at every point, and its Rayleigh energies
    # agree with full-precision bisection to rounding
    eps = np.finfo(float).eps
    for h0 in default_h0_grid():
        h = assemble(impurity_model(length, h0))
        routes.clear()
        res = lowest_two(h)
        assert routes == ["tridiagonal"], h0
        w = eigh_tridiagonal(*_chain_form(h), eigvals_only=True, select="i", select_range=(0, 1))
        scale = spectral_scale(h)
        assert abs(res.e0 - w[0]) <= 4 * eps * scale, h0
        assert abs(res.e1 - w[1]) <= 4 * eps * scale, h0
        assert res.gap == pytest.approx(w[1] - w[0], rel=1e-9, abs=0), h0


def test_coarse_tridiagonal_pass_is_proven_on_fuzz_chains(routes):
    chains = 0
    for i in range(200):
        spec = random_model(trial_rng(980, i), family=NN_FAMILY)[0]
        h = assemble(spec)
        if h.bandwidth > 1:
            continue
        routes.clear()
        lowest_two(h)
        assert routes == ["tridiagonal"], i
        chains += 1
    assert chains >= 20


def _assert_band_route_pair(res, h):
    """``res`` is the band route's pair of the chain ``h`` and agrees with the bisection oracle."""
    band = eigensolver_mod._lapack_band(h)
    w = eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(0, 1))
    vecs = eigensolver_mod._band_inverse_iteration(band, w, spectral_scale(h))
    ref, psis, residuals = eigensolver_mod._rayleigh_pairs(h, vecs, w)
    assert (res.e0, res.e1, res.gap) == (ref[0], ref[1], ref[1] - ref[0])
    assert (res.residual0, res.residual1) == tuple(residuals)
    np.testing.assert_array_equal(np.abs(res.psi0), np.abs(psis[0]))
    np.testing.assert_array_equal(np.abs(res.psi1), np.abs(psis[1]))
    # each level within its residual plus rounding of its own size, not of the scale
    oracle = bisect_eigenvalues(*_chain_form(h), k=2)
    for energy, residual, ref in zip((res.e0, res.e1), (res.residual0, res.residual1), oracle):
        assert abs(energy - ref) <= residual + 1e-14 * max(1.0, abs(ref))
    assert max(res.residual0, res.residual1) <= 1e-10 * max(1.0, spectral_scale(h))


def _stebz_abstols(monkeypatch):
    """The ``abstol`` of every bisection by index that ``_tridiagonal_pairs`` runs."""
    abstols = []
    real = eigensolver_mod.get_lapack_funcs

    def recording(names, *args, **kwargs):
        funcs = real(names, *args, **kwargs)
        if names != ("stebz", "stein"):
            return funcs
        stebz, stein = funcs

        def by_index(*a):
            abstols.append(a[7])
            return stebz(*a)

        return by_index, stein

    monkeypatch.setattr(eigensolver_mod, "get_lapack_funcs", recording)
    return abstols


@pytest.mark.parametrize("h0", [-1e9, -1e12])
def test_unproven_coarse_pass_is_retried_at_full_accuracy(h0, routes, monkeypatch):
    # one on-site entry sets the scale: threshold / 64 is coarser than the
    # chain's level spacing, so the coarse vectors mix eigenvectors; bisection
    # to full accuracy separates them.  The proof places E_k within r_k plus
    # twice the pad 16 eps (scale + |E_k|): the impurity splits the chain into
    # two halves whose lowest levels lie 4e-12 apart at h0 = -1e9, far inside
    # that, and E1 may be either of them
    abstols = _stebz_abstols(monkeypatch)
    h = assemble(impurity_model(40, h0))
    res = lowest_two(h)
    assert routes == ["tridiagonal"]
    assert len(abstols) == 2 and abstols[0] > 0 and abstols[1] == 0.0
    scale = spectral_scale(h)
    eps = np.finfo(float).eps
    oracle = bisect_eigenvalues(*_chain_form(h), k=2)
    for energy, residual, ref in zip((res.e0, res.e1), (res.residual0, res.residual1), oracle):
        assert abs(energy - ref) <= residual + 32 * eps * (scale + abs(ref))


@pytest.mark.parametrize("index", [8, 49, 88])
def test_default_grid_at_L_50000_is_proven_on_the_tridiagonal_route(index, routes, monkeypatch):
    # the coarse pair of these points misses the proof and the retry proves it
    abstols = _stebz_abstols(monkeypatch)
    h = assemble(impurity_model(50000, default_h0_grid()[index]))
    res = lowest_two(h)
    assert routes == ["tridiagonal"]
    assert len(abstols) == 2 and abstols[0] > 0 and abstols[1] == 0.0
    w = eigh_tridiagonal(*_chain_form(h), eigvals_only=True, select="i", select_range=(0, 1))
    scale = spectral_scale(h)
    eps = np.finfo(float).eps
    assert abs(res.e0 - w[0]) <= 4 * eps * scale
    assert abs(res.e1 - w[1]) <= 4 * eps * scale


def test_huge_impurity_leaves_the_half_chain_level_resolved():
    # at h0 = -1e12 the impurity site decouples: E1 is the lowest level of
    # the 20-site half chain, -2 cos(pi / 21), up to a shift of order 1 / |h0|
    res = lowest_two(assemble(impurity_model(40, -1e12)))
    assert abs(res.e1 + 2 * math.cos(math.pi / 21)) <= 1e-10
    assert res.residual1 <= 1e-10


def test_unconverged_coarse_vectors_fall_back_to_the_band_route(monkeypatch, routes):
    # stein reporting an unconverged vector in the coarse pass is no error
    h = assemble(impurity_model(60, -0.4))
    expected = lowest_two(h)
    real = eigensolver_mod.get_lapack_funcs

    def coarse_stein_fails(names, *args, **kwargs):
        funcs = real(names, *args, **kwargs)
        if names != ("stebz", "stein"):
            return funcs
        stebz, stein = funcs
        return stebz, lambda *a: (stein(*a)[0], 1)

    monkeypatch.setattr(eigensolver_mod, "get_lapack_funcs", coarse_stein_fails)
    routes.clear()
    res = lowest_two(h)
    assert routes == ["tridiagonal", "band"]
    assert res.gap == pytest.approx(expected.gap, rel=1e-12)
    _assert_band_route_pair(res, h)


def test_coarse_pass_with_a_second_eigenvalue_below_sigma1_falls_back_to_the_band_route(
        monkeypatch, routes):
    monkeypatch.setattr(eigensolver_mod, "_sturm_count", lambda *args: 2)
    h = assemble(impurity_model(60, -0.4))
    res = lowest_two(h)
    assert routes == ["tridiagonal", "band"]
    _assert_band_route_pair(res, h)


def test_sturm_count_matches_python_bisection():
    rng = np.random.default_rng(985)
    for n in (2, 5, 40, 300):
        d = rng.uniform(-2, 2, n)
        e = rng.uniform(0, 1.5, n - 1)
        e[rng.random(n - 1) < 0.1] = 0.0  # split blocks too
        scale = float(np.max(np.abs(d) + np.append(e, 0) + np.append(0, e)))
        for sigma in rng.uniform(-scale, scale, 20):
            assert eigensolver_mod._sturm_count(d, e, sigma, scale) == sturm_count(d, e, sigma)


def _disordered_strip(length, width, seed, disorder=6.0):
    """A strip with unit hopping and on-site energies uniform in [-disorder/2, disorder/2]."""
    base = strip_model(length, width)
    rng = np.random.default_rng([width, length, seed])
    onsite = [
        (x, base.onsite.get(x, np.zeros((width, width)))
         + np.diag(rng.uniform(-disorder / 2, disorder / 2, size=width)))
        for x in range(1, length + 1)
    ]
    hops = [(x, xp, b) for (x, xp), b in base.offdiag.items()]
    return ModelSpec(length, width, hops, onsite)


def _random_band(rng, n, b, complex_band):
    band = rng.normal(size=(b + 1, n)) + (1j * rng.normal(size=(b + 1, n)) if complex_band else 0)
    band[0] = 3 * band[0].real
    for k in range(1, b + 1):
        band[k, n - k:] = 0
    return BandedHermitian(band)


# b < 32, 32 <= b <= 64, and b > 64, where LAPACK pbtrf runs blocked and
# leaves a trailing band that is not the Schur complement
@pytest.mark.parametrize("b", [2, 5, 17, 33, 47, 70])
@pytest.mark.parametrize("complex_band", [False, True], ids=["real", "complex"])
def test_inertia_counts_match_dense_oracle(b, complex_band):
    rng = np.random.default_rng([b, complex_band])
    h = _random_band(rng, max(3 * b + 5, 60), b, complex_band)
    band = np.asfortranarray(eigensolver_mod._lapack_band(h))
    scale = spectral_scale(h)
    floor = np.finfo(float).eps * scale
    w = np.linalg.eigvalsh(band_to_dense(h))
    w = np.concatenate([w[:6], w[6 :: len(w) // 10]])  # the bottom, and a sample above it
    shifts = np.concatenate([w - 1e-9, w + 1e-9])
    for cap in (1, 2, 3):
        want = dense_counts(h, shifts, cap)
        got = [eigensolver_mod._band_ldl(band, x, floor, cap)[0] for x in shifts]
        np.testing.assert_array_equal(got, want)
    # the certifying count, with its a posteriori backward-error bound
    for x, want in zip(shifts, dense_counts(h, shifts, 2)):
        count, bound = eigensolver_mod._certified_count(band, x, floor, scale)
        assert count == want
        assert (bound == math.inf) if count == 2 else (0 < bound < 1e-9 * scale)


def test_inertia_route_taken_above_the_crossover(routes):
    spec = random_model(trial_rng(970, 0), n0_range=(3, 3))[0]
    h = assemble(spec)
    assert h.bandwidth > 1 and h.n <= 120
    lowest_two(h)
    assert routes == ["band"]
    routes.clear()
    h = assemble(_disordered_strip(100, 4, 0))
    assert (h.n, h.bandwidth) == (400, 4)
    res = lowest_two(h)
    assert routes == ["inertia"]
    _assert_matches_dense(res, h)


def test_wide_bands_stay_on_the_band_route(routes):
    # past b = 16 the crossover grows with the bandwidth; a dense array never
    # takes the inertia route
    rule = eigensolver_mod._takes_inertia_route
    assert [rule(400, b) for b in (2, 4, 16, 32, 128)] == [False, True, True, False, False]
    assert [rule(600, b) for b in (64, 256)] == [True, False]
    assert [rule(800, b) for b in (128, 512)] == [True, False]
    assert rule(1600, 512) and not rule(1600, 1024)
    assert not any(rule(n, n - 1) for n in (400, 800, 1600, 10**6))
    h = _random_band(np.random.default_rng(400), 400, 32, complex_band=True)
    res = lowest_two(h)
    assert routes == ["band"]
    _assert_matches_dense(res, h)


@pytest.mark.parametrize("length", [100, 1000, 3000])
def test_inertia_route_matches_eig_banded(length, routes):
    h = assemble(_disordered_strip(length, 4, 1))
    res = lowest_two(h)
    assert routes == ["inertia"]
    band = eigensolver_mod._lapack_band(h)
    w = eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(0, 1))
    scale = spectral_scale(h)
    np.testing.assert_allclose([res.e0, res.e1], w, rtol=0, atol=1e-12 * scale)
    assert max(res.residual0, res.residual1) <= 1e-10 * max(1.0, scale)


def test_failed_certificate_falls_back_to_the_band_route(monkeypatch, routes):
    h = assemble(_disordered_strip(100, 5, 2))
    # a count that never certifies anything
    monkeypatch.setattr(eigensolver_mod, "_certified_count", lambda *args: (2, math.inf))
    res = lowest_two(h)
    assert routes == ["inertia", "band"]
    monkeypatch.setattr(eigensolver_mod, "_takes_inertia_route", lambda n, b: False)
    ref = lowest_two(h)
    assert routes == ["inertia", "band", "band"]
    assert (res.e0, res.e1, res.gap) == (ref.e0, ref.e1, ref.gap)
    assert res.psi0.tobytes() == ref.psi0.tobytes()
    assert res.psi1.tobytes() == ref.psi1.tobytes()
    assert (res.residual0, res.residual1) == (ref.residual0, ref.residual1)


def test_inertia_route_makes_one_certified_count(monkeypatch, routes):
    calls = []
    original = eigensolver_mod._certified_count

    def spy(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(eigensolver_mod, "_certified_count", spy)
    h = assemble(_disordered_strip(100, 4, 5))
    res = lowest_two(h)
    assert routes == ["inertia"]
    assert len(calls) == 1
    assert res.e0 + res.residual0 < calls[0] < res.e1 - res.residual1  # at sigma1


@pytest.mark.parametrize("pair", [(1, 2), (0, 2)], ids=["skips-lambda1", "skips-lambda2"])
def test_certificate_rejects_a_pair_that_skips_an_eigenvalue(monkeypatch, routes, pair):
    # bisection steered to the wrong eigenvalues: both pairs pass the residual
    # gate, and the one count below E1 - r1 - pad1 exposes both (it finds
    # two eigenvalues there)
    h = assemble(_disordered_strip(100, 4, 5))
    w = np.linalg.eigvalsh(band_to_dense(h))
    monkeypatch.setattr(eigensolver_mod, "_bisect_two", lambda *args: [w[pair[0]], w[pair[1]]])
    res = lowest_two(h)
    assert routes == ["inertia", "band"]
    _assert_matches_dense(res, h)


@pytest.mark.parametrize("shift", [0.0, 1e-9], ids=["degenerate", "near-degenerate"])
def test_inertia_route_hands_a_degenerate_ground_state_to_the_band_route(routes, shift):
    # two decoupled copies of a disordered strip, the second shifted on-site
    # by shift * scale: every eigenvalue is double, or split by that shift.
    # The inertia route proves no such pair; the band route refuses it.
    block = assemble(_disordered_strip(60, 4, 3))
    shifted = block.band.copy()
    shifted[0] += shift * block.scale
    h = BandedHermitian(np.concatenate([block.band, shifted], axis=1))
    assert h.n >= 400
    threshold = eigensolver_mod.DEFAULT_DEGENERACY_TOL * h.scale
    gap = shift * block.scale
    with pytest.raises(DegenerateGroundState, match="below degeneracy threshold") as info:
        lowest_two(h)
    assert routes == ["inertia", "band"]
    assert f"threshold {threshold:.3e}" in str(info.value)
    if shift:
        assert f"gap {gap:.3e} " in str(info.value)


def test_nonfinite_band_is_rejected():
    for rows in (2, 4):  # the tridiagonal and the band route
        for bad in (np.nan, np.inf):
            band = np.ones((rows, 6), dtype=complex, order="F")  # any memory layout
            band[rows - 1, 1] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                BandedHermitian(band)
            band[rows - 1, 1] = 1.0
            band[0, 2] = complex(0.0, bad)
            with pytest.raises(ValidationError, match="non-finite"):
                BandedHermitian(band)


def _at_scale(h, target):
    """``h`` scaled so that its spectral scale is just below ``target``."""
    return BandedHermitian(h.band * (0.999 * target / spectral_scale(h)))


def _scale_limit_operators():
    limit = eigensolver_mod.MAX_SPECTRAL_SCALE
    # an impurity chain with one huge on-site entry, and the chain scaled whole
    yield "tridiagonal", assemble(impurity_model(500, -0.999 * limit))
    yield "tridiagonal", _at_scale(assemble(impurity_model(500, -0.3)), limit)
    strip = assemble(_disordered_strip(20, 3, 4))
    yield "band", _at_scale(strip, limit)
    defect = strip.band.copy()
    defect[0, 7] = -0.999 * limit
    yield "band", BandedHermitian(defect)
    strip = assemble(_disordered_strip(100, 4, 4))
    yield "inertia", _at_scale(strip, limit)
    defect = strip.band.copy()
    defect[0, 201] = -0.999 * limit
    yield "inertia", BandedHermitian(defect)
    rng = np.random.default_rng(12)
    a = random_hermitian(rng, 30)
    yield "band", a * (0.999 * limit / spectral_scale(a))


def test_every_route_works_up_to_the_scale_limit(routes):
    limit = eigensolver_mod.MAX_SPECTRAL_SCALE
    taken = []
    for route, h in _scale_limit_operators():
        routes.clear()
        res = lowest_two(h)
        assert routes == [route]
        taken.append(route)
        scale = spectral_scale(h)
        assert 0.99 * limit <= scale <= limit
        assert np.isfinite([res.e0, res.e1, res.gap]).all()
        assert max(res.residual0, res.residual1) <= 1e-10 * scale
        assert np.isfinite(res.psi0).all() and np.isfinite(res.psi1).all()
        # and just above the limit every route refuses
        with pytest.raises(ValidationError, match="spectral scale"):
            lowest_two(BandedHermitian(h.band * 1.01) if isinstance(h, BandedHermitian) else h * 1.01)
    assert taken == ["tridiagonal"] * 2 + ["band"] * 2 + ["inertia"] * 2 + ["band"]


@pytest.mark.parametrize("call, error, message", [
    (lambda: BandedHermitian(np.zeros(3)), ValidationError,
     "expected a (bandwidth + 1, n) band, got shape (3,)"),
], ids=["band-1d"])
def test_eigensolver_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()

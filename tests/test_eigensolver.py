"""Eigensolver: examples, certified residuals, oracle agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import bandwidth, eig_banded, eigh, eigh_tridiagonal

import gapbound.eigensolver as eigensolver_mod
from gapbound import (
    BandedHermitian,
    DegenerateGroundState,
    GapboundError,
    HermitianMatrix,
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

from oracles import (
    bisect_eigenvalues,
    charpoly_eigenvalues,
    hermitian_eigenvalues_bisect,
    random_hermitian,
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
    with pytest.raises(NonHermitianError):
        lowest_two(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValidationError):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        HermitianMatrix(np.array([[np.nan, 0], [0, 1.0]]))


def test_hermitian_matrix_exact_symmetry_and_immutability():
    rng = np.random.default_rng(0)
    a = random_hermitian(rng, 5) + 1e-14 * rng.normal(size=(5, 5))
    hm = HermitianMatrix(a)
    assert np.array_equal(hm.array, hm.array.conj().T)
    assert np.array_equal(hm.array, 0.5 * (a + a.conj().T))
    with pytest.raises(ValueError):
        hm.array[0, 0] = 1.0


def test_spectral_scale_is_max_row_sum():
    h = np.array([[1.0, -2.0], [-2.0, 0.5]])
    assert spectral_scale(h) == 3.0


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
    "_band_eigenvalues": "band",
    "_dense_pairs": "dense",
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
    a = HermitianMatrix(h).array
    assert np.linalg.norm(a @ res.psi0 - res.e0 * res.psi0) <= 1e-10 * scale
    np.testing.assert_allclose(
        [res.e0, res.e1], hermitian_eigenvalues_bisect(h, k=2), atol=1e-11 * scale
    )


def test_zero_subdiagonal_entry_decoupled_blocks(routes):
    # two decoupled copies of the same block: degenerate, refused
    block = np.array([0.3, -1.1 + 0.4j])
    sub = np.concatenate([block, [0.0], block])
    rng = np.random.default_rng(11)
    h = _complex_tridiagonal(rng, 6, sub)
    h[np.arange(3, 6), np.arange(3, 6)] = h[np.arange(3), np.arange(3)]
    with pytest.raises(DegenerateGroundState):
        lowest_two(h)
    # shift the second block up a little: psi0 lives on the first block and
    # psi1 on the second, whose phases continue across the zero entry
    h[np.arange(3, 6), np.arange(3, 6)] += 1e-3
    res = lowest_two(h)
    assert routes == ["tridiagonal", "tridiagonal"]
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


def test_strip_takes_band_route(routes):
    # reflection-symmetric strip: the first excited state is odd, so it has
    # no overlap with an all-ones vector
    h = assemble(strip_model(9, 3, t_along=1.0, t_across=0.7))
    assert h.bandwidth > 1
    res = lowest_two(h)
    assert routes == ["band"]
    assert h._array is None  # the band route never forms the dense matrix
    scale = spectral_scale(h)
    oracle = hermitian_eigenvalues_bisect(h.array, k=2)
    np.testing.assert_allclose([res.e0, res.e1], oracle, atol=1e-11 * scale)
    assert max(res.residual0, res.residual1) <= 1e-10 * max(1.0, scale)
    assert abs(res.psi1.sum()) <= 1e-10


def _assert_matches_dense(res, h):
    w, v = eigh(h.array, subset_by_index=(0, 1))
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
        assert h._array is None
        _assert_matches_dense(res, h)
        solved.add(spec.n0)
    assert solved == ({1, 2, 3} if family == FAMILIES[0] else {2, 3})


def _banded(a: np.ndarray) -> BandedHermitian:
    """The banded operator of a dense Hermitian array."""
    n, b = a.shape[0], max(bandwidth(a))
    band = np.zeros((b + 1, n), dtype=complex)
    for k in range(b + 1):
        band[k, : n - k] = a.diagonal(-k)
    return BandedHermitian(band, lambda: a)


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
    h = _banded(a)
    res = lowest_two(h)
    assert routes == ["band"]
    assert res.e0 == -10.0
    np.testing.assert_allclose(np.abs(res.psi0), np.eye(8)[0], rtol=0, atol=1e-14)
    _assert_matches_dense(res, h)
    # two identical decoupled blocks: degenerate, refused
    twin = np.zeros((14, 14), dtype=complex)
    twin[:7, :7] = twin[7:, 7:] = block
    with pytest.raises(DegenerateGroundState):
        lowest_two(_banded(twin))


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
    return _banded(a)


def test_near_degenerate_banded_gap():
    h = _near_degenerate(0.0)
    scale = spectral_scale(h)
    h = _near_degenerate(1e-7 * scale)
    res = lowest_two(h)
    assert res.gap == pytest.approx(1e-7 * scale, rel=1e-3)
    assert h._array is None
    _assert_matches_dense(res, h)
    with pytest.raises(DegenerateGroundState):
        lowest_two(_near_degenerate(5e-9 * scale))


def test_eigenvalues_computed_lazily(routes):
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 12)
    res = lowest_two(h)
    assert routes == ["dense"]
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
        assert h._array is None  # the band route never forms the dense matrix
        w, v = eigh(h.array, subset_by_index=(0, 1))
        scale = max(1.0, spectral_scale(h))
        np.testing.assert_allclose([res.e0, res.e1], w, rtol=0, atol=1e-12 * scale)
        assert abs(np.vdot(res.psi0, v[:, 0])) >= 1 - 1e-10
        # the same operator given as a dense array takes the same route, same bits
        dense = lowest_two(h.array)
        assert (dense.e0, dense.e1) == (res.e0, res.e1)
        assert dense.psi0.tobytes() == res.psi0.tobytes()


def test_banded_matvec_and_scale_match_dense():
    rng = np.random.default_rng(8)
    specs = [strip_model(6, 3, 1.0, 0.4), impurity_model(20, -1.0)]
    specs += [random_model(trial_rng(960, i), family=f)[0] for f in FAMILIES for i in range(10)]
    for spec in specs:
        h = assemble(spec)
        v = rng.normal(size=h.n) + 1j * rng.normal(size=h.n)
        np.testing.assert_allclose(h.matvec(v), h.array @ v, rtol=0, atol=1e-13 * np.abs(v).sum())
        assert spectral_scale(h) == pytest.approx(spectral_scale(h.array), rel=1e-14)


def _route_test_operators():
    rng = np.random.default_rng(990)
    for n in (3, 8, 31, 120):
        yield _banded(_complex_tridiagonal(rng, n))
    yield assemble(impurity_model(60, -0.4))
    yield assemble(strip_model(9, 3, t_along=1.0, t_across=0.7))
    yield _banded(_banded_block(rng, 20))
    for family in FAMILIES:
        for i in range(20):
            yield assemble(random_model(trial_rng(970, i), family=family)[0])


def test_direct_lapack_calls_match_scipy_wrappers():
    kinds = set()
    for h in _route_test_operators():
        if h.bandwidth <= 1:
            d, e = h.lower_diagonal(0).real, np.abs(h.lower_diagonal(1))
            w, z = eigensolver_mod._tridiagonal_pairs(d, e)
            w_ref, z_ref = eigh_tridiagonal(d, e, select="i", select_range=(0, 1))
            assert w.tobytes() == w_ref.tobytes()
            assert z.tobytes() == z_ref.tobytes()
            kinds.add("tridiagonal")
            continue
        band = h.band if h.band.imag.any() else h.band.real
        w = eigensolver_mod._band_eigenvalues(band)
        w_ref = eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(0, 1))
        assert w.tobytes() == w_ref.tobytes()
        kinds.add(band.dtype.kind)
    assert kinds == {"tridiagonal", "f", "c"}  # real and complex bands both covered


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

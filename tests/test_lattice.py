"""Model declaration, assembly, envelopes, and the impurity chain."""

import copy
import gc
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import bandwidth

from gapbound import (
    BandedHermitian,
    EnvelopeViolation,
    HoppingEnvelope,
    ModelSpec,
    NNBound,
    NonHermitianError,
    ValidationError,
    assemble,
    check_nearest_neighbor,
    envelope_violations,
    fit_envelope,
    g_expectations,
    impurity_model,
    lowest_two,
    position_weight,
    require_envelope,
    spectral_scale,
    strip_model,
)
from gapbound.eigensolver import HERMITIAN_TOL
from gapbound.fuzz import FAMILIES, FuzzConfig, random_model, trial_rng
import gapbound.lattice as lattice_mod
from gapbound.lattice import ENVELOPE_RTOL, hopping_norms
from gapbound.modelfile import format_model, parse_model

from oracles import band_to_dense, charpoly_eigenvalues, dense_assembly, shifted_onsite

MODEL_FILES = (
    "L 2\nN0 1\nlabel dimer\nV 1 1 1 -0.5 0\nT 1 2 1 1 -1 0\n",
    "L 3\nN0 2\nV 1 1 2 0.5 0.25\nV 2 2 2 -1 0\nT 1 2 2 1 0 1\nT 1 3 1 2 0.3 -0.2\n",
    "L 5\nN0 1\nT 1 2 1 1 1 0\nT 2 3 1 1 1 0\nT 1 3 1 1 0.5 0\nV 3 1 1 -0.8 0\n",
)


def _model_families():
    yield impurity_model(40, -0.3)
    yield impurity_model(2, 0.0)
    yield strip_model(7, 3, t_along=1.0, t_across=0.7)
    yield strip_model(5, 1)
    yield strip_model(1, 4)
    for text in MODEL_FILES:
        yield parse_model(text)
    for family in FAMILIES:
        for i in range(50):
            yield random_model(trial_rng(900, i), family=family)[0]
    yield shifted_onsite(random_model(trial_rng(901, 0))[0], 1.7)


def test_two_site_assembly():
    spec = ModelSpec(2, 1, [(1, 2, [[-1.0]])])
    h = band_to_dense(assemble(spec))
    np.testing.assert_array_equal(h, np.array([[0, -1], [-1, 0]], dtype=complex))


def test_assemble_places_conjugate_transpose():
    b = np.array([[1 + 2j, 0.5], [0.25j, -1.0]])
    spec = ModelSpec(3, 2, [(1, 3, b)])
    h = band_to_dense(assemble(spec))
    np.testing.assert_array_equal(h[0:2, 4:6], b)
    np.testing.assert_array_equal(h[4:6, 0:2], b.conj().T)
    assert not h[0:2, 2:4].any()


def test_assemble_hermitian_with_random_onsite():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    onsite = 0.5 * (a + a.conj().T)
    spec = ModelSpec(3, 2, [(1, 2, [[0.3, 0], [0, 0.3]])], [(2, onsite)])
    h = band_to_dense(assemble(spec))
    # independent entrywise Hermiticity check
    for r in range(h.shape[0]):
        for c in range(h.shape[1]):
            assert h[r, c] == np.conj(h[c, r])


@pytest.mark.parametrize("seed", range(8))
def test_assemble_hermitian_fuzzed(seed):
    spec, _ = random_model(trial_rng(101, seed), size_range=(3, 12))
    h = band_to_dense(assemble(spec))
    assert np.array_equal(h, h.conj().T)


def test_modelspec_validation_errors():
    with pytest.raises(ValidationError):
        ModelSpec(2, 1, [(1, 2, [[1.0]]), (1, 2, [[2.0]])])  # duplicate pair
    with pytest.raises(ValidationError):
        ModelSpec(2, 1, [(2, 1, [[1.0]])])  # wrong order
    with pytest.raises(ValidationError):
        ModelSpec(2, 1, [(1, 3, [[1.0]])])  # out of range
    with pytest.raises(ValidationError):
        ModelSpec(2, 1, [(1, 1, [[1.0]])])  # diagonal pair
    with pytest.raises(NonHermitianError):
        ModelSpec(2, 2, onsite_blocks=[(1, [[0, 1], [0, 0]])])
    with pytest.raises(ValidationError):
        ModelSpec(2, 1, [(1, 2, [[1.0, 0.0]])])  # wrong block shape


def test_modelspec_symmetrizes_near_hermitian_onsite():
    b = [[1.0, 0.5 + 1e-14j], [0.5, 2.0]]
    spec = ModelSpec(1, 2, onsite_blocks=[(1, b)])
    stored = spec.onsite[1]
    np.testing.assert_array_equal(stored, stored.conj().T)


def test_onsite_symmetrization_keeps_bits_and_does_not_overflow():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = a + a.conj().T + 1e-14 * rng.normal(size=(3, 3))  # Hermitian within tolerance
    stored = ModelSpec(1, 3, onsite_blocks=[(1, b)]).onsite[1]
    assert stored.tobytes() == (0.5 * (b + b.conj().T)).tobytes()
    huge = np.diag([-1e308, 1.7e308, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stored = ModelSpec(1, 3, onsite_blocks=[(1, huge)]).onsite[1]
        # the Hermiticity check of entries of opposite sign must not overflow either
        with pytest.raises(NonHermitianError, match="x=1"):
            ModelSpec(1, 2, onsite_blocks=[(1, [[0, 1e308], [-1e308, 0]])])
    np.testing.assert_array_equal(stored, huge)


def test_model_and_dense_array_apply_one_hermiticity_rule():
    # one on-site off-diagonal entry moved by 0.5 to 3 times the tolerance
    # HERMITIAN_TOL * max(1, largest |entry|), on models scaled by 1e-3..1e12:
    # the model and the dense array are accepted together, with one band
    rng = np.random.default_rng(2025)
    accepted = 0
    for _ in range(500):
        spec, _ = random_model(rng, size_range=(4, 12), n0_range=(2, 3))
        length, n0, scale = spec.length, spec.n0, 10 ** rng.uniform(-3, 12)
        hopping = {d: scale * blocks for d, blocks in spec.hopping_bands.items()}
        onsite = np.zeros((length, n0, n0), dtype=complex)
        for x, b in spec.onsite.items():
            onsite[x - 1] = scale * b
        dense = band_to_dense(assemble(ModelSpec.from_arrays(length, n0, hopping, onsite)))
        tol = HERMITIAN_TOL * max(1.0, float(np.abs(dense).max()))
        x, (i, j) = rng.integers(length), rng.choice(n0, 2, replace=False)
        move = rng.uniform(0.5, 3.0) * tol * np.exp(2j * np.pi * rng.random())
        onsite[x, i, j] += move
        dense[x * n0 + i, x * n0 + j] += move
        try:
            model = assemble(ModelSpec.from_arrays(length, n0, hopping, onsite))
        except NonHermitianError:
            model = None
        try:
            array = BandedHermitian.from_dense(dense)
        except NonHermitianError:
            array = None
        assert (model is None) == (array is None)
        if model is not None:
            accepted += 1
            # bit for bit; + 0.0 turns the -0.0 of a conjugated zero into 0.0
            assert (model.band + 0.0).tobytes() == (array.band + 0.0).tobytes()
    assert 100 < accepted < 400


def test_rotated_large_onsite_energies_are_accepted():
    # Q diag(1e6, 2e6, -3e6) Qᴴ is Hermitian up to rounding, which at this
    # size lies far above 1e-12 but far below 1e-12 times the largest entry
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    block = q @ np.diag([1e6, 2e6, -3e6]) @ q.conj().T
    assert np.abs(block - block.conj().T).max() > 1e-11
    onsite = np.array([block, np.zeros((3, 3))])
    spec = ModelSpec.from_arrays(2, 3, {1: [np.eye(3)]}, onsite)
    dense = np.block([[block, np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
    band = BandedHermitian.from_dense(dense).band
    assert (assemble(spec).band + 0.0).tobytes() == (band + 0.0).tobytes()


def test_modelspec_immutable():
    spec = ModelSpec(2, 1, [(1, 2, [[1.0]])])
    with pytest.raises(AttributeError):
        spec.length = 3
    with pytest.raises(ValueError):
        spec.offdiag[(1, 2)][0, 0] = 5.0
    with pytest.raises(TypeError):
        spec.offdiag[(1, 2)] = np.zeros((1, 1))
    # deletion is refused too, of a field and of each memo, built or not
    memos = ("offdiag", "onsite", "_operator", "_hopping_norms")
    for name in ("length", "_bands", *memos):
        with pytest.raises(AttributeError, match="ModelSpec is immutable"):
            delattr(spec, name)
    kept = [getattr(spec, name) for name in memos]
    for name in ("length", "_bands", *memos):
        with pytest.raises(AttributeError, match="ModelSpec is immutable"):
            delattr(spec, name)
    assert spec.length == 2
    assert all(getattr(spec, name) is memo for name, memo in zip(memos, kept))
    assert assemble(spec) is kept[2] and hopping_norms(spec) is kept[3]


def test_model_memos_are_built_once(monkeypatch):
    # the views are built from the nonzero rows of each band and the on-site
    # array: one _nonzero per band and one for the sites, on first read only
    real, seen = lattice_mod._nonzero, []
    monkeypatch.setattr(lattice_mod, "_nonzero", lambda blocks: seen.append(1) or real(blocks))
    b = np.array([[1.0, 2.0j], [0.5, -1.0]])
    spec = ModelSpec(4, 2, [(1, 3, b), (2, 3, 0.5 * b)], [(2, np.eye(2))])
    assert spec.offdiag is spec.offdiag
    assert spec.onsite is spec.onsite
    for _ in range(3):
        assert list(spec.offdiag) == [(1, 3), (2, 3)] and list(spec.onsite) == [2]
        assert spec.offdiag[(1, 3)] is not None
    assert len(seen) == len(spec.hopping_bands) + 1


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: strip_model(3.5, 2), "length must be a positive integer, got 3.5"),
        (lambda: strip_model(3, 2.0), "n0 must be a positive integer, got 2.0"),
        (lambda: strip_model(0, 2), "length must be a positive integer, got 0"),
        # a bool is not an integer, although Python's int accepts it
        (lambda: ModelSpec(True, 1), "length must be a positive integer, got True"),
        (lambda: ModelSpec(3, True), "n0 must be a positive integer, got True"),
        # the tuple constructor refuses them too, rather than truncate them with int()
        (lambda: ModelSpec(3, 1, [(1, 2.9, [[1.0]])]), "hopping pair (1, 2.9) must hold integers"),
        (lambda: ModelSpec(3, 1, [(1.0, 2, [[1.0]])]), "hopping pair (1.0, 2) must hold integers"),
        (
            lambda: ModelSpec(3, 1, [(True, 2, [[1.0]])]),
            "hopping pair (True, 2) must hold integers",
        ),
        (
            lambda: ModelSpec(3, 1, [("1", "2", [[1.0]])]),
            "hopping pair ('1', '2') must hold integers",
        ),
        (
            lambda: ModelSpec(3, 1, (), [(2.7, [[1.0]])]),
            "on-site coordinate 2.7 must be an integer",
        ),
        (
            lambda: ModelSpec(3, 1, (), [(True, [[1.0]])]),
            "on-site coordinate True must be an integer",
        ),
        (
            lambda: ModelSpec(3, 1, (), [("2", [[1.0]])]),
            "on-site coordinate '2' must be an integer",
        ),
        (lambda: FuzzConfig(seed=False), "seed must be a nonnegative integer, got False"),
        (lambda: FuzzConfig(trials=True), "trials must be an integer >= 1, got True"),
        (
            lambda: FuzzConfig(size_range=(True, 40)),
            "size range must be a pair of integers, got (True, 40)",
        ),
    ],
    ids=["strip-length", "strip-width", "strip-empty", "length-bool", "width-bool",
         "pair-float", "pair-whole-float", "pair-bool", "pair-str", "onsite-float",
         "onsite-bool", "onsite-str", "fuzz-seed-bool", "fuzz-trials-bool", "fuzz-size-bool"],
)
def test_non_integer_dimensions_and_coordinates_are_refused(call, match):
    with pytest.raises(ValidationError, match=re.escape(match)):
        call()


def test_the_tuple_constructor_accepts_numpy_integer_coordinates():
    spec = ModelSpec(3, 1, [(np.int64(1), np.int32(2), [[1.0]])], [(np.uint8(2), [[0.5]])])
    assert spec.offdiag[(1, 2)] == [[1.0]]
    assert spec.onsite[2] == [[0.5]]
    assert list(spec.hopping_bands) == [1]


ZERO_FREE_FILE = (
    "L 4\nN0 2\n"
    "V 2 1 1 0.5 0\nV 2 1 2 0.1 -0.2\nV 2 2 2 -0.3 0\n"
    "T 1 2 1 1 1 0\nT 1 2 1 2 0 0.5\nT 1 2 2 2 -1 0\n"
    "T 2 3 1 1 0.25 0\nT 2 3 2 2 0.25 0\nT 3 4 2 1 2 0\n"
)


def test_zero_block_is_the_same_model_as_no_block():
    # a zero hopping block at (1, 3) and a zero on-site block at x = 1,
    # given through each constructor, change nothing about the model
    ref = parse_model(ZERO_FREE_FILE)
    zero = np.zeros((2, 2))
    hops = [(x, xp, b) for (x, xp), b in ref.offdiag.items()]
    sites = list(ref.onsite.items())
    bands = {1: [ref.offdiag[(x, x + 1)] for x in (1, 2, 3)], 2: np.zeros((2, 2, 2))}
    variants = {
        "tuple": ModelSpec(4, 2, hops + [(1, 3, zero)], sites + [(1, zero)]),
        "arrays": ModelSpec.from_arrays(4, 2, bands, ref._onsite),
        "file": parse_model(ZERO_FREE_FILE + "T 1 3 1 1 0 0\nV 1 2 2 0 0\n"),
    }
    for name, spec in variants.items():
        assert assemble(spec).band.tobytes() == assemble(ref).band.tobytes(), name
        assert list(spec.hopping_bands) == list(ref.hopping_bands) == [1], name
        assert list(spec.offdiag) == list(ref.offdiag) == [(1, 2), (2, 3), (3, 4)], name
        assert list(spec.onsite) == list(ref.onsite) == [2], name
        assert (1, 3) not in spec.offdiag and 1 not in spec.onsite, name
        assert repr(spec) == repr(ref), name
        back = parse_model(format_model(spec))
        assert list(back.hopping_bands) == list(spec.hopping_bands), name
        for d, blocks in spec.hopping_bands.items():
            assert back.hopping_bands[d].tobytes() == blocks.tobytes(), name
        assert back._onsite.tobytes() == spec._onsite.tobytes(), name


@pytest.mark.parametrize(
    "block,expected",
    [
        ([[-1.0]], 1.0),
        ([[0.3 + 0.4j]], 0.5),
        ([[1.0, 0.0], [0.0, 2.0]], 2.0),
    ],
)
def test_block_norm_values(block, expected):
    n0 = len(block)
    spec = ModelSpec(2, n0, [(1, 2, block)])
    ((_, _, norms),) = hopping_norms(spec)
    assert norms[0] == pytest.approx(expected, abs=1e-14)


def test_block_norm_svd_oracle():
    # sigma_max(h) = sqrt of the largest eigenvalue of h^dag h (2x2 closed form)
    h = np.array([[1.0, 2.0 - 1j], [0.5j, -3.0]])
    spec = ModelSpec(2, 2, [(1, 2, h)])
    m = h.conj().T @ h
    tr = m[0, 0].real + m[1, 1].real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    lam_max = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))
    ((_, _, norms),) = hopping_norms(spec)
    assert norms[0] == pytest.approx(math.sqrt(lam_max), rel=1e-12)


def test_hopping_norms_list_only_the_nonzero_blocks():
    spec = ModelSpec(4, 1, [(1, 3, [[2.0]]), (2, 3, [[0.0]])])
    ((d, xs, norms),) = hopping_norms(spec)
    assert (d, xs.tolist(), norms.tolist()) == (2, [1], [2.0])


def test_fit_envelope_nearest_neighbor_chain():
    spec = ModelSpec(5, 1, [(x, x + 1, [[1.0]]) for x in range(1, 5)])
    env = fit_envelope(spec, mu=1.0)
    assert env.cv == pytest.approx(math.e, rel=1e-14)


def test_fit_envelope_single_distant_block():
    spec = ModelSpec(5, 1, [(1, 4, [[1.0]])])
    env = fit_envelope(spec, mu=1.0)
    assert env.cv == pytest.approx(math.e**3, rel=1e-14)


def test_fit_envelope_exponential_blocks_gives_unit_amplitude():
    # blocks exactly exp(-|x-x'|) saturate the envelope at cv = 1
    hops = []
    for x in range(1, 7):
        for xp in range(x + 1, 7):
            hops.append((x, xp, [[math.exp(-(xp - x))]]))
    env = fit_envelope(ModelSpec(6, 1, hops), mu=1.0)
    assert env.cv == pytest.approx(1.0, rel=1e-14)


def test_fit_envelope_dominates_with_equality_somewhere():
    spec, _ = random_model(trial_rng(5, 0), size_range=(6, 20))
    env = fit_envelope(spec, mu=0.7)
    gaps = []
    for (x, xp) in spec.offdiag:
        allowed = env.value(xp - x)
        norm = np.linalg.svd(spec.offdiag[(x, xp)], compute_uv=False)[0]
        assert norm <= allowed + 1e-12
        gaps.append(allowed - norm)
    assert min(gaps) <= 1e-12


def test_fit_envelope_errors():
    with pytest.raises(ValidationError):
        fit_envelope(ModelSpec(3, 1), mu=1.0)
    with pytest.raises(ValidationError):
        fit_envelope(ModelSpec(2, 1, [(1, 2, [[1.0]])]), mu=-1.0)


def test_fit_envelope_refuses_an_overflowing_amplitude():
    # exp(700) is finite, but the block norm 1e10 times it overflows: refused as
    # an overflow of the fit, not as an envelope with amplitude inf
    spec = ModelSpec(3, 1, [(1, 2, [[1e10]]), (2, 3, [[1.0]])])
    message = "decay rate mu=700 is too large: block norm * exp(mu * d) overflows"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        fit_envelope(spec, 700.0)
    # exp(mu * d) itself overflows at d = 2
    spec = ModelSpec(3, 1, [(1, 3, [[1.0]])])
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        fit_envelope(spec, 700.0)


def test_value_on_an_array_matches_the_scalar_calls():
    # one pair-strength rule: an array of distances gives, entry by entry,
    # what a scalar call gives; the scalar goes through math.exp, the array
    # through np.exp, each bit for bit
    d = np.array([-3, -1, 0, 1, 2, 5, 40, 1000], dtype=float)
    nn = NNBound(v0=1.7)
    values = nn.value(d)
    assert values.dtype == np.float64
    assert values.tolist() == [nn.value(float(k)) for k in d] == [0, 1.7, 1.7, 1.7, 0, 0, 0, 0]
    for cv, mu in ((1.0, 1.0), (2.3, 0.37), (0.5, 1.49), (1e-3, 7.1)):
        env = HoppingEnvelope(cv, mu)
        for k in d.tolist():
            assert env.value(k) == cv * math.exp(-mu * abs(k))
        assert env.value(d).tobytes() == (cv * np.exp(-mu * np.abs(d))).tobytes()


def test_check_nearest_neighbor_impurity():
    nn = check_nearest_neighbor(impurity_model(500, -0.5))
    assert nn.v0 == 1.0


def test_check_nearest_neighbor_rejects_tiny_long_range():
    # v0 is the largest nearest block norm, and any nonzero block beyond is
    # refused by require_envelope's rule, with its one message
    spec = ModelSpec(4, 1, [(1, 2, [[1.0]]), (1, 3, [[1e-300]]), (2, 4, [[0.1]])])
    message = (
        "declared NNBound(v0=1.0) does not dominate the model: block (1,3) has "
        "norm 1e-300 > 0 (2 violating pairs)"
    )
    for check in (check_nearest_neighbor, lambda m: require_envelope(m, NNBound(v0=1.0))):
        with pytest.raises(EnvelopeViolation, match=f"^{re.escape(message)}$"):
            check(spec)
    # only a block at distance 2: no nearest block, so v0 = 0
    with pytest.raises(EnvelopeViolation, match=re.escape(
        "declared NNBound(v0=0.0) does not dominate the model: block (1,3) has norm 0.5 > 0"
    )):
        check_nearest_neighbor(ModelSpec(3, 1, [(1, 3, [[0.5]])]))


def test_check_nearest_neighbor_accepts_stored_zero_block():
    spec = ModelSpec(4, 1, [(1, 2, [[1.0]]), (1, 3, [[0.0]])])
    assert check_nearest_neighbor(spec).v0 == 1.0


def test_check_nearest_neighbor_empty():
    assert check_nearest_neighbor(ModelSpec(3, 1)).v0 == 0.0


def test_envelope_validation():
    spec = ModelSpec(2, 1, [(1, 2, [[1.0]])])
    good = HoppingEnvelope(cv=math.e, mu=1.0)
    bad = HoppingEnvelope(cv=1.0, mu=1.0)  # allows only exp(-1) < 1 at distance 1
    assert envelope_violations(spec, good) == []
    assert len(envelope_violations(spec, bad)) == 1
    require_envelope(spec, good)
    with pytest.raises(EnvelopeViolation):
        require_envelope(spec, bad)
    with pytest.raises(ValidationError):
        HoppingEnvelope(cv=-1.0, mu=1.0)
    with pytest.raises(ValidationError):
        HoppingEnvelope(cv=1.0, mu=0.0)


def test_nearest_neighbor_bound_is_checked_by_the_envelope_rule():
    # v0 at distance 1 and 0 beyond: any nonzero block at distance >= 2, however
    # small, is refused, and a nearest block only above v0 * (1 + ENVELOPE_RTOL)
    nn = NNBound(v0=1.0)
    assert (nn.value(1), nn.value(2), nn.value(7)) == (1.0, 0.0, 0.0)
    edge = 1.0 + 0.5 * ENVELOPE_RTOL
    require_envelope(ModelSpec(4, 1, [(1, 2, [[edge]]), (1, 3, [[0.0]])]), nn)
    long_range = ModelSpec(4, 1, [(1, 2, [[1.0]]), (1, 3, [[1e-300]]), (2, 4, [[0.1]])])
    assert envelope_violations(long_range, nn) == [(1, 3, 1e-300, 0.0), (2, 4, 0.1, 0.0)]
    with pytest.raises(EnvelopeViolation, match=re.escape(
        "declared NNBound(v0=1.0) does not dominate the model: block (1,3) has "
        "norm 1e-300 > 0 (2 violating pairs)"
    )):
        require_envelope(long_range, nn)
    over = ModelSpec(3, 2, [(2, 3, np.diag([1.0 + 4 * ENVELOPE_RTOL, 0.5]))])
    with pytest.raises(EnvelopeViolation, match=r"block \(2,3\) has norm 1 > 1$"):
        require_envelope(over, nn)
    # the exponential envelope's message names its bound the same way
    with pytest.raises(EnvelopeViolation, match=re.escape(
        "declared HoppingEnvelope(cv=1.0, mu=1.0) does not dominate the model"
    )):
        require_envelope(over, HoppingEnvelope(cv=1.0, mu=1.0))


def test_impurity_model_structure():
    spec = impurity_model(500, -0.5)
    assert spec.length == 501 and spec.n0 == 1
    assert all(spec.offdiag[(x, x + 1)][0, 0] == 1.0 for x in range(1, 501))
    assert set(spec.onsite) == {251}
    assert spec.onsite[251][0, 0] == -0.5


def test_impurity_model_trivial_cases():
    spec = impurity_model(2, 0.0)
    h = band_to_dense(assemble(spec))
    assert h.shape == (3, 3)
    assert not h.diagonal().any()
    with pytest.raises(ValidationError):
        impurity_model(3, -1.0)
    with pytest.raises(ValidationError):
        impurity_model(0, -1.0)


def test_impurity_model_zero_defect_zero_diagonal():
    h = band_to_dense(assemble(impurity_model(10, 0.0)))
    assert not h.diagonal().any()


def test_impurity_model_small_spectrum_vs_charpoly():
    h = band_to_dense(assemble(impurity_model(4, -0.5)))
    mine = np.linalg.eigvalsh(h)  # oracle comparison targets assembly, not the solver
    oracle = charpoly_eigenvalues(h)
    np.testing.assert_allclose(mine, oracle, atol=1e-10)


def test_strip_model_matches_brute_2d_assembly():
    width, length = 2, 3
    t_along, t_across = 1.0, 0.7
    spec = strip_model(length, width, t_along, t_across)
    h = band_to_dense(assemble(spec))
    # brute-force 2D rectangular lattice, same flattening (column-major sites)
    n = width * length
    ref = np.zeros((n, n), dtype=complex)

    def idx(col, row):
        return col * width + row

    for col in range(length):
        for row in range(width):
            if row + 1 < width:
                ref[idx(col, row), idx(col, row + 1)] = t_across
                ref[idx(col, row + 1), idx(col, row)] = t_across
            if col + 1 < length:
                ref[idx(col, row), idx(col + 1, row)] = t_along
                ref[idx(col + 1, row), idx(col, row)] = t_along
    np.testing.assert_array_equal(h, ref)


def test_band_is_lower_triangle_of_dense_placement():
    for spec in _model_families():
        h = assemble(spec)
        assert isinstance(h, BandedHermitian)
        dense = dense_assembly(spec)
        # the band is the lower triangle of the placed matrix, and nothing lies beyond it
        assert h.bandwidth == max(bandwidth(dense))
        for k in range(h.bandwidth + 1):
            np.testing.assert_array_equal(h.band[k, : h.n - k], dense.diagonal(-k))
            assert not h.band[k, h.n - k :].any()
        np.testing.assert_array_equal(band_to_dense(h), dense)


def test_assembled_operator_holds_only_its_band():
    h = assemble(impurity_model(10, -0.5))
    assert h.band.shape == (2, 11)
    assert h.shape == (11, 11)
    assert not hasattr(h, "array")
    assert not hasattr(h, "__dict__")


def test_accessors_are_read_only_views():
    b = np.array([[1.0, 2.0j], [0.5, -1.0]])
    onsite = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    spec = ModelSpec(4, 2, [(1, 3, b), (2, 3, 0.5 * b)], [(2, onsite)])
    assert list(spec.offdiag) == [(1, 3), (2, 3)]
    assert list(spec.onsite) == [2]
    for block in (*spec.offdiag.values(), *spec.onsite.values()):
        assert not block.flags.writeable
        assert block.base is not None
    np.testing.assert_array_equal(spec.offdiag[(1, 3)], b)
    np.testing.assert_array_equal(spec.onsite[2], onsite)
    assert spec.hopping_bands.keys() == {1, 2}
    blocks = spec.hopping_bands[2]
    assert blocks.shape == (2, 2, 2) and not blocks[1].any()
    assert not blocks.flags.writeable


def test_from_arrays_matches_tuple_constructor():
    rng = np.random.default_rng(3)
    hop = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    far = rng.normal(size=(3, 2, 2))
    a = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    onsite = a + a.conj().transpose(0, 2, 1)
    onsite[[1, 4, 5]] = 0.0  # zero blocks: no on-site term at x = 2, 5, 6
    spec = ModelSpec.from_arrays(6, 2, {1: hop, 3: far}, onsite, label="arrays")
    ref = ModelSpec(
        6,
        2,
        [(x, x + 1, hop[x - 1]) for x in range(1, 6)] + [(x, x + 3, far[x - 1]) for x in range(1, 4)],
        [(x, onsite[x - 1]) for x in (1, 3, 4)],
    )
    assert spec.label == "arrays"
    assert list(spec.offdiag) == list(ref.offdiag)
    assert list(spec.onsite) == list(ref.onsite)
    for key in ref.offdiag:
        assert spec.offdiag[key].tobytes() == ref.offdiag[key].tobytes()
    for key in ref.onsite:
        assert spec.onsite[key].tobytes() == ref.onsite[key].tobytes()
    assert assemble(spec).band.tobytes() == assemble(ref).band.tobytes()
    hop[0, 0, 0] = 99.0  # the inputs were copied
    assert spec.offdiag[(1, 2)][0, 0] != 99.0


def test_from_arrays_validation_errors():
    ones = np.ones((3, 1, 1))
    with pytest.raises(ValidationError):
        ModelSpec.from_arrays(4, 1, {1: ones[:2]})  # wrong band length
    with pytest.raises(ValidationError):
        ModelSpec.from_arrays(4, 1, {4: ones[:0]})  # distance beyond the lattice
    with pytest.raises(ValidationError):
        ModelSpec.from_arrays(4, 1, {1.0: ones})  # non-integer distance
    with pytest.raises(ValidationError, match=r"\(2, 3\)"):
        ModelSpec.from_arrays(4, 1, {1: [[[1.0]], [[np.inf]], [[1.0]]]})
    with pytest.raises(ValidationError):
        ModelSpec.from_arrays(4, 1, onsite=np.ones((3, 1, 1)))
    with pytest.raises(NonHermitianError, match="x=2"):
        ModelSpec.from_arrays(2, 2, onsite=[np.eye(2), [[0, 1], [0, 0]]])
    with pytest.raises(ValidationError, match="x=1"):
        ModelSpec(2, 1, onsite_blocks=[(1, [[np.nan]])])


def test_assemble_is_memoised_on_the_model():
    spec = strip_model(5, 2)
    h = assemble(spec)
    assert assemble(spec) is h
    # the scale is kept with the band: the largest absolute row sum
    assert h.scale == spectral_scale(h) == np.abs(band_to_dense(h)).sum(axis=1).max()
    with pytest.raises(AttributeError):
        h.scale = 0.0
    for name in ("scale", "band"):
        with pytest.raises(AttributeError, match="BandedHermitian is immutable"):
            delattr(h, name)
    assert h.scale == spectral_scale(h)
    assert lowest_two(h).gap > 0
    assert assemble(spec) is h
    # a new model gets a new operator
    assert assemble(shifted_onsite(spec, 1.0)) is not h


def test_dropping_an_assembled_model_leaves_no_cycle():
    # the memoised operator must not refer back to its model: a cycle would
    # keep every model alive until a cyclic collection
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        spec = random_model(trial_rng(12, 0), n0_range=(2, 2))[0]
        h = assemble(spec)
        res = lowest_two(h)
        res.eigenvalues  # the full spectrum has been computed
        hopping_norms(spec)
        g_expectations(res.psi0, spec, position_weight(spec.length), res.gap)
        del spec, h, res
        gc.collect()
        assert not [o for o in gc.garbage if isinstance(o, ModelSpec)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("copier", [
    lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("build", [
    lambda: impurity_model(40, -1.0), lambda: strip_model(20, 3),
], ids=["impurity", "strip"])
def test_a_model_its_operator_and_its_result_round_trip(build, copier):
    # every cache is filled first: the operator, the views and the block norms
    spec = build()
    h = assemble(spec)
    spec.offdiag, spec.onsite, hopping_norms(spec)
    res = lowest_two(h)
    spec2, h2, res2 = copier(spec), copier(h), copier(res)
    assert spec2.label == spec.label
    for arr in (spec2._onsite, *spec2.hopping_bands.values(), h2.band):
        assert not arr.flags.writeable
    assert np.array_equal(h2.band, h.band) and h2.scale == h.scale
    assert np.array_equal(assemble(spec2).band, h.band)
    again = lowest_two(assemble(spec2))
    assert (again.e0, again.e1) == (res.e0, res.e1)
    assert np.array_equal(again.psi0, res.psi0)
    assert (res2.e0, res2.e1, res2.gap) == (res.e0, res.e1, res.gap)
    assert np.array_equal(res2.psi0, res.psi0) and np.array_equal(res2.matrix.band, h.band)


@pytest.mark.parametrize("call, error, message", [
    (lambda: NNBound(-1), ValidationError, "nearest-neighbor bound must be finite and >= 0, got -1"),
    (lambda: ModelSpec(3, 1, onsite_blocks=[(4, [[1.0]])]), ValidationError,
     "on-site coordinate 4 out of range 1..3"),
    (lambda: ModelSpec(3, 1, onsite_blocks=[(0, [[1.0]])]), ValidationError,
     "on-site coordinate 0 out of range 1..3"),
    (lambda: ModelSpec(3, 1, onsite_blocks=[(2, [[1.0]]), (2, [[2.0]])]), ValidationError,
     "duplicate on-site block at x=2"),
], ids=["nn-negative", "onsite-above", "onsite-below", "onsite-duplicate"])
def test_lattice_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


_OVERFLOWED = {
    # finite entries whose spectral norm overflows to inf
    "complex-1x1": (ModelSpec(3, 1, [(1, 2, [[1.5e308 + 1.5e308j]])]), (1, 2)),
    "n0-2": (ModelSpec(3, 2, [(2, 3, np.full((2, 2), 1e308))]), (2, 3)),
}


@pytest.mark.parametrize("model", _OVERFLOWED)
@pytest.mark.parametrize("call", [
    lambda spec, pair: check_nearest_neighbor(spec),
    lambda spec, pair: fit_envelope(spec, 1.0),
    lambda spec, pair: require_envelope(spec, NNBound(1.0)),
], ids=["check-nn", "fit-envelope", "require-envelope"])
def test_an_overflowed_block_norm_names_its_block(model, call):
    spec, (x, xp) = _OVERFLOWED[model]
    message = f"hopping block ({x},{xp}) has spectral norm inf: its entries are too large"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(spec, (x, xp))

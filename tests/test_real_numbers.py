"""The one real-number rule: every scalar argument goes through ``lattice._real``.

The one numeric-array rule: every array argument goes through
``eigensolver._numbers`` (``ARRAY_SITES``).
"""

import dataclasses
import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from gapbound import (
    BandedHermitian,
    DensityProfile,
    GroundState,
    HoppingEnvelope,
    ModelSpec,
    NNBound,
    ValidationError,
    WeightFunction,
    assemble,
    best_s,
    chebyshev_tail_bound,
    density,
    fit_envelope,
    fit_localization_length,
    impurity_model,
    lowest_two,
    position_weight,
    spectral_scale,
    strip_model,
    tail,
    theorem1_bound,
    theorem2_bound,
    trapezoid_g,
    variance_upper_bound,
)
from gapbound.localization import tail_steps
from gapbound.sweep import SweepConfig, default_h0_grid


@functools.cache
def _state():
    spec = impurity_model(60, -1.0)
    return GroundState.of(lowest_two(assemble(spec)).psi0, spec)


def _envelope(**field):
    return dataclasses.replace(theorem2_bound(1.0, 0.5, 0.5, 1.0), **field)


_ENV1 = HoppingEnvelope(1.0, 1.0)

# site id -> (argument name in the message, rule, an out-of-range value or
# None, an accepted value, the call with the value in the argument's place)
SITES = {
    "envelope-cv": ("envelope amplitude", "> 0", 0.0, 2.0, lambda v: HoppingEnvelope(v, 1.0)),
    "envelope-mu": ("envelope decay rate", "> 0", -1.0, 1.0, lambda v: HoppingEnvelope(1.0, v)),
    "nn-v0": ("nearest-neighbor bound", ">= 0", -1.0, 1.0, lambda v: NNBound(v)),
    "fit-envelope-mu": ("decay rate mu", "> 0", 0.0, 1.0,
                        lambda v: fit_envelope(impurity_model(8, -1.0), v)),
    "trapezoid-center": ("center", "", None, 10.0, lambda v: trapezoid_g(20, v, 0.0, 6.0)),
    "trapezoid-r-inner": ("r_inner", ">= 0", -1.0, 1.0, lambda v: trapezoid_g(20, 10.0, v, 6.0)),
    "trapezoid-delta-r": ("delta_r", "", None, 6.0, lambda v: trapezoid_g(20, 10.0, 0.0, v)),
    "complementary-gap": ("spectral gap", "> 0", 0.0, 1.0,
                          lambda v: _state().complementary(position_weight(61), v)),
    "variance-gap": ("spectral gap", "> 0", 0.0, 1.0,
                     lambda v: variance_upper_bound(NNBound(1.0), 10, v)),
    "theorem1-gap": ("spectral gap", "> 0", 0.0, 1.0, lambda v: theorem1_bound(_ENV1, v, 0.5, 1.0)),
    "theorem1-s": ("parameter s", "in (0, 1)", 1.0, 0.5,
                   lambda v: theorem1_bound(_ENV1, 0.5, v, 1.0)),
    "theorem1-delta-x": ("position spread", ">= 0", -1.0, 2.0,
                         lambda v: theorem1_bound(_ENV1, 0.5, 0.5, v)),
    "theorem2-v0": ("nearest-neighbor amplitude", "> 0", 0.0, 1.0,
                    lambda v: theorem2_bound(v, 0.5, 0.5, 1.0)),
    "theorem2-gap": ("spectral gap", "> 0", -1.0, 1.0, lambda v: theorem2_bound(1.0, v, 0.5, 1.0)),
    "theorem2-s": ("parameter s", "in (0, 1)", 0.0, 0.5,
                   lambda v: theorem2_bound(1.0, 0.5, v, 1.0)),
    "theorem2-delta-x": ("position spread", ">= 0", -0.5, 2.0,
                         lambda v: theorem2_bound(1.0, 0.5, 0.5, v)),
    "best-s-r": ("radius r", "> 0", 0.0, 30.0, lambda v: best_s(NNBound(1.0), 0.5, 1.0, v)),
    "tail-envelope-s": ("envelope s", "", None, 0.5, lambda v: _envelope(s=v)),
    "tail-envelope-amplitude": ("envelope amplitude", "", None, 2.0,
                                lambda v: _envelope(amplitude=v)),
    "tail-envelope-r1": ("envelope r1", ">= 0", -0.5, 1.0, lambda v: _envelope(r1=v)),
    "tail-envelope-xi": ("envelope xi", "> 0", -3.0, 3.0, lambda v: _envelope(xi=v)),
    "tail-envelope-prefactor": ("envelope prefactor", "> 0", 0.0, 1.0,
                                lambda v: _envelope(prefactor=v)),
    "tail-envelope-delta-e0": ("envelope delta_e0", "", None, 1.0,
                               lambda v: _envelope(delta_e0=v)),
    "tail-envelope-delta-x": ("envelope delta_x", "", None, 2.0, lambda v: _envelope(delta_x=v)),
    "tail-steps-mean": ("mean position", "", None, 30.0, lambda v: tail_steps(_state().profile, v)),
    "fit-center": ("fit center", "", None, 31.0,
                   lambda v: fit_localization_length(_state().profile, v)),
    "h0-min": ("h0_min", "", None, -1.0, lambda v: default_h0_grid(3, lo=v)),
    "h0-max": ("h0_max", "", None, -1.0, lambda v: default_h0_grid(3, lo=-3.0, hi=v)),
    "sweep-s": ("s", "in (0, 1)", 0.0, 0.5, lambda v: SweepConfig(L=40, h0_grid=[-1.0], s=v)),
    "sweep-mu": ("mu", "> 0", 0.0, 1.0, lambda v: SweepConfig(L=40, h0_grid=[-1.0], mu=v)),
    "impurity-h0": ("h0", "", None, -1.0, lambda v: impurity_model(40, v)),
    "strip-t-along": ("t_along", "", None, 1.0, lambda v: strip_model(5, 2, v)),
    "strip-t-across": ("t_across", "", None, 2.0, lambda v: strip_model(5, 2, 1.0, v)),
}

# not a real number: refused by type
NOT_REAL = {"bool": True, "numpy-bool": np.True_, "string": "1.5", "none": None}
# a real number that is not finite once converted to a float
NOT_FINITE = {"int-past-float": 10**400, "nan": math.nan, "inf": math.inf}


def _refused(site, value, message):
    call = SITES[site][-1]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{kind}")
    for site in SITES for kind, value in NOT_REAL.items()
    if not (site == "fit-center" and value is None)  # None asks for the density peak
])
def test_a_value_that_is_not_a_real_number_is_refused_by_name(site, value):
    name = SITES[site][0]
    _refused(site, value, f"{name} must be a real number, got {value!r}")


@pytest.mark.parametrize("value", NOT_FINITE.values(), ids=NOT_FINITE)
@pytest.mark.parametrize("site", SITES)
def test_a_value_that_is_not_finite_is_refused_with_its_rule(site, value):
    name, rule = SITES[site][:2]
    _refused(site, value, f"{name} must be finite{' and ' + rule if rule else ''}, got {value!r}")


@pytest.mark.parametrize("site", [s for s in SITES if SITES[s][2] is not None])
def test_a_value_outside_its_range_is_refused_with_its_rule(site):
    name, rule, outside = SITES[site][:3]
    _refused(site, outside, f"{name} must be finite and {rule}, got {outside!r}")


def _same(a, b) -> bool:
    """Equal values, whatever the numeric types: models by their operator's band."""
    if isinstance(a, ModelSpec):
        return _same(assemble(a).band, assemble(b).band)
    if isinstance(a, BandedHermitian):
        return _same(a.band, b.band)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, str):
        return a == b
    return np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("site", SITES)
def test_numpy_and_integer_values_act_as_the_equal_float(site):
    good, call = SITES[site][3:]
    expected = call(float(good))
    kinds = [np.float64] + ([int, np.int64] if float(good).is_integer() else [])
    for kind in kinds:
        assert _same(call(kind(good)), expected), kind


def test_an_impurity_label_keeps_the_defect_as_given():
    assert impurity_model(40, -1).label == "impurity chain (L=40, h0=-1)"
    assert impurity_model(40, np.float64(-1.5)).label == "impurity chain (L=40, h0=-1.5)"


# site id -> (argument name in the message, "real" or "complex", an accepted
# value with integer entries, the call with the value in the argument's place)
ARRAY_SITES = {
    "weight-function": ("weight function", "real", [1, 2, 3], WeightFunction),
    "density-profile": ("density profile", "real", [0, 1, 0], DensityProfile),
    "h0-grid": ("h0 grid", "real", [-2, -1], lambda v: SweepConfig(L=40, h0_grid=v)),
    "chebyshev-radius": ("radius", "real", [1, 2, 30],
                         lambda v: chebyshev_tail_bound(NNBound(1.0), 10, 0.5, v)),
    "envelope-radius": ("radius", "real", [10, 20], lambda v: _envelope().evaluate(v)),
    "tail-radius": ("tail radius", "real", [1, 5, 30], lambda v: tail(_state().profile, 30.0, v)),
    "hod-explicit": ("weight function", "real", list(range(61)),
                     lambda v: _state().hod_explicit(v)),
    "hod-commutator": ("weight function", "real", list(range(61)),
                       lambda v: _state().hod_commutator(v)),
    "band": ("band", "complex", [[2, 0], [1, 0]], BandedHermitian),
    "from-dense": ("matrix", "complex", [[2, 1], [1, 0]], BandedHermitian.from_dense),
    "lowest-two": ("matrix", "complex", [[2, 1], [1, 0]], lowest_two),
    "spectral-scale": ("matrix", "complex", [[2, 1], [1, 0]], spectral_scale),
    "matvec": ("vector", "complex", [0, 1, 0],
               lambda v: assemble(impurity_model(2, 1.0)).matvec(v)),
    "hopping-block": ("hopping block (1, 2)", "complex", [[1]],
                      lambda v: ModelSpec(2, 1, [(1, 2, v)])),
    "onsite-block": ("on-site block at x=2", "complex", [[3]],
                     lambda v: ModelSpec(2, 1, [(1, 2, [[1.0]])], [(2, v)])),
    "hopping-band": ("hopping band at distance 1", "complex", [[[1]]],
                     lambda v: ModelSpec.from_arrays(2, 1, {1: v})),
    "onsite-blocks": ("on-site blocks", "complex", [[[1]], [[2]]],
                      lambda v: ModelSpec.from_arrays(2, 1, onsite=v)),
    "density-psi": ("coefficient vector", "complex", [0, 1], lambda v: density(v, ModelSpec(2, 1))),
    "ground-state-psi": ("coefficient vector", "complex", [0, 1],
                         lambda v: GroundState.of(v, ModelSpec(2, 1))),
}

# not an array of numbers: the value and the detail its refusal quotes
NOT_NUMBERS = {
    "bool-array": (np.array([True, False]), "an array of bool"),
    "numpy-bool": (np.True_, repr(np.True_)),
    "string": ("2", "'2'"),
    "strings": (["1", "2"], "an array of <U1"),
    "none": (None, "None"),
    "fraction": ([Fraction(1, 3), 2], "an array of object"),
    "int-past-int64": ([10**30, 2], "an array of object"),
    "ragged": ([[1, 2], [3]], "a ragged sequence"),
    "complex": ([1j, 2], "an array of complex128"),  # at the real sites only
}


@pytest.mark.parametrize("site, case", [
    pytest.param(site, case, id=f"{site}-{case}")
    for site in ARRAY_SITES for case in NOT_NUMBERS
    if not (case == "complex" and ARRAY_SITES[site][1] == "complex")
    and not (site == "onsite-blocks" and case == "none")  # None is no on-site term
])
def test_an_array_that_does_not_hold_numbers_is_refused_by_name(site, case):
    name, kind, _, call = ARRAY_SITES[site]
    value, detail = NOT_NUMBERS[case]
    message = f"{name} must hold {kind} numbers, got {detail}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_integer_and_float32_arrays_act_as_the_equal_float64_array(site):
    good, call = ARRAY_SITES[site][2:]
    expected = call(np.array(good, dtype=np.float64))
    for value in (good, np.array(good, dtype=np.int64), np.array(good, dtype=np.float32)):
        assert _same(call(value), expected), value

"""Rigorous localization bounds for gapped one-particle ground states.

Everything here revolves around one complementary inequality.  For any
real site weight ``g(x)`` define the diagonal operator
``G = sum_x g(x) sum_i |x,i><x,i|`` and the reweighted hopping operator

    H_OD[(x,i),(x',j)] = (g(x) - g(x'))^2 * H[(x,i),(x',j)],   x != x'.

On a non-degenerate ground state the spectral gap and the variance of G
obey ``gap * var(G) <= |<H_OD>| / 2``.  The expectation ``<H_OD>`` can be
computed two independent ways: directly as the weighted pair sum over the
nonzero hopping blocks, or as ``<[G, [G, H]]>`` on the band of the
assembled operator; both are recorded and must agree.  (On the ground
state the signed value is never positive; the absolute value is what
enters the inequality.)

Each bound reads the model through its declared hopping bound, a
:class:`~gapbound.lattice.HoppingEnvelope` or an
:class:`~gapbound.lattice.NNBound`, whose ``value(d)`` is the one place
the pair strength ``V(d)`` it allows is written.  Three tail bounds for
``P(|x - <x>| >= R)`` are derived from the inequality:

* ``chebyshev_tail_bound``: a power law ``max_x V_x / (2 R^2 gap)`` with
  ``V_x = 2 sum_x' V(x - x') (x - x')^2`` (:func:`site_coupling_profile`),
  using ``g(x) = x``.
* ``theorem1_bound``: an exponential envelope valid for any hopping
  dominated by ``cv * exp(-mu |x - x'|)``, built from trapezoid weights
  with ramp width ``delta_r / 3`` (see :func:`trapezoid_g`).
* ``theorem2_bound``: a tighter exponential envelope for strictly
  nearest-neighbor hopping, built from unit-slope trapezoid weights with
  plateau ``delta_r - 2``.

Both exponential envelopes have the form
``prefactor * exp(-(R - r1) / xi)`` for ``R >= r1``, with an onset radius
``r1`` proportional to the position spread and a decay length ``xi``
scaling as ``gap^(-1/2)``; they differ only in their constants, so both
functions return one type, :class:`TailEnvelope`, whose ``kind`` names
the theorem and whose ``amplitude`` is ``c1`` (theorem 1) or ``v0``
(theorem 2).  ``GroundState.check`` (and ``verify_envelope`` for a bare
profile) checks a measured tail against an envelope exactly over all
radii, within the fixed :data:`ENVELOPE_TOL`; ``verify_appendixB``
checks the piecewise exponential bound on the trapezoid-weighted
coupling strength that the general envelope rests on.

Every check returns its report (:class:`EnvelopeCheck`,
:class:`ComplementaryReport`, :class:`AppendixBReport`), and the
report's ``ok`` is the verdict: a failed check is data, not an
exception.  Only input outside the checks' domain is refused, with
:class:`~gapbound.errors.ValidationError`.

Every check reads the same few quantities of one ground state, so a
solved model's :class:`GroundState` computes each of them once: the
density, ``<x>`` and ``deltaX``, the tail at its breakpoints, and the
products of the ground state that both ``<H_OD>`` routes weight, which do
not depend on ``g``.  Each further weight then costs a few dot products,
and each envelope check one pass over the stored tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eigensolver import _numbers
from .errors import ValidationError
from .lattice import (
    HoppingEnvelope,
    ModelSpec,
    NNBound,
    _nonzero,
    _positive_int,
    _real,
    assemble,
    require_envelope,
)
from .localization import DensityProfile, PositionStats, density, position_stats, tail_steps
# unused here but kept: the benchmark tracer wraps gapbound.bounds.tail
from .localization import tail  # noqa: F401
from .textfile import csv_text, write_text

_E = math.e

ENVELOPE_TOL = 1e-12
COMPLEMENTARY_RTOL = 1e-9
# a weight given to appendixB is its region's theorem-1 trapezoid when every
# entry lies within TRAPEZOID_MATCH_RTOL * max(1, delta_r) of it: the plateau
# height delta_r / 3 sets the scale, and the caller may round differently
TRAPEZOID_MATCH_RTOL = 1e-9
# TailEnvelope.evaluate accepts a radius this far below the onset r1, which
# a radius computed from r1 may fall short of by rounding
ONSET_ATOL = 1e-9
# appendixB sums the direct coupling over this many sites' rows at a time,
# so that it holds a few APPENDIX_B_ROWS x L arrays, not L x L ones
APPENDIX_B_ROWS = 64
THEOREM1 = "theorem1"
THEOREM2 = "theorem2"
# the values of s that best_s tries
S_GRID = tuple(np.arange(0.05, 0.951, 0.05).tolist())


@dataclass(frozen=True)
class WeightFunction:
    """Real site weight g tabulated on x = 1..L: finite real numbers (:func:`_numbers`)."""

    g: np.ndarray

    def __post_init__(self):
        g = _numbers(self.g, "weight function")
        if g.ndim != 1 or g.size == 0:
            raise ValidationError("weight function must be a nonempty 1-d array")
        if not np.all(np.isfinite(g)):
            raise ValidationError("weight function contains non-finite values")
        g = g.copy()
        g.flags.writeable = False
        object.__setattr__(self, "g", g)

    @property
    def length(self) -> int:
        return self.g.shape[0]


def position_weight(length: int) -> WeightFunction:
    """The weight g(x) = x, turning G into the position operator."""
    return WeightFunction(np.arange(1, _positive_int(length, "length") + 1, dtype=float))


def trapezoid_g(
    length: int,
    center: float,
    r_inner: float,
    delta_r: float,
    variant: str = THEOREM1,
) -> WeightFunction:
    """Radial trapezoid weight used by the exponential envelope proofs.

    With ``u = |x - center|``:

    * ``"theorem1"`` (requires delta_r > 3): zero for
      ``u <= r_inner + delta_r/3``, unit-slope ramp up to the plateau
      value ``delta_r/3`` reached at ``u = r_inner + 2*delta_r/3``.
    * ``"theorem2"`` (requires delta_r > 2): zero for
      ``u <= r_inner + 1``, unit-slope ramp up to the plateau value
      ``delta_r - 2`` reached at ``u = r_inner + delta_r - 1``.
    ``center``, ``r_inner`` (>= 0) and ``delta_r`` must be finite real numbers.
    """
    length = _positive_int(length, "length")
    _real(center, "center")
    _real(r_inner, "r_inner", ">= 0")
    _real(delta_r, "delta_r")
    u = np.abs(np.arange(1, length + 1, dtype=float) - center)
    if variant == THEOREM1:
        if not delta_r > 3:
            raise ValidationError(
                f"theorem1 trapezoid needs delta_r > 3, got {delta_r}"
            )
        g = np.clip(u - (r_inner + delta_r / 3.0), 0.0, delta_r / 3.0)
    elif variant == THEOREM2:
        if not delta_r > 2:
            raise ValidationError(
                f"theorem2 trapezoid needs delta_r > 2, got {delta_r}"
            )
        g = np.clip(u - (r_inner + 1.0), 0.0, delta_r - 2.0)
    else:
        raise ValidationError(f"unknown trapezoid variant {variant!r}")
    return WeightFunction(g)


@dataclass(frozen=True)
class ComplementaryReport:
    """Both sides of ``gap * var(G) <= |<H_OD>| / 2`` plus diagnostics.

    ``hod_explicit`` is the weighted pair sum, ``hod_commutator`` the
    matrix-commutator evaluation of the same quantity; both are signed
    (non-positive on a ground state).  ``ok`` is the verdict: ``slack``,
    ``rhs - lhs``, must be >= ``-tolerance`` and the two routes must agree
    within ``tolerance``, ``1e-9 * scale``.
    """

    mean_g: float
    mean_g2: float
    var_g: float
    hod_explicit: float
    hod_commutator: float
    lhs: float
    rhs: float
    slack: float
    scale: float

    @property
    def agreement(self) -> float:
        return abs(self.hod_explicit - self.hod_commutator)

    @property
    def tolerance(self) -> float:
        return COMPLEMENTARY_RTOL * self.scale

    @property
    def ok(self) -> bool:
        tol = self.tolerance
        return self.slack >= -tol and self.agreement <= tol


def _stored_pair_products(a: np.ndarray, spec: ModelSpec):
    """``(left, right, pair)``: the 0-based sites ``x`` and ``x + d`` of every
    pair with a nonzero block, all distances concatenated, and
    ``Re(a_x^dag h a_{x+d})``."""
    none = np.zeros(0, dtype=np.intp)
    left, right, pair = [none], [none], [np.zeros(0)]
    for d, blocks in spec.hopping_bands.items():
        x0 = _nonzero(blocks)
        left.append(x0)
        right.append(x0 + d)
        # every row at once, then the nonzero ones: cheaper than gathering blocks
        pair.append(np.einsum("mi,mij,mj->m", a[:-d].conj(), blocks, a[d:]).real[x0])
    return np.concatenate(left), np.concatenate(right), np.concatenate(pair)


@dataclass(frozen=True, eq=False)  # compared by identity: its fields hold arrays
class GroundState:
    """One solved model's ground state and what every check reads of it.

    Built once per solved model by :meth:`of`, which validates ``psi0`` and
    the density ``profile`` (:func:`~gapbound.localization.density`) and
    takes its :class:`PositionStats` ``stats`` (``<x>``, the variance and
    ``deltaX``).  The rest is computed on first use and kept:

    * ``steps``: ``(radii, tails)`` of :func:`tail_steps` about ``<x>``,
      read-only; :meth:`check` reads them for every envelope;
    * the pair products ``Re(a_x^dag h a_x')`` of the nonzero blocks and,
      on the first commutator evaluation, the products of the model's band
      (:func:`~gapbound.lattice.assemble`, kept on the model, not here),
      which weight
      ``<H_OD> = 2 sum (g(x) - g(x'))^2 Re(psi_x^dag H[x, x'] psi_x')``
      for any ``g``, so each complementary or Appendix-B weight costs a few
      dot products.
    """

    spec: ModelSpec
    psi: np.ndarray
    profile: DensityProfile
    stats: PositionStats

    @classmethod
    def of(cls, psi0: np.ndarray, spec: ModelSpec) -> "GroundState":
        psi = _numbers(psi0, "coefficient vector", np.complex128)
        profile = density(psi, spec)
        return cls(spec, psi, profile, position_stats(profile))

    @cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        steps = tail_steps(self.profile, self.stats.mean)
        for arr in steps:
            arr.flags.writeable = False
        return steps

    def check(self, bound: TailEnvelope) -> EnvelopeCheck:
        """The tail against ``bound`` at every radius ``R >= r1`` (see :func:`verify_envelope`)."""
        return _check_steps(*self.steps, bound)

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _stored_pair_products(self.psi.reshape(self.spec.length, self.spec.n0), self.spec)

    def hod_explicit(self, gx: np.ndarray) -> float:
        """<H_OD> as 2 * sum over hopping pairs of (g(x)-g(x'))^2 Re(a_x^dag h a_x')."""
        gx = _numbers(gx, "weight function")
        left, right, pair = self._pairs
        dg = gx[left] - gx[right]
        return 2.0 * float(np.dot(dg * dg, pair))

    @cached_property
    def _band_products(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row_site, col_site, prod)`` over the nonzero entries ``(k, j)``,
        ``k >= 1``, of the band: ``prod = Re(conj(psi_{j+k}) H[j+k, j] psi_j)``
        and the 0-based sites of row ``j + k`` and column ``j``.

        Row ``k = 0`` is left out: ``[G, [G, H]]`` has a zero diagonal.
        """
        band = assemble(self.spec).band
        k, j = np.nonzero(band[1:])
        k += 1
        i = j + k
        prod = (self.psi[i].conj() * band[k, j] * self.psi[j]).real
        return i // self.spec.n0, j // self.spec.n0, prod

    def hod_commutator(self, gx: np.ndarray) -> float:
        """<psi, [G, [G, H]] psi> read off the band of the assembled operator.

        ``[G, X]`` for the diagonal ``G`` is a row scaling minus a column
        scaling, so the band entry ``(k, j)`` of ``[G, [G, H]]`` is
        ``(g_{j+k} - g_j)^2 H[j+k, j]``; each lower entry stands for itself
        and its conjugate mirror.
        """
        gx = _numbers(gx, "weight function")
        row_site, col_site, prod = self._band_products
        dg = gx[row_site] - gx[col_site]
        return 2.0 * float(np.dot(dg * dg, prod))

    def complementary(self, g: WeightFunction, delta_e0: float) -> ComplementaryReport:
        """The complementary inequality for the weight ``g`` (see :func:`g_expectations`)."""
        _real(delta_e0, "spectral gap", "> 0")
        spec = self.spec
        if g.length != spec.length:
            raise ValidationError(
                f"weight function has {g.length} sites, model has {spec.length}"
            )
        gx = g.g
        # Python floats: an overflow gives inf or nan here, never an exception
        hi, lo = float(np.max(gx)), float(np.min(gx))
        gmax = max(1.0, abs(hi), abs(lo))
        op_scale = assemble(self.spec).scale
        scale = op_scale * (gmax * gmax)
        # the largest (g(x) - g(x'))^2, up to 4 max|g|^2, times the scale
        dg_scale = op_scale * ((hi - lo) * (hi - lo))
        if not (math.isfinite(scale) and math.isfinite(dg_scale)):
            raise ValidationError(
                f"weight function too large: max|g|^2 * spectral scale = {scale}, "
                f"(max g - min g)^2 * spectral scale = {dg_scale} (max|g| = {gmax:.6g})"
            )
        p = self.profile.p
        mean_g = float(np.dot(gx, p))
        mean_g2 = float(np.dot(gx * gx, p))
        var_g = float(np.dot((gx - mean_g) ** 2, p))
        hod_explicit = self.hod_explicit(gx)
        lhs = delta_e0 * var_g
        rhs = abs(hod_explicit) / 2.0
        return ComplementaryReport(
            mean_g=mean_g,
            mean_g2=mean_g2,
            var_g=var_g,
            hod_explicit=hod_explicit,
            hod_commutator=self.hod_commutator(gx),
            lhs=lhs,
            rhs=rhs,
            slack=rhs - lhs,
            scale=scale,
        )

    def appendixB(
        self,
        envelope: HoppingEnvelope,
        g: WeightFunction,
        region: tuple[float, float, float],
    ) -> AppendixBReport:
        """The trapezoid coupling bound for ``g`` as a report whose ``ok`` is
        the verdict (see :func:`verify_appendixB`)."""
        spec = self.spec
        r_inner, delta_r, center = region
        expected = trapezoid_g(spec.length, center, r_inner, delta_r, THEOREM1)
        match_tol = TRAPEZOID_MATCH_RTOL * max(1.0, delta_r)
        if g.length != spec.length or np.max(np.abs(g.g - expected.g)) > match_tol:
            raise ValidationError(
                "mismatched g shape: weight function does not match the "
                f"theorem1 trapezoid for region (r_inner={r_inner}, "
                f"delta_r={delta_r}, center={center})"
            )
        require_envelope(spec, envelope)
        c1 = c1_constant(envelope)

        gx = g.g
        p = self.profile.p
        x = np.arange(1, spec.length + 1, dtype=float)
        v_direct = np.empty(spec.length)
        for lo in range(0, spec.length, APPENDIX_B_ROWS):
            rows = slice(lo, lo + APPENDIX_B_ROWS)
            dg2 = (gx[rows, None] - gx[None, :]) ** 2
            v_direct[rows] = 2.0 * np.sum(dg2 * envelope.value(x[rows, None] - x[None, :]), axis=1)

        u = np.abs(x - center)
        a = r_inner + delta_r / 3.0
        b = r_inner + 2.0 * delta_r / 3.0
        # one exponent for all three pieces: the far-side exponent is never
        # evaluated at a site, so nothing overflows far from the centre
        v_piece = c1 * np.exp(-envelope.mu * (np.maximum(a - u, 0.0) + np.maximum(u - b, 0.0)))

        return AppendixBReport(
            hod_abs=abs(self.hod_explicit(gx)),
            bound_direct=float(np.dot(v_direct, p)),
            bound_piecewise=float(np.dot(v_piece, p)),
            pointwise_margin=float(np.min(v_piece - v_direct)),
            c1=c1,
            region=(float(r_inner), float(delta_r), float(center)),
        )


def g_expectations(
    psi0: np.ndarray,
    spec: ModelSpec,
    g: WeightFunction,
    delta_e0: float,
) -> ComplementaryReport:
    """Evaluate the complementary inequality for one (model, weight) pair.

    ``<H_OD>`` is computed twice: from the nonzero hopping blocks and from
    the double commutator ``[G, [G, H]]`` on the band of the assembled
    operator (memoised on ``spec``, so the caller's solve and this check
    share one band), in O(n * bandwidth).  ``scale`` is
    ``spectral_scale * max(1, max|g|)^2``; a weight for which it, or
    ``spectral_scale * (max g - min g)^2``, is not a finite float is
    refused with :class:`ValidationError`, as is a gap that is not finite
    and > 0.
    """
    return GroundState.of(psi0, spec).complementary(g, delta_e0)


def _require_bound(bound, *types):
    """Refuse a declared hopping bound that is none of ``types``."""
    if not isinstance(bound, types):
        raise ValidationError(f"unsupported hopping bound {type(bound).__name__}")


def c1_constant(envelope: HoppingEnvelope) -> float:
    """Coupling constant ``4 cv sum_{k>=0} (k+1)^2 exp(-mu k)``.

    Evaluated in closed form ``4 cv (1+q) / (1-q)^3`` with
    ``q = exp(-mu)``; an envelope for which that is not a finite float is
    refused, and so is any bound but a :class:`HoppingEnvelope`.
    """
    _require_bound(envelope, HoppingEnvelope)
    q = math.exp(-envelope.mu)
    if q == 1.0:
        raise ValidationError(
            f"decay rate mu={envelope.mu:g} is too small: exp(-mu) rounds to 1"
        )
    c1 = 4.0 * envelope.cv * (1.0 + q) / (1.0 - q) ** 3
    if not math.isfinite(c1):
        raise ValidationError(
            f"envelope cv={envelope.cv:g}, mu={envelope.mu:g} is too large: "
            "c1 = 4 cv (1+q)/(1-q)^3 overflows"
        )
    return c1


def site_coupling_profile(bound: HoppingEnvelope | NNBound, length: int) -> np.ndarray:
    """Per-site coupling strength ``V_x = 2 sum_x' V(x - x') (x - x')^2``.

    ``V`` is the pair strength ``bound.value`` of the declared hopping
    bound, a :class:`HoppingEnvelope` or an :class:`NNBound`.  Summed by
    distance on the open chain ``1..length``,
    ``V_x = 2 (S(x - 1) + S(L - x))`` with ``S(m) = sum_{k <= m} k^2 V(k)``.
    """
    _require_bound(bound, HoppingEnvelope, NNBound)
    k = np.arange(_positive_int(length, "length"), dtype=float)
    s = np.cumsum(k * k * bound.value(k))
    return 2.0 * (s + s[::-1])


def variance_upper_bound(bound: HoppingEnvelope | NNBound, length: int, delta_e0: float) -> float:
    """Gap-based bound on the position variance: ``max_x V_x / (2 gap)``."""
    _real(delta_e0, "spectral gap", "> 0")
    return float(np.max(site_coupling_profile(bound, length))) / (2.0 * delta_e0)


def chebyshev_tail_bound(bound: HoppingEnvelope | NNBound, length: int, delta_e0: float, r):
    """Power-law tail bound ``min(1, max_x V_x / (2 R^2 gap))``.

    ``r`` may be a scalar (returns a float) or an array of radii (returns
    an array), of positive real numbers (:func:`_numbers`); the coupling
    profile is computed once for all of them.
    """
    r = _numbers(r, "radius")
    bad = ~(r > 0)  # NaN fails too
    if np.any(bad):
        raise ValidationError(f"radius must be positive, got {r[bad][0]}")
    out = np.minimum(1.0, variance_upper_bound(bound, length, delta_e0) / (r * r))
    return float(out) if out.ndim == 0 else out


def _check_bound_params(delta_e0: float, s: float, delta_x: float):
    _real(delta_e0, "spectral gap", "> 0")
    _real(s, "parameter s", "in (0, 1)")
    _real(delta_x, "position spread", ">= 0")


@dataclass(frozen=True)
class TailEnvelope:
    """Exponential tail envelope ``prefactor * exp(-(R - r1) / xi)``, ``R >= r1``.

    ``kind`` names the theorem that produced it (:data:`THEOREM1` or
    :data:`THEOREM2`) and ``amplitude`` its coupling constant: ``c1`` for
    theorem 1, the nearest-neighbour norm bound ``v0`` for theorem 2.
    Every numeric field must be a finite real number (a bool or a string
    is not one), ``r1 >= 0``, ``xi > 0`` and ``prefactor > 0``, or
    :class:`ValidationError` names the field, as ``envelope <field> must
    be ...``: a NaN compares false with every tail, so such an envelope
    would pass every check.
    """

    kind: str
    s: float
    amplitude: float
    r1: float
    xi: float
    prefactor: float
    delta_e0: float
    delta_x: float

    def __post_init__(self):
        for name, rule in (("s", ""), ("amplitude", ""), ("r1", ">= 0"), ("xi", "> 0"),
                           ("prefactor", "> 0"), ("delta_e0", ""), ("delta_x", "")):
            _real(getattr(self, name), f"envelope {name}", rule)

    def evaluate(self, r) -> np.ndarray | float:
        """Envelope value at radius r, real numbers >= r1 (:func:`_numbers`)."""
        r = _numbers(r, "radius")
        if not np.all(r >= self.r1 - ONSET_ATOL):  # NaN fails too
            raise ValidationError(f"envelope defined for R >= r1 = {self.r1:g}")
        out = self.prefactor * np.exp(-(r - self.r1) / self.xi)
        return float(out) if out.ndim == 0 else out


def theorem1_bound(
    envelope: HoppingEnvelope, delta_e0: float, s: float, delta_x: float
) -> TailEnvelope:
    """Exponential tail envelope from an exponential hopping envelope.

    The envelope holds for ``R >= r1 = sqrt((2e+1)/(1-s)) * delta_x`` with

        xi = max( (3/2) sqrt((4e^2+1) c1 / (e s gap)),  3 ln(2e) / mu )

    and ``c1`` from :func:`c1_constant` as its amplitude.  The gap (> 0),
    ``s`` (in (0, 1)) and ``delta_x`` (>= 0) must be finite real numbers.
    """
    _check_bound_params(delta_e0, s, delta_x)
    c1 = c1_constant(envelope)
    r1 = math.sqrt((2.0 * _E + 1.0) / (1.0 - s)) * delta_x
    xi = max(
        1.5 * math.sqrt((4.0 * _E * _E + 1.0) * c1 / (_E * s * delta_e0)),
        3.0 * math.log(2.0 * _E) / envelope.mu,
    )
    prefactor = (2.0 * _E * (2.0 - s) + 1.0) / (4.0 * (2.0 * _E + 1.0))
    return TailEnvelope(THEOREM1, s, c1, r1, xi, prefactor, delta_e0, delta_x)


def theorem2_bound(
    v0: float, delta_e0: float, s: float, delta_x: float
) -> TailEnvelope:
    """Exponential tail envelope for nearest-neighbor hopping of norm <= v0.

    The envelope holds for ``R >= r1 = sqrt((e+1)/(1-s)) * delta_x`` with
    ``xi = sqrt(e v0 / (s gap)) + 2``, and ``v0`` (finite, > 0) as its amplitude.
    """
    _check_bound_params(delta_e0, s, delta_x)
    _real(v0, "nearest-neighbor amplitude", "> 0")
    r1 = math.sqrt((_E + 1.0) / (1.0 - s)) * delta_x
    xi = math.sqrt(_E * v0 / (s * delta_e0)) + 2.0
    prefactor = _E * (1.0 - s) / (_E + 1.0)
    return TailEnvelope(THEOREM2, s, v0, r1, xi, prefactor, delta_e0, delta_x)


@dataclass(frozen=True)
class EnvelopeCheck:
    """Pointwise comparison of a measured tail against an envelope."""

    r_grid: np.ndarray
    bound_values: np.ndarray
    tail_values: np.ndarray
    violations: np.ndarray
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.violations.size == 0


def verify_envelope(profile: DensityProfile, mean: float, bound: TailEnvelope) -> EnvelopeCheck:
    """Check ``tail(R) <= envelope(R) + ENVELOPE_TOL`` for every ``R >= r1``.

    Between two site distances the tail equals its value at the upper one
    (:func:`tail_steps`), where the decreasing envelope is smallest, so
    checking every distinct distance ``d >= r1`` (``r_grid``) is exact.
    ``R = 0``, where the tail is identically 1, is left out.  Violations
    are returned as data, not raised.  A solved model's
    :meth:`GroundState.check` runs the same check on its stored steps.
    """
    return _check_steps(*tail_steps(profile, mean), bound)


def _check_steps(radii: np.ndarray, tail_values: np.ndarray, bound: TailEnvelope) -> EnvelopeCheck:
    # the radii >= r1, and > 0 when r1 = 0
    start = np.searchsorted(radii, bound.r1, side="left" if bound.r1 > 0 else "right")
    radii, tail_values = radii[start:], tail_values[start:]
    bound_values = bound.evaluate(radii)
    violations = radii[tail_values > bound_values + ENVELOPE_TOL]
    for arr in (radii, bound_values, tail_values, violations):
        arr.flags.writeable = False
    return EnvelopeCheck(radii, bound_values, tail_values, violations, ENVELOPE_TOL)


@dataclass(frozen=True)
class AppendixBReport:
    """Both sides of the trapezoid-weighted coupling bound.

    ``hod_abs <= bound_direct <= bound_piecewise`` must hold within
    ``1e-9 * c1``; ``pointwise_margin`` is the worst-case slack of the
    piecewise bound over the direct per-site coupling.  ``ok`` is the
    verdict; a failed bound is reported, not raised.
    """

    hod_abs: float
    bound_direct: float
    bound_piecewise: float
    pointwise_margin: float
    c1: float
    region: tuple[float, float, float]

    @property
    def tolerance(self) -> float:
        return COMPLEMENTARY_RTOL * self.c1

    @property
    def ok(self) -> bool:
        tol = self.tolerance
        return (
            self.hod_abs <= self.bound_direct + tol
            and self.bound_direct <= self.bound_piecewise + tol
            and self.pointwise_margin >= -tol
        )


def verify_appendixB(
    spec: ModelSpec,
    envelope: HoppingEnvelope,
    g: WeightFunction,
    psi0: np.ndarray,
    region: tuple[float, float, float],
) -> AppendixBReport:
    """Diagnostic check of the piecewise coupling bound behind theorem1.

    ``region = (r_inner, delta_r, center)`` must describe the trapezoid
    that produced ``g`` (theorem1 variant).  With ``u = |x - center|``
    the per-site coupling ``V_{g,x} = 2 sum_x' (g(x)-g(x'))^2 V(x-x')``
    is bounded by::

        c1 * exp(-mu (r_inner + delta_r/3 - u))   inside the zero region,
        c1                                        in the ramp band,
        c1 * exp(-mu (u - r_inner - 2 delta_r/3)) beyond the ramp,

    and ``|<H_OD>| <= sum_x V_{g,x} p_x`` for any model the envelope
    dominates.  Returns its :class:`AppendixBReport` whether or not
    either stage fails; ``ok`` is the verdict.  Only input is refused,
    with :class:`ValidationError`: a ``g`` that is not the region's
    trapezoid, an envelope that does not dominate the model, a ``c1``
    that is not a finite float.
    """
    return GroundState.of(psi0, spec).appendixB(envelope, g, region)


def best_s(
    bound: HoppingEnvelope | NNBound, delta_e0: float, delta_x: float, r: float
) -> tuple[float, TailEnvelope]:
    """Search :data:`S_GRID` for the s minimizing the envelope value at radius r.

    The declared hopping bound selects the theorem: a
    :class:`HoppingEnvelope` theorem 1, an :class:`NNBound` theorem 2.
    Only s values whose onset radius satisfies ``r1(s) <= r`` are
    feasible.  Returns ``(s, envelope)`` where ``envelope`` is the
    :class:`TailEnvelope` built with the winning s.  ``r`` must be finite
    and > 0.
    """
    _real(r, "radius r", "> 0")
    _require_bound(bound, HoppingEnvelope, NNBound)
    if isinstance(bound, HoppingEnvelope):
        bounds = (theorem1_bound(bound, delta_e0, s, delta_x) for s in S_GRID)
    else:
        bounds = (theorem2_bound(bound.v0, delta_e0, s, delta_x) for s in S_GRID)
    feasible = [b for b in bounds if b.r1 <= r]
    if not feasible:
        raise ValidationError(
            f"no s in the grid has onset radius r1 <= {r:g}; increase r"
        )
    best = min(feasible, key=lambda b: b.evaluate(r))
    return best.s, best


def write_bound_csv(bounds, path):
    """Dump envelope-bound parameters, one row per bound."""
    write_text(path, csv_text(
        "kind,s,r1,xi,prefactor,C1_or_V0,deltaE0,deltaX",
        ((b.kind, b.s, b.r1, b.xi, b.prefactor, b.amplitude, b.delta_e0, b.delta_x)
         for b in bounds),
    ))


def write_envelope_csv(check: EnvelopeCheck, path):
    """Dump an envelope check as ``R,tail,bound,violation`` rows, one per radius.

    A row is flagged when its radius is one of ``check.violations``, so the
    CSV and the check's verdict follow one rule.
    """
    violated = np.isin(check.r_grid, check.violations)
    write_text(path, csv_text(
        "R,tail,bound,violation",
        ((r, t, b, int(v))
         for r, t, b, v in zip(check.r_grid, check.tail_values, check.bound_values, violated)),
    ))

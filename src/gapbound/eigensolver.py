"""Two lowest eigenpairs of a Hermitian matrix, with certified residuals.

A matrix reaches the solver in one form: a :class:`BandedHermitian`, the
lower band in LAPACK layout.  :func:`gapbound.lattice.assemble` returns
one; an array given to :func:`lowest_two` is validated and converted once
by :meth:`BandedHermitian.from_dense`, which keeps the band up to its
true bandwidth (a dense array is a band of bandwidth ``n - 1``).

Only the ground state and the first excited state are needed downstream,
so LAPACK is asked for those two pairs and never for the whole spectrum.
There are two certified routes, picked from ``(n, bandwidth)``, and one
reference route, the band route, for every matrix neither of them takes
or proves:

* Tridiagonal input (bandwidth <= 1: every nearest-neighbour chain with
  one orbital per site, diagonal input, ``n = 2``) is made real symmetric
  by a diagonal phase rotation that turns the subdiagonal real and
  nonnegative, and is then solved by bisection plus inverse iteration
  (LAPACK ``stebz`` + ``stein``, ``_tridiagonal_pairs``).  Bisection
  stops at ``threshold / 64`` (the degeneracy threshold below), coarse
  but still close enough for ``stein``'s vectors to reach rounding-level
  residuals (``_COARSE_FRACTION``); the Rayleigh quotients supply the
  last digits.  The pair must pass ``_proven`` with residuals at
  rounding level and one Sturm count (with the pad and count error of
  ``_tridiagonal_pairs``); a pair that fails is computed once more with
  bisection to full accuracy.
* A large banded operator with bandwidth b > 1,
  ``n >= max(400, 1600 // b, 400 + 2 (b - 16))`` (every ``N0 = 4..8``
  strip of 100 supersites and longer, never a dense array), goes to the
  inertia route (``_inertia_pairs``), O(n * b^2) time and O(n * b) memory.
  Bisection from ``[-scale, scale]`` on inertia counts isolates the two
  lowest eigenvalues: the number of eigenvalues below a shift is the
  number of negative pivots of an unpivoted LDLᴴ of ``H - sigma I``
  (Sylvester's law of inertia), computed by LAPACK ``pbtrf`` with one
  rank-1 Schur update after each nonpositive pivot (``_band_ldl``).
  Inverse iteration at the bracket midpoints and again at the Rayleigh
  quotients (``_band_inverse_iteration``) gives the pairs, which must
  pass ``_proven`` with one certified count (with the pad of
  ``_inertia_pairs``).
* The band route takes any other band with bandwidth > 1 (every
  fuzz-sized model), and every matrix whose certified route fails.  Its
  two lowest eigenvalues come from the band (LAPACK ``hbevx``/``sbevx``
  without vectors: a band-to-tridiagonal reduction that forms no Q, then
  bisection by index, ``_band_eigenvalues``), and its two vectors from
  inverse iteration with the banded LU factor of ``H - E_k I`` (LAPACK
  ``gbtrf`` + ``gbtrs``).  O(n * b) memory and O(n^2 * b) time; LAPACK
  takes a band of bandwidth <= 1 as it is, in O(n).

Every energy is a Rayleigh quotient of the returned vector, computed as
a correction to the route's estimate ``mu`` of it (the coarse bisection
value, the bracket midpoint or previous quotient, the ``sbevx`` value),
``E = mu + Re <psi, H psi - mu psi>``, so that the n-term sum rounds only
the small correction (``_rayleigh_pairs``).

A band with no imaginary part is solved in real arithmetic.  The
crossover of the inertia route was measured on disordered strips (unit
hopping, on-site energies uniform in ``[-3, 3]``), best of 5, one
thread, 2-core host, ms per solve of the band route / the inertia
route:

=====  ==========  ==========  ==========  ===========
b      n = 300     n = 400     n = 600     n = 800
=====  ==========  ==========  ==========  ===========
2      1.15 / 2.28 1.65 / 2.26 2.97 / 2.85 4.52 / 3.49
3      1.36 / 2.09 2.25 / 2.66 3.96 / 2.96 6.54 / 3.38
4      1.74 / 2.45 2.50 / 2.51 5.26 / 3.37 7.98 / 3.86
8      2.56 / 2.86 4.32 / 3.45 9.10 / 4.47 16.40 / 5.75
16     3.40 / 4.96 5.41 / 5.57 13.76 / 8.04 27.84 / 10.71
=====  ==========  ==========  ==========  ===========

Past b = 16 the crossover grows with the bandwidth, and a dense array
(``b = n - 1``) is 4-5 times faster on ``sbevx``.  Measured on a real band
with on-site energies uniform in ``[-3, 3]`` and hopping ``-1/k`` at every
distance ``k <= b``, best of 3 (of 2 for ``n - 1`` at n = 800), one
thread, same host, ms per solve of the band route / the inertia route:

=====  =============  =============  =============  =============  =============
b      n = 400        n = 600        n = 800        n = 1200       n = 1600
=====  =============  =============  =============  =============  =============
32     9.98 / 11.4    20.6 / 14.5    31.2 / 14.0    79.0 / 27.1    140 / 33.3
64     17.3 / 26.2    37.5 / 31.0    59.2 / 32.3    152 / 51.9     260 / 78.8
128    34.4 / 53.7    71.6 / 84.7    114 / 82.4     314 / 159      550 / 194
256    66.7 / 141     164 / 221      298 / 294      801 / 456      1642 / 622
512                   242 / 518      559 / 943      1781 / 1525    3702 / 2215
n - 1  54.6 / 258                    349 / 1646
=====  =============  =============  =============  =============  =============

Near the rule's line the route it does not pick is at most about 15%
faster: n = 1200, b = 512 goes to ``sbevx``, 1.17 times the inertia cost
in this grid, and n = 800, b = 256 to ``sbevx`` at a tie.

The inertia route's E0/E1 agree with the band route's to about
``1e-15 * scale`` but are not bit-identical to them.

The band route calls LAPACK ``hbevx``/``sbevx`` through
:func:`scipy.linalg.get_lapack_funcs`, with the arguments
:func:`scipy.linalg.eig_banded` passes for the same selection, so its
estimates are that function's eigenvalues bit for bit without its
per-call wrapper cost.  The tridiagonal route's energies agree with
:func:`scipy.linalg.eigh_tridiagonal` to about ``eps * scale`` (within
``4 eps * scale`` over the default sweep grid at L = 500 and 5000) but
not bit for bit.  Nothing forms the dense matrix of a banded
operator, not even the full spectrum (:attr:`SpectrumResult.eigenvalues`).

The acceptance rule is fixed; no caller sets a tolerance.  With ``scale``
the spectral scale of the band (:attr:`BandedHermitian.scale`), which
must not exceed ``MAX_SPECTRAL_SCALE``:

* the residual gate: the 2-norm residuals ``|H v - E v|`` of both
  returned eigenpairs against the stored band (a banded matrix-vector
  product, computed once per pair) must not exceed
  ``DEFAULT_RESIDUAL_TOL * max(1, scale)``;
* the degeneracy threshold: a gap below ``DEFAULT_DEGENERACY_TOL *
  max(scale, tiny)`` counts as a degenerate ground state, which is
  refused with :class:`DegenerateGroundState` rather than resolved
  arbitrarily.  The decision is made on the band route, before any
  eigenvector is computed.

A certified route returns a pair only through ``_proven``, which checks
both gates (the tridiagonal route with its residual limit lowered to
rounding level) before the count that proves the pair the lowest two;
any other pair, a degenerate one included, goes to the band route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import bandwidth, eig_banded, get_lapack_funcs
from scipy.linalg.blas import zhbmv

from .errors import DegenerateGroundState, GapboundError, NonHermitianError, ValidationError
from .textfile import write_text

# The fixed gates of lowest_two, relative to the spectral scale (module docstring)
DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_DEGENERACY_TOL = 1e-8
# The one Hermiticity rule of every matrix that enters the solver (a model's
# blocks, a dense array, a band's diagonal): an entry may lie at most
# HERMITIAN_TOL * max(1, largest |entry| of the matrix) from the matrix's
# Hermitian part (A + Aᴴ) / 2, which replaces it (hermitian_part).
HERMITIAN_TOL = 1e-12
# Inverse-iteration solves per eigenvector on the band route.  Each solve
# multiplies the other eigenvectors' share by about |E_k - lambda_k| / gap,
# at most n * eps / DEFAULT_DEGENERACY_TOL (2e-5 for n = 1000).
_INVERSE_STEPS = 3
# Seed of the inverse-iteration start vector.  It is pseudo-random, not
# all-ones, because a reflection-symmetric model's odd excited state is
# orthogonal to all-ones.
_START_SEED = 20140101
# Largest spectral scale lowest_two accepts.  LAPACK stein's inverse
# iteration breaks down from about 1e102 (an impurity chain with one huge
# on-site entry), the band route from about 1e155.
MAX_SPECTRAL_SCALE = 1e90
# Inertia route (_inertia_pairs): bisection stops once each bracket is at
# most this fraction of the distance between the bracket midpoints, and
# gives up (the caller falls back) after this many counts.
_BRACKET_RATIO = 1 / 8
_MAX_BISECTIONS = 200
# Inverse-iteration passes at the Rayleigh quotients after the one at the
# bracket midpoints; the second runs only when the first leaves a residual
# above the gate (a start vector with little weight on the eigenvector).
_RAYLEIGH_PASSES = 2
# A band of bandwidth b > 1 takes the inertia route when
# n >= max(400, 1600 // b, 400 + 2 (b - 16)), the crossover measured in the
# module docstring: past b = 16, n must grow by 2 per unit of b.
_INERTIA_MIN_N = 400
_INERTIA_MIN_NB = 1600
_INERTIA_WIDE_B = 16
# Tridiagonal route: stebz stops at this fraction of the degeneracy threshold
# (the Rayleigh quotients supply the last digits).  From a coarser estimate
# stein's E1 vector can miss the rounding-level residual limit, which leaves
# the pair unproven: at 1/32 on 1 of 20 sampled default grid points at
# L = 5000, at the threshold itself on 3 of the 100 points at L = 500 and
# 19 of the 20 at L = 5000.
_COARSE_FRACTION = 1 / 64
# Absolute part of the tridiagonal count's pad: stebz sets an e_j with
# e_j^2 below the underflow threshold to zero and floors its pivots there.
_TINY_PAD = 4 * math.sqrt(np.finfo(float).tiny)


def hermitian_part(blocks: np.ndarray, *rest: np.ndarray):
    """``(B + Bᴴ) / 2`` for each block of a stack, the first block past the rule of
    HERMITIAN_TOL (largest |entry| over ``blocks`` and ``rest``, the matrix's other
    entries) or None, and that block's distance.  Halves first: nothing overflows."""
    half = 0.5 * blocks
    half_h = half.conj().swapaxes(1, 2)
    dist = np.abs(half - half_h).reshape(len(half), -1).max(axis=1, initial=0.0)
    half += half_h
    far = np.flatnonzero(dist > HERMITIAN_TOL)
    if far.size:  # only then read the largest entry: a Hermitian input makes no extra pass
        largest = max(float(np.abs(a).max(initial=0.0)) for a in (blocks, *rest))
        far = far[dist[far] > HERMITIAN_TOL * max(1.0, largest)]
    return (half, int(far[0]), float(dist[far[0]])) if far.size else (half, None, 0.0)


def _numbers(value, name: str, dtype=float, copy: bool = False) -> np.ndarray:
    """``value`` as an array of ``dtype``, or :class:`ValidationError` naming it ``name``.

    The one numeric-array rule: ``np.asarray(value)`` must hold integers or
    floats (or complex numbers, when ``dtype`` is ``np.complex128``); a bool,
    string or object array (``None``, a ``Fraction``, an int past int64) or
    a ragged sequence is refused.  It may return the caller's own array,
    unless ``copy`` asks for a new C-ordered one.
    """
    kind = "complex" if np.dtype(dtype).kind == "c" else "real"
    try:
        a = np.asarray(value)
    except ValueError:  # numpy refuses a ragged sequence
        raise ValidationError(f"{name} must hold {kind} numbers, got a ragged sequence") from None
    if a.dtype.kind not in ("iufc" if kind == "complex" else "iuf"):
        detail = repr(value) if a.ndim == 0 else f"an array of {a.dtype}"
        raise ValidationError(f"{name} must hold {kind} numbers, got {detail}")
    return a.astype(dtype, order="C") if copy else a.astype(dtype, copy=False)


class BandedHermitian:
    """Hermitian matrix stored as its lower band, in LAPACK lower-band layout.

    ``band[k, j] = H[j + k, j]`` for ``k = 0..bandwidth``; the slots with
    ``j + k >= n`` lie outside the matrix and are read as zero.  Only this
    triangle is stored, so the operator is Hermitian by construction.  The
    diagonal row is real: a diagonal entry's distance from its Hermitian
    part is its imaginary part, which is refused past the rule of
    :func:`hermitian_part` and dropped within it.  Trailing all-zero rows
    are dropped, so ``bandwidth`` is the true nonzero bandwidth.  The band
    is the only form of the matrix.  Built by
    :func:`gapbound.lattice.assemble` from a validated model, or by
    :meth:`from_dense` from an array; ``band`` must hold numbers
    (:func:`_numbers`).  ``scale``, the spectral scale
    (:func:`spectral_scale`), is computed once here; an empty band has
    scale 0.0.  The operator is immutable: assignment and deletion of an
    attribute are refused.  A pickled or copied operator is rebuilt by this
    constructor from its band.
    """

    __slots__ = ("band", "scale")

    def __init__(self, band: np.ndarray):
        band = _numbers(band, "band", np.complex128)
        if band.ndim != 2 or band.shape[0] < 1:
            raise ValidationError(f"expected a (bandwidth + 1, n) band, got shape {band.shape}")
        if not np.isfinite(band).all():
            raise ValidationError("band contains non-finite entries")
        # the slots band[k, n - k:] lie outside the matrix, in its last m columns
        n, m = band.shape[1], min(band.shape[0] - 1, band.shape[1])
        outside = np.arange(band.shape[0])[:, None] + np.arange(m) >= m
        if band[:, n - m :][outside].any():
            band = band.copy()  # not the caller's array
            band[:, n - m :][outside] = 0.0
        if band[0].imag.any():
            diag, first, dist = hermitian_part(band[0].reshape(-1, 1, 1), band)
            if first is not None:
                raise NonHermitianError(f"diagonal entry {first} has imaginary part {dist:.3e}")
            band = np.concatenate([diag.reshape(1, -1), band[1:]])  # not the caller's array
        rows = np.flatnonzero(band.any(axis=1))
        band = band[: (rows[-1] if rows.size else 0) + 1]
        band.flags.writeable = False
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "scale", float(np.max(_abs_row_sums(band), initial=0.0)))

    @classmethod
    def from_dense(cls, array) -> BandedHermitian:
        """The band of a dense Hermitian array, validated.

        Accepts any square, finite array of numbers (:func:`_numbers`) whose
        entries all lie within the rule of :func:`hermitian_part` of its
        Hermitian part ``(A + Aᴴ) / 2`` (else :class:`NonHermitianError`), and
        keeps the lower band of that part up to the true bandwidth.
        """
        a = _numbers(array, "matrix", np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValidationError("matrix contains non-finite entries")
        (a,), first, dist = hermitian_part(a[None])
        if first is not None:
            raise NonHermitianError(f"matrix deviates from its Hermitian part by {dist:.3e}")
        n, b = a.shape[0], max(bandwidth(a))
        band = np.zeros((b + 1, n), dtype=np.complex128)
        for k in range(b + 1):
            band[k, : n - k] = a.diagonal(-k)
        return cls(band)

    def __reduce__(self):
        return (BandedHermitian, (self.band,))

    def __setattr__(self, name, value):
        raise AttributeError("BandedHermitian is immutable")

    def __delattr__(self, name):
        raise AttributeError("BandedHermitian is immutable")

    @property
    def n(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, n)``, the shape of the matrix the band stands for."""
        return (self.n, self.n)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``H @ v`` in O(n * bandwidth) (BLAS ``zhbmv``); ``v`` must hold numbers."""
        v = _numbers(v, "vector", np.complex128)
        return zhbmv(self.bandwidth, 1.0, self.band, v, lower=1)

    def __repr__(self):
        return f"BandedHermitian(n={self.n}, bandwidth={self.bandwidth})"


def _abs_row_sums(band: np.ndarray) -> np.ndarray:
    """``sum_j |H[i, j]|`` for every row i of the Hermitian lower band ``band``."""
    a = np.abs(band)
    n = a.shape[1]
    rows = a[0].copy()
    with np.errstate(over="ignore"):  # a sum past the float limit is inf, which callers refuse
        for k in range(1, a.shape[0]):
            rows[k:] += a[k, : n - k]  # H[j + k, j] in row j + k
            rows[: n - k] += a[k, : n - k]  # its mirror in row j
    return rows


def spectral_scale(h) -> float:
    """Maximum row 1-norm of the matrix (its infinity norm).

    Used as the natural magnitude for residual and degeneracy tolerances.
    A banded operator keeps its own, :attr:`BandedHermitian.scale`; an array
    must hold numbers (:func:`_numbers`, as ``matrix``).
    """
    if isinstance(h, BandedHermitian):
        return h.scale
    a = _numbers(h, "matrix", np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(a), axis=1)))


def _fix_phase(psi: np.ndarray) -> np.ndarray:
    # reproducible global phase: largest-magnitude coefficient real positive
    idx = int(np.argmax(np.abs(psi)))
    c = psi[idx]
    if abs(c) > 0:
        psi = psi * (c.conjugate() / abs(c))
    return psi


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest two eigenpairs of a Hermitian matrix.

    ``psi0`` follows a fixed gauge: its largest-magnitude coefficient is
    real and positive.  The pairs come from a certified route or the band
    route of the module docstring, and ``e0``/``e1`` are the Rayleigh
    quotients of ``psi0``/``psi1``.  ``eigenvalues``, the full ascending
    spectrum, is computed on first access only and then cached, from the
    band of ``matrix`` (LAPACK ``hbevd``/``sbevd``, O(n * bandwidth)
    memory).  A result pickles and copies; an unpickled or deep-copied
    one's ``psi0`` and ``psi1`` are writeable, as the arrays of every
    restored frozen dataclass are.
    """

    e0: float
    e1: float
    gap: float
    psi0: np.ndarray
    psi1: np.ndarray
    residual0: float
    residual1: float
    matrix: BandedHermitian = field(repr=False, compare=False)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        w = eig_banded(_lapack_band(self.matrix), lower=True, eigvals_only=True, check_finite=False)
        w.flags.writeable = False
        return w


def _lapack_band(h: BandedHermitian) -> np.ndarray:
    """The band to hand to LAPACK: real when it has no imaginary part."""
    return h.band if h.band.imag.any() else h.band.real


def _check_info(info: int, routine: str):
    if info != 0:
        raise GapboundError(f"LAPACK {routine} failed (info={info})")


def _sturm_count(d: np.ndarray, e: np.ndarray, sigma: float, scale: float) -> int:
    """Eigenvalues of the real symmetric tridiagonal ``(d, e)`` at or below ``sigma``.

    One Sturm count: ``stebz`` by value on ``(-2 scale - 1, sigma]``, an
    interval that starts below the spectrum, with ``abstol = scale`` so
    that bisection stops at once and only the counts at the two ends are
    made (about 20 µs at n = 501).

    Kahan's analysis of the Sturm sequence (Kahan 1966; Demmel, *Applied
    Numerical Linear Algebra*, §5.3) makes the computed count the exact
    count of a tridiagonal ``T + F``: the rounding moves each ``d_j`` by
    at most ``eps |d_j|`` and each ``e_j`` by ``2 eps |e_j|`` (``3 eps``
    with the rounding of ``e = |sub|``), and ``stebz``'s splitting of an
    ``e_j`` below ``ulp sqrt(|d_j d_j+1|) + sqrt(tiny)`` and its pivot
    floor add at most ``2 eps scale + sqrt(tiny)`` per entry, so ``||F||_2
    <= 6 eps scale + 3 sqrt(tiny)``.
    """
    (stebz,) = get_lapack_funcs(("stebz",), (d, e))
    m, _, _, _, info = stebz(d, e, 1, -2.0 * scale - 1.0, sigma, 0, 0, scale, "B")
    _check_info(info, "stebz")
    return int(m)


def _tridiagonal_pairs(hm: BandedHermitian, scale: float, limit: float, threshold: float):
    """Proven two lowest eigenpairs of a tridiagonal band from a coarse bisection, or ``None``.

    ``(d, e)`` is the real symmetric form ``Dᴴ H D`` of ``hm``, with the
    phases ``D[j+1] = D[j] s_j / |s_j|`` of the subdiagonal ``s`` (a zero
    entry keeps the previous phase) and ``e = |s|``.  Bisection by index
    (``stebz``, block order) stops at ``threshold * _COARSE_FRACTION``;
    inverse iteration (``stein``) at those estimates gives the vectors, and
    their Rayleigh quotients (:func:`_rayleigh_pairs`) supply the last
    digits.  The pairs are returned only if ``stein`` reports both vectors
    converged and :func:`_proven` accepts them with one Sturm count
    (:func:`_sturm_count`, bound 0) and the residual limit ``min(limit, n
    eps scale)``.  A residual above rounding level means that ``stein``
    mixed eigenvectors the coarse estimate did not separate (a chain whose
    scale is one huge on-site entry has its level spacing far below the
    threshold); so does a level spacing near the coarse tolerance, as on
    14 of the 100 default grid points at ``L = 50000``.  Either failure is
    retried once with bisection to full accuracy (``abstol = 0``), which
    proves all 14 (about 70 ms each at that length); only then is ``None``
    returned.  The count's error ``||F||`` is in the pad ``pad(E) = 16 eps
    (scale + |E|) + 4 sqrt(tiny)``: a computed residual of the complex
    band product is within ``5 eps scale + 2 eps |E| + sqrt(tiny)`` (plus
    terms of order ``n eps r_k``) of the exact one.

    Returns ``(w, psis, residuals)`` as :func:`_rayleigh_pairs` does.
    """
    n = hm.n
    sub = hm.band[1, : n - 1] if hm.bandwidth else np.zeros(n - 1, dtype=np.complex128)
    e = np.abs(sub)
    unit = np.divide(sub, e, out=np.ones_like(sub), where=e > 0)
    phases = np.concatenate(([1.0 + 0j], np.cumprod(unit)))
    d = hm.band[0].real
    stebz, stein = get_lapack_funcs(("stebz", "stein"), (d, e))
    eps = np.finfo(float).eps
    for abstol in (_COARSE_FRACTION * threshold, 0.0):
        m, w, iblock, isplit, info = stebz(d, e, 2, 0.0, 1.0, 1, 2, abstol, "B")
        _check_info(info, "stebz")
        w = w[:m]
        z, info = stein(d, e, w, iblock, isplit)
        if info > 0:  # an unconverged vector
            continue
        _check_info(info, "stein")
        order = np.argsort(w)
        pairs = _proven(_rayleigh_pairs(hm, phases[:, None] * z[:, order], w[order]),
                        lambda x: 16 * eps * (scale + abs(x)) + _TINY_PAD,
                        lambda sigma: (_sturm_count(d, e, sigma, scale), 0.0),
                        min(limit, n * eps * scale), threshold)
        if pairs is not None:
            return pairs
    return None


def _proven(pairs, pad, count, limit, threshold):
    """``pairs`` (energies ``E_k``, residuals ``r_k``) if they pass the gates and one count.

    The acceptance rule of both certified routes.  Both residuals must be
    within ``limit`` and ``E1 - E0 >= threshold``, so that a degenerate
    pair is refused on the band route; no count is made otherwise.
    ``count(sigma) = (m, bound)``: ``H + F`` has at most ``m`` eigenvalues
    below ``sigma`` for a Hermitian ``F`` with ``||F||_2 <= phi + bound``,
    where ``pad(E)`` exceeds ``phi`` plus the rounding of a computed
    residual at ``E``.  With ``sigma1 = E1 - r1 - pad(E1)`` and ``top0 =
    E0 + r0 + pad(E0)``, the pairs are returned only if ``sigma1 > top0``
    (also checked before the count), ``m <= 1`` and ``sigma1 - bound >
    top0``; else ``None``.

    Proof.  The residual puts an eigenvalue of ``H`` at or below ``top0 -
    phi < sigma1 - bound - phi``, and by Weyl's inequality ``H`` has at
    most ``m <= 1`` eigenvalues below ``sigma1 - ||F||``: so that one is
    ``lambda_1``, and ``lambda_2 >= sigma1 - bound - phi``.  Another lies
    within ``r1`` plus its rounding of ``E1``, at or above ``sigma1 + phi
    > lambda_1``, so ``lambda_2 <= E1 + r1 + pad(E1)``.  ``E_k`` is thus
    within ``r_k + 2 pad(E_k) + bound`` of ``lambda_k``.
    """
    (e0, e1), (r0, r1) = pairs[0], pairs[2]
    if not (r0 <= limit and r1 <= limit and e1 - e0 >= threshold):
        return None
    sigma1 = e1 - r1 - pad(e1)
    top0 = e0 + r0 + pad(e0)
    if sigma1 > top0:
        negatives, bound = count(sigma1)
        if negatives <= 1 and sigma1 - bound > top0:
            return pairs
    return None


def _band_eigenvalues(band: np.ndarray) -> np.ndarray:
    """Two lowest eigenvalues of a lower-band Hermitian (or real symmetric) matrix.

    ``hbevx``/``sbevx`` by index, without vectors (which would form the
    n x n Q), with the ``abstol`` of ``eig_banded``; the band is copied,
    never overwritten.
    """
    name = "hbevx" if band.dtype.kind == "c" else "sbevx"
    (bevx,) = get_lapack_funcs((name,), (band,))
    w, _, m, _, info = bevx(
        band, 0.0, 1.0, 1, 2, compute_v=0, mmax=1, range=2, lower=1,
        overwrite_ab=0, abstol=2 * np.finfo(float).tiny,
    )
    _check_info(info, name)
    return w[:m]


@lru_cache(maxsize=128)
def _start_vector(n: int) -> np.ndarray:
    """The read-only inverse-iteration start vector of length ``n``."""
    start = np.random.default_rng(_START_SEED).standard_normal(n)
    start.flags.writeable = False
    return start


def _band_inverse_iteration(band: np.ndarray, energies, scale: float) -> np.ndarray:
    """Eigenvectors of a lower-band Hermitian matrix near the energies ``E_k``.

    The energies are accurate eigenvalues, or, on the inertia route,
    bracket midpoints and Rayleigh quotients.  For each ``E_k`` in order, ``H - E_k I`` is factored by banded LU with
    partial pivoting (LAPACK ``gbtrf``) and ``_INVERSE_STEPS`` solves
    (``gbtrs``) are applied to a fixed pseudo-random start vector; each
    iterate is orthogonalised against the vectors already found.  As in
    LAPACK ``stein``, pivots smaller than ``eps * scale`` (exactly zero
    when ``E_k`` is an eigenvalue of a decoupled block) are replaced by
    ``eps * scale``: the factor then belongs to a matrix within
    ``eps * scale`` of ``H - E_k I``, which is all inverse iteration needs
    (so ``gbtrf``'s positive ``info``, an exactly zero pivot, is expected).
    Returns the vectors as the columns of a complex ``(n, len(energies))``
    array.
    """
    b, n = band.shape[0] - 1, band.shape[1]
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (band,))
    # general band layout: A[i, j] at row 2b + i - j; rows 0..b-1 take the
    # fill-in of the row interchanges
    ab = np.zeros((3 * b + 1, n), dtype=band.dtype)
    ab[2 * b:] = band
    for k in range(1, b + 1):
        ab[2 * b - k, k:] = band[k, : n - k].conj()
    floor = np.finfo(float).eps * max(scale, np.finfo(float).tiny)
    vecs = []
    for energy in energies:
        shifted = ab.copy()
        shifted[2 * b] -= energy
        lu, piv, info = gbtrf(shifted, b, b, overwrite_ab=True)
        if info < 0:
            _check_info(info, "gbtrf")
        pivots = lu[2 * b]  # the diagonal of U
        pivots[np.abs(pivots) < floor] = floor
        x = _start_vector(n)
        for _ in range(_INVERSE_STEPS):
            x, info = gbtrs(lu, b, b, x, piv)
            _check_info(info, "gbtrs")
            for v in vecs:
                x -= v * np.vdot(v, x)
            x /= np.linalg.norm(x)
        vecs.append(x)
    return np.column_stack(vecs).astype(np.complex128, copy=False)


@lru_cache(maxsize=256)
def _band_mask(b: int, m: int) -> np.ndarray:
    """The entries ``0 <= r - c <= b`` of an m x m window: its lower band."""
    d = np.subtract.outer(np.arange(m), np.arange(m))
    mask = (d >= 0) & (d <= b)
    mask.flags.writeable = False
    return mask


def _band_window(ab: np.ndarray, j0: int, m: int) -> np.ndarray:
    """The m x m view ``X[r, c] = ab[r - c, j0 + c]`` of a Fortran-ordered band.

    Where ``_band_mask`` holds, ``X`` is the lower band of the diagonal
    block ``H[j0:j0+m, j0:j0+m]`` and writes through to ``ab``; elsewhere it
    aliases other band entries.  Needs ``j0 + m <= n``.
    """
    b, size = ab.shape[0] - 1, ab.itemsize
    return np.ndarray((m, m), ab.dtype, buffer=ab.T, offset=j0 * (b + 1) * size,
                      strides=(size, b * size))


def _band_ldl(band: np.ndarray, sigma: float, floor: float, cap: int, factor: bool = False):
    """Unpivoted LDLᴴ of ``H - sigma I``, up to its ``cap``-th negative pivot.

    ``band`` is a Fortran-ordered lower band.  Returns ``(negatives, g,
    signs)``: the number of negative pivots found (at most ``cap``; by
    Sylvester's law of inertia the number of eigenvalues below ``sigma``
    once the factorization completes) and, with ``factor``, the lower
    band ``g`` and pivot signs ``s`` of the factor,
    ``H - sigma I ~ G diag(s) Gᴴ`` (else ``None, None``).

    LAPACK ``pbtrf`` (banded Cholesky) runs until a nonpositive pivot at
    column k.  The rows k..k+b are then taken out of the partial factor:
    their Schur complement is the window of the shifted band minus
    ``Mᴴ M``, with ``M = L_T⁻¹ C`` for the trailing triangle ``L_T`` of the
    Cholesky factor and the band's coupling block ``C`` (LAPACK ``trtrs``).
    Its leading entry is the pivot (one below ``floor`` in magnitude
    becomes ``-floor``, a perturbation the certificate measures); one
    rank-1 Schur update of the next b x b window eliminates it, and
    ``pbtrf`` restarts at column k + 1.  Nothing reads the trailing band
    a failed ``pbtrf`` leaves behind, whose state depends on LAPACK's
    blocking.  O(n * b^2) time, O(n * b) memory.
    """
    b, n = band.shape[0] - 1, band.shape[1]
    pbtrf, trtrs = get_lapack_funcs(("pbtrf", "trtrs"), (band,))
    ab = band.copy(order="F")
    ab[0] -= sigma
    g = np.zeros_like(ab) if factor else None
    signs = np.ones(n) if factor else None
    negatives = start = 0
    while True:
        f, info = pbtrf(ab[:, start:], lower=1)
        if info < 0:
            _check_info(info, "pbtrf")
        if info == 0:
            if factor:
                g[:, start:] = f
            return negatives, g, signs
        k = start + info - 1
        t0 = max(start, k - b)
        m, w = k - t0, min(b, n - 1 - k) + 1  # tail columns t0..k-1, window rows k..k+w-1
        mask = _band_mask(b, m + w)
        low = np.where(mask, _band_window(ab, t0, m + w), 0)
        schur = low[m:, m:]  # only its lower triangle is read from here on
        if m:
            coupling, info = trtrs(_band_window(f, t0 - start, m), low[m:, :m].conj().T, lower=1)
            _check_info(info, "trtrs")
            schur -= coupling.conj().T @ coupling
        d = float(schur[0, 0].real)
        if abs(d) < floor:  # zero to rounding: keep pbtrf's sign and bound the growth
            d = -floor
        negatives += d < 0
        if factor:
            g[:, start:k] = f[:, : k - start]
            if m:  # rows k.. of the tail columns: G[k + a, t0 + c] = conj(coupling[c, a])
                window = _band_window(g, t0, m + w)[m:, :m]
                np.copyto(window, coupling.conj().T, where=mask[m:, :m])
            g[:w, k] = schur[:, 0] / math.sqrt(abs(d))
            g[0, k] = math.copysign(math.sqrt(abs(d)), d)
            signs[k] = math.copysign(1.0, d)
        if negatives == cap or w == 1:
            return negatives, g, signs
        nxt = schur[1:, 1:] - schur[1:, :1] * (schur[1:, 0].conj() / d)
        np.copyto(_band_window(ab, k + 1, w - 1), nxt, where=_band_mask(b, w - 1))
        start = k + 1


def _certified_count(band: np.ndarray, sigma: float, floor: float, scale: float):
    """Negative pivots of ``H - sigma I`` and a bound on the factorization's backward error.

    The factor ``G diag(s) Gᴴ`` of :func:`_band_ldl` is multiplied out
    band by band and compared with the shifted band, in O(n * b^2).  With
    ``R`` that computed difference, ``E = G diag(s) Gᴴ - (H - sigma I)`` in
    exact arithmetic obeys ``||E||_2 <= ||E||_inf <= bound``, where

        bound = 2 ||R||_inf + 4 (b + 2) eps (|| |G| |G|ᴴ ||_inf + 2 (scale + |sigma|))

    covers the rounding of the product, of the difference and of the
    shift.  ``H + E - sigma I`` has exactly ``negatives`` negative
    eigenvalues, so by Weyl's inequality ``H`` has at least ``negatives``
    eigenvalues below ``sigma + bound`` and at most ``negatives`` below
    ``sigma - bound``.  The bound also absorbs the rounding of a computed
    residual norm at an energy near ``sigma`` (a small multiple of
    ``(2b + 3) eps (scale + |sigma|)``).  A second negative pivot ends the
    factorization: the count is 2 and the bound infinite.
    """
    negatives, g, signs = _band_ldl(band, sigma, floor, cap=2, factor=True)
    if negatives >= 2:
        return negatives, math.inf
    b, n = g.shape[0] - 1, g.shape[1]
    g = np.ascontiguousarray(g)  # the loops below run along contiguous rows
    band = np.ascontiguousarray(band)
    gs = g * signs
    product = np.zeros_like(g)
    for j in range(b + 1):  # column c adds gs[i, c] conj(g[j, c]) to entry (c + i, c + j)
        product[: b + 1 - j, j:] += gs[j:, : n - j] * g[j, : n - j].conj()
    product[0] += sigma
    gabs = np.abs(g)
    colsums = gabs.sum(axis=0)
    growth = gabs[0] * colsums
    for q in range(1, b + 1):
        growth[q:] += gabs[q, : n - q] * colsums[: n - q]
    residual = float(np.max(_abs_row_sums(product - band)))
    rounding = 4 * (b + 2) * np.finfo(float).eps
    bound = 2 * residual + rounding * (float(np.max(growth)) + 2 * (scale + abs(sigma)))
    return negatives, bound


def _bisect_two(band: np.ndarray, scale: float, floor: float, resolution: float):
    """Midpoints of disjoint, narrow brackets of the two lowest eigenvalues.

    Bisection on ``_band_ldl`` counts from ``[-scale, scale]``, which holds
    the whole spectrum.  Bracket k of ``lambda_{k+1}`` (k = 0, 1, 2) keeps
    ``count(lo) <= k`` and ``count(hi) >= k + 1``.  A bracket is narrow once
    its half-width is at most ``_BRACKET_RATIO`` times the distance from
    its midpoint to the nearest point that may hold another eigenvalue, so
    that inverse iteration at the midpoint converges; the third bracket
    only has to come apart from the second.  The second bracket also
    counts as narrow once its half-width is below ``resolution``: a
    cluster ``lambda_2 ~ lambda_3`` that tight gives residuals below it.
    Each count is capped where a larger one could not move a bracket.
    Returns ``None`` when bisection stalls, as it does on a pair too close
    to separate (the caller falls back).
    """
    lo, hi = [-scale] * 3, [scale] * 3
    for _ in range(_MAX_BISECTIONS):
        mids = [0.5 * (lo[k] + hi[k]) for k in range(2)]
        if hi[0] > lo[1]:  # lambda_1 and lambda_2 not yet apart: both in [lo[0], hi[0]]
            k, cap = 0, 2
        elif hi[0] - mids[0] > _BRACKET_RATIO * (lo[1] - mids[0]):
            k, cap = 0, 1  # below lo[1]: the count is 0 or 1
        elif (hi[1] - mids[1] > _BRACKET_RATIO * min(mids[1] - hi[0], lo[2] - mids[1])
              and hi[1] - mids[1] > resolution):
            k, cap = 1, 3
        else:
            return mids
        mid = mids[k]
        if not lo[k] < mid < hi[k]:
            return None
        count = _band_ldl(band, mid, floor, cap)[0]
        for j in range(3):
            if j < count:
                hi[j] = min(hi[j], mid)
            elif count < cap:  # a capped count says only "at least cap"
                lo[j] = max(lo[j], mid)
    return None


def _rayleigh_pairs(hm: BandedHermitian, vecs: np.ndarray, estimates):
    """Normalised columns of ``vecs``, their Rayleigh quotients and residual norms.

    The quotient of ``psi`` is computed as a correction to the route's
    estimate ``mu`` of it, ``mu + Re <psi, H psi - mu psi>``, so that the
    n-term sum rounds only the small correction.  The residuals are
    ``|H psi - E psi|``.  Returns ``(w, psis, residuals)`` with ``psis`` a
    list of vectors.
    """
    w, psis, residuals = [], [], []
    for col, mu in zip(vecs.T, estimates):
        psi = col / np.linalg.norm(col)
        hpsi = hm.matvec(psi)
        energy = float(mu)
        energy += float(np.vdot(psi, hpsi - energy * psi).real)
        w.append(energy)
        psis.append(psi)
        residuals.append(float(np.linalg.norm(hpsi - energy * psi)))
    return np.array(w), psis, residuals


def _takes_inertia_route(n: int, bandwidth: int) -> bool:
    """Whether a band of bandwidth > 1 goes to :func:`_inertia_pairs` (see the module docstring)."""
    wide = _INERTIA_MIN_N + 2 * (bandwidth - _INERTIA_WIDE_B)
    return n >= max(_INERTIA_MIN_N, _INERTIA_MIN_NB // bandwidth, wide)


def _inertia_pairs(hm: BandedHermitian, band: np.ndarray, scale: float, limit: float,
                   threshold: float):
    """Certified two lowest eigenpairs of a band, in O(n * b^2), or ``None``.

    Bisection (:func:`_bisect_two`) isolates the two eigenvalues;
    :func:`_band_inverse_iteration` at the bracket midpoints and again at
    the Rayleigh quotients of its vectors (up to ``_RAYLEIGH_PASSES``
    times, until both residuals pass the gate) gives the pairs, whose
    energies are the final Rayleigh quotients.  The pairs are returned
    (as :func:`_rayleigh_pairs` returns them) only if :func:`_proven`
    accepts them with one certified count (:func:`_certified_count`) and
    the pad ``(b + 2)^2 eps (scale + |E|)`` for the rounding of a
    residual; else ``None``.
    """
    b = band.shape[0] - 1
    floor = np.finfo(float).eps * max(scale, np.finfo(float).tiny)
    band = np.asfortranarray(band)
    mids = _bisect_two(band, scale, floor, limit / 8)
    if mids is None:
        return None
    w, psis, residuals = _rayleigh_pairs(hm, _band_inverse_iteration(band, mids, scale), mids)
    for _ in range(_RAYLEIGH_PASSES):
        w, psis, residuals = _rayleigh_pairs(hm, _band_inverse_iteration(band, w, scale), w)
        if max(residuals) <= limit:
            break
    return _proven((w, psis, residuals),
                   lambda x: (b + 2) ** 2 * np.finfo(float).eps * (scale + abs(x)),
                   lambda sigma: _certified_count(band, sigma, floor, scale), limit, threshold)


def lowest_two(h) -> SpectrumResult:
    """Two lowest eigenpairs of a Hermitian matrix.

    ``h`` is a :class:`BandedHermitian` of dimension >= 2 and spectral
    scale <= ``MAX_SPECTRAL_SCALE``, or an array, validated and converted
    once by :meth:`BandedHermitian.from_dense`.  The certified route its
    shape picks (module docstring) gives the pair if it can prove it; else
    the band route does.  The pair is accepted by the fixed rule of the
    module docstring: residuals within ``DEFAULT_RESIDUAL_TOL * max(1,
    scale)``, and a gap of at least ``DEFAULT_DEGENERACY_TOL * max(scale,
    tiny)``, else :class:`DegenerateGroundState`.
    """
    hm = h if isinstance(h, BandedHermitian) else BandedHermitian.from_dense(h)
    n = hm.n
    if n < 2:
        raise ValidationError(f"need a matrix of dimension >= 2, got n={n}")
    scale = hm.scale
    if not scale <= MAX_SPECTRAL_SCALE:
        raise ValidationError(
            f"spectral scale {scale:.3e} exceeds the solver's limit {MAX_SPECTRAL_SCALE:.0e}"
        )
    limit = DEFAULT_RESIDUAL_TOL * max(1.0, scale)
    threshold = DEFAULT_DEGENERACY_TOL * max(scale, np.finfo(float).tiny)

    # the stored band is validated finite and read-only: no check, no overwrite
    band, pairs = _lapack_band(hm), None
    if hm.bandwidth <= 1:
        pairs = _tridiagonal_pairs(hm, scale, limit, threshold)
    elif _takes_inertia_route(n, hm.bandwidth):
        pairs = _inertia_pairs(hm, band, scale, limit, threshold)
    if pairs is None:  # the band route
        w = _band_eigenvalues(band)
        if w[1] - w[0] < threshold:
            raise DegenerateGroundState(
                f"gap {w[1] - w[0]:.3e} below degeneracy threshold {threshold:.3e} "
                f"(scale {scale:.3e})"
            )
        pairs = _rayleigh_pairs(hm, _band_inverse_iteration(band, w, scale), w)
    w, psis, residuals = pairs

    out = []
    for psi, res in zip(psis, residuals):
        if not res <= limit:  # a NaN residual certifies nothing
            raise GapboundError(
                f"eigenpair residual {res:.3e} exceeds {limit:.3e}; "
                "decomposition not certified"
            )
        psi = _fix_phase(psi)
        psi.flags.writeable = False
        out.append(psi)

    return SpectrumResult(
        e0=float(w[0]),
        e1=float(w[1]),
        gap=float(w[1] - w[0]),
        psi0=out[0],
        psi1=out[1],
        residual0=residuals[0],
        residual1=residuals[1],
        matrix=hm,
    )


def write_spectrum(result: SpectrumResult, path):
    """Dump the full spectrum as ``<index> <eigenvalue>`` lines."""
    write_text(path, "".join(f"{i} {e:.17g}\n" for i, e in enumerate(result.eigenvalues)))

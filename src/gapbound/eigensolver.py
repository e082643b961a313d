"""Two lowest eigenpairs of a Hermitian matrix, with certified residuals.

A matrix reaches the solver in one of two forms: a :class:`HermitianMatrix`
(a validated dense array) or a :class:`BandedHermitian` (the lower band in
LAPACK layout, which is what :func:`gapbound.lattice.assemble` returns).

Only the ground state and the first excited state are needed downstream,
so LAPACK is asked for those two pairs and never for the whole spectrum.
There are three routes, picked from the input:

* Tridiagonal input (bandwidth <= 1: every nearest-neighbour chain with
  one orbital per site, diagonal input, ``n = 2``) is made real symmetric
  by a diagonal phase rotation that turns the subdiagonal real and
  nonnegative, and is then solved by bisection plus inverse iteration
  (LAPACK ``stebz`` + ``stein``, ``_tridiagonal_pairs``).
* A banded operator with bandwidth > 1 (every assembled model with
  ``N0 > 1`` or longer-range hopping) gets its two lowest eigenvalues
  from the band (LAPACK ``hbevx``/``sbevx`` without vectors: a
  band-to-tridiagonal reduction that forms no Q, then bisection by
  index, ``_band_eigenvalues``), and its two vectors by inverse
  iteration with the banded LU factor of ``H - E_k I`` (LAPACK
  ``gbtrf`` + ``gbtrs``).  A band with no imaginary part is solved in
  real arithmetic.  O(n * bandwidth) memory and O(n^2 * bandwidth) time.
* A dense :class:`HermitianMatrix` with bandwidth > 1 goes to
  :func:`scipy.linalg.eigh` restricted to the two lowest indices
  (LAPACK ``heevr``, ``_dense_pairs``).

The first two routes call LAPACK through
:func:`scipy.linalg.get_lapack_funcs`, with the arguments
:func:`scipy.linalg.eigh_tridiagonal` and :func:`scipy.linalg.eig_banded`
pass for the same selection, so the results are theirs bit for bit
without their per-call wrapper cost.  Nothing forms the dense matrix of
a banded operator, not even the full spectrum
(:attr:`SpectrumResult.eigenvalues`).

Every accepted result is certified a posteriori: the 2-norm residuals
``|H v - E v|`` of both returned eigenpairs against the stored operator
(a banded matrix-vector product for a banded operator) must not exceed
``tol * max(1, spectral_scale(H))``.

Degenerate ground states are refused rather than resolved arbitrarily:
when the gap falls below ``degeneracy_tol * spectral_scale(H)`` the
solver raises :class:`DegenerateGroundState`, before any eigenvector is
computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import bandwidth, eig_banded, eigh, eigvalsh, get_lapack_funcs
from scipy.linalg.blas import zhbmv

from .errors import DegenerateGroundState, GapboundError, NonHermitianError, ValidationError

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_DEGENERACY_TOL = 1e-8
# Entrywise Hermiticity tolerance of a dense matrix (relative to its largest
# entry), of on-site blocks and of model-file diagonal entries.
HERMITIAN_TOL = 1e-12
# Inverse-iteration solves per eigenvector on the band route.  Each solve
# multiplies the other eigenvectors' share by about |E_k - lambda_k| / gap,
# at most n * eps / degeneracy_tol (2e-5 for n = 1000 at the default).
_INVERSE_STEPS = 3
# Seed of the inverse-iteration start vector.  It is pseudo-random, not
# all-ones, because a reflection-symmetric model's odd excited state is
# orthogonal to all-ones.
_START_SEED = 20140101


class HermitianMatrix:
    """Dense Hermitian matrix, validated and stored read-only.

    Accepts any square array equal to its conjugate transpose within
    ``HERMITIAN_TOL * max(1, max |entry|)`` entrywise; the stored array is the
    exact Hermitian part, so downstream code may rely on ``H == H.conj().T``
    holding exactly.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        a = np.asarray(array)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {a.shape}")
        a = a.astype(np.complex128, copy=True)
        ah = a.conj().T
        if a.size:
            if not np.all(np.isfinite(a.view(np.float64))):
                raise ValidationError("matrix contains non-finite entries")
            scale = max(1.0, float(np.max(np.abs(a))))
            dev = float(np.max(np.abs(a - ah)))
            if dev > HERMITIAN_TOL * scale:
                raise NonHermitianError(
                    f"matrix deviates from Hermiticity by {dev:.3e} "
                    f"(tolerance {HERMITIAN_TOL * scale:.3e})"
                )
        # in place, the same bits as 0.5 * (a + a.conj().T)
        a += ah
        a *= 0.5
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @property
    def bandwidth(self) -> int:
        """Largest ``k`` with a nonzero entry ``H[j + k, j]`` (a scan of all n² entries)."""
        return max(bandwidth(self.array))

    def lower_diagonal(self, k: int) -> np.ndarray:
        """The entries ``H[j + k, j]``, ``j = 0..n-k-1``."""
        return self.array.diagonal(-k)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.array @ v

    def __repr__(self):
        return f"HermitianMatrix(n={self.n})"


class BandedHermitian:
    """Hermitian matrix stored as its lower band, in LAPACK lower-band layout.

    ``band[k, j] = H[j + k, j]`` for ``k = 0..bandwidth``; entries with
    ``j + k >= n`` are zero, the diagonal row is real.  Only this triangle
    is stored, so the operator is Hermitian by construction.  Trailing
    all-zero rows are dropped, so ``bandwidth`` is the true nonzero
    bandwidth.  The band is the only form of the matrix.  Built by
    :func:`gapbound.lattice.assemble` from a validated model.  The
    spectral scale is computed on first use and kept.
    """

    __slots__ = ("band", "_scale")

    def __init__(self, band: np.ndarray):
        band = np.asarray(band, dtype=np.complex128)
        if band.ndim != 2 or band.shape[0] < 1:
            raise ValidationError(f"expected a (bandwidth + 1, n) band, got shape {band.shape}")
        rows = np.flatnonzero(band.any(axis=1))
        band = band[: (rows[-1] if rows.size else 0) + 1]
        band.flags.writeable = False
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "_scale", None)

    def __setattr__(self, name, value):
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

    def lower_diagonal(self, k: int) -> np.ndarray:
        """The entries ``H[j + k, j]``, ``j = 0..n-k-1``."""
        if k > self.bandwidth:
            return np.zeros(max(self.n - k, 0), dtype=np.complex128)
        return self.band[k, : self.n - k]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``H @ v`` in O(n * bandwidth) (BLAS ``zhbmv``)."""
        return zhbmv(self.bandwidth, 1.0, self.band, v, lower=1)

    def abs_row_sums(self) -> np.ndarray:
        """``sum_j |H[i, j]|`` for every row i, read off the band."""
        a = np.abs(self.band)
        rows = a[0].copy()
        for k in range(1, a.shape[0]):
            rows[k:] += a[k, : self.n - k]  # H[j + k, j] in row j + k
            rows[: self.n - k] += a[k, : self.n - k]  # its mirror in row j
        return rows

    def __repr__(self):
        return f"BandedHermitian(n={self.n}, bandwidth={self.bandwidth})"


def spectral_scale(h) -> float:
    """Maximum row 1-norm of the matrix (its infinity norm).

    Used as the natural magnitude for residual and degeneracy tolerances.
    A banded operator is read off its band in O(n * bandwidth), once.
    """
    if isinstance(h, BandedHermitian):
        if h._scale is None:
            object.__setattr__(h, "_scale", float(np.max(h.abs_row_sums())))
        return h._scale
    a = h.array if isinstance(h, HermitianMatrix) else np.asarray(h)
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
    real and positive.  The pairs come from one of the three routes in the
    module docstring.  ``eigenvalues``, the full ascending spectrum, is
    computed on first access only and then cached: from the band of a
    banded ``matrix`` (LAPACK ``hbevd``/``sbevd``, O(n * bandwidth)
    memory), from the array of a dense one.
    """

    e0: float
    e1: float
    gap: float
    psi0: np.ndarray
    psi1: np.ndarray
    residual0: float
    residual1: float
    matrix: HermitianMatrix | BandedHermitian = field(repr=False, compare=False)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        h = self.matrix
        if isinstance(h, BandedHermitian):
            w = eig_banded(_lapack_band(h), lower=True, eigvals_only=True, check_finite=False)
        else:
            w = eigvalsh(h.array, check_finite=False)
        w.flags.writeable = False
        return w


def _lapack_band(h: BandedHermitian) -> np.ndarray:
    """The band to hand to LAPACK: real when it has no imaginary part."""
    return h.band if h.band.imag.any() else h.band.real


def _check_info(info: int, routine: str):
    if info != 0:
        raise GapboundError(f"LAPACK {routine} failed (info={info})")


def _tridiagonal_pairs(d: np.ndarray, e: np.ndarray):
    """Two lowest eigenpairs of the real symmetric tridiagonal ``(d, e)``.

    Bisection by index (``stebz``, block order) plus inverse iteration
    (``stein``), sorted ascending: the calls
    ``eigh_tridiagonal(d, e, select="i", select_range=(0, 1))`` makes.
    """
    stebz, stein = get_lapack_funcs(("stebz", "stein"), (d, e))
    m, w, iblock, isplit, info = stebz(d, e, 2, 0.0, 1.0, 1, 2, 0.0, "B")
    _check_info(info, "stebz")
    w = w[:m]
    z, info = stein(d, e, w, iblock, isplit)
    _check_info(info, "stein")
    order = np.argsort(w)
    return w[order], z[:, order]


def _band_eigenvalues(band: np.ndarray) -> np.ndarray:
    """Two lowest eigenvalues of a lower-band Hermitian (or real symmetric) matrix.

    ``hbevx``/``sbevx`` by index, without vectors (which would form the
    n x n Q), with the ``abstol`` of ``eig_banded``; the band is copied,
    never overwritten.
    """
    name = "hbevx" if band.dtype.kind == "c" else "sbevx"
    (bevx,) = get_lapack_funcs((name,), (band,))
    (lamch,) = get_lapack_funcs(("lamch",), dtype=np.float64)
    w, _, m, _, info = bevx(
        band, 0.0, 1.0, 1, 2, compute_v=0, mmax=1, range=2, lower=1,
        overwrite_ab=0, abstol=2 * lamch("s"),
    )
    _check_info(info, name)
    return w[:m]


def _dense_pairs(a: np.ndarray):
    """Two lowest eigenpairs of a dense Hermitian matrix (``heevr``)."""
    return eigh(a, subset_by_index=(0, 1), check_finite=False)


@lru_cache(maxsize=128)
def _start_vector(n: int) -> np.ndarray:
    """The read-only inverse-iteration start vector of length ``n``."""
    start = np.random.default_rng(_START_SEED).standard_normal(n)
    start.flags.writeable = False
    return start


def _band_inverse_iteration(band: np.ndarray, energies, scale: float) -> np.ndarray:
    """Eigenvectors of a lower-band Hermitian matrix at accurate eigenvalues.

    For each ``E_k`` in order, ``H - E_k I`` is factored by banded LU with
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


def lowest_two(
    h,
    tol: float = DEFAULT_RESIDUAL_TOL,
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
) -> SpectrumResult:
    """Two lowest eigenpairs of a Hermitian matrix.

    Parameters
    ----------
    h : BandedHermitian, HermitianMatrix or array_like
        Matrix to decompose (an array is validated for Hermiticity).
    tol : float
        Residual acceptance threshold, relative to ``max(1, spectral_scale)``.
    degeneracy_tol : float
        Gap threshold (relative to the spectral scale) below which the
        ground state counts as degenerate and the solver refuses.
        Both tolerances must be finite and > 0.
    """
    for name, value in (("tol", tol), ("degeneracy_tol", degeneracy_tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and > 0, got {value!r}")
    hm = h if isinstance(h, (HermitianMatrix, BandedHermitian)) else HermitianMatrix(h)
    n = hm.n
    if n < 2:
        raise ValidationError(f"need a matrix of dimension >= 2, got n={n}")
    scale = spectral_scale(hm)

    # the stored arrays are validated finite and read-only: no check, no overwrite
    band = None
    if hm.bandwidth <= 1:
        # D^dag A D is real symmetric with subdiagonal |s| for the phases
        # D[j+1] = D[j] s_j / |s_j|; a zero entry keeps the previous phase
        sub = hm.lower_diagonal(1)
        mag = np.abs(sub)
        unit = np.divide(sub, mag, out=np.ones_like(sub), where=mag > 0)
        phases = np.concatenate(([1.0 + 0j], np.cumprod(unit)))
        w, z = _tridiagonal_pairs(hm.lower_diagonal(0).real, mag)
        vecs = phases[:, None] * z
    elif isinstance(hm, BandedHermitian):
        band = _lapack_band(hm)
        w = _band_eigenvalues(band)
    else:
        w, vecs = _dense_pairs(hm.array)
    gap = float(w[1] - w[0])
    if gap < degeneracy_tol * max(scale, np.finfo(float).tiny):
        raise DegenerateGroundState(
            f"gap {gap:.3e} below degeneracy threshold "
            f"{degeneracy_tol * scale:.3e} (scale {scale:.3e})"
        )
    if band is not None:
        vecs = _band_inverse_iteration(band, w, scale)

    out = []
    residuals = []
    for col, energy in zip(vecs.T, w):
        psi = col / np.linalg.norm(col)
        res = float(np.linalg.norm(hm.matvec(psi) - energy * psi))
        if not res <= tol * max(1.0, scale):  # a NaN residual certifies nothing
            raise GapboundError(
                f"eigenpair residual {res:.3e} exceeds {tol * max(1.0, scale):.3e}; "
                "decomposition not certified"
            )
        psi = _fix_phase(psi)
        psi.flags.writeable = False
        out.append(psi)
        residuals.append(res)

    return SpectrumResult(
        e0=float(w[0]),
        e1=float(w[1]),
        gap=gap,
        psi0=out[0],
        psi1=out[1],
        residual0=residuals[0],
        residual1=residuals[1],
        matrix=hm,
    )


def write_spectrum(result: SpectrumResult, path):
    """Dump the full spectrum as ``<index> <eigenvalue>`` lines."""
    eigenvalues = result.eigenvalues  # before open(): a failure leaves no file
    with open(path, "w", newline="\n") as fh:
        for i, e in enumerate(eigenvalues):
            fh.write(f"{i} {e:.17g}\n")

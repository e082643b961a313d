"""Two lowest eigenpairs of a Hermitian matrix, with certified residuals.

A matrix reaches the solver in one of two forms: a :class:`HermitianMatrix`
(a validated dense array) or a :class:`BandedHermitian` (the lower band in
LAPACK layout, which is what :func:`gapbound.lattice.assemble` returns).

Only the ground state and the first excited state are needed downstream,
so LAPACK is asked for those two pairs and never for the whole spectrum:

* Tridiagonal input (bandwidth <= 1: every nearest-neighbour chain with
  one orbital per site, diagonal input, ``n = 2``) is made real symmetric
  by a diagonal phase rotation that turns the subdiagonal real and
  nonnegative, and is then solved by bisection plus inverse iteration
  (LAPACK ``stebz`` + ``stein`` through
  :func:`scipy.linalg.eigh_tridiagonal`).  A banded operator hands over
  its two band rows; no dense matrix is formed.
* All other input goes to :func:`scipy.linalg.eigh` restricted to the
  two lowest indices (LAPACK ``heevr``) on the dense array.

Every accepted result is certified a posteriori: the 2-norm residuals
``|H v - E v|`` of both returned eigenpairs against the stored operator
(a banded matrix-vector product for a banded operator) must not exceed
``tol * max(1, spectral_scale(H))``.

Degenerate ground states are refused rather than resolved arbitrarily:
when the gap falls below ``degeneracy_tol * spectral_scale(H)`` the
solver raises :class:`DegenerateGroundState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import bandwidth, eigh, eigh_tridiagonal, eigvalsh
from scipy.linalg.blas import zhbmv

from .errors import DegenerateGroundState, GapboundError, NonHermitianError, ValidationError

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_DEGENERACY_TOL = 1e-8


class HermitianMatrix:
    """Dense Hermitian matrix, validated and stored read-only.

    Accepts any square array equal to its conjugate transpose within
    ``tol * max(1, max |entry|)`` entrywise; the stored array is the
    exact Hermitian part, so downstream code may rely on ``H == H.conj().T``
    holding exactly.
    """

    __slots__ = ("array",)

    def __init__(self, array, tol: float = 1e-12):
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
            if dev > tol * scale:
                raise NonHermitianError(
                    f"matrix deviates from Hermiticity by {dev:.3e} "
                    f"(tolerance {tol * scale:.3e})"
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
    bandwidth.  ``dense`` is a function returning the same matrix as a
    dense array; it is called on the first read of :attr:`array` only.
    Built by :func:`gapbound.lattice.assemble` from a validated model.
    """

    __slots__ = ("band", "_dense", "_array")

    def __init__(self, band: np.ndarray, dense):
        band = np.asarray(band, dtype=np.complex128)
        if band.ndim != 2 or band.shape[0] < 1:
            raise ValidationError(f"expected a (bandwidth + 1, n) band, got shape {band.shape}")
        rows = np.flatnonzero(band.any(axis=1))
        band = band[: (rows[-1] if rows.size else 0) + 1]
        band.flags.writeable = False
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_array", None)

    def __setattr__(self, name, value):
        raise AttributeError("BandedHermitian is immutable")

    @property
    def n(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    @property
    def array(self) -> np.ndarray:
        """The dense ``n x n`` matrix, read-only; built on first read."""
        if self._array is None:
            a = np.asarray(self._dense(), dtype=np.complex128)
            a.flags.writeable = False
            object.__setattr__(self, "_array", a)
        return self._array

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
    A banded operator is read off its band in O(n * bandwidth).
    """
    if isinstance(h, BandedHermitian):
        return float(np.max(h.abs_row_sums()))
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
    real and positive.  ``eigenvalues``, the full ascending spectrum, is
    computed from the dense form of ``matrix`` on first access only and
    then cached.
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
        w = eigvalsh(self.matrix.array, check_finite=False)
        w.flags.writeable = False
        return w


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
    """
    hm = h if isinstance(h, (HermitianMatrix, BandedHermitian)) else HermitianMatrix(h)
    n = hm.n
    if n < 2:
        raise ValidationError(f"need a matrix of dimension >= 2, got n={n}")
    scale = spectral_scale(hm)

    # the stored arrays are validated finite and read-only: no check, no overwrite
    if hm.bandwidth <= 1:
        # D^dag A D is real symmetric with subdiagonal |s| for the phases
        # D[j+1] = D[j] s_j / |s_j|; a zero entry keeps the previous phase
        sub = hm.lower_diagonal(1)
        mag = np.abs(sub)
        unit = np.divide(sub, mag, out=np.ones_like(sub), where=mag > 0)
        phases = np.concatenate(([1.0 + 0j], np.cumprod(unit)))
        w, z = eigh_tridiagonal(
            hm.lower_diagonal(0).real, mag, select="i", select_range=(0, 1),
            check_finite=False,
        )
        vecs = phases[:, None] * z
    else:
        w, vecs = eigh(hm.array, subset_by_index=(0, 1), check_finite=False)
    gap = float(w[1] - w[0])
    if gap < degeneracy_tol * max(scale, np.finfo(float).tiny):
        raise DegenerateGroundState(
            f"gap {gap:.3e} below degeneracy threshold "
            f"{degeneracy_tol * scale:.3e} (scale {scale:.3e})"
        )

    out = []
    residuals = []
    for col, energy in zip(vecs.T, w):
        psi = col / np.linalg.norm(col)
        res = float(np.linalg.norm(hm.matvec(psi) - energy * psi))
        if res > tol * max(1.0, scale):
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
    with open(path, "w", newline="\n") as fh:
        for i, e in enumerate(result.eigenvalues):
            fh.write(f"{i} {e:.17g}\n")

"""Impurity-chain tightness sweep.

For each defect strength h0 the sweep solves the impurity chain, fits
the density decay length, evaluates both exponential tail envelopes at
s and compares their decay lengths against the measured one through the
ratios ``sqrt(2) * xi / delta_x`` (the measured decay length of this
model approaches ``delta_x / sqrt(2)``, so a ratio of 1 would be a
perfectly tight envelope).  Both envelopes are also verified pointwise
against the measured tail; the violation counts, expected to be zero,
are recorded, and so is the number of radii each check covered, which is
zero when the envelope's onset lies beyond the farthest site.

The theorem-1 columns (xi1, ratio1) use the paper's constants cv = 1,
mu = 1 for this benchmark model, outside theorem 1's stated hypothesis:
that envelope does not dominate the chain, whose nearest-neighbor norm 1
exceeds cv e^-mu = 0.368, and :func:`~gapbound.lattice.require_envelope`
refuses it.  The dominating fit at mu = 1 is cv = e; it would multiply
xi1 and ratio1 by sqrt(e) = 1.6487 (the gap term sets xi1 on every row of
the default grid).  So these columns measure the paper's constants and
certify nothing: the sweep checks that envelope pointwise against the
measured tail on every row, and a row without violations says only that
the tail lies below it.  The theorem-2 columns are certified, the chain
being nearest-neighbor with v0 = 1.

Each point is solved on the banded chain operator in O(L) time and
memory, so chains far longer than the default ``L = 500`` are cheap.
At ``L = 500`` a point takes about 0.62 ms (one BLAS thread, 2-core
host): about 320 µs in the three LAPACK calls of
:func:`~gapbound.eigensolver.lowest_two` and about 300 µs in everything
else, which took about 470 µs until each stage stopped repeating work:
the model and its band are built in fewer passes, ``psi0`` is converted
once (by :func:`~gapbound.localization.density`), and the envelope
checks evaluate each envelope on the stored tail steps without
validating those radii again.
Rows come back in grid order and the emitted CSV is byte-identical for
identical configurations.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

# ``density``, ``position_stats`` and ``verify_envelope`` are unused here but
# kept: the benchmark tracer wraps them in gapbound.sweep
from .bounds import GroundState, theorem1_bound, theorem2_bound, verify_envelope  # noqa: F401
from .eigensolver import _numbers, lowest_two
from .errors import GapboundError, ValidationError
from .lattice import (
    HoppingEnvelope,
    _check_impurity_length,
    _is_integer,
    _real,
    assemble,
    check_nearest_neighbor,
    impurity_model,
)
from .localization import density, fit_localization_length, position_stats  # noqa: F401
from .textfile import csv_text, read_text, write_text

# the CSV columns in order: header name and SweepRow attribute
_CSV_COLUMNS = (
    ("h0", "h0"), ("E0", "e0"), ("E1", "e1"), ("gap", "gap"), ("deltaX", "delta_x"),
    ("xi_fit", "xi_fit"), ("xi1", "xi1"), ("xi2", "xi2"), ("ratio1", "ratio1"),
    ("ratio2", "ratio2"), ("fit_r_squared", "fit_r_squared"),
)
SWEEP_CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)
# the default defect grid: its size and its strongest and weakest h0
_H0_POINTS, _H0_MIN, _H0_MAX = 100, -1.0, -0.01


def default_h0_grid(
    points: int = _H0_POINTS, lo: float = _H0_MIN, hi: float = _H0_MAX
) -> np.ndarray:
    """Log-spaced defect strengths from lo to hi (both negative, finite real numbers)."""
    if not _is_integer(points) or points < 1:
        raise ValidationError(f"need an integer number of grid points >= 1, got {points!r}")
    _real(lo, "h0_min")
    _real(hi, "h0_max")
    if not (lo < 0 and hi < 0):
        raise ValidationError(f"defect strengths must be negative, got [{lo}, {hi}]")
    if points == 1:
        return np.array([lo])
    return -np.logspace(math.log10(-lo), math.log10(-hi), points)


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one tightness sweep: an ``h0_grid`` of negative, finite real numbers
    (:func:`_numbers`), ``s`` in (0, 1), ``mu`` > 0; :func:`run_sweep` checks ``output_path``."""

    L: int = 500
    h0_grid: np.ndarray = field(default_factory=default_h0_grid)
    s: float = 0.5
    mu: float = 1.0
    output_path: str = "sweep.csv"

    def __post_init__(self):
        _check_impurity_length(self.L)  # as impurity_model would at every point
        grid = _numbers(self.h0_grid, "h0 grid")
        if grid.ndim != 1 or grid.size == 0:
            raise ValidationError("h0 grid must be a nonempty 1-d array")
        finite = np.isfinite(grid)
        if not finite.all():
            raise ValidationError(f"h0 values must be finite, got {float(grid[~finite][0])}")
        if not (grid < 0).all():
            raise ValidationError("all h0 values must be negative")
        grid = grid.copy()
        grid.flags.writeable = False
        object.__setattr__(self, "h0_grid", grid)
        _real(self.s, "s", "in (0, 1)")
        _real(self.mu, "mu", "> 0")


@dataclass(frozen=True)
class SweepRow:
    """One sweep point; ratio1/2 are ``sqrt(2) * xi / delta_x``.

    xi1 and ratio1 come from theorem 1 with cv = mu = 1, outside its
    hypothesis on this chain (see the module docstring); the dominating
    envelope, cv = e, would multiply both by sqrt(e) = 1.6487.

    ``violations1/2`` and ``radii1/2`` (the radii ``R >= r1`` each envelope
    check covered) are not written to the CSV.
    """

    h0: float
    e0: float
    e1: float
    gap: float
    delta_x: float
    xi_fit: float
    xi1: float
    xi2: float
    ratio1: float
    ratio2: float
    fit_r_squared: float
    violations1: int = 0
    violations2: int = 0
    radii1: int = 0
    radii2: int = 0


def sweep_point(
    length: int, h0: float, s: float = SweepConfig.s, mu: float = SweepConfig.mu
) -> SweepRow:
    """Solve one impurity chain, fit its decay about the density peak and check both envelopes.

    An unavailable fit (see :class:`~gapbound.localization.DecayFit`)
    leaves ``xi_fit`` and ``fit_r_squared`` NaN.
    """
    spec = impurity_model(length, h0)
    try:
        res = lowest_two(assemble(spec))
    except GapboundError as exc:
        raise GapboundError(f"eigensolver failed at h0={h0:g}: {exc}") from exc
    state = GroundState.of(res.psi0, spec)
    # Davis-Kahan: the density is within 2 r0 / (gap - r1) of the true one in
    # l1, and a variance over n sites moves by at most (n - 1)^2 times that
    # (gap > r1: a chain's scale is >= 2, where lowest_two's gap gate lies
    # above its residual gate)
    variance = state.stats.variance
    error = (spec.length - 1) ** 2 * 2 * res.residual0 / (res.gap - res.residual1)
    if not variance > error:
        raise GapboundError(
            f"deltaX unresolved at h0={h0:g}: variance {variance:.3e} is within "
            f"its error bound {error:.3e}"
        )
    delta_x = state.stats.delta_x
    fit = fit_localization_length(state.profile)

    b1 = theorem1_bound(HoppingEnvelope(cv=1.0, mu=mu), res.gap, s, delta_x)
    b2 = theorem2_bound(check_nearest_neighbor(spec).v0, res.gap, s, delta_x)
    chk1 = state.check(b1)
    chk2 = state.check(b2)

    root2 = math.sqrt(2.0)
    return SweepRow(
        h0=float(h0),
        e0=res.e0,
        e1=res.e1,
        gap=res.gap,
        delta_x=delta_x,
        xi_fit=fit.xi_fit,
        xi1=b1.xi,
        xi2=b2.xi,
        ratio1=root2 * b1.xi / delta_x,
        ratio2=root2 * b2.xi / delta_x,
        fit_r_squared=fit.r_squared,
        violations1=int(chk1.violations.size),
        violations2=int(chk2.violations.size),
        radii1=int(chk1.r_grid.size),
        radii2=int(chk2.r_grid.size),
    )


def _check_output_path(out) -> None:
    """Refuse an output name that can never be written (see :func:`run_sweep`)."""
    if not out or not isinstance(out, (str, bytes, os.PathLike)):
        raise ValidationError(f"out must be a nonempty file name, got {out!r}")
    try:
        os.fsencode(out)
    except UnicodeEncodeError:
        raise ValidationError(
            f"out {out!r} cannot be encoded as a file name "
            f"in the file-system encoding {sys.getfilesystemencoding()!r}"
        ) from None
    if os.path.isdir(out):
        raise ValidationError(f"out {out!r} is an existing directory")
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise ValidationError(f"out {out!r}: {directory!r} is not an existing directory")


def run_sweep(config: SweepConfig, write: bool = True) -> list[SweepRow]:
    """Run the sweep; rows come back in grid order.

    Writes the CSV to ``config.output_path`` unless ``write`` is False.
    Before the first point is solved, ``write=True`` refuses an output
    name that can never be written (:class:`ValidationError`): an empty
    one or one that is not a path, one the file system cannot encode, an existing directory or one
    in a directory that does not exist, which is not created.
    ``write=False`` checks nothing.
    """
    if write:
        _check_output_path(config.output_path)
    rows = [sweep_point(config.L, h0, config.s, config.mu) for h0 in config.h0_grid]
    if write:
        write_sweep_csv(rows, config.output_path)
    return rows


def format_sweep_csv(rows) -> str:
    """Render sweep rows with 17 significant digits per float."""
    return csv_text(
        SWEEP_CSV_HEADER, ([getattr(r, attr) for _, attr in _CSV_COLUMNS] for r in rows)
    )


def write_sweep_csv(rows, path):
    write_text(path, format_sweep_csv(rows))


def read_sweep_csv(path) -> list[SweepRow]:
    """Read rows back from a UTF-8 sweep CSV (violation and radius counts are not stored)."""
    text = read_text(path, lambda no, reason: ValidationError(f"{path}, line {no}: {reason}"))
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != SWEEP_CSV_HEADER:
        raise ValidationError(f"{path} is not a sweep CSV (bad header)")
    rows = []
    for no, ln in lines[1:]:
        try:
            vals = [float(v) for v in ln.split(",")]
        except ValueError:
            vals = []
        if len(vals) != len(_CSV_COLUMNS):
            raise ValidationError(f"{path}, line {no}: malformed sweep row: {ln!r}")
        rows.append(SweepRow(**{attr: v for (_, attr), v in zip(_CSV_COLUMNS, vals)}))
    return rows

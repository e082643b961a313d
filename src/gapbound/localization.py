"""Spatial statistics of a ground-state vector.

The particle density per supersite is ``p_x = sum_i |psi[(x, i)]|^2``.
From it we derive the mean position, the position variance, the tail
distribution ``P(|x - <x>| >= R)`` and a least-squares estimate of the
exponential decay length of ``p_x`` (the closed-form least-squares line
through ``ln p_x`` against the distance from a centre, by default the
site of the largest density).

Distances are always measured from the real-valued mean position over
the integer site coordinates; no re-indexing takes place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import _numbers
from .errors import ValidationError
from .lattice import ModelSpec, _real
from .textfile import csv_text, write_text

DENSITY_SUM_TOL = 1e-12
# a density entry down to -DENSITY_NEGATIVE_TOL is rounding and is clamped to
# 0; a more negative one is refused
DENSITY_NEGATIVE_TOL = 1e-15
# the decay fit leaves out densities below FIT_FLOOR (numerical noise) and the
# FIT_MARGIN sites next to each open edge
FIT_FLOOR = 1e-13
FIT_MARGIN = 10


@dataclass(frozen=True)
class DensityProfile:
    """Probability per supersite, indexed by x = 1..L: real numbers (:func:`_numbers`)
    that sum to one."""

    p: np.ndarray

    def __post_init__(self):
        p = _numbers(self.p, "density profile")
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("density profile must be a nonempty 1-d array")
        if not np.min(p) >= -DENSITY_NEGATIVE_TOL:  # NaN fails too
            raise ValidationError(f"negative or NaN density entry {np.min(p):.3e}")
        p = np.maximum(p, 0.0)
        total = float(p.sum())
        if not abs(total - 1.0) <= DENSITY_SUM_TOL:
            raise ValidationError(
                f"density sums to {total!r}, expected 1 within {DENSITY_SUM_TOL:g}"
            )
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def length(self) -> int:
        return self.p.shape[0]

    def sites(self) -> np.ndarray:
        """Integer site coordinates 1..L."""
        return np.arange(1, self.length + 1, dtype=float)


@dataclass(frozen=True)
class PositionStats:
    """Mean and variance of the position over a density profile."""

    mean: float
    variance: float

    @property
    def delta_x(self) -> float:
        """Standard deviation of the position."""
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of ``ln p_x = intercept - |x - center| / xi_fit``.

    The line is the closed-form least-squares one, ``slope = sum (d - d̄)(y
    - ȳ) / sum (d - d̄)²`` over the distances ``d`` and ``y = ln p_x`` of the
    fit window, with ``xi_fit = -1 / slope``; ``r_squared`` is its
    coefficient of determination, ``window`` the smallest and largest
    fitted distance and ``center`` the site they are measured from (not
    written by :func:`write_fit_csv`).

    ``reason`` is empty for an available fit; for an unavailable one it
    says why, and every numeric field but ``center`` is NaN.  ``ok`` is
    the verdict.
    """

    xi_fit: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    center: float
    reason: str = ""

    @property
    def ok(self) -> bool:
        return not self.reason


def density(psi0: np.ndarray, spec: ModelSpec) -> DensityProfile:
    """Particle density per supersite from a normalized coefficient vector.

    ``psi0`` must hold numbers (:func:`_numbers`), and its squared norm,
    the density's sum, must be 1 within ``DENSITY_SUM_TOL``.
    """
    psi = _numbers(psi0, "coefficient vector", np.complex128)
    if psi.ndim != 1 or psi.size != spec.dim:
        raise ValidationError(
            f"coefficient vector has size {psi.size}, model needs {spec.dim}"
        )
    p = (np.abs(psi.reshape(spec.length, spec.n0)) ** 2).sum(axis=1)
    norm2 = float(p.sum())
    if not abs(norm2 - 1.0) <= DENSITY_SUM_TOL:
        raise ValidationError(
            f"coefficient vector has squared norm {norm2!r}, "
            f"expected 1 within {DENSITY_SUM_TOL:g}"
        )
    return DensityProfile(p=p)


def position_stats(profile: DensityProfile) -> PositionStats:
    """Mean position and position variance of a profile."""
    x = profile.sites()
    mean = float(np.dot(x, profile.p))
    variance = float(np.dot((x - mean) ** 2, profile.p))
    return PositionStats(mean=mean, variance=max(variance, 0.0))


def tail_steps(profile: DensityProfile, mean: float) -> tuple[np.ndarray, np.ndarray]:
    """The distinct site distances ``d = |x - mean|``, ascending, and ``P(|x - mean| >= d)``.

    The tail is constant on ``(d_k, d_{k+1}]`` and 0 past the last distance.
    It is read off suffix sums of ``p``, accumulated from the farthest site
    inwards so that tiny tails are summed smallest terms first.  ``mean``
    must be a finite real number.
    """
    _real(mean, "mean position")
    dist = np.abs(profile.sites() - mean)
    order = np.argsort(dist, kind="stable")
    dist = dist[order]
    suffix = np.cumsum(profile.p[order[::-1]])[::-1]
    first = np.ones(dist.size, dtype=bool)
    np.not_equal(dist[1:], dist[:-1], out=first[1:])
    return dist[first], suffix[first]


def tail(profile: DensityProfile, mean: float, r):
    """Tail probability ``P(|x - mean| >= r)`` over the integer sites.

    ``r`` may be a scalar (returns a float) or an array of radii (returns
    an array) of real numbers (:func:`_numbers`); both are read off
    :func:`tail_steps`.  A NaN radius is refused.
    """
    r = _numbers(r, "tail radius")
    if np.isnan(r).any():
        raise ValidationError("tail radius must not be NaN")
    radii, tails = tail_steps(profile, mean)
    out = np.append(tails, 0.0)[np.searchsorted(radii, r, side="left")]
    return float(out) if out.ndim == 0 else out


def fit_localization_length(profile: DensityProfile, center: float | None = None) -> DecayFit:
    """Fit the exponential decay length of a density profile.

    The distances are measured from ``center``, by default the site of the
    largest density.  Points below ``FIT_FLOOR`` (numerical noise) and
    within ``FIT_MARGIN`` sites of either open edge are excluded; both
    sides of the centre are fitted jointly against the distance
    ``|x - center|`` by the closed-form least-squares line (see
    :class:`DecayFit`).

    A fit with nothing to fit is a result, not an error: with fewer than 4
    usable points, an exactly flat window or a slope that is not negative,
    the returned fit is not ``ok`` and its ``reason`` says which.  A
    ``center`` that is not a finite real number (a bool or a string is not
    one) in the lattice ``1..L`` raises ``ValidationError``.
    """
    p = profile.p
    if center is None:
        center = float(np.argmax(p) + 1)
    _real(center, "fit center")
    length = profile.length
    if not 1 <= center <= length:
        raise ValidationError(f"fit center {center!r} lies outside the lattice 1..{length}")

    def unavailable(reason: str) -> DecayFit:
        return DecayFit(math.nan, math.nan, math.nan, (math.nan, math.nan), float(center), reason)

    x = profile.sites()
    usable = (p >= FIT_FLOOR) & (x > FIT_MARGIN) & (x <= length - FIT_MARGIN)
    if int(usable.sum()) < 4:
        return unavailable(
            f"only {int(usable.sum())} usable points (need >= 4); "
            f"FIT_FLOOR={FIT_FLOOR:g}, FIT_MARGIN={FIT_MARGIN}"
        )
    d = np.abs(x[usable] - center)
    y = np.log(p[usable])
    if np.ptp(y) == 0.0:
        return unavailable("profile is exactly flat over the fit window")
    d_mean, y_mean = float(d.mean()), float(y.mean())
    dc, yc = d - d_mean, y - y_mean
    slope = float(dc @ yc) / float(dc @ dc)  # >= 4 points hold >= 2 distinct distances
    if slope >= 0:
        return unavailable(f"fitted slope {slope:.3e} is not negative")
    resid = yc - slope * dc
    ss_tot = float(yc @ yc)
    r_squared = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(
        xi_fit=-1.0 / slope,
        intercept=y_mean - slope * d_mean,
        r_squared=r_squared,
        window=(float(d.min()), float(d.max())),
        center=float(center),
    )


def write_profile_csv(profile: DensityProfile, path):
    """Dump a profile as ``x,p_x`` rows."""
    write_text(path, csv_text("x,p_x", zip(range(1, profile.length + 1), profile.p)))


def write_fit_csv(fit: DecayFit, path):
    """Dump a decay fit as a single CSV row."""
    write_text(path, csv_text(
        "xi_fit,intercept,r_squared,window_lo,window_hi",
        [(fit.xi_fit, fit.intercept, fit.r_squared, *fit.window)],
    ))

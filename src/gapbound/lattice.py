"""One-particle lattice models: declaration, validation, assembly.

Conventions
-----------
Supersites are labeled ``x = 1..L``; each carries ``N0`` internal states
``i = 1..N0``.  The flattened basis index is site-major::

    (x, i)  ->  (x - 1) * N0 + (i - 1)

A model stores every off-diagonal hopping block exactly once, for the
ordered pair ``(x, x')`` with ``x < x'``.  The matrix holds the block at
``(x, x')`` and its conjugate transpose at ``(x', x)``.  On-site blocks
are stored once per site and must be Hermitian.  There is no implicit
"+ h.c." doubling anywhere: what you store is what enters the matrix.

Storage is by block bands.  The on-site blocks form one ``(L, N0, N0)``
array.  Each distance ``d = x' - x`` that carries hopping has one
``(L - d, N0, N0)`` array, whose row ``x - 1`` is the block of the pair
``(x, x + d)``.  These arrays are the whole model: a pair carries hopping,
and a site an on-site term, exactly when its block is nonzero, so a zero
block is the same model as no block.  A nearest-neighbour chain therefore
takes O(L * N0^2) memory.  The mappings :attr:`ModelSpec.offdiag` and
:attr:`ModelSpec.onsite` are read-only views of the nonzero blocks.

:func:`assemble` returns the matrix as a
:class:`~gapbound.eigensolver.BandedHermitian`: its lower band in LAPACK
layout, O(L * N0 * bandwidth) memory.  Every model, of any ``N0`` and
hopping range, is solved on this band by
:func:`~gapbound.eigensolver.lowest_two`, and its full spectrum
(:attr:`~gapbound.eigensolver.SpectrumResult.eigenvalues`) is computed
from the band too; no dense ``n x n`` matrix is built from a model.
A model is immutable: assigning or deleting an attribute is refused.  Its
views :attr:`~ModelSpec.offdiag` and :attr:`~ModelSpec.onsite`, its operator
(:func:`assemble`) and its block norms (:func:`hopping_norms`) follow one
memo rule: each is a ``cached_property`` of the model, built on first read.

The strength of the hopping between two supersites is measured by the
spectral norm (largest singular value) of the N0 x N0 block; this equals
the operator norm of the corresponding two-supersite hopping term.
Higher-dimensional geometries are supported by flattening transverse
directions into the internal index (see :func:`strip_model`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .eigensolver import BandedHermitian, _numbers, hermitian_part
from .errors import EnvelopeViolation, NonHermitianError, ValidationError

# relative slack of envelope_violations: a block norm up to
# allowed * (1 + ENVELOPE_RTOL) counts as dominated
ENVELOPE_RTOL = 1e-12


@dataclass(frozen=True)
class HoppingEnvelope:
    """Exponential envelope dominating all hopping norms.

    A model respects the envelope when, for every pair (x, x'), the spectral
    norm of the block of the pair (x, x') is at most
    ``cv * exp(-mu * |x - x'|)``; ``cv, mu > 0``, finite.
    """

    cv: float
    mu: float

    def __post_init__(self):
        _real(self.cv, "envelope amplitude", "> 0")
        _real(self.mu, "envelope decay rate", "> 0")

    def value(self, distance):
        """Pair strength ``cv exp(-mu |d|)``: a float by ``math.exp``, or an array by ``np.exp``."""
        if np.ndim(distance) == 0:
            return self.cv * math.exp(-self.mu * abs(distance))
        return self.cv * np.exp(-self.mu * np.abs(distance))


@dataclass(frozen=True)
class NNBound:
    """Uniform norm bound ``v0`` for strictly nearest-neighbor hopping.

    Declared for a model, or derived from it by
    :func:`check_nearest_neighbor`, it is checked by the one rule of
    :func:`envelope_violations`, as an envelope that is ``v0`` at distance
    1 and 0 beyond: every block at distance >= 2 must vanish.  ``v0 >= 0``, finite.
    """

    v0: float

    def __post_init__(self):
        _real(self.v0, "nearest-neighbor bound", ">= 0")

    def value(self, distance):
        """Pair strength ``v0`` at ``|d| <= 1``, ``0.0`` beyond: a float, or an array."""
        if np.ndim(distance) == 0:
            return self.v0 if abs(distance) <= 1 else 0.0
        return np.where(np.abs(distance) <= 1, self.v0, 0.0)


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# the ranges _real checks, by the text its messages quote
_RULES = {
    "": lambda x: True,
    "> 0": lambda x: x > 0,
    ">= 0": lambda x: x >= 0,
    "in (0, 1)": lambda x: 0 < x < 1,
}


def _real(value, name: str, rule: str = "") -> float:
    """``value`` as a float, or :class:`ValidationError` naming the argument ``name``.

    The one real-number rule: a Python or numpy int or float (a bool, a
    string or None is not one), finite once converted to a float (an int
    too large for a float is not) and within ``rule``, one of ``""``,
    ``"> 0"``, ``">= 0"`` and ``"in (0, 1)"``, which the message quotes.
    """
    if type(value) is float:
        x = value
    elif isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
    else:
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(x) and _RULES[rule](x)):
        raise ValidationError(f"{name} must be finite{rule and ' and ' + rule}, got {value!r}")
    return x


def _positive_int(value, name: str) -> int:
    if not _is_integer(value) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _check_dims(length, n0) -> tuple[int, int]:
    return _positive_int(length, "length"), _positive_int(n0, "n0")


def _as_block(block, n0: int, what: str) -> np.ndarray:
    b = _numbers(block, what, np.complex128)
    if b.shape != (n0, n0):
        raise ValidationError(f"{what} must have shape ({n0}, {n0}), got {b.shape}")
    return b


def _first_nonfinite(blocks: np.ndarray) -> int | None:
    """Index of the first block with a non-finite entry, or None."""
    ok = np.isfinite(blocks)
    if ok.all():
        return None
    return int(np.argmin(ok.reshape(blocks.shape[0], -1).all(axis=1)))


def _norms(blocks: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based rows of the nonzero blocks of a band of distance ``d``
    and their spectral norms.

    A block with no nonzero entry off its diagonal (every 1 x 1 block, and
    every hopping block of :func:`strip_model`) has its largest diagonal
    modulus as its norm, with no SVD; any other block takes the largest
    singular value.  Finite entries may still give a norm that overflows;
    that block is refused with :class:`ValidationError`.
    """
    m, n0 = blocks.shape[:2]
    moduli = np.abs(blocks.diagonal(axis1=1, axis2=2))
    norms = moduli.max(axis=1) if n0 > 1 else moduli[:, 0]
    # the off-diagonal entries of each block: its flat entries 1.. in rows of N0 + 1, less the last
    off = blocks.reshape(m, -1)[:, 1:].reshape(m, n0 - 1, n0 + 1)[:, :, :n0]
    dense = off.any(axis=(1, 2)).nonzero()[0]
    if dense.size:
        norms[dense] = np.linalg.norm(blocks[dense], 2, axis=(1, 2))
    x0 = norms.nonzero()[0]  # a nonzero block has a positive norm
    norms = norms[x0]
    bad = _first_nonfinite(norms)
    if bad is not None:
        x = int(x0[bad]) + 1
        raise ValidationError(
            f"hopping block ({x},{x + d}) has spectral norm {norms[bad]}: "
            "its entries are too large"
        )
    return x0, norms


def _nonzero(blocks: np.ndarray) -> np.ndarray:
    """0-based rows of a ``(m, N0, N0)`` stack whose block is nonzero."""
    return np.flatnonzero(blocks.any(axis=(1, 2)))


class ModelSpec:
    """Declarative description of a one-particle lattice Hamiltonian.

    Parameters
    ----------
    length : int
        Number of supersites L.
    n0 : int
        Internal dimension per supersite.
    offdiag_blocks : iterable of (x, x', block)
        Hopping blocks with ``x < x'``; each pair at most once.  Every
        coordinate is a Python or numpy integer (a float, bool or string
        is refused, not truncated).
    onsite_blocks : iterable of (x, block)
        Hermitian on-site blocks, one per site at most.  Each block is
        replaced by its Hermitian part ``(B + Bᴴ) / 2``; an entry farther
        than ``1e-12 * max(1, largest |entry| of the matrix)`` from it (the
        rule of :func:`~gapbound.eigensolver.hermitian_part`, over every
        on-site and hopping block) is refused.
    label : str
        Free-form description.

    :meth:`from_arrays` builds the same model from block-band arrays.
    Every model, however built, ends in the same storage and the same
    validation; each block must hold numbers (the rule of
    :func:`~gapbound.eigensolver._numbers`: a bool, string or object block
    is refused).  A zero block, given or not, is no hopping (or no on-site
    term).  A model is immutable; its views, operator and block norms are
    cached properties (the module's one memo rule).  A pickled or copied
    model is rebuilt by :meth:`from_arrays`, so its arrays are read-only
    again and its caches are rebuilt on first read.
    """

    def __init__(
        self,
        length: int,
        n0: int,
        offdiag_blocks: Iterable = (),
        onsite_blocks: Iterable = (),
        label: str = "",
    ):
        length, n0 = _check_dims(length, n0)
        by_distance: dict[int, tuple[list, list]] = {}
        seen: set[tuple[int, int]] = set()
        for entry in offdiag_blocks:
            x, xp, block = entry
            if not (_is_integer(x) and _is_integer(xp)):
                raise ValidationError(f"hopping pair ({x!r}, {xp!r}) must hold integers")
            x, xp = int(x), int(xp)
            if not (1 <= x <= length and 1 <= xp <= length):
                raise ValidationError(f"hopping pair ({x}, {xp}) out of range 1..{length}")
            if x >= xp:
                raise ValidationError(f"hopping pair must have x < x', got ({x}, {xp})")
            if (x, xp) in seen:
                raise ValidationError(f"duplicate hopping pair ({x}, {xp})")
            seen.add((x, xp))
            rows, blocks = by_distance.setdefault(xp - x, ([], []))
            rows.append(x - 1)
            blocks.append(_as_block(block, n0, f"hopping block ({x}, {xp})"))
        bands = {}
        for d, (rows, blocks) in by_distance.items():
            bands[d] = np.zeros((length - d, n0, n0), dtype=np.complex128)
            bands[d][rows] = blocks

        onsite = np.zeros((length, n0, n0), dtype=np.complex128)
        sites: set[int] = set()
        for entry in onsite_blocks:
            x, block = entry
            if not _is_integer(x):
                raise ValidationError(f"on-site coordinate {x!r} must be an integer")
            x = int(x)
            if not 1 <= x <= length:
                raise ValidationError(f"on-site coordinate {x} out of range 1..{length}")
            if x in sites:
                raise ValidationError(f"duplicate on-site block at x={x}")
            sites.add(x)
            onsite[x - 1] = _as_block(block, n0, f"on-site block at x={x}")
        self._store(length, n0, label, onsite, bands)

    @classmethod
    def from_arrays(
        cls,
        length: int,
        n0: int,
        hopping: Mapping[int, np.ndarray] | None = None,
        onsite: np.ndarray | None = None,
        label: str = "",
    ) -> "ModelSpec":
        """Model from block-band arrays (the inputs are copied).

        ``hopping`` maps a distance ``d`` to an ``(L - d, N0, N0)`` array
        whose row ``x - 1`` is the block of the pair ``(x, x + d)``.
        ``onsite`` is an ``(L, N0, N0)`` array of on-site blocks (default:
        none).  Zero blocks are no hopping and no on-site term.  Both must
        hold numbers, as the blocks of the constructor must.
        """
        length, n0 = _check_dims(length, n0)
        bands = {}
        for d, blocks in (hopping or {}).items():
            if not _is_integer(d) or not 1 <= d < length:
                raise ValidationError(f"hopping distance must lie in 1..{length - 1}, got {d!r}")
            blocks = _numbers(blocks, f"hopping band at distance {d}", np.complex128, copy=True)
            if blocks.shape != (length - int(d), n0, n0):
                raise ValidationError(
                    f"hopping band at distance {d} must have shape "
                    f"({length - int(d)}, {n0}, {n0}), got {blocks.shape}"
                )
            bands[int(d)] = blocks
        if onsite is None:
            on = np.zeros((length, n0, n0), dtype=np.complex128)
        else:
            on = _numbers(onsite, "on-site blocks", np.complex128, copy=True)
            if on.shape != (length, n0, n0):
                raise ValidationError(
                    f"on-site blocks must have shape ({length}, {n0}, {n0}), got {on.shape}"
                )
        return cls._owning(length, n0, bands, on, label)

    @classmethod
    def _owning(cls, length: int, n0: int, bands: dict, onsite: np.ndarray, label: str):
        """The model that owns ``bands`` and ``onsite``: new C-ordered complex
        arrays of the model's shapes (:meth:`from_arrays`'s copies, the
        parser's arrays), validated by :meth:`_store` and not copied again."""
        spec = cls.__new__(cls)
        spec._store(length, n0, label, onsite, bands)
        return spec

    def _store(self, length, n0, label, onsite, bands):
        """Validate the band arrays with whole-array operations and freeze them."""
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "label", str(label))

        for d, blocks in bands.items():
            bad = _first_nonfinite(blocks)
            if bad is not None:
                raise ValidationError(
                    f"hopping block ({bad + 1}, {bad + 1 + d}) contains non-finite entries"
                )
        bad = _first_nonfinite(onsite)
        if bad is not None:
            raise ValidationError(f"on-site block at x={bad + 1} contains non-finite entries")
        onsite, first, dist = hermitian_part(onsite, *bands.values())
        if first is not None:
            raise NonHermitianError(
                f"on-site block at x={first + 1} deviates from its Hermitian part by {dist:.3e}"
            )
        onsite.flags.writeable = False
        for blocks in bands.values():
            blocks.flags.writeable = False
        object.__setattr__(self, "_onsite", onsite)
        object.__setattr__(self, "_bands", {d: bands[d] for d in sorted(bands) if bands[d].any()})

    def __reduce__(self):
        return ModelSpec.from_arrays, (self.length, self.n0, self._bands, self._onsite, self.label)

    def __setattr__(self, name, value):
        raise AttributeError("ModelSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError("ModelSpec is immutable")

    @property
    def dim(self) -> int:
        """Dimension of the one-particle Hilbert space, L * N0."""
        return self.length * self.n0

    @property
    def hopping_bands(self):
        """Read-only mapping d -> read-only ``(L - d, N0, N0)`` block array,
        ascending d.

        Only distances with at least one nonzero block appear.  Row
        ``x - 1`` is the block of the pair ``(x, x + d)``; a zero row is a
        pair without hopping.
        """
        return MappingProxyType(self._bands)

    @cached_property
    def offdiag(self):
        """Read-only mapping (x, x') -> nonzero hopping block, x < x', sorted
        by pair."""
        pairs = sorted((int(x), d) for d, blocks in self._bands.items() for x in _nonzero(blocks))
        return MappingProxyType({(x + 1, x + 1 + d): self._bands[d][x] for x, d in pairs})

    @cached_property
    def onsite(self):
        """Read-only mapping x -> nonzero on-site block, sorted by site."""
        return MappingProxyType({int(x) + 1: self._onsite[x] for x in _nonzero(self._onsite)})

    @cached_property
    def _operator(self) -> BandedHermitian:
        return _band_operator(self)

    @cached_property
    def _hopping_norms(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        return _block_norms(self)

    def __repr__(self):
        hoppings = sum(_nonzero(blocks).size for blocks in self._bands.values())
        return (
            f"ModelSpec(length={self.length}, n0={self.n0}, "
            f"hoppings={hoppings}, onsites={_nonzero(self._onsite).size}, "
            f"label={self.label!r})"
        )


def assemble(spec: ModelSpec) -> BandedHermitian:
    """The one-particle matrix of a model as a banded Hermitian operator.

    Only the lower band is formed, ``band[k, j] = H[j + k, j]``, in
    O(L * N0 * bandwidth) time and memory: on-site blocks contribute
    their lower triangles, a stored hopping block ``h`` of the pair
    ``(x, x + d)`` contributes ``h^dagger`` at block row ``x + d``.  The
    matrix it stands for holds each stored block at (x, x') and its
    conjugate transpose at (x', x); no dense form of it is ever built.

    The operator is a cached property of the (immutable) model: every
    call with the same ``spec`` returns the same object, so the band and
    its spectral scale are computed once per model.  The operator holds no
    reference back to the model.
    """
    return spec._operator


def _band_operator(spec: ModelSpec) -> BandedHermitian:
    n0, length = spec.n0, spec.length
    dmax = max(spec.hopping_bands, default=0)
    # cells[N0 - 1 + r, x, c] = band[r, x * N0 + c] = H[x * N0 + c + r, x * N0 + c]:
    # entry (a, c) of block row x + d, block column x sits at r = d * N0 + a - c.
    # The N0 - 1 leading rows take the on-site blocks' upper triangles (a < c).
    cells = np.zeros(((dmax + 2) * n0 - 1, length, n0), dtype=np.complex128)
    # blocks[d, x, a, c] = cells[N0 - 1 + d * N0 + a - c, x, c]: entry (a, c) of
    # the block at block row x + d, block column x
    item, row = cells.itemsize, length * n0 * cells.itemsize
    blocks = np.ndarray((dmax + 1, length, n0, n0), cells.dtype, buffer=cells,
                        offset=(n0 - 1) * row, strides=(n0 * row, n0 * item, row, item - row))
    blocks[0] = spec._onsite
    for d, stack in spec.hopping_bands.items():
        # a stored block h of the pair (x, x + d) enters block row x + d as hᴴ
        np.conjugate(stack.transpose(0, 2, 1), out=blocks[d, : length - d])
    return BandedHermitian(cells[n0 - 1 :].reshape(-1, spec.dim))


def hopping_norms(spec: ModelSpec) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """``(d, x, norms)`` per hopping distance: the first sites ``x`` of the
    pairs ``(x, x + d)`` with a nonzero block and the spectral norms of
    those blocks.

    Memoised on the model like :func:`assemble`; the arrays are read-only.
    """
    return spec._hopping_norms


def _block_norms(spec: ModelSpec) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    out = []
    for d, blocks in spec.hopping_bands.items():
        x0, norms = _norms(blocks, d)
        xs = x0 + 1
        xs.flags.writeable = False
        norms.flags.writeable = False
        out.append((d, xs, norms))
    return tuple(out)


def fit_envelope(spec: ModelSpec, mu: float) -> HoppingEnvelope:
    """Tightest exponential envelope at decay rate mu.

    Returns ``HoppingEnvelope(cv, mu)`` with
    ``cv`` the largest, over pairs (x, x'), of the spectral norm of the block
    of the pair (x, x') times ``exp(mu * |x - x'|)``,
    so the envelope holds with equality at the extremal pair.  A ``cv`` that
    overflows, in ``exp(mu * d)`` or in the product, is refused.
    """
    _real(mu, "decay rate mu", "> 0")
    if not spec.hopping_bands:
        raise ValidationError("cannot fit an envelope: model has no hopping blocks")
    try:
        cv = max(float(np.max(norms)) * math.exp(mu * d) for d, _, norms in hopping_norms(spec))
    except OverflowError:
        cv = math.inf
    if not math.isfinite(cv):
        raise ValidationError(
            f"decay rate mu={mu:g} is too large: block norm * exp(mu * d) overflows"
        )
    return HoppingEnvelope(cv=cv, mu=mu)


def check_nearest_neighbor(spec: ModelSpec) -> NNBound:
    """The model's nearest-neighbor bound, checked by :func:`require_envelope`.

    ``v0`` is the largest block norm at distance 1 (0.0 without one), so
    any nonzero block at distance >= 2, however small, raises
    :class:`EnvelopeViolation`.  Near-zero long-range hopping must go
    through the exponential-envelope route instead.
    """
    v0 = max((float(n.max()) for d, _, n in hopping_norms(spec) if d == 1), default=0.0)
    bound = NNBound(v0)
    require_envelope(spec, bound)
    return bound


def envelope_violations(
    spec: ModelSpec, envelope: HoppingEnvelope | NNBound
) -> list[tuple[int, int, float, float]]:
    """Pairs whose block norm exceeds the declared bound.

    One rule for either declaration, a :class:`HoppingEnvelope` or an
    :class:`NNBound`: the block of every pair ``(x, x + d)`` must have norm
    at most ``envelope.value(d) * (1 + ENVELOPE_RTOL)``.  Returns a list of
    (x, x', norm, allowed) tuples, empty when the bound dominates every block.
    """
    bad = []
    for d, xs, norms in hopping_norms(spec):
        allowed = envelope.value(d)
        over = (norms > allowed * (1.0 + ENVELOPE_RTOL)).nonzero()[0]
        bad += [(int(xs[i]), int(xs[i]) + d, float(norms[i]), allowed) for i in over]
    return sorted(bad)


def require_envelope(spec: ModelSpec, envelope: HoppingEnvelope | NNBound):
    """Raise :class:`EnvelopeViolation` unless the declared bound dominates
    the model by the rule of :func:`envelope_violations`."""
    bad = envelope_violations(spec, envelope)
    if bad:
        x, xp, norm, allowed = bad[0]
        raise EnvelopeViolation(
            f"declared {envelope} does not dominate the model: "
            f"block ({x},{xp}) has norm {norm:.6g} > {allowed:.6g}"
            + (f" ({len(bad)} violating pairs)" if len(bad) > 1 else "")
        )


def _check_impurity_length(length) -> None:
    """Refuse a chain length :func:`impurity_model` cannot build: it must be an even integer >= 2."""
    if not _is_integer(length) or length < 2:
        raise ValidationError(f"length must be an integer >= 2, got {length!r}")
    if length % 2 != 0:
        raise ValidationError(f"length must be even, got {length}")


def impurity_model(length: int, h0: float) -> ModelSpec:
    """Open chain with unit nearest-neighbor hopping and one diagonal defect.

    ``length`` must be even; the chain has ``length + 1`` supersites
    (N0 = 1) so the defect ``h0``, a finite real number, sits exactly at
    the center site ``length // 2 + 1``.
    """
    _check_impurity_length(length)
    sites = int(length) + 1
    center = int(length) // 2  # 0-based row of the site length // 2 + 1
    onsite = np.zeros((sites, 1, 1))
    onsite[center] = _real(h0, "h0")
    return ModelSpec.from_arrays(
        sites, 1, {1: np.ones((sites - 1, 1, 1))}, onsite,
        label=f"impurity chain (L={length}, h0={h0})",
    )


def strip_model(
    length: int, width: int, t_along: float = 1.0, t_across: float = 1.0
) -> ModelSpec:
    """Flatten a width x length rectangular strip into a chain of supersites.

    Each column of the strip becomes one supersite with N0 = width
    internal states; hopping along the strip couples identical rows of
    adjacent columns, hopping across the strip lives in the on-site
    blocks.  ``t_along`` and ``t_across`` are finite real numbers.
    """
    length, width = _check_dims(length, width)
    t_along, t_across = _real(t_along, "t_along"), _real(t_across, "t_across")
    across = np.zeros((width, width))
    for i in range(width - 1):
        across[i, i + 1] = across[i + 1, i] = t_across
    hopping = {1: np.broadcast_to(t_along * np.eye(width), (length - 1, width, width))}
    onsite = np.broadcast_to(across, (length, width, width)) if width > 1 else None
    return ModelSpec.from_arrays(
        length,
        width,
        hopping if length > 1 else None,
        onsite,
        label=f"strip {width}x{length}",
    )

"""Deterministic fuzzing of the certified-inequality suite.

Every trial draws a random model from one of two families:

* ``"envelope-constrained"``: hopping blocks scaled so their spectral
  norms respect a randomly drawn exponential envelope,
* ``"nearest-neighbor"``: hopping restricted to distance 1 with norms
  below a random uniform bound,

plus random Hermitian on-site blocks.  The model's one declaration is
checked against it by the one rule of
:func:`~gapbound.lattice.require_envelope` before the model is solved;
the trial then asserts the full invariant suite: the complementary
inequality and the agreement of its two ``<H_OD>`` routes, the gap-based
variance bound, the power-law tail bound, tail monotonicity,
weight-gauge invariance, the exponential tail envelopes (theorem 2 for a
nearest-neighbour declaration), and the trapezoid coupling diagnostic.
The tail checks read every breakpoint of the tail, so they are exact over
all radii.  Every check reads one :class:`GroundState` record per model
and returns its report; the trial words each failed report as a problem,
and :func:`run_fuzz` returns the first failing trial in its
:class:`FuzzReport` rather than raising.

Randomness is reproducible by construction: trial ``i`` of seed ``s``
uses an independent PCG64 substream keyed by ``SeedSequence((s, i))``,
so the trial sequence never depends on how many trials ran before.
Identical configurations produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (
    COMPLEMENTARY_RTOL,
    ENVELOPE_TOL,
    THEOREM1,
    GroundState,
    WeightFunction,
    chebyshev_tail_bound,
    theorem1_bound,
    theorem2_bound,
    trapezoid_g,
    variance_upper_bound,
)
# unused here but kept: the benchmark tracer wraps gapbound.fuzz.density,
# .position_stats, .tail, .verify_envelope, .g_expectations, .verify_appendixB
# and .check_nearest_neighbor
from .bounds import g_expectations, verify_appendixB, verify_envelope  # noqa: F401
from .eigensolver import lowest_two
from .errors import DegenerateGroundState, ValidationError
from .lattice import (
    HoppingEnvelope,
    ModelSpec,
    NNBound,
    _is_integer,
    assemble,
    check_nearest_neighbor,  # noqa: F401
    fit_envelope,
    require_envelope,
)
from .localization import density, position_stats, tail  # noqa: F401

ENVELOPE_FAMILY = "envelope-constrained"
NN_FAMILY = "nearest-neighbor"
FAMILIES = (ENVELOPE_FAMILY, NN_FAMILY)
# absolute slack of the variance check, for a bound near 0; its relative
# slack is COMPLEMENTARY_RTOL, since the variance bound is the complementary
# inequality at g = x
VARIANCE_ATOL = 1e-12


@dataclass(frozen=True)
class FuzzConfig:
    """Reproducible fuzz run: identical seed, identical trial sequence."""

    seed: int = 42
    trials: int = 500
    size_range: tuple[int, int] = (4, 40)
    n0_range: tuple[int, int] = (1, 3)
    family: str = ENVELOPE_FAMILY

    def __post_init__(self):
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not _is_integer(self.trials) or self.trials < 1:
            raise ValidationError(f"trials must be an integer >= 1, got {self.trials!r}")
        for what, value, least in (
            ("size range", self.size_range, 2), ("internal-dimension range", self.n0_range, 1)
        ):
            if not (
                isinstance(value, tuple)
                and len(value) == 2
                and all(_is_integer(v) for v in value)
            ):
                raise ValidationError(f"{what} must be a pair of integers, got {value!r}")
            if not least <= value[0] <= value[1]:
                raise ValidationError(f"bad {what} {value}")
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown family {self.family!r}; choose one of {FAMILIES}"
            )


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one trial, keyed by (seed, index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _scaled_blocks(draws: list, targets: list) -> np.ndarray:
    """Complex blocks from ``(2, N0, N0)`` real/imaginary draws, each scaled
    to its target spectral norm (an all-zero draw becomes the identity)."""
    draws = np.array(draws)
    blocks = draws[:, 0] + 1j * draws[:, 1]
    tops = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    zero = tops == 0.0
    blocks[zero] = np.eye(blocks.shape[1])
    tops[zero] = 1.0
    return blocks * (np.array(targets) / tops)[:, None, None]


def random_model(
    rng: np.random.Generator,
    size_range: tuple[int, int] = FuzzConfig.size_range,
    n0_range: tuple[int, int] = FuzzConfig.n0_range,
    family: str = FuzzConfig.family,
):
    """Draw one random model; returns ``(spec, declared)``, its hopping bound.

    Block norms are drawn below ``declared.value(d)``, read once per
    distance.  Each hopping block is drawn as one ``(2, N0, N0)`` normal
    sample (real and imaginary parts) in pair order; the spectral norms are
    taken and the blocks scaled in one batch afterwards, and scattered into
    the model's block bands.
    """
    length = int(rng.integers(size_range[0], size_range[1] + 1))
    n0 = int(rng.integers(n0_range[0], n0_range[1] + 1))
    if length < 2:
        raise ValidationError(f"a random model needs at least 2 sites, got {length}")
    if family == ENVELOPE_FAMILY:
        declared = HoppingEnvelope(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.4, 1.5)))
        nearest, max_d = 0.9, min(length - 1, 5)
    elif family == NN_FAMILY:
        declared = NNBound(v0=float(rng.uniform(0.5, 2.0)))
        nearest, max_d = 0.95, 1
    else:
        raise ValidationError(f"unknown family {family!r}")
    amplitudes = [declared.value(d) for d in range(1, max_d + 1)]
    dists, rows, draws, targets = [], [], [], []
    for x in range(1, length):
        for d in range(1, max_d + 1):
            if x + d > length:
                break
            if rng.random() < (nearest if d == 1 else 0.4):
                targets.append(float(rng.uniform(0.1, 1.0)) * amplitudes[d - 1])
                dists.append(d)
                rows.append(x - 1)
                draws.append(rng.normal(size=(2, n0, n0)))
    if not draws:
        targets.append(0.5 * amplitudes[0])
        dists.append(1)
        rows.append(0)
        draws.append(rng.normal(size=(2, n0, n0)))
    blocks = _scaled_blocks(draws, targets)
    dists, rows = np.array(dists), np.array(rows)
    bands = {}
    for d in range(1, max_d + 1):
        bands[d] = np.zeros((length - d, n0, n0), dtype=np.complex128)
        bands[d][rows[dists == d]] = blocks[dists == d]

    sites, site_draws, scales = [], [], []
    for x in range(length):
        if rng.random() < 0.7:
            sites.append(x)
            site_draws.append(rng.normal(size=(2, n0, n0)))
            scales.append(float(rng.uniform(0.0, 2.0)))
    onsite = np.zeros((length, n0, n0), dtype=np.complex128)
    if site_draws:
        a = np.array(site_draws)
        a = a[:, 0] + 1j * a[:, 1]
        onsite[sites] = (np.array(scales) * 0.5)[:, None, None] * (a + a.conj().transpose(0, 2, 1))
    return ModelSpec.from_arrays(length, n0, bands, onsite), declared


def _random_weight(rng: np.random.Generator, length: int) -> WeightFunction:
    kind = int(rng.integers(0, 4))
    if kind == 0:
        g = rng.normal(size=length) * float(rng.uniform(0.5, 3.0))
    elif kind == 1:
        g = np.cumsum(rng.normal(size=length))
    elif kind == 2:
        g = float(rng.uniform(-2, 2)) * np.arange(1, length + 1) + float(rng.uniform(-5, 5))
    else:
        g = np.full(length, float(rng.uniform(-3, 3)))
    return WeightFunction(g)


def _trial_problems(spec, declared, rng) -> list[str] | None:
    """Run all checks on one model; None means skipped (degenerate gap)."""
    try:
        res = lowest_two(assemble(spec))
    except DegenerateGroundState:
        return None
    # one record per ground state: every check below reads its density,
    # statistics, tail steps and pair products instead of recomputing them
    state = GroundState.of(res.psi0, spec)
    stats = state.stats
    problems: list[str] = []

    g = _random_weight(rng, spec.length)
    rep = state.complementary(g, res.gap)
    if not rep.ok:
        problems.append(
            f"complementary check failed (slack={rep.slack:.3e}, "
            f"H_OD routes disagree by {rep.agreement:.3e})"
        )
    tol = rep.tolerance

    shifted = state.complementary(WeightFunction(g.g + 7.5), res.gap)
    if abs(shifted.var_g - rep.var_g) > tol or abs(
        shifted.hod_explicit - rep.hod_explicit
    ) > tol:
        problems.append("weight shift g -> g + c changed var(G) or <H_OD>")
    lam = 2.0
    scaled = state.complementary(WeightFunction(lam * g.g), res.gap)
    if abs(scaled.var_g - lam**2 * rep.var_g) > lam**2 * tol or abs(
        scaled.hod_explicit - lam**2 * rep.hod_explicit
    ) > lam**2 * tol:
        problems.append("weight scaling g -> lam*g did not scale by lam^2")

    vb = variance_upper_bound(declared, spec.length, res.gap)
    if stats.variance > vb * (1.0 + COMPLEMENTARY_RTOL) + VARIANCE_ATOL:
        problems.append(f"variance bound violated ({stats.variance:.6g} > {vb:.6g})")
    # the tail is a step function, constant on (d_k, d_{k+1}], and the power
    # law decreases in R: its values at the positive breakpoints are all of it
    radii, tails = state.steps
    r = radii[radii > 0]
    power_law = chebyshev_tail_bound(declared, spec.length, res.gap, r)
    over = r[tails[radii > 0] > power_law + ENVELOPE_TOL]
    if over.size:
        problems.append(f"power-law tail bound violated at R={over[0]:.3g}")
    # tail_steps sums clamped (>= 0) densities by one left-to-right cumsum,
    # so the tails never increase, in floating point too
    if np.any(np.diff(tails) > 0):
        problems.append("tail distribution is not monotone nonincreasing")

    # theorem 1 and Appendix B take an exponential envelope, fitted to an NN model
    fitted = declared if isinstance(declared, HoppingEnvelope) else fit_envelope(spec, mu=1.0)
    b1 = theorem1_bound(fitted, res.gap, 0.5, stats.delta_x)
    if not state.check(b1).ok:
        problems.append("theorem1 envelope violated")
    if isinstance(declared, NNBound):
        b2 = theorem2_bound(declared.v0, res.gap, 0.5, stats.delta_x)
        if not state.check(b2).ok:
            problems.append("theorem2 envelope violated")

    r_inner = float(rng.uniform(0.0, spec.length / 4.0))
    delta_r = float(rng.uniform(3.2, max(4.2, spec.length / 3.0)))
    gtrap = trapezoid_g(spec.length, stats.mean, r_inner, delta_r, THEOREM1)
    coupling = state.appendixB(fitted, gtrap, (r_inner, delta_r, stats.mean))
    if not coupling.ok:
        problems.append(
            "trapezoid coupling bound failed: "
            f"|<H_OD>|={coupling.hod_abs:.6g}, direct={coupling.bound_direct:.6g}, "
            f"piecewise={coupling.bound_piecewise:.6g}, "
            f"pointwise margin={coupling.pointwise_margin:.3e}"
        )
    return problems


@dataclass(frozen=True)
class FuzzReport:
    """The outcome of one fuzz run; ``failures`` is its verdict.

    ``failures`` holds ``(trial index, problems)`` of the failing trial,
    or is empty when no trial failed; ``passed`` and
    ``skipped_degenerate`` count the other trials that ran.  A run stopped
    by a failure ran fewer trials than configured, and :meth:`format`
    prints ``trials:  <ran> of <configured>``.
    """

    config: FuzzConfig
    passed: int
    skipped_degenerate: int
    failures: tuple[tuple[int, str], ...]

    @property
    def first_failure(self) -> tuple[int, str] | None:
        return self.failures[0] if self.failures else None

    def format(self) -> str:
        c = self.config
        ran = self.passed + self.skipped_degenerate + len(self.failures)
        trials = c.trials if ran == c.trials else f"{ran} of {c.trials}"
        lines = [
            "fuzz report",
            f"seed:    {c.seed}",
            f"family:  {c.family}",
            f"sizes:   L in {list(c.size_range)}, N0 in {list(c.n0_range)}",
            f"trials:  {trials} (passed {self.passed}, "
            f"skipped {self.skipped_degenerate} degenerate, "
            f"failed {len(self.failures)})",
        ]
        if self.failures:
            i, msg = self.failures[0]
            lines.append(f"status:  FAIL at trial {i}: {msg}")
            lines.append(f"reproduce: FuzzConfig(seed={c.seed}, trials={i + 1}, "
                         f"size_range={c.size_range}, n0_range={c.n0_range}, "
                         f"family={c.family!r}), trial index {i}")
        else:
            lines.append("status:  OK")
        return "\n".join(lines) + "\n"


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the fuzz schedule and return its report.

    The run stops at the first trial with a failed check and returns a
    report whose ``failures`` names that trial and its problems; no later
    trial runs.  A failed check is reported, not raised.

    Each model's declared envelope or nearest-neighbor bound is validated
    before any theorem check, both by the one rule of
    :func:`~gapbound.lattice.require_envelope` (every block norm within
    ``value(d) * (1 + ENVELOPE_RTOL)``, so a nearest-neighbor declaration
    refuses any block at distance >= 2): a declaration that does not
    dominate the model's own blocks is rejected with
    :class:`EnvelopeViolation` rather than reported as a theorem failure.
    """
    passed = 0
    skipped = 0
    failures = ()
    for i in range(config.trials):
        rng = trial_rng(config.seed, i)
        spec, declared = random_model(rng, config.size_range, config.n0_range, config.family)
        require_envelope(spec, declared)
        problems = _trial_problems(spec, declared, rng)
        if problems is None:
            skipped += 1
        elif problems:
            failures = ((i, "; ".join(problems)),)
            break
        else:
            passed += 1
    return FuzzReport(config, passed, skipped, failures)

"""Spectral gaps and exponential localization bounds on one-particle lattices.

The package assembles general one-particle lattice Hamiltonians, computes
the two lowest eigenpairs with certified residuals, extracts the
ground-state density statistics, and evaluates/verifies a family of
rigorous localization bounds: a gap-based complementary inequality, a
power-law tail bound, and two exponential tail envelopes whose decay
lengths scale as the inverse square root of the spectral gap.
"""

from .bounds import (
    AppendixBReport,
    ComplementaryReport,
    EnvelopeCheck,
    GroundState,
    TailEnvelope,
    WeightFunction,
    best_s,
    c1_constant,
    chebyshev_tail_bound,
    g_expectations,
    position_weight,
    site_coupling_profile,
    theorem1_bound,
    theorem2_bound,
    trapezoid_g,
    variance_upper_bound,
    verify_appendixB,
    verify_envelope,
    write_bound_csv,
    write_envelope_csv,
)
from .eigensolver import (
    BandedHermitian,
    SpectrumResult,
    lowest_two,
    spectral_scale,
    write_spectrum,
)
from .errors import (
    DegenerateGroundState,
    EnvelopeViolation,
    GapboundError,
    ModelFormatError,
    NonHermitianError,
    ValidationError,
)
from .fuzz import FuzzConfig, FuzzReport, random_model, run_fuzz, trial_rng
from .lattice import (
    HoppingEnvelope,
    ModelSpec,
    NNBound,
    assemble,
    check_nearest_neighbor,
    envelope_violations,
    fit_envelope,
    impurity_model,
    require_envelope,
    strip_model,
)
from .localization import (
    DecayFit,
    DensityProfile,
    PositionStats,
    density,
    fit_localization_length,
    position_stats,
    tail,
    write_fit_csv,
    write_profile_csv,
)
from .modelfile import dump_model, format_model, load_model, parse_model
from .svgplot import emit_plot, format_plot
from .sweep import (
    SweepConfig,
    SweepRow,
    default_h0_grid,
    read_sweep_csv,
    run_sweep,
    sweep_point,
    write_sweep_csv,
)

__version__ = "0.1.0"

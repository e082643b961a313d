"""Exception hierarchy.

Input errors raise; a failed check or an unavailable fit is data.

* ``ValidationError`` and subclasses: the *input* is outside the tool's
  domain (malformed file, index out of range, a hopping bound that does
  not dominate the hopping, non-Hermitian matrix, ...).  CLI exit code 1.
* A guaranteed check that fails raises nothing: every check returns its
  report (``EnvelopeCheck``, ``ComplementaryReport``,
  ``AppendixBReport``, ``FuzzReport``), whose ``ok`` or ``failures`` is
  the verdict.  CLI exit code 2 comes from a failed report, never from
  an exception.
* A decay fit with nothing to fit raises nothing either: the
  ``DecayFit`` it returns is not ``ok`` and its ``reason`` says why.

Every other ``GapboundError`` (a degenerate ground state, a solver
failure, a position spread ``deltaX`` unresolved within its error bound)
is not an input error; the CLI exits 1 on one that reaches it.
"""

from __future__ import annotations


class GapboundError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GapboundError, ValueError):
    """Invalid input: bad parameters, malformed models, broken preconditions."""


class ModelFormatError(ValidationError):
    """Parse error in a model file; carries the offending line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class NonHermitianError(ValidationError):
    """A matrix or block that must be Hermitian is not (beyond tolerance)."""


class EnvelopeViolation(ValidationError):
    """A hopping bound fails to dominate the actual block norms.

    The bound is an exponential envelope or a nearest-neighbor bound; the
    latter is broken by any nonzero block at distance >= 2.
    """


class DegenerateGroundState(GapboundError):
    """The two lowest eigenvalues coincide within tolerance; we refuse to pick."""

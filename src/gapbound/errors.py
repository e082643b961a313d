"""Exception hierarchy.

Two outcomes matter to callers (and to the CLI exit code):

* ``ValidationError`` and subclasses: the *input* is outside the tool's
  domain (malformed file, index out of range, envelope that does not
  dominate the hopping, non-Hermitian matrix, ...).  CLI exit code 1.
* ``InvariantViolation``: a quantity that is mathematically guaranteed
  failed its numerical check.  This is the serious one.  CLI exit code 2.

Every other ``GapboundError`` (a degenerate ground state, too few points
for a fit, a decay fit that does not decay) is not an input error; the
CLI exits 1 on one that reaches it.
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


class LongRangeHopping(ValidationError):
    """Hopping beyond nearest neighbors where exact zeros are required."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        shown = ", ".join(f"({x},{xp})" for x, xp in self.pairs[:8])
        more = "" if len(self.pairs) <= 8 else f" and {len(self.pairs) - 8} more"
        super().__init__(f"nonzero hopping at distance >= 2 for pairs {shown}{more}")


class EnvelopeViolation(ValidationError):
    """A declared hopping envelope fails to dominate the actual block norms."""


class DegenerateGroundState(GapboundError):
    """The two lowest eigenvalues coincide within tolerance; we refuse to pick."""


class InsufficientData(GapboundError):
    """Too few usable points for a fit."""


class NonDecaying(GapboundError):
    """A decay fit produced a non-negative slope."""


class InvariantViolation(GapboundError):
    """A numerically certified inequality or cross-check failed."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)

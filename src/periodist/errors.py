"""Exception types shared across the package.

The split matters for the command line front end: input problems exit
with status 1, while mathematically meaningful failures (a violated
witness, a residual above tolerance) exit with status 2.
"""

from __future__ import annotations


class PeriodistError(Exception):
    """Base class for all package-specific errors."""


class InputError(PeriodistError):
    """Malformed or inconsistent user input (bad JSON, bad shapes, bad params)."""


class DimensionMismatch(InputError):
    """A lattice index or sequence was used with the wrong dimension."""


class CertificateError(PeriodistError):
    """A claimed growth certificate failed its window check."""


class WitnessViolation(PeriodistError):
    """A reciprocal was evaluated at a point where its witness fails (zero value).

    Carries the offending lattice index so reports can name it.
    """

    def __init__(self, index: tuple[int, ...]):
        self.index = index
        super().__init__(f"inverse witness violated at lattice index {index}")


class MathFailure(PeriodistError):
    """A mathematically meaningful check failed (used by the CLI for exit code 2)."""

"""Typed errors shared across the package.

The CLI maps these onto its exit-code contract: invalid input exits with
code 2, genericity/sampling failures with code 3.
"""

from __future__ import annotations


class QuiverDTError(Exception):
    """Base class for all package errors."""


class InvalidInput(QuiverDTError):
    """Malformed file, vector of wrong length, out-of-range argument."""


class NotOnWall(InvalidInput):
    """Stability parameter does not annihilate the total dimension vector."""


class GenericityError(QuiverDTError):
    """Base class for genericity and sampling failures (CLI exit code 3)."""


class NotGenericAlpha(GenericityError):
    """The pulled-back stability point fails the finite genericity test."""


class NotGenericTheta(GenericityError):
    """theta(gamma') = 0 for some admissible non-collinear gamma'."""


class SamplingTimeout(GenericityError):
    """Rejection sampling exhausted its resample budget."""


class ZeroSignArgument(GenericityError):
    """A sign argument of epsilon vanished: the form is not generic enough."""


class NotPolynomial(QuiverDTError):
    """Multicover inversion left a nontrivial denominator."""


class DegreeExceeded(InvalidInput):
    """Requested class lies beyond the diagram's degree bound."""


class ConsistencyFailure(QuiverDTError):
    """A scattering consistency check failed; carries the failure locus."""

    def __init__(self, message: str, joint=None):
        super().__init__(message)
        self.joint = joint

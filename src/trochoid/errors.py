"""Exception types shared across the package."""

from __future__ import annotations

from math import isfinite


class TrochoidError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(TrochoidError):
    """A generator or law was given parameters that violate its contract."""


def require_finite(**values: float) -> None:
    """Raise InvalidSpecError naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not isfinite(value):
            raise InvalidSpecError(f"{name} must be finite, got {value}")


class GenerationError(TrochoidError):
    """A random construction could not be completed within its retry budget."""


class ContinuationError(TrochoidError):
    """The boundary continuation stalled or left its branch.

    Raised when a solve fails and also when a finished sweep's curve does
    not wind once about the origin; carries the last angle that solved.
    """

    def __init__(self, message: str, last_good_phi: float):
        super().__init__(message)
        self.last_good_phi = last_good_phi


class EigensolverError(TrochoidError):
    """The dense eigensolver failed to converge."""


class CalibrationError(TrochoidError):
    """A requested correlation strength is outside the achievable range."""

    def __init__(self, message: str, achievable: tuple[float, float]):
        super().__init__(message)
        self.achievable = achievable


class ConfigError(TrochoidError):
    """A CLI/config input failed validation (exit code 2)."""

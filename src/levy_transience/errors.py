"""Exception types shared across the package, and the shared input checks."""

import math


class LevyTransienceError(Exception):
    """Base class for all package errors."""


class ConfigurationError(LevyTransienceError):
    """Invalid model or run configuration (bad grid, bad parameters, bad file)."""


class ModelInvariantError(LevyTransienceError):
    """A structural model invariant is violated (e.g. alpha outside (0,2))."""


class DegenerateModelError(LevyTransienceError):
    """The symbol vanishes identically or on a set where the tests need it positive."""


class QuadratureError(LevyTransienceError):
    """A quadrature failed to meet its tolerance; carries the partial value."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DivergentIntegralError(QuadratureError):
    """An integral required to be finite was detected as divergent."""


class LevyMeasureError(LevyTransienceError):
    """The jump measure violates a Levy-measure integrability condition."""


class NotApplicableError(LevyTransienceError):
    """A test's hypotheses are not met; carries an optional witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def check_kappa(kappa):
    """Raise ConfigurationError unless the moment order kappa is finite and
    >= 0 (a nan compares false with everything, so `kappa < 0` lets it by)."""
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ConfigurationError(f"kappa must be finite and >= 0, got {kappa}")


def check_positive(name, value):
    """Raise ConfigurationError unless value is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(
            f"{name} must be finite and positive, got {value}")

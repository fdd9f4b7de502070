"""Exception types shared across the package."""


class PlasmonicsError(Exception):
    """Base class for all package errors."""


class DomainError(PlasmonicsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def non_finite_artifact(name: str) -> DomainError:
    """The refusal of an artifact that would hold a NaN or an infinity."""
    return DomainError(f"{name}: a computed value is not finite; the artifact is not written")


class GradedOverflowError(PlasmonicsError, OverflowError):
    """A special-function value exceeds double-precision range for the
    requested order/argument combination."""


class DegenerateContrastError(DomainError):
    """Material parameters make a contrast undefined (e.g. eps_c == eps_m)."""


class DegeneracyError(PlasmonicsError):
    """A perturbation denominator is (near-)zero, so the expansion is refused."""

    def __init__(self, message, combination=None):
        super().__init__(message)
        self.combination = combination


class PoleError(DomainError):
    """Evaluation requested exactly at a pole of a resonant quantity."""


class AccuracyError(PlasmonicsError):
    """A self-certifying numerical procedure failed its convergence check."""


class ResonantCompositeError(PlasmonicsError):
    """The effective-medium formula is singular at the requested parameters."""


class ConfigError(PlasmonicsError):
    """A run configuration could not be parsed or is incomplete."""

"""Exception types shared across the package."""


class TailentError(Exception):
    """Base class for all package-specific failures."""


class DomainError(TailentError):
    """Argument outside the map's domain [0,1]."""


class UnsupportedOrderError(TailentError):
    """Derivative order beyond the map's capability."""


class PrecisionError(TailentError):
    """Root isolation, refinement or power iteration could not reach the
    requested tolerance."""


class ResourceError(TailentError):
    """A configured size/iteration cap was exceeded."""


class ResolutionError(TailentError):
    """Grid too coarse for the requested scale."""


class ScaleError(TailentError):
    """Scale parameter outside the valid range for the bound."""


class NotC1Error(TailentError):
    """Operation requires a continuous first derivative."""


class DegenerateShiftError(TailentError):
    """Subshift with empty language or nilpotent transition matrix."""


class HypothesisUnmetError(TailentError):
    """A stated hypothesis of the construction fails for the given input."""


class DegenerateWeightError(TailentError):
    """Weight sequence not certifiably superexponential up to the search cap."""


class ConfigError(TailentError):
    """Invalid experiment configuration."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field

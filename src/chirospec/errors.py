"""Exception types shared across the package."""


class ChirospecError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteResult(ChirospecError):
    """A numerical result came out NaN or infinite."""


class ConfigError(ChirospecError):
    """Base class for configuration problems (CLI exit code 2)."""


class ParseError(ConfigError):
    """Configuration document is not well formed."""


class ValidationError(ConfigError, ValueError):
    """An input value violates an invariant.

    Every rejected parameter raises this, whether it came from a config
    document or a library call: the CLI reports it as a config error
    (exit 2), and library callers may catch it as a ``ValueError``.
    """


class GridTooCoarse(ValidationError):
    """Frequency grid cannot resolve the narrowest spectral feature."""


class CurveTooShort(ValidationError):
    """Spectrum curve has too few points to classify."""


class NonHermitianInput(ValidationError):
    """A matrix expected to be Hermitian is not (beyond tolerance)."""

"""Exception types shared across the package."""


class ChirospecError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteResult(ChirospecError):
    """A numerical result came out NaN or infinite (CLI exit code 4)."""


class ValidationError(ChirospecError, ValueError):
    """An input violates an invariant (CLI exit code 2).

    Every rejected input raises this, whether it came from a config
    document or a library call: the CLI reports it as a config error
    (exit 2), and library callers may catch it as a ``ValueError``.
    """

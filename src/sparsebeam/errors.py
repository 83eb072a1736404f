"""Exception types shared across the package."""

__all__ = ["DomainError", "SolverError", "ConfigError"]


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class SolverError(RuntimeError):
    """An optimization routine could not produce usable weights."""


class ConfigError(ValueError):
    """A configuration file is missing, malformed, or inconsistent."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")

"""Exception types shared across the package."""


class FracblochError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(FracblochError, ValueError):
    """A physical or structural parameter violates its contract.

    field names the one record field at fault, when a single field is.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class SingularParameterError(InvalidParameterError):
    """A parameter value makes the requested quantity diverge (e.g. u0 = 0)."""


class DimensionCapError(FracblochError, RuntimeError):
    """A requested operator dimension exceeds the configured cap, or a
    trajectory's samples x dimension exceed what the same cap allows."""

    def __init__(self, dim: int, cap: int, message: str | None = None):
        super().__init__(message or f"operator dimension {dim} exceeds the cap of {cap}")
        self.dim = dim
        self.cap = cap


class NumericError(FracblochError, RuntimeError):
    """Numerical failure (non-finite entries, eigensolver breakdown)."""


class ConfigError(FracblochError, ValueError):
    """Scenario configuration is malformed. Carries a best-effort line number."""

    def __init__(self, message: str, filename: str = "<config>", line: int = 0):
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line

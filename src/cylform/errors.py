"""Exception types raised across the package."""


class CylformError(Exception):
    """Base class for package-specific failures."""


class ConfigError(CylformError):
    """Malformed or inconsistent scenario configuration."""


class ResonantModeError(CylformError):
    """A wavenumber with rim data has a zero stencil rate: no equilibrium.

    Carries the offending wavenumber so callers can report which target
    harmonic cannot be held by rim actuation alone.
    """

    def __init__(self, mode: int, message: str | None = None):
        self.mode = mode
        super().__init__(message or f"steady profile is resonant at angular mode n={mode}")


class KernelTruncationError(CylformError):
    """The truncated gain-kernel series failed its self-consistency check."""


class InstabilityError(CylformError):
    """State magnitude exceeded the runaway guard during time stepping."""


class HistoryUnderrunError(CylformError):
    """A delay-line lookup reached past the recorded history window."""

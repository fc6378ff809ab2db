"""Exception types shared across the package."""


class DppTrackError(Exception):
    """Base class for all package-specific errors."""


class SpectrumError(DppTrackError):
    """A correlation kernel has operator spectrum outside [0, 1 - delta)."""


class NonFiniteKernel(DppTrackError, ValueError):
    """A kernel entry is NaN or infinite."""


class SizeError(DppTrackError):
    """An exact combinatorial evaluation would exceed its size bounds."""


class DegenerateGeometry(DppTrackError):
    """Two targets coincide exactly, so the repulsion direction is undefined."""


class DegenerateIntensity(DppTrackError):
    """All particle intensities are zero; the filter has lost the posterior."""


class DegenerateVariance(DppTrackError):
    """A domain variance is nonpositive, so a correlation cannot be formed."""


class ScheduleError(DppTrackError):
    """A scripted event refers to targets that do not exist at that step."""


class UnknownPreset(DppTrackError):
    """Requested experiment preset name is not defined."""


class ConfigError(DppTrackError):
    """An experiment configuration is invalid; the message names the field."""

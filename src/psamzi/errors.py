"""Exception types shared across the simulator."""

__all__ = ["ConfigError", "DarkPointSingularity", "DomainError", "NoRoot",
           "ZeroAmplitude", "ZeroSignal"]


class ConfigError(Exception):
    """Run configuration is malformed or incomplete."""


class DarkPointSingularity(ArithmeticError):
    """Postselection overlap is exactly zero, so the weak value diverges."""


class ZeroAmplitude(ArithmeticError):
    """Postselected amplitude vanishes and its phase is undefined."""


class NoRoot(ArithmeticError):
    """No bare phase in (-pi/2, pi/2) reproduces the measured value."""


class DomainError(ValueError):
    """An inverse-trig argument left its valid domain."""


class ZeroSignal(ArithmeticError):
    """Amplified phase is zero, so a relative error ratio is undefined."""

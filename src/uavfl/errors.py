"""Exception hierarchy shared by all simulator modules."""


class UavFlError(Exception):
    """Base class for all simulator errors."""


class InvariantViolation(UavFlError):
    """A value breaks a condition the simulator requires."""


class CohortInfeasible(UavFlError):
    pass


class ConfigError(UavFlError):
    """Bad or unknown experiment configuration key/value."""

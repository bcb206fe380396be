"""Exception hierarchy shared by all simulator modules."""


class UavFlError(Exception):
    """Base class for all simulator errors."""


class InvariantViolation(UavFlError):
    """A domain type was constructed with an out-of-range field."""


class CoincidentPositions(UavFlError):
    pass


class ZeroRate(UavFlError):
    pass


class EmptyCohort(UavFlError):
    pass


class InsufficientBattery(UavFlError):
    pass


class DimensionMismatch(UavFlError):
    pass


class TooFewSamples(UavFlError):
    pass


class CohortInfeasible(UavFlError):
    pass


class EmptyShard(UavFlError):
    pass


class NonFiniteGradient(UavFlError):
    pass


class LengthMismatch(UavFlError):
    pass


class EmptyUpdateSet(UavFlError):
    pass


class EmptyTestSet(UavFlError):
    pass


class ConfigError(UavFlError):
    """Bad or unknown experiment configuration key/value."""

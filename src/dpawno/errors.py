"""Exception types shared across the package."""


class DpawnoError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(DpawnoError):
    pass


class UnknownPrimitive(DpawnoError):
    pass


class NonScalarSeed(DpawnoError):
    pass


class EmptyTape(DpawnoError):
    pass


class NonFiniteValue(DpawnoError):
    """A forward computation produced NaN or Inf."""


class NonFiniteLoss(DpawnoError):
    pass


class SignalTooShort(DpawnoError):
    pass


class UnsupportedTermForBenchmark(DpawnoError):
    pass


class NonFiniteState(DpawnoError):
    """Solver state exceeded the blow-up bound (distinct from NaN in autodiff)."""


class CountExceedsFamily(DpawnoError):
    pass


class DatasetIoError(DpawnoError):
    pass


class FormatVersionMismatch(DpawnoError):
    pass


class ChecksumMismatch(DpawnoError):
    pass


class DegenerateSamples(DpawnoError):
    pass


class NotPositiveDefinite(DpawnoError):
    pass


class ScheduleExhausted(DpawnoError):
    pass


class UsageError(DpawnoError):
    pass

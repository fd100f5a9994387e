"""Exception types shared across the package.  The category an error
derives from is its exit code in `dpawno` (cli.main); the four errors at
the end derive from none: they mean the library itself was misused, so
they surface as a traceback.
"""


class DpawnoError(Exception):
    """Base class for all package-specific errors."""


class UsageError(DpawnoError):
    """Input the program cannot serve: a bad option, key or value, or a
    file made for another configuration (exit 2)."""


class NumericalFailure(DpawnoError):
    """A computation on accepted input produced no usable number (exit 3)."""


class DatasetIoError(DpawnoError):
    """A file that cannot be read or written, or is damaged (exit 4)."""


class ShapeMismatch(UsageError):
    pass


class ScheduleExhausted(UsageError):
    pass


class CountExceedsFamily(UsageError):
    pass


class SignalTooShort(UsageError):
    pass


class UnsupportedTermForBenchmark(UsageError):
    pass


class NonFiniteValue(NumericalFailure):
    """A forward computation produced NaN or Inf."""


class NonFiniteLoss(NumericalFailure):
    pass


class NonFiniteState(NumericalFailure):
    """Solver state exceeded the blow-up bound (distinct from NaN in autodiff)."""


class NotPositiveDefinite(NumericalFailure):
    pass


class ChecksumMismatch(DatasetIoError):
    pass


class FormatVersionMismatch(DatasetIoError):
    pass


class UnknownPrimitive(DpawnoError):
    pass


class NonScalarSeed(DpawnoError):
    pass


class EmptyTape(DpawnoError):
    pass


class DegenerateSamples(DpawnoError):
    pass

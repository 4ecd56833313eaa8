"""Exception hierarchy shared across the pipeline.

Every error the library raises on a contract violation derives from
DermError, so callers (and the CLI) can catch one base class and report
the condition name uniformly.
"""


class DermError(Exception):
    """Base class for all pipeline errors."""

    @property
    def condition(self) -> str:
        """Short machine-parsable name, e.g. 'ZeroNorm' for ZeroNormError."""
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name


# numeric kernel
class ZeroNormError(DermError):
    pass


class DimMismatchError(DermError):
    pass


class EmptyInputError(DermError):
    pass


class NonFiniteFunctionError(DermError):
    pass


# towers / models
class ShapeMismatchError(DermError):
    pass


class UnknownCategoricalIdError(DermError):
    pass


# objectives
class NonPositiveTauError(DermError):
    pass


class EmptyBatchError(DermError):
    pass


class UnknownTaskError(DermError):
    pass


# trainer
class EmptyWindowError(DermError):
    pass


class DivergedLossError(DermError):
    pass


class WatermarkGapError(DermError):
    pass


# lifecycle
class DayGapError(DermError):
    pass


class WeightOutOfRangeError(DermError):
    pass


class WatermarkBehindDayError(DermError):
    pass


class WindowExceedsWatermarkError(DermError):
    pass


class EmptyIntersectionError(DermError):
    pass


class EmptyUniverseError(DermError):
    pass


# store
class IoFailureError(DermError):
    pass


class DimInconsistentError(DermError):
    pass


class CorruptGenerationError(DermError):
    pass


class BindFailureError(DermError):
    pass


# downstream / metrics
class DegenerateLabelsError(DermError):
    pass


class MissingBaselineError(DermError):
    pass


class WorkerFailedError(DermError):
    pass


# synth
class InvalidRatesError(DermError):
    pass


# cli
class MissingPrerequisiteError(DermError):
    pass


class ConfigParseError(DermError):
    pass

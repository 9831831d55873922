"""Exception hierarchy shared across the package.

Three coarse classes map onto CLI exit codes (ConfigError -> 2,
DataError -> 3, ModelError -> 4); everything else subclasses one of
them so callers can catch by failure class.
"""


class ChamberHealthError(Exception):
    """Base class for all package errors."""


class ConfigError(ChamberHealthError):
    """Invalid configuration or invariant violation in a config object."""


class DataError(ChamberHealthError):
    """Invalid, missing, or degenerate input data."""


class ModelError(ChamberHealthError):
    """Model training or prediction failure."""


# -- core ---------------------------------------------------------------

class NoValidReading(DataError):
    """Every sensor reading in a sample is invalid or out of range."""


# -- simgen -------------------------------------------------------------

class InfeasibleSegment(DataError):
    """Segment target pressure at or below the steady-state floor."""


# -- hi -----------------------------------------------------------------

class EmptyCurve(DataError):
    """Pressure curve has no samples."""


class DegenerateInput(DataError):
    """Too few points or no spread in the regressor variable."""


class ZeroVariance(DataError):
    """Target has zero variance; R^2 is undefined."""


class NoCleanRuns(DataError):
    """No runs with n_runs <= 9 available for the clean baseline."""


class ZeroBaseline(DataError):
    """Clean baseline duration is zero; impact is undefined."""


class NoViableSegment(DataError):
    """Every candidate segment was degenerate or constant."""


# -- features -----------------------------------------------------------

class EmptyChannel(DataError):
    """A channel to aggregate has no samples."""


class BadPlanLength(DataError):
    """Recipe plan does not match the forecast horizon."""


class VocabularyEmpty(DataError):
    """No recipes available to build the one-hot vocabulary."""


class TooFewRows(DataError):
    """Not enough supervised rows to split."""


# -- models -------------------------------------------------------------

class EmptyTraining(ModelError):
    """Empty training set."""


class KTooLarge(ModelError):
    """k exceeds the number of training rows."""


class DivergedLoss(ModelError):
    """Training loss became non-finite."""


# -- eval ---------------------------------------------------------------

class LengthMismatch(DataError):
    """Prediction and target vectors differ in length."""


class Empty(DataError):
    """Empty vector where at least one element is required."""

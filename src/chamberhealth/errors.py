"""The package's exceptions: one class per CLI exit code.

ConfigError exits 2, DataError 3 and ModelError 4, each with the line
``ERROR <Class>: <message>``; the message names the failure. The one
subclass is DegenerateFit, which derive_hi catches to skip a segment.
"""


class ConfigError(Exception):
    """Invalid configuration or invariant violation in a config object."""


class DataError(Exception):
    """Invalid, missing, or degenerate input data."""


class ModelError(Exception):
    """Model training, loading or prediction failure."""


class DegenerateFit(DataError):
    """A segment's fit is undefined: too few points, no spread in n_runs or
    in the durations, no clean runs, or a zero clean baseline."""

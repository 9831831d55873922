"""Contamination health index for vacuum coating chambers.

Derives a health index (HI) from pumpdown pressure curves, forecasts it
ten production runs ahead, and benchmarks from-scratch regressors
against naive baselines on data from a built-in physics generator.
"""

from .core import (
    RunRecord,
    SegmentSpec,
    SensorSpec,
    composite_curve,
)
from .hi import DegradationFit, HiSeries, derive_hi, extract_segment_duration, impact
from .simgen import (
    ChamberConfig,
    ChamberState,
    RecipeSpec,
    closed_form_segment_duration,
    simulate_history,
    simulate_run,
)

__version__ = "0.1.0"

__all__ = [
    "ChamberConfig",
    "ChamberState",
    "DegradationFit",
    "HiSeries",
    "RecipeSpec",
    "RunRecord",
    "SegmentSpec",
    "SensorSpec",
    "__version__",
    "closed_form_segment_duration",
    "composite_curve",
    "derive_hi",
    "extract_segment_duration",
    "impact",
    "simulate_history",
    "simulate_run",
]

"""Zero-cycle analytical model behind ``repro estimate``.

See :mod:`repro.analytical.model` for the queueing model.
"""

from .model import (
    DEFAULT_CAPACITY_FACTOR,
    AnalyticalEstimate,
    AnalyticalModel,
    ClassEstimate,
    estimate,
    estimate_curve,
)

__all__ = [
    "AnalyticalModel",
    "AnalyticalEstimate",
    "ClassEstimate",
    "DEFAULT_CAPACITY_FACTOR",
    "estimate",
    "estimate_curve",
]

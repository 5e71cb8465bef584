"""Density-based clustering of lines and line segments in R^n.

Lines get neighbourhoods, not centroids: a density profile along a line is
rotated around it to form a region of space, a dataset line relates to
another when the other enters its (scaled) region, and clusters grow from
lines whose neighbour count clears a cardinality threshold.  Points with one
missing coordinate join the same pipeline as axis-aligned segments.
"""

from .engine import ClusterLabels, NOISE, RunConfig, run, run_expand, run_literal
from .errors import ConfigurationError, ParseError, UnsupportedRecordError
from .geometry import (
    MinDistance,
    SegmentLike,
    closest_point,
    line,
    min_distance,
    segment,
)
from .missing_data import AxisDomain, LiftResult, lift, lift_dataset
from .neighborhood import NeighbourhoodSpec, RelationEvaluator, contains_point
from .profiles import Profile, effective_window, neighbourhood_volume, scaling_factor

__version__ = "0.1.0"

__all__ = [
    "AxisDomain",
    "ClusterLabels",
    "ConfigurationError",
    "LiftResult",
    "MinDistance",
    "NOISE",
    "NeighbourhoodSpec",
    "ParseError",
    "Profile",
    "RelationEvaluator",
    "RunConfig",
    "SegmentLike",
    "UnsupportedRecordError",
    "closest_point",
    "contains_point",
    "effective_window",
    "lift",
    "lift_dataset",
    "line",
    "min_distance",
    "neighbourhood_volume",
    "run",
    "run_expand",
    "run_literal",
    "scaling_factor",
    "segment",
]

"""Lift points with at most one missing coordinate into segments.

A complete n-dimensional point becomes a degenerate segment (both endpoints
equal, no density).  A point missing its k-th coordinate becomes the axis-
aligned segment sweeping that coordinate across the declared domain window,
carrying the domain's density template in the segment parameter t (t=0 maps
to the window's low edge, t=1 to the high edge).  The template lets domain
knowledge weight plausible completions, e.g. a normal template concentrates
the neighbourhood around the likely value.

Records with two or more missing values are rejected, not dropped.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import ConfigurationError, UnsupportedRecordError
from .geometry import SegmentLike, segment
from .profiles import Profile


def _is_missing(v) -> bool:
    return v is None or (isinstance(v, float) and math.isnan(v))


@dataclass(frozen=True)
class AxisDomain:
    """Domain knowledge for one coordinate axis (0-based index).

    window is the (lo, hi) range of plausible values; profile_template is a
    density over the segment parameter t in [0, 1], defaulting to uniform.
    Checked when built: axis an integer >= 0 (no bool), window two finite
    real numbers with lo < hi, profile_template a Profile.
    """

    axis: int
    window: tuple[float, float]
    profile_template: Profile = field(default_factory=lambda: Profile.uniform(0.0, 1.0))

    def __post_init__(self):
        if isinstance(self.axis, bool) or not isinstance(self.axis, Integral):
            raise ConfigurationError(f"axis must be an integer, got {self.axis!r}")
        if self.axis < 0:
            raise ConfigurationError(f"axis index must be >= 0, got {self.axis}")
        window = self.window
        if not (isinstance(window, (tuple, list)) and len(window) == 2 and all(
                isinstance(v, Real) and not isinstance(v, bool) for v in window)):
            raise ConfigurationError(f"axis window must be two real numbers (lo, hi), "
                                     f"got {window!r}")
        lo, hi = window
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigurationError(f"axis window needs finite lo < hi, got {window}")
        if not isinstance(self.profile_template, Profile):
            raise ConfigurationError(f"profile_template must be a Profile, "
                                     f"got {self.profile_template!r}")


@dataclass(frozen=True)
class LiftedPoint:
    missing_axis: int | None
    segment: SegmentLike
    profile: Profile | None
    source_id: str


def lift(point: Sequence, domains: Mapping[int, AxisDomain],
         source_id: str = "0") -> LiftedPoint:
    """Lift one record; see the module docstring for the geometry."""
    values = list(point)
    missing = [k for k, v in enumerate(values) if _is_missing(v)]
    if len(missing) > 1:
        raise UnsupportedRecordError(
            f"record {source_id!r} has {len(missing)} missing values; at most 1 is supported")
    if not missing:
        coords = np.asarray([float(v) for v in values], dtype=np.float64)
        return LiftedPoint(None, segment(coords, coords), None, source_id)
    k = missing[0]
    dom = domains.get(k)
    if dom is None:
        raise ConfigurationError(
            f"record {source_id!r} is missing axis {k} but no domain is declared for it")
    lo = [float(v) if i != k else dom.window[0] for i, v in enumerate(values)]
    hi = [float(v) if i != k else dom.window[1] for i, v in enumerate(values)]
    return LiftedPoint(k, segment(lo, hi), dom.profile_template, source_id)


@dataclass
class LiftResult:
    """Order-preserving lift of a dataset, with the id round-trip map."""

    segments: list[SegmentLike]
    profiles: list[Profile | None]
    source_ids: list[str]

    def labels_by_source(self, labels) -> dict[str, list[int]]:
        """Map a ClusterLabels result back onto source record ids."""
        return {sid: list(labels.memberships[i]) for i, sid in enumerate(self.source_ids)}


def lift_dataset(points: Sequence[Sequence], domains: Mapping[int, AxisDomain],
                 ids: Sequence[str] | None = None) -> LiftResult:
    """Lift every record, collecting per-record failures into one error.

    domains maps each axis to its AxisDomain; a domain filed under another
    key than its own axis, or for an axis at or beyond the records'
    dimension, is a ConfigurationError.  ids, one per record, must be
    distinct: labels_by_source keys on them.
    """
    if ids is None:
        ids = [str(i) for i in range(len(points))]
    if len(ids) != len(points):
        raise ValueError("ids and points must have equal length")
    first: dict[str, int] = {}
    for k, sid in enumerate(ids):
        if first.setdefault(sid, k) != k:
            raise ValueError(f"id {sid!r} is repeated, at indices {first[sid]} and {k}")
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise UnsupportedRecordError(f"records have inconsistent dimensions: {sorted(dims)}")
    for key, dom in domains.items():
        if key != dom.axis:
            raise ConfigurationError(f"domain for axis {dom.axis} is declared under key {key}")
        if dims and dom.axis >= min(dims):
            raise ConfigurationError(f"domain for axis {dom.axis} (0-based) is at or beyond "
                                     f"the records' dimension {min(dims)}")
    lifted: list[LiftedPoint] = []
    failures: list[str] = []
    for idx, (rec, sid) in enumerate(zip(points, ids)):
        try:
            lifted.append(lift(rec, domains, source_id=sid))
        except (UnsupportedRecordError, ConfigurationError, ValueError) as exc:
            failures.append(f"record {idx}: {exc}")
    if failures:
        raise UnsupportedRecordError("; ".join(failures))
    return LiftResult(
        segments=[lp.segment for lp in lifted],
        profiles=[lp.profile for lp in lifted],
        source_ids=list(ids),
    )

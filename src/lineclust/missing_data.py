"""Lift points with at most one missing coordinate into segments.

A complete n-dimensional point becomes a degenerate segment (both endpoints
equal, no density).  A point missing its k-th coordinate becomes the axis-
aligned segment sweeping that coordinate across the declared domain window,
carrying the domain's density template in the segment parameter t (t=0 maps
to the window's low edge, t=1 to the high edge).  The template lets domain
knowledge weight plausible completions, e.g. a normal template concentrates
the neighbourhood around the likely value.

Records with two or more missing values are rejected, not dropped.

A dataset is lifted in bulk, as arrays (lift is the same path run on one
record).  Missing entries are marked from the raw values, None or a float
NaN, before anything is converted, so a string that float() reads as NaN
stays an error.  Every record is checked at once: at most one missing
entry, a declared domain for its axis, and finite values otherwise.  The
known values fill two (n, dim) endpoint arrays, each missing entry takes
its window's lo in the first and hi in the second, and
geometry.segments builds every segment from them, with the bits
geometry.segment gives one record.  A record that fails, its segment's
direction, centre or squared length overflowing included (a window too
wide, say), is reported by its index, never dropped.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import ConfigurationError, UnsupportedRecordError
from .geometry import SegmentLike, _segment_failures, segments
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
        try:  # what the lift reads; an integer beyond the float range has no float
            finite = math.isfinite(lo) and math.isfinite(hi)
        except OverflowError:
            raise ConfigurationError("axis window needs finite lo < hi, "
                                     "got a number beyond the float range") from None
        if not (finite and lo < hi):
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


def _lift_records(records: Sequence[Sequence], domains: Mapping[int, AxisDomain],
                  ids: Sequence[str]) -> tuple[list[SegmentLike], list[int | None], list]:
    """Lift records of one dimension as arrays: (segments, each record's
    missing axis or None, failures), in record order.  A failure is
    (index, error), and the segments are empty when any record fails.  A
    record fails on the first of: two or more missing entries
    (UnsupportedRecordError), a missing axis with no domain
    (ConfigurationError), a value float() cannot read, by its content or
    by its type, or that is not finite (ValueError).  A record that passes
    them all fails when its segment cannot be built, its direction, centre
    or squared length overflowing (ValueError)."""
    n = len(records)
    dim = len(records[0]) if n else 0
    if not dim:
        return [], [None] * n, [(idx, ValueError(
            "a point must be a 1-d coordinate vector, got shape (0,)")) for idx in range(n)]
    failures: dict[int, Exception] = {}
    flat = [v for rec in records for v in rec]
    missing = np.fromiter(map(_is_missing, flat), dtype=bool, count=n * dim).reshape(n, dim)
    count = np.count_nonzero(missing, axis=1)
    axis = missing.argmax(axis=1)  # the missing axis of a record missing one
    doms = [domains.get(k) for k in range(dim)]
    undeclared = (count == 1) & np.array([d is None for d in doms])[axis]
    for idx in np.flatnonzero(count > 1).tolist():
        failures[idx] = UnsupportedRecordError(f"record {ids[idx]!r} has {count[idx]} missing "
                                               f"values; at most 1 is supported")
    for idx in np.flatnonzero(undeclared).tolist():
        failures[idx] = ConfigurationError(f"record {ids[idx]!r} is missing axis {axis[idx]} "
                                           f"but no domain is declared for it")
    # the values float() reads: each known entry of a record not yet failed
    skip = (missing | ((count > 1) | undeclared)[:, None]).ravel().tolist()
    known = [0.0 if s else v for v, s in zip(flat, skip)]
    try:
        X = np.fromiter(map(float, known), dtype=np.float64, count=n * dim).reshape(n, dim)
    except (TypeError, ValueError, OverflowError):  # again value by value, to name each record
        X = np.zeros((n, dim))
        for k, v in enumerate(known):
            if k // dim in failures:  # a record fails on its first value float() cannot read
                continue
            try:
                X.flat[k] = float(v)
            except ValueError as exc:
                failures[k // dim] = exc
            except TypeError:
                failures[k // dim] = ValueError(f"point coordinates must be numbers or numeric "
                                                f"strings, got a {type(v).__name__}")
            except OverflowError:
                failures[k // dim] = ValueError("point coordinates must be finite, "
                                                "got a number beyond the float range")
    for idx in np.flatnonzero(~np.isfinite(X).all(axis=1)).tolist():
        failures.setdefault(idx, ValueError("point coordinates must be finite"))
    lifted = np.flatnonzero(count == 1)
    k = axis[lifted]
    axes: list[int | None] = [None] * n
    for idx, a in zip(lifted.tolist(), k.tolist()):
        axes[idx] = a
    # each axis's window, (nan, nan) where none is declared and only a failed record reads it
    windows = np.array([(math.nan, math.nan) if d is None else d.window for d in doms],
                       dtype=np.float64)
    lo, hi = X, X.copy()
    lo[lifted, k], hi[lifted, k] = windows[k, 0], windows[k, 1]
    failed = list(failures)
    lo[failed] = hi[failed] = 0.0  # a failed record's row stands in as a point
    try:
        segs = segments(lo, hi)
    except ValueError:  # a segment that overflows, from a window too wide, say
        for idx, exc in _segment_failures(lo, hi):
            failures[idx] = exc
    if failures:
        return [], axes, sorted(failures.items())
    return segs, axes, []


def lift(point: Sequence, domains: Mapping[int, AxisDomain],
         source_id: str = "0") -> LiftedPoint:
    """Lift one record, the dataset path run on it alone; see the module
    docstring for the geometry.  A record that cannot be lifted raises its
    UnsupportedRecordError, ConfigurationError or ValueError."""
    segs, (k,), failures = _lift_records([list(point)], domains, [source_id])
    if failures:
        raise failures[0][1]
    return LiftedPoint(k, segs[0], None if k is None else domains[k].profile_template, source_id)


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

    The records are lifted in bulk, as one (n, dim) float64 array: missing
    entries are marked from the raw values, every record is checked at
    once, the windows are written into a lo and a hi endpoint array, and
    geometry.segments builds each segment from their rows, with the bits
    lift gives the record alone.  Each record that fails is one "record k:
    <message>", k its index, and all of them are joined with "; " into one
    UnsupportedRecordError.

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
    segs, axes, failures = _lift_records(points, domains, ids)
    if failures:
        raise UnsupportedRecordError("; ".join(f"record {idx}: {exc}" for idx, exc in failures))
    return LiftResult(
        segments=segs,
        profiles=[None if k is None else domains[k].profile_template for k in axes],
        source_ids=list(ids),
    )

"""Points, lines and line segments in R^n.

A line or segment is stored as an endpoint pair (x, y) with the parametric
map g(t) = x + (y - x) * t.  The parameter domain is [0, 1] for segments and
all of R for lines.  Distances are Euclidean; squared distances are used
internally and the root is taken at the API boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

Kind = Literal["line", "segment"]


def as_point(coords) -> np.ndarray:
    """Coerce to a float64 coordinate vector, rejecting NaN and infinities."""
    p = np.asarray(coords, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"a point must be a 1-d coordinate vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


@dataclass(frozen=True, eq=False)
class SegmentLike:
    """A line or line segment given by two points x, y in R^n.

    A degenerate segment (x == y) stands for a single point and is legal;
    a line requires two distinct points.  `direction`, `sq_length`, `center`
    and `half_length` are derived once at construction and shared by the
    distance routines.
    """

    x: np.ndarray
    y: np.ndarray
    kind: Kind = "segment"
    direction: np.ndarray = field(init=False, repr=False)
    sq_length: float = field(init=False, repr=False)
    center: np.ndarray = field(init=False, repr=False)
    half_length: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x", as_point(self.x))
        object.__setattr__(self, "y", as_point(self.y))
        if self.x.size != self.y.size:
            raise ValueError(
                f"endpoint dimensions differ: {self.x.size} vs {self.y.size}"
            )
        if self.kind not in ("line", "segment"):
            raise ValueError(f"kind must be 'line' or 'segment', got {self.kind!r}")
        d = self.y - self.x
        dd = float(d @ d)
        if self.kind == "line" and dd == 0.0:
            raise ValueError("a line needs two distinct points")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "sq_length", dd)
        object.__setattr__(self, "center", 0.5 * (self.x + self.y))
        object.__setattr__(self, "half_length", 0.5 * math.sqrt(dd))

    @property
    def dim(self) -> int:
        return self.x.size

    @property
    def is_line(self) -> bool:
        return self.kind == "line"

    @property
    def is_degenerate(self) -> bool:
        return self.sq_length == 0.0


def segment(x, y) -> SegmentLike:
    return SegmentLike(x, y, "segment")


def line(x, y) -> SegmentLike:
    return SegmentLike(x, y, "line")


@dataclass(frozen=True)
class ClosestPointResult:
    """Foot of the minimum-distance projection of a point onto a line/segment."""

    t_star: float
    point: np.ndarray
    distance: float


class MinDistance(NamedTuple):
    distance: float
    t1: float
    t2: float


def param_point(l: SegmentLike, t: float) -> np.ndarray:
    """Evaluate g(t) = x + (y - x) * t.

    For segments t must lie in [0, 1]; lines accept any real t.
    """
    if l.kind == "segment" and not (0.0 <= t <= 1.0):
        raise ValueError(f"segment parameter must lie in [0, 1], got {t}")
    return l.x + l.direction * t


def closest_point(P, l: SegmentLike) -> ClosestPointResult:
    """Closest point of l to P, with its parameter and distance.

    The minimizer is the perpendicular foot t = ((P - x) . (y - x)) / |y - x|^2,
    clamped to [0, 1] for segments.  A degenerate segment returns t = 0.
    The minimizer exists and is unique (strict convexity of the squared
    distance along the carrier).
    """
    p = as_point(P)
    if p.size != l.dim:
        raise ValueError(f"dimension mismatch: point is {p.size}-d, carrier is {l.dim}-d")
    t, sq = _closest_sq(p, l)
    return ClosestPointResult(t, l.x + l.direction * t, math.sqrt(sq))


def _closest_sq(p: np.ndarray, l: SegmentLike) -> tuple[float, float]:
    """(t, squared distance) of the closest carrier point to p; no root."""
    if l.sq_length == 0.0:
        d = p - l.x
        return 0.0, float(d @ d)
    t = float((p - l.x) @ l.direction) / l.sq_length
    if l.kind == "segment":
        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    d = p - (l.x + l.direction * t)
    return t, float(d @ d)


def _closest_sq_many(P: np.ndarray, l: SegmentLike) -> tuple[np.ndarray, np.ndarray]:
    """Array counterpart of `_closest_sq` for the rows of an (m, dim) array.

    The rows must already be finite points of l's dimension; nothing is
    checked.  Returns the (m,) parameters and (m,) squared distances.
    """
    if l.sq_length == 0.0:
        d = P - l.x
        return np.zeros(len(P)), np.einsum("ij,ij->i", d, d)
    t = (P - l.x) @ l.direction / l.sq_length
    if l.kind == "segment":
        np.clip(t, 0.0, 1.0, out=t)
    d = P - (l.x + t[:, None] * l.direction)
    return t, np.einsum("ij,ij->i", d, d)


def min_distance(l1: SegmentLike, l2: SegmentLike) -> MinDistance:
    """Minimum distance between two lines/segments with achieving parameters.

    A point operand (degenerate segment) is projected onto the other
    carrier.  Otherwise |g1(t1) - g2(t2)|^2 is a convex quadratic in
    (t1, t2) and the unconstrained minimizer solves the 2x2 normal
    equations.  One boundary-edge enumeration, each segment endpoint
    projected onto the other carrier, covers every pair whose unconstrained
    optimum is infeasible (the minimum lies on an edge, and minimizing over
    the other parameter leaves a convex function of the edge's, so its
    clamped end is one of the endpoints tried) and every parallel pair
    (singular normal matrix) except two lines.  Two parallel lines have no
    endpoints: their gap is constant and (t1=0, perpendicular partner) is
    returned.  Squared distances throughout; one root at the return.
    A carrier against itself is (0, 0, 0), what the enumeration would give.
    """
    if l1 is l2:
        return MinDistance(0.0, 0.0, 0.0)
    if l1.dim != l2.dim:
        raise ValueError(f"dimension mismatch: {l1.dim}-d vs {l2.dim}-d")
    a = l1.sq_length
    c = l2.sq_length
    if a == 0.0 and c == 0.0:
        diff = l1.x - l2.x
        return MinDistance(math.sqrt(float(diff @ diff)), 0.0, 0.0)
    if a == 0.0:
        t2, sq = _closest_sq(l1.x, l2)
        return MinDistance(math.sqrt(sq), 0.0, t2)
    if c == 0.0:
        t1, sq = _closest_sq(l2.x, l1)
        return MinDistance(math.sqrt(sq), t1, 0.0)

    d1 = l1.direction
    d2 = l2.direction
    r = l1.x - l2.x
    b = float(d1 @ d2)
    d = float(d1 @ r)
    e = float(d2 @ r)
    den = a * c - b * b  # >= 0, zero iff parallel
    parallel = den <= 1e-14 * a * c

    if not parallel:
        t1 = (b * e - c * d) / den
        t2 = (a * e - b * d) / den
        ok1 = l1.is_line or 0.0 <= t1 <= 1.0
        ok2 = l2.is_line or 0.0 <= t2 <= 1.0
        if ok1 and ok2:
            diff = r + d1 * t1 - d2 * t2
            return MinDistance(math.sqrt(max(float(diff @ diff), 0.0)), t1, t2)
    elif l1.is_line and l2.is_line:
        # parallel lines: constant gap, return t1=0 and its perpendicular foot
        t2 = e / c
        diff = r - d2 * t2
        return MinDistance(math.sqrt(max(float(diff @ diff), 0.0)), 0.0, t2)

    # boundary-edge enumeration: a line has no endpoints, so with one line
    # operand only the segment's endpoints are tried, and their projections
    # include the clamped one; compare squared distances, root the winner
    best = None
    if not l1.is_line:
        for t1_edge, p_edge in ((0.0, l1.x), (1.0, l1.y)):
            t2c, sq = _closest_sq(p_edge, l2)
            if best is None or sq < best[0]:
                best = (sq, t1_edge, t2c)
    if not l2.is_line:
        for t2_edge, p_edge in ((0.0, l2.x), (1.0, l2.y)):
            t1c, sq = _closest_sq(p_edge, l1)
            if best is None or sq < best[0]:
                best = (sq, t1c, t2_edge)
    return MinDistance(math.sqrt(best[0]), best[1], best[2])


def length(l: SegmentLike) -> float:
    """Euclidean length of a segment; lines have no finite length."""
    if l.is_line:
        raise ValueError("length is undefined for an infinite line")
    return math.sqrt(l.sq_length)

"""Points, lines and line segments in R^n.

A line or segment is stored as an endpoint pair (x, y) with the parametric
map g(t) = x + (y - x) * t.  The parameter domain is [0, 1] for segments and
all of R for lines.  Distances are Euclidean; squared distances are used
internally and the root is taken at the API boundary.

The coordinates are numpy arrays, but the scalar solves (`min_distance`,
`_closest_sq`) run on Python floats: every carrier also keeps its base
point and direction as tuples of floats, built once at construction, and
the solves do their few multiply-adds on those in plain arithmetic.  Each
numpy operation on a 2- to 7-element array costs a fixed dispatch overhead
far larger than its arithmetic, so one pair is cheapest in Python floats.
Work over many pairs or points at once stays in numpy, where that overhead
is paid once per array: the witness grid of `_closest_sq_many`, and
`_min_distance_many`, the solve of one carrier against a whole relation
row.  `min_distance` is one clamp-project-reclamp solve, exact in at most
two steps for any two non-degenerate carriers; a point operand takes the
cheaper projection of `_closest_sq` instead.  `_min_distance_many` takes
the same steps in the same order and sums every dot product one
coordinate at a time from the first, as the scalar solves do, so each of
its distances has the bits `min_distance` gives for that pair.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import sub
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
    distance routines, as are `x_floats` and `direction_floats`, x and
    direction as tuples of Python floats for the scalar solves.
    """

    x: np.ndarray
    y: np.ndarray
    kind: Kind = "segment"
    direction: np.ndarray = field(init=False, repr=False)
    sq_length: float = field(init=False, repr=False)
    center: np.ndarray = field(init=False, repr=False)
    half_length: float = field(init=False, repr=False)
    x_floats: tuple[float, ...] = field(init=False, repr=False)
    direction_floats: tuple[float, ...] = field(init=False, repr=False)

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
        object.__setattr__(self, "x_floats", tuple(self.x.tolist()))
        object.__setattr__(self, "direction_floats", tuple(d.tolist()))

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


def _clamp(t: float, is_segment: bool) -> float:
    """t clamped to a segment's domain [0, 1]; a line's t unchanged."""
    if not is_segment:
        return t
    return 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)


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
    t, sq = _closest_sq(p.tolist(), l)
    return ClosestPointResult(t, l.x + l.direction * t, math.sqrt(sq))


def _dot(u, v) -> float:
    """u . v of two float sequences, summed from the first term up.  sum()
    compensates its additions from Python 3.12 on; this order is the one
    `_row_dot` can follow with whole columns."""
    s = 0.0
    for ui, vi in zip(u, v):
        s += ui * vi
    return s


def _row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The dot product of each row of A, an (m, dim) array, with B's row
    (B is (m, dim) or one (dim,) vector), summed one column at a time from
    the first, the order of `_dot`.  einsum and BLAS sum in other orders
    in 7-d, so their last bits can differ from the scalar solves'."""
    P = A * B
    s = P[:, 0]
    for k in range(1, P.shape[1]):
        s = s + P[:, k]
    return s


def _closest_sq(p: Sequence[float], l: SegmentLike) -> tuple[float, float]:
    """(t, squared distance) of the closest carrier point to p, a sequence
    of floats of l's dimension; nothing is checked and no root is taken."""
    x = l.x_floats
    u = l.direction_floats
    t = 0.0  # a degenerate segment's only parameter; u is zero there
    if l.sq_length > 0.0:
        t = _clamp(_dot(map(sub, p, x), u) / l.sq_length, l.kind == "segment")
    sq = 0.0
    for pi, xi, ui in zip(p, x, u):
        q = pi - (xi + ui * t)
        sq += q * q
    return t, sq


def _closest_sq_many(P: np.ndarray, l: SegmentLike) -> tuple[np.ndarray, np.ndarray]:
    """Array counterpart of `_closest_sq` for the rows of an (m, dim) array.

    The rows must already be finite points of l's dimension; nothing is
    checked.  Returns the (m,) parameters and (m,) squared distances.  Each
    row's result is the same bits whatever m and wherever the row sits:
    the projection is an einsum, which sums every row in one order, not a
    BLAS matrix-vector product, whose kernels and threads split the rows
    into blocks that sum in different orders.
    """
    if l.sq_length == 0.0:
        d = P - l.x
        return np.zeros(len(P)), np.einsum("ij,ij->i", d, d)
    t = np.einsum("ij,j->i", P - l.x, l.direction) / l.sq_length
    if l.kind == "segment":
        np.clip(t, 0.0, 1.0, out=t)
    d = P - (l.x + t[:, None] * l.direction)
    return t, np.einsum("ij,ij->i", d, d)


def _gap_sq(r: list[float], d1: Sequence[float], t1: float, d2: Sequence[float],
            t2: float) -> float:
    """|r + d1*t1 - d2*t2|^2, the squared length of g1(t1) - g2(t2) when
    r = x1 - x2."""
    sq = 0.0
    for ri, ui, vi in zip(r, d1, d2):
        q = ri + ui * t1 - vi * t2
        sq += q * q
    return sq


def min_distance(l1: SegmentLike, l2: SegmentLike) -> MinDistance:
    """Minimum distance between two lines/segments with achieving parameters.

    With r = x1 - x2, |g1(t1) - g2(t2)|^2 is a convex quadratic in (t1, t2)
    whose coefficients are the scalars a = d1.d1, b = d1.d2, c = d2.d2,
    d = d1.r and e = d2.r.  One clamp-project-reclamp solve (Lumelsky 1985;
    Ericson 2005, 5.1.9) is exact for every segment/line mix, parallel pairs
    included.  For a fixed t1 the best t2 is (b*t1 + e)/c; minimizing over
    that free t2 leaves a convex function of t1, so its minimizer
    (b*e - c*d)/(a*c - b^2), clamped to l1's domain, is optimal whenever its
    best t2 is feasible (a parallel pair leaves a constant: t1 = 0).  When
    that t2 is not, the KKT conditions put the optimum on the end of l2 it
    overshot, and t1 becomes that endpoint's clamped projection (b*t2 - d)/a.
    The distance is the root of the squared length of the point difference
    r + d1*t1 - d2*t2, not of the expanded quadratic, which cancels.  A point
    operand (degenerate segment) is projected onto the other carrier by
    `_closest_sq`: the solve would divide by its zero length, and the early
    path is twice as fast on the point-point pairs of lifted data.  A carrier
    against itself is (0, 0, 0), what the solve would give.
    """
    if l1 is l2:
        return MinDistance(0.0, 0.0, 0.0)
    x1 = l1.x_floats
    x2 = l2.x_floats
    if len(x1) != len(x2):
        raise ValueError(f"dimension mismatch: {len(x1)}-d vs {len(x2)}-d")
    a = l1.sq_length
    c = l2.sq_length
    if a == 0.0:  # l1 is a point (a line never is): its foot on l2
        t2, sq = _closest_sq(x1, l2)
        return MinDistance(math.sqrt(sq), 0.0, t2)
    if c == 0.0:  # l2 is a point: its foot on l1
        t1, sq = _closest_sq(x2, l1)
        return MinDistance(math.sqrt(sq), t1, 0.0)

    r = list(map(sub, x1, x2))
    d1 = l1.direction_floats
    d2 = l2.direction_floats
    b = _dot(d1, d2)
    d = _dot(d1, r)
    e = _dot(d2, r)
    seg1 = l1.kind == "segment"
    seg2 = l2.kind == "segment"
    den = a * c - b * b  # >= 0, zero iff parallel
    t1 = _clamp((b * e - c * d) / den, seg1) if den > 1e-14 * a * c else 0.0
    t2 = (b * t1 + e) / c
    if seg2 and not 0.0 <= t2 <= 1.0:  # the optimum is on l2's violated end
        t2 = 0.0 if t2 < 0.0 else 1.0
        t1 = _clamp((b * t2 - d) / a, seg1)
    return MinDistance(math.sqrt(_gap_sq(r, d1, t1, d2, t2)), t1, t2)


def _min_distance_many(l1: SegmentLike, X: np.ndarray, D: np.ndarray, sq: np.ndarray,
                       is_segment: np.ndarray) -> np.ndarray:
    """Array counterpart of `min_distance`: the (m,) distances from l1 to m
    carriers l2_k at once.

    X, D are the (m, dim) base points and directions of the l2s, sq their
    (m,) squared lengths and is_segment their (m,) kinds; none may be l1
    itself, and nothing is checked.  Each distance has the bits of
    min_distance(l1, l2_k).distance: the solve takes the same steps in the
    same order, sums its dot products as `_dot` does, and projects a point
    operand as `_closest_sq` does.  Where a step does not apply to a pair
    (a divisor that is zero, a pair that needs no reclamp) its result is
    left out, never divided, so no pair raises a floating-point warning.
    """
    m = len(sq)
    x1 = l1.x
    if l1.sq_length == 0.0:  # l1 is a point: its foot on each l2
        t = np.divide(_row_dot(x1 - X, D), sq, out=np.zeros(m), where=sq > 0.0)
        t = np.where(is_segment, np.clip(t, 0.0, 1.0), t)
        q = x1 - (X + D * t[:, None])
        return np.sqrt(_row_dot(q, q))

    seg1 = l1.kind == "segment"
    a = l1.sq_length
    d1 = l1.direction
    r = x1 - X
    b = _row_dot(D, d1)
    d = _row_dot(r, d1)
    e = _row_dot(r, D)
    den = a * sq - b * b
    t1 = np.divide(b * e - sq * d, den, out=np.zeros(m), where=den > 1e-14 * a * sq)
    if seg1:
        np.clip(t1, 0.0, 1.0, out=t1)
    t2 = np.divide(b * t1 + e, sq, out=np.zeros(m), where=sq > 0.0)
    over = is_segment & ((t2 < 0.0) | (t2 > 1.0))  # the optimum is on l2's violated end
    if over.any():
        t2[over] = np.where(t2[over] < 0.0, 0.0, 1.0)
        t = (b[over] * t2[over] - d[over]) / a
        t1[over] = np.clip(t, 0.0, 1.0) if seg1 else t
    q = r + d1 * t1[:, None] - D * t2[:, None]
    gap_sq = _row_dot(q, q)
    point = sq == 0.0
    if point.any():  # a point l2: its foot on l1
        P = X[point]
        t = _row_dot(P - x1, d1) / a
        t = np.clip(t, 0.0, 1.0) if seg1 else t
        q = P - (x1 + d1 * t[:, None])
        gap_sq[point] = _row_dot(q, q)
    return np.sqrt(gap_sq)

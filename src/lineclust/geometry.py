"""Points, lines and line segments in R^n.

A line or segment is stored as an endpoint pair (x, y) with the parametric
map g(t) = x + (y - x) * t.  The parameter domain is [0, 1] for segments and
all of R for lines.  Distances are Euclidean; squared distances are used
internally and the root is taken at the API boundary.

Each foot and each distance has one kernel, written over arrays: a relation
row, a block of many rows, the witness grid of a whole row and a single
pair all run the same code, a single pair as a row of one.  `_feet_sq`
gives the feet of m points on their carriers, one carrier per point or one
carrier for them all (`closest_point` is its row of one), and
`_min_distance_many` the minimum distances of m pairs of carriers, each
pair two indices into one stack of carriers, so one call solves a row
(every pair sharing its first index) or the open pairs of many rows at
once (`min_distance` is its row of one, on the stack of its two carriers).
Every operation of both acts on each pair alone, so a pair's result has
the same bits whatever row or block it sits in.  The distance solve is one
clamp-project-reclamp step, exact in at most two steps for any two
non-degenerate carriers.  A pair with a point operand is projected onto
the other carrier instead: every such pair of a block, whichever side its
point is on, is one `_feet_sq` pass, so it never takes the general solve,
and each kind of pair gathers from the stack only the rows it reads.
Every dot product is `_row_dot`'s sum from the first column, the order in
which the relation rows sum their centre spans, one coordinate at a time:
the span of two points has the bits of their distance here.
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
    # on a short vector the Python loop is cheaper than np.isfinite's array pass
    if not all(map(math.isfinite, p.tolist())):
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
        x, y = as_point(self.x), as_point(self.y)
        if x.size != y.size:
            raise ValueError(f"endpoint dimensions differ: {x.size} vs {y.size}")
        if self.kind not in ("line", "segment"):
            raise ValueError(f"kind must be 'line' or 'segment', got {self.kind!r}")
        with np.errstate(over="ignore"):  # an overflow is _derive's to reject
            self._derive(x, y, self.kind, *_direction_centre(x, y))

    def _derive(self, x: np.ndarray, y: np.ndarray, kind: Kind, d: np.ndarray,
                c: np.ndarray) -> None:
        """Set every field from the checked endpoints x, y, the kind, and
        their direction d and centre c from `_direction_centre`.  The
        squared length is d @ d on the row alone: a sum over a block's rows
        may take another order and move its last bit.  Finite endpoints
        whose direction, centre or squared length overflows are rejected:
        the distance kernels would read NaN from them.  A finite squared
        length implies a finite direction.  The fields are set in
        declaration order, never through __dict__, so every instance keeps
        the attribute layout that makes reading them fast."""
        dd = float(d @ d)
        if not (math.isfinite(dd) and all(map(math.isfinite, c.tolist()))):
            raise ValueError("endpoints out of range: the direction, centre "
                             "or squared length overflows the float range")
        if kind == "line" and dd == 0.0:
            raise ValueError("a line needs two distinct points")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "sq_length", dd)
        object.__setattr__(self, "center", c)
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


def _direction_centre(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y - x and 0.5 * (x + y), for one endpoint pair or for (m, dim) stacks
    of them: each is elementwise, so a row has the same bits either way."""
    return y - x, 0.5 * (x + y)


def segment(x, y) -> SegmentLike:
    return SegmentLike(x, y, "segment")


def segments(X, Y) -> list[SegmentLike]:
    """segment(X[k], Y[k]) for each row k of two (m, dim) endpoint arrays,
    with the same fields to the bit.  The endpoints are checked, and the
    directions and centres derived, as whole arrays; each segment then
    takes its rows as views and derives the rest as `SegmentLike` does."""
    X, Y = np.asarray(X, dtype=np.float64), np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or X.shape != Y.shape or X.shape[1] < 1:
        raise ValueError(f"endpoints must be two (m, dim) arrays of one shape with dim >= 1, "
                         f"got shapes {X.shape} and {Y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("point coordinates must be finite")
    out = []
    with np.errstate(over="ignore"):  # an overflow is _derive's to reject
        for x, y, d, c in zip(X, Y, *_direction_centre(X, Y)):
            s = object.__new__(SegmentLike)
            s._derive(x, y, "segment", d, c)
            out.append(s)
    return out


def _segment_failures(X, Y) -> list[tuple[int, ValueError]]:
    """(k, error) for each row k of the (m, dim) endpoint arrays X, Y whose
    segment cannot be built, in row order: what a loader reads, with its
    own context for row k, after `segments` raised."""
    failures = []
    for k, (x, y) in enumerate(zip(X, Y)):
        try:
            segment(x, y)
        except ValueError as exc:
            failures.append((k, exc))
    return failures


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


def closest_point(P, l: SegmentLike) -> ClosestPointResult:
    """Closest point of l to P, with its parameter and distance.

    The minimizer is the perpendicular foot t = ((P - x) . (y - x)) / |y - x|^2,
    clamped to [0, 1] for segments.  A degenerate segment returns t = 0.
    The minimizer exists and is unique (strict convexity of the squared
    distance along the carrier).  P is checked, then solved by `_feet_sq`
    as a row of one.
    """
    p = as_point(P)
    if p.size != l.dim:
        raise ValueError(f"dimension mismatch: point is {p.size}-d, carrier is {l.dim}-d")
    t, sq = _feet_sq(p[None], *_carriers(l))
    t_star = float(t[0])
    return ClosestPointResult(t_star, l.x + l.direction * t_star, math.sqrt(sq[0]))


def _row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The dot product of each row of A, an (m, dim) array, with B's row
    (B is (m, dim) or one (dim,) vector), summed one column at a time from
    the first.  einsum and BLAS sum in other orders in 7-d, so they would
    move the last bits of what its callers, `_feet_sq` and
    `_min_distance_many`, have always given, and any decision at alpha.
    The metric relation rows sum the squares of their centre spans in this
    order too, one coordinate at a time over a (rows, targets) block, so
    two points' span is their distance to the bit."""
    P = A * B
    s = P[:, 0]
    for k in range(1, P.shape[1]):
        s = s + P[:, k]
    return s


def min_distance(l1: SegmentLike, l2: SegmentLike) -> MinDistance:
    """Minimum distance between two lines/segments with achieving parameters.

    The dimensions are checked, then the pair is solved by
    `_min_distance_many` as a row of one, on the stack of the two
    carriers.  A carrier against itself is
    (0, 0, 0), what the solve would give, without the solve.
    """
    if l1 is l2:
        return MinDistance(0.0, 0.0, 0.0)
    if l1.dim != l2.dim:
        raise ValueError(f"dimension mismatch: {l1.dim}-d vs {l2.dim}-d")
    dist, t1, t2 = _min_distance_many(_carriers(l1, l2), [0], [1])
    return MinDistance(float(dist[0]), float(t1[0]), float(t2[0]))


def _carriers(*lines: SegmentLike) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The base points, directions, squared lengths and kinds (True for a
    segment) of lines, stacked as `_min_distance_many` reads them."""
    return (np.array([l.x for l in lines]), np.array([l.direction for l in lines]),
            np.array([l.sq_length for l in lines]), np.array([l.kind == "segment" for l in lines]))


def _feet_sq(P: np.ndarray, X: np.ndarray, D: np.ndarray, sq: np.ndarray,
             is_segment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The feet of the rows of P on their carriers: (m,) parameters, 0 on a
    point carrier and clamped to [0, 1] on a segment, and (m,) squared
    distances.  The carriers are stacked as `_carriers` stacks them, one per
    row, or one carrier's row that every point shares; P is
    (m, dim), or one (dim,) point that every carrier shares.  Nothing is
    checked, and `_row_dot`'s column sums give a row the same bits wherever
    it sits."""
    # order "A" keeps column-major input column-major, so _row_dot's columns are contiguous
    num = _row_dot(np.subtract(P, X, order="A"), D)
    t = np.divide(num, sq, out=np.zeros_like(num), where=sq > 0.0)
    np.clip(t, 0.0, 1.0, out=t, where=is_segment)
    q = np.subtract(P, X + np.multiply(D, t[:, None], order="A"), order="A")
    return t, _row_dot(q, q)


def _min_distance_many(stack: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                       i1, i2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The minimum distances of m pairs of carriers (l1_k, l2_k) at once,
    with the parameters that achieve them: (m,) arrays (distance, t1, t2).

    stack holds the carriers as `_carriers` stacks them: (N, dim) base
    points and directions, (N,) squared lengths and (N,) kinds, True for a
    segment.  The pairs are the (m,) index arrays i1 and i2 into it, read
    by index: each kind of pair gathers only the rows it reads, once.  No
    pair may be one carrier twice, and nothing is checked.  With
    r = x1 - x2, |g1(t1) - g2(t2)|^2 is a convex quadratic in (t1, t2)
    whose coefficients are the scalars a = d1.d1, b = d1.d2, c = d2.d2,
    d = d1.r and e = d2.r.  One clamp-project-reclamp solve (Lumelsky 1985;
    Ericson 2005, 5.1.9) is exact for every segment/line mix, parallel pairs
    included.  For a fixed t1 the best t2 is (b*t1 + e)/c; minimizing over
    that free t2 leaves a convex function of t1, so its minimizer
    (b*e - c*d)/(a*c - b^2), clamped to l1's domain, is optimal whenever its
    best t2 is feasible (a parallel pair leaves a constant: t1 = 0, taken
    when den <= 1e-14*a*c).  When that t2 is not, the KKT conditions put the
    optimum on the end of l2 it overshot, and t1 becomes that endpoint's
    clamped projection (b*t2 - d)/a.  The distance is the root of the
    squared length of the point difference r + d1*t1 - d2*t2, not of the
    expanded quadratic, which cancels.  The pairs are split by a == 0 and
    c == 0: a pair with a point operand is that point projected onto the
    other carrier, every such pair of the block in one _feet_sq pass.  A
    point l1 has t1 = 0 and t2 its foot on l2, and a point l2 (with an l1
    that is no point) has t1 its foot on l1 and t2 = 0, so a point pair
    costs no more in a block than alone and never pays for the general
    solve, which takes every other pair.  Where a step does not apply to a
    pair (a parallel pair's zero divisor, a pair that needs no reclamp) its
    result is left out, never divided, so no pair raises a floating-point
    warning.
    """
    X, D, sq, seg = stack
    i1, i2 = np.asarray(i1, dtype=np.intp), np.asarray(i2, dtype=np.intp)
    m = len(i1)
    a, c = sq[i1], sq[i2]
    point1 = a == 0.0
    point = point1 | (c == 0.0)
    dist, t1, t2 = np.empty(m), np.zeros(m), np.zeros(m)
    p = np.flatnonzero(point)
    if len(p):  # each pair's point onto its other carrier: l1's onto l2, else l2's onto l1
        first = point1[p]
        src, dst = np.where(first, i1[p], i2[p]), np.where(first, i2[p], i1[p])
        t, gap_sq = _feet_sq(X[src], X[dst], D[dst], np.where(first, c[p], a[p]), seg[dst])
        dist[p] = np.sqrt(gap_sq)
        t2[p[first]] = t[first]
        t1[p[~first]] = t[~first]
    g = np.flatnonzero(~point) if len(p) else slice(None)  # with no point pair, views of all
    j1, j2, a, c = i1[g], i2[g], a[g], c[g]
    if len(j1):  # the general solve
        D1, D2, seg1, seg2 = D[j1], D[j2], seg[j1], seg[j2]
        r = X[j1] - X[j2]
        b = _row_dot(D2, D1)
        d = _row_dot(r, D1)
        e = _row_dot(r, D2)
        den = a * c - b * b  # >= 0, zero iff parallel
        s1 = np.divide(b * e - c * d, den, out=np.zeros(len(j1)), where=den > 1e-14 * a * c)
        s1 = np.where(seg1, np.clip(s1, 0.0, 1.0), s1)
        s2 = (b * s1 + e) / c
        over = seg2 & ((s2 < 0.0) | (s2 > 1.0))  # the optimum is on l2's violated end
        if over.any():
            s2[over] = np.where(s2[over] < 0.0, 0.0, 1.0)
            t = (b[over] * s2[over] - d[over]) / a[over]
            s1[over] = np.where(seg1[over], np.clip(t, 0.0, 1.0), t)
        q = r + D1 * s1[:, None] - D2 * s2[:, None]
        dist[g], t1[g], t2[g] = np.sqrt(_row_dot(q, q)), s1, s2
    return dist, t1, t2

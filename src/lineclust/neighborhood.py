"""Membership in scaled density neighbourhoods and the relation between lines.

The neighbourhood of a line l1 with density f1 and scale alpha1 is the set of
points whose distance to l1 is strictly below alpha1 * f1 at the closest
parameter.  The (asymmetric) relation "l1 relates to l2" holds when

    version 1:  min distance(l1, l2) < alpha1              (no densities)
    version 2:  some point of l2 lies in l1's neighbourhood, with alpha1
                derived from a target volume V
    version 3:  same witness test with alpha1 given directly

The witness test minimizes

    phi(s) = dist(g2(s), l1) - alpha1 * f1(t*(s))

over l2's witness domain, its parameter domain ([0, 1] for a segment, all
of R for a line) intersected with the effective window of l2's own density
(_witness_domain).  _phi alone evaluates it, reading f1 as 0 outside l1's
reach, which is l1's own witness domain: one rule for every carrier with a
density, segment or line, so l1's neighbourhood holds no point whose foot
on l1 lies outside f1's effective window, the window version 2 integrates
f1's volume over.  No witness
lies at or beyond the threshold alpha1 * sup f1 over the reach
(_witness_threshold), and an unbounded domain, a line without a density, is
cut to the finite window that threshold leaves (_line_windows).  phi can
be multimodal: the density may have several influential bumps along t*(s)
and dist has kinks where the projection clamps at a segment end.  The
search is a certified branch and bound over the cells of a uniform root
grid of ROOT_SAMPLES parameters (Shubert 1972; Hansen & Walster 2004).
Every cell [a, b] gets a lower bound on phi from its two ends
(_cell_bounds): dist(g2(s), l1) is convex in s, t*(s) is monotone, every
density is unimodal, and f1 is 0 on a cell whose t* range misses the
reach.  One step, _root_level, evaluates phi on a grid over each of many
windows, flags a phi < 0 and prunes the grid's cells whose bound is >= 0
(with a relative pad of PRUNE_PAD).  The root level is that step on each
pair's witness window, and each level below it the same step on every cell
kept for a pair with no hit, as a window of three points, its two ends and
its midpoint, which bisects it.  A relation
is reported only for an actually evaluated phi(s) < 0, so false positives
are impossible, and a pair is unrelated only when every cell is pruned.  A
pair that keeps a cell no wider than SEARCH_TOL, or whose cells below the
root grid would number more than WITNESS_BUDGET, is undecided: it is
reported as unrelated, and _witness_hits returns how many there are.

The witness decision is written once, _witness_hits, for a batch of pairs
(l1, l2_k) that share l1, the l2s given as rows of the stacked carrier
layout.  An empty window is no witness.  A pair whose witness set is one
parameter (a point l2, or a window no wider than SEARCH_TOL) is phi at that
parameter, every such pair in one _point_hits pass.  Any other pair is its
root level (_root_level, ROOT_BLOCK pairs per array pass), a hit on the
grid or every cell pruned, and only where that leaves a kept cell and no
hit, the levels below it, the kept cells of a block's pairs in calls of no
more points than a root block.  Every operation acts on each pair alone,
so a pair's decision has the same bits in a batch of any size; a searched
row is one batch.

Each line is resolved once, when a RelationEvaluator is built, to a metric
radius or to the witness search.  A line without a density has radius
alpha1.  A capsule (_is_capsule), a segment whose f1 is uniform(a, b) with
a <= 0 and b >= 1, has f1 = 1 / (b - a) wherever its t* can fall, so its
neighbourhood is the capsule of radius alpha1 / (b - a), its threshold,
and a pair relates exactly when the minimum distance to l2's witness
piece, the part of l2 its witness domain covers (_witness_pieces), is
below it: phi's decision, since d - r < 0 exactly when d < r, with no
search and no undecided pair.  It is the neighbourhood of a lifted record
under the default uniform(0, 1) template.  Every other line with a
density, a line carrier or a support strictly inside [0, 1], is searched.

A pair whose lower bound on the distance between the two carriers already
reaches the radius, or the threshold of a searched line, is rejected
first.  RelationEvaluator computes the bound for a whole relation row in a
few array expressions, from the centres, half-lengths and carriers stacked
once per dataset.  A metric row uses the centre gap |c1 - c2| - h1 - h2
alone.  A searched row takes the carrier bound instead, never below the
centre gap: the larger of dist(c2, carrier1) - h2 and dist(c1, carrier2) -
h1, TRACLUS's perpendicular-distance pruning (Lee, Han & Whang 2007).  It
is finite unless both carriers are lines, and it rejects the lifted segments
that sweep a whole axis past one another, whose centre gaps are all
negative.  The witness decision alone decides what the bound leaves open
in a searched row, which never solves the exact minimum distance.

A metric row (version 1, a density-free line in version 3, or a capsule)
solves every pair off the diagonal that its centre gap leaves open in one
_min_distance_many call, the one distance kernel, over pairs that each
carry their own l1: to l2's carrier from a density-free line, to l2's
witness piece from a capsule, the pieces stacked after the carriers.  A
row is a block of one row, a block of up to ROW_BLOCK rows staged ahead of
their use (RelationEvaluator.stage) is solved in one call, and
min_distance solves a single pair as a row of one, so a pair's distance
has the same bits in each.  The diagonal keeps min_distance's shortcut for
a carrier against itself, through relates_v1 without a root, and a row
with no other open pair, every row of a dataset of isolated lines, makes
no array solve (acceptance criterion 7 measures those rows).

Every row thus decides each of its pairs in arrays, one boolean per pair.
It still calls relates_v1 / relates_prob once per pair with that decision
as `root`, which they return unchanged, because benchmark/tracing.py counts
a row's pairs by those calls.  Called without a root, relates_v1 solves
its pair by min_distance, and relates_prob decides its pair as the row of
the two-line evaluator [l1, l2], with a spec NeighbourhoodSpec validates.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import islice
from numbers import Integral, Real
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import ConfigurationError
from .geometry import (
    SegmentLike,
    _carriers,
    _feet_sq,
    _min_distance_many,
    closest_point,  # unused, like density: benchmark/tracing.py patches both names
    min_distance,
)
from .profiles import (
    Profile,
    density,
    effective_window,
    exact_volume_scaling_factor,
    peak_density,
    scaling_factor,
)

PerLineAlpha = Union[float, Sequence[float]]
PerLineProfile = Union[Profile, Sequence[Optional[Profile]]]

ROOT_SAMPLES = 64  # parameters of the uniform root grid the witness search starts from
SEARCH_TOL = 1e-9  # cell width in l2's parameter below which a witness search is undecided
WITNESS_BUDGET = 4096  # cells, one new midpoint each, one pair may keep below its root grid
PRUNE_PAD = 1e-12  # relative margin a cell's lower bound on phi must clear to prune it
ROOT_BLOCK = 32  # pairs one root pass evaluates; no call below the root holds more points
ROW_BLOCK = 16  # metric rows whose open pairs one staged kernel call solves


@dataclass(frozen=True)
class NeighbourhoodSpec:
    """Version selector plus the parameters the chosen version needs.

    c is the cardinality threshold.  alpha and profile may be a single value
    applied to every line, or a per-line sequence indexed like the dataset.
    A None profile entry declares a line density-free (version 3 then falls
    back to the metric relation for that line, and its whole extent acts as
    the witness set).  A line reads its profile only over its reach, its
    parameter domain ([0, 1] for a segment, all of R for a line) cut to the
    profile's effective window, so a segment whose window misses [0, 1]
    relates to nothing.  A segment whose profile is uniform(a, b) with a <= 0
    and b >= 1, the default template of a lifted record, is a metric line
    too: its neighbourhood is a capsule of radius alpha / (b - a), decided
    by the exact distance to each target's witness piece.  Values are
    checked when the spec is built: a profile must be a Profile (an entry
    may also be None), an alpha and a volume a finite positive real number,
    and version and c integers; a bool is neither.  A per-line sequence is
    checked against the dataset's length when a RelationEvaluator is built.

    search_samples is no field but the constant ROOT_SAMPLES, the size of
    the root grid the witness search partitions l2's window with, read
    here by the results echo.  The branch and bound below it decides every
    pair it can certify whatever the grid, so the grid sets where the
    search starts, not which witnesses it can miss.
    """

    version: int
    c: int
    alpha: PerLineAlpha | None = None
    volume: float | None = None
    profile: PerLineProfile | None = None
    alpha_mode: str = "literal"  # "literal" or "exact-volume" (version 2)
    search_samples: ClassVar[int] = ROOT_SAMPLES

    def __post_init__(self):
        for name in ("version", "c"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.version not in (1, 2, 3):
            raise ConfigurationError(f"version must be 1, 2 or 3, got {self.version}")
        if self.c < 1:
            raise ConfigurationError(f"cardinality c must be >= 1, got {self.c}")
        if self.alpha_mode not in ("literal", "exact-volume"):
            raise ConfigurationError(f"unknown alpha_mode {self.alpha_mode!r}")
        # a str or bytes is a Sequence, and would otherwise pass for per-line values
        if isinstance(self.alpha, (str, bytes)):
            raise ConfigurationError(f"alpha must be a number or per-line numbers, "
                                     f"got the string {self.alpha!r}")
        if isinstance(self.profile, (str, bytes)):
            raise ConfigurationError(f"profile must be a Profile or per-line profiles, got the "
                                     f"string {self.profile!r} (parse_profile reads that form)")
        for what, value in _entries(self.alpha, "alpha"):
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
                raise ConfigurationError(f"{what} must be a finite positive number, got {value!r}")
        for what, value in _entries(self.profile, "profile"):
            if value is not None and not isinstance(value, Profile):
                raise ConfigurationError(f"{what} must be a Profile or None, got {value!r}")
        if self.version == 1:
            if self.alpha is None:
                raise ConfigurationError("version 1 requires alpha")
            if self.profile is not None:
                raise ConfigurationError("version 1 takes no profile")
            if self.volume is not None:
                raise ConfigurationError("version 1 takes no volume")
        elif self.version == 2:
            V = self.volume
            if isinstance(V, bool) or not isinstance(V, Real) or not 0 < V < math.inf:
                raise ConfigurationError(f"version 2 requires a finite positive volume V, got {V!r}")
            if self.profile is None:
                raise ConfigurationError("version 2 requires a profile")
            if self.alpha is not None:
                raise ConfigurationError("version 2 derives alpha from V; do not pass alpha")
        else:
            if self.alpha is None:
                raise ConfigurationError("version 3 requires alpha")
            if self.profile is None:
                raise ConfigurationError("version 3 requires a profile")
            if self.volume is not None:
                raise ConfigurationError("version 3 takes alpha directly, not a volume")


def _entries(values, field: str):
    """(label, entry) for each entry of a per-line sequence, the label naming
    the field and index; (field, values) for a single value, nothing for
    None."""
    if isinstance(values, Mapping):
        raise ConfigurationError(f"{field} must be a single value or a per-line sequence, "
                                 f"not a mapping")
    if isinstance(values, Sequence):
        return [(f"{field} at index {k}", v) for k, v in enumerate(values)]
    return [] if values is None else [(field, values)]


def _per_line(values, n: int, field: str) -> list:
    """values as a list of n per-line entries: a single value repeated, or a
    per-line sequence of exactly n entries."""
    if not isinstance(values, Sequence):
        return [values] * n
    if len(values) != n:
        raise ConfigurationError(f"{field} has {len(values)} per-line entries "
                                 f"for a dataset of {n} lines")
    return list(values)


# -- version 1 ----------------------------------------------------------------

def relates_v1(l1: SegmentLike, l2: SegmentLike, alpha1: float,
               root: bool | None = None) -> bool:
    """Metric relation: minimum distance strictly below alpha1.

    root is what a caller that decided many pairs at once found for this
    one, returned as it is; without it the pair is solved here by
    min_distance, the rows' distance kernel on a row of one, so the
    decision is the same either way.
    """
    if root is not None:
        return root
    return min_distance(l1, l2).distance < alpha1


# -- witness search for the probabilistic versions ----------------------------

def _witness_domain(l: SegmentLike, p: Profile | None) -> tuple[float, float]:
    """Parameters of l a witness may take: [0, 1] for a segment, unbounded
    for a line, intersected with the effective window of l's own density p.
    Empty (hi < lo) when that window misses [0, 1].  It is also l's reach as
    a source, the t* at which its density is read."""
    lo, hi = (-math.inf, math.inf) if l.is_line else (0.0, 1.0)
    if p is not None:
        w = effective_window(p)
        lo, hi = max(lo, w[0]), min(hi, w[1])
    return lo, hi


def _witness_threshold(p1: Profile, alpha1: float, reach: tuple[float, float]) -> float:
    """The witness threshold of a line l1 with density p1 and scale alpha1
    whose reach is its witness domain (_witness_domain), the t* at which f1
    is read: alpha1 * sup f1 over the reach, 0.0 where f1 vanishes there or
    the reach is empty.  No witness lies at or beyond it."""
    cap = peak_density(p1, *reach)
    return alpha1 * cap if cap > 0.0 else 0.0


def _is_capsule(l1: SegmentLike, p1: Profile) -> bool:
    """Is l1's neighbourhood a capsule, decided by the distance kernel
    rather than the witness search.

    A segment whose f1 is uniform(a, b) with a <= 0 and b >= 1 has the reach
    [0, 1] and f1 = 1 / (b - a) at every t* its projection can give, so its
    neighbourhood is the capsule around it whose radius is its threshold
    (_witness_threshold), the product alpha1 * f1 that phi subtracts.  A
    pair relates exactly when the minimum distance to l2's witness piece is
    below that radius, and d - r < 0 exactly when d < r, so the decision
    is phi's, with no search and none undecided.  A line, or a support
    strictly inside [0, 1], has flat ends instead.
    """
    return (not l1.is_line and p1.family == "uniform"
            and p1.params[0] <= 0.0 and p1.params[1] >= 1.0)


def _witness_pieces(X: np.ndarray, D: np.ndarray, sq: np.ndarray, is_segment: np.ndarray,
                    lo: np.ndarray, hi: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of the carriers (X, D, sq, is_segment), stacked as
    geometry._carriers stacks them, that their witness domains [lo, hi]
    cover: the segments (x + lo * d, (hi - lo) * d), a point where the
    carrier is one or lo == hi.  An unbounded domain, a line without a
    density, leaves its line whole.  An empty domain (hi < lo) gives a
    reversed piece, which holds no witness and is the caller's to drop."""
    bounded = np.isfinite(lo)
    start = np.where(bounded, lo, 0.0)
    width = np.where(bounded, hi - start, 1.0)
    return (X + start[:, None] * D, width[:, None] * D, width * width * sq,
            is_segment | bounded)


def _line_windows(l1: SegmentLike, threshold: float, reach: tuple[float, float],
                  X: np.ndarray, D: np.ndarray, sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finite s-intervals (lo, hi) that must contain any witness on m
    infinite l2s, the carrier rows (X, D, sq), each empty (hi < lo) where
    none can.  A witness lies within threshold of its closest point on l1,
    at a t* in the reach, so within threshold + h of the centre c of the
    piece of l1 the reach covers, h its half-length: each window is the
    chord of that ball, around the closest approach s0 of its l2 to c, the
    foot _feet_sq gives.
    """
    c = l1.x + 0.5 * (reach[0] + reach[1]) * l1.direction
    radius = threshold + 0.5 * (reach[1] - reach[0]) * math.sqrt(l1.sq_length)
    s0, dist_sq = _feet_sq(c, X, D, sq, False)
    half_sq = (radius * radius - dist_sq) / sq
    half = np.sqrt(half_sq, out=np.full_like(half_sq, -math.inf), where=half_sq > 0.0)
    return s0 - half, s0 + half


def _f1(p1: Profile, reach: tuple[float, float], t: np.ndarray) -> np.ndarray:
    """f1 at each of the parameters t of l1, read as 0 outside l1's reach,
    a segment's as a line's."""
    f = p1.pdf(t)
    f[(t < reach[0]) | (t > reach[1])] = 0.0
    return f


def _cell_bounds(profile1: Profile, alpha1: float, reach: tuple[float, float], a: np.ndarray,
                 b: np.ndarray, da: np.ndarray, db: np.ndarray, ta: np.ndarray, tb: np.ndarray,
                 s_min: float, speed: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower bounds on phi over cells [a, b] of l2's parameter, and the
    pad each bound must clear before its cell is pruned: PRUNE_PAD times the
    sum of the two bounded parts, the distance and alpha1 * f1.

    da, db are the distances from g2(a), g2(b) to l1 and ta, tb their
    projection parameters on l1; s_min is the evaluated parameter with the
    smallest distance and speed is |d2|.  s -> dist(g2(s), l1) is convex,
    the distance to a convex set along an affine map, so it is monotone on
    a cell that does not end at s_min and its minimum there is min(da, db).
    The at most two cells that end at s_min take the Lipschitz bound
    (da + db - speed * (b - a)) / 2, and no distance bound is below 0.
    t*(s) is affine and then clamped, so monotone, and every family is
    unimodal: f1 cut to the reach is on a cell at most f1 at its mode
    clipped into the reach, then into [min(ta, tb), max(ta, tb)], or 0 where
    that range misses the reach.  Neither bound reads min_distance.
    """
    at_min = (a == s_min) | (b == s_min)
    lipschitz = np.maximum(0.5 * (da + db - speed * (b - a)), 0.0)
    dist = np.where(at_min, lipschitz, np.minimum(da, db))
    peak = np.clip(min(max(profile1.mode(), reach[0]), reach[1]), np.minimum(ta, tb),
                   np.maximum(ta, tb))
    scaled = alpha1 * _f1(profile1, reach, peak)
    return dist - scaled, PRUNE_PAD * (dist + scaled)


def _phi(l1: SegmentLike, profile1: Profile, alpha1: float, reach: tuple[float, float],
         P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The feet t on l1, distances d to l1 and phi = d - alpha1 * f1(t) of
    the m rows of P, each row's values the same bits whatever the others."""
    t, sq = _feet_sq(P, l1.x, l1.direction, l1.sq_length, l1.kind == "segment")
    d = np.sqrt(sq)
    return t, d, d - alpha1 * _f1(profile1, reach, t)


def _root_level(l1: SegmentLike, profile1: Profile, alpha1: float,
                reach: tuple[float, float], X: np.ndarray, D: np.ndarray, sq: np.ndarray,
                lo: np.ndarray, hi: np.ndarray, samples: int) -> tuple[np.ndarray, ...]:
    """One level of the witness search over m windows of l2s at once: the
    root grids of m pairs (l1, l2_k), or, below the root, three-point
    windows over the cells kept for them.

    X, D are the (m, dim) base points and directions of the windows' l2s,
    sq their (m,) squared lengths (none zero) and lo, hi their (m,) finite
    windows.  Returns (s, t, d, hit, keep): the (m, samples) grid of each
    window, np.linspace's arithmetic lo + k * step with the last point set
    to hi; the grid points' feet on l1 and distances to l1, from _phi; each
    window's (m,) hit flag, some grid phi < 0; and its (m, samples - 1)
    mask of the cells _cell_bounds does not prune, with the speed sqrt(sq)
    and s_min the first grid point of least distance.  That point stands in
    for the least distance over the window: dist(g2(s), l1) is convex, so
    it is monotone on every cell that does not end there.  Every operation
    acts on each window's row alone, so a row has the same bits whatever
    the other windows are.
    """
    step = (hi - lo) / (samples - 1)
    s = np.arange(samples) * step[:, None] + lo[:, None]
    s[:, -1] = hi
    # the (m, dim) grid points column-major, for _feet_sq's column sums
    P = (X.T[:, :, None] + D.T[:, :, None] * s).reshape(X.shape[1], -1).T
    t, d, phi = (v.reshape(s.shape) for v in _phi(l1, profile1, alpha1, reach, P))
    hit = (phi < 0.0).any(axis=1)
    s_min = np.take_along_axis(s, np.argmin(d, axis=1)[:, None], axis=1)
    bound, pad = _cell_bounds(profile1, alpha1, reach, s[:, :-1], s[:, 1:], d[:, :-1], d[:, 1:],
                              t[:, :-1], t[:, 1:], s_min, np.sqrt(sq)[:, None])
    return s, t, d, hit, bound < pad


def _point_hits(l1: SegmentLike, profile1: Profile, alpha1: float,
                reach: tuple[float, float], P: np.ndarray) -> np.ndarray:
    """phi < 0 at the rows of P, the points x + lo * d of l2s whose witness
    set is that one parameter: the (m,) hit flags of those pairs."""
    return _phi(l1, profile1, alpha1, reach, P)[2] < 0.0


def _witness_hits(l1: SegmentLike, p1: Profile, alpha1: float,
                  reach: tuple[float, float], threshold: float, X: np.ndarray,
                  D: np.ndarray, sq: np.ndarray, lo: np.ndarray, hi: np.ndarray
                  ) -> tuple[np.ndarray, int]:
    """The witness decisions of m pairs (l1, l2_k) at once: (m,) bools, and
    how many of the pairs are undecided.

    X, D, sq are the l2s' carrier rows and lo, hi their witness domains;
    reach and threshold > 0 are l1's (_witness_domain, _witness_threshold).
    An empty window (hi < lo) is False.  The unbounded ones, lines without
    a density, are cut to _line_windows in one call.  A one-parameter
    witness set, a point l2 or a window no wider than SEARCH_TOL, is phi at
    that parameter, all of them in one _point_hits pass.  Any other pair is
    its root level, a grid of ROOT_SAMPLES, in blocks of ROOT_BLOCK pairs;
    then, level by level, each cell a block keeps for a pair with no hit
    goes back to _root_level as a window of three points, in calls of at
    most ROOT_BLOCK * ROOT_SAMPLES points.  A pair is True at its first
    phi < 0 and False when it keeps no cell.  One that keeps a cell no wider
    than SEARCH_TOL, or whose cells below the root grid would number more
    than WITNESS_BUDGET, is undecided: False, its cells dropped before they
    are gathered.
    """
    free = np.flatnonzero(np.isinf(lo))
    if len(free):
        lo, hi = lo.copy(), hi.copy()
        lo[free], hi[free] = _line_windows(l1, threshold, reach, X[free], D[free], sq[free])
    live = hi >= lo
    hits = np.zeros(len(X), dtype=bool)
    narrow = live & ((sq == 0.0) | (hi - lo <= SEARCH_TOL))
    single = np.flatnonzero(narrow)
    if len(single):
        hits[single] = _point_hits(l1, p1, alpha1, reach, X[single] + lo[single, None] * D[single])
    batched = np.flatnonzero(live & ~narrow)
    # three points a cell: no call below the root holds more points than a root block
    cells = ROOT_BLOCK * ROOT_SAMPLES // 3
    undecided = 0
    for k in range(0, len(batched), ROOT_BLOCK):
        idx = batched[k:k + ROOT_BLOCK]
        Xb, Db, sqb = X[idx], D[idx], sq[idx]
        s, _, _, hit, keep = _root_level(l1, p1, alpha1, reach, Xb, Db, sqb, lo[idx], hi[idx],
                                         ROOT_SAMPLES)
        r = np.arange(len(idx))  # the block's pair of each window
        spent, stuck = np.zeros(len(idx)), np.zeros(len(idx), dtype=bool)
        while True:
            keep &= ~hit[r, None]  # the kept cells of the pairs with no hit
            if not keep.any():
                break
            spent += np.bincount(r, keep.sum(axis=1), len(idx))
            stuck |= spent > WITNESS_BUDGET  # undecided before their cells are gathered
            i, h = np.nonzero(keep & ~stuck[r, None])
            r, a, b = r[i], s[i, h], s[i, h + 1]
            narrow = b - a <= SEARCH_TOL
            if narrow.any():  # the pairs of these cells are undecided
                stuck[r[narrow]] = True
                alive = ~stuck[r]
                r, a, b = r[alive], a[alive], b[alive]
            s, keep = np.empty((len(r), 3)), np.empty((len(r), 2), dtype=bool)
            for j in range(0, len(r), cells):
                q = r[j:j + cells]
                s[j:j + cells], _, _, found, keep[j:j + cells] = _root_level(
                    l1, p1, alpha1, reach, Xb[q], Db[q], sqb[q], a[j:j + cells], b[j:j + cells], 3)
                hit[q[found]] = True
        hits[idx] = hit
        undecided += int(stuck.sum())
    return hits, undecided


def relates_prob(l1: SegmentLike, profile1: Profile, alpha1: float,
                 l2: SegmentLike, profile2: Profile | None = None, *,
                 root: bool | None = None) -> bool:
    """Witness test: does any point of l2 (within its own declared support)
    fall strictly inside l1's alpha-scaled density neighbourhood.

    root is the decision of a caller that decided many pairs at once, as
    relates_v1's is, returned as it is.  Without it the pair is row 0 of
    the two-line version 3 evaluator [l1, l2], its spec validated by
    NeighbourhoodSpec, so the pair takes a row's dispatch and bounds.  A
    pair the branch and bound cannot decide returns False; a caller that
    needs to know builds that evaluator and reads its undecided_count.
    """
    if root is not None:
        return root
    return RelationEvaluator([l1, l2], NeighbourhoodSpec(version=3, c=1, alpha=alpha1,
                                                         profile=[profile1, profile2])
                             ).relates(0, 1)


# -- dispatch and neighbour sets ----------------------------------------------

def _volume_alpha(spec: NeighbourhoodSpec, i: int, l: SegmentLike,
                  p: Profile | None) -> float:
    """Version 2's alpha for line i (l, with profile p), from the volume V."""
    if p is None:
        raise ConfigurationError(f"version 2 cannot derive alpha for line {i} without a profile")
    if l.is_degenerate:
        raise ConfigurationError(f"version 2 cannot derive alpha for line {i}: it is a point, "
                                 f"a zero-length axis of revolution with no volume")
    if spec.alpha_mode == "exact-volume":
        return exact_volume_scaling_factor(spec.volume, p, l, l.dim)
    return scaling_factor(spec.volume, p, l, l.dim)


class RelationEvaluator:
    """Evaluates the relation over a fixed dataset, with per-line parameters
    resolved once and a relation-evaluation counter.

    Everything that depends on one line alone is resolved when the
    evaluator is built, into lists and arrays indexed like the dataset: the
    array layout (centres, half-lengths, infinite for a line, and the
    stack, as geometry._carriers stacks carriers: the n carriers, then the
    n witness pieces, 2n x dim base points and directions), each line's
    alpha (version 2 derives it from V through _volume_alpha) and profile,
    its witness domain as window bounds, which are a profiled line's reach
    too, its threshold over that reach, and its metric radius: alpha for a
    line without a profile, the threshold of a capsule (_is_capsule), None
    for a searched line.  A per-line alpha or profile sequence of the wrong
    length, or a version 2 line without a profile, is a ConfigurationError
    here, not at the first row that needs the entry.

    A relation row, line i against a slice of the dataset, decides every
    pair in arrays, as one boolean mask.  A metric row, whose line has a
    radius, takes the pairs whose centre gap |c_i - c_j| - h_i - h_j is
    below it, in a capsule row only targets whose witness domain is not
    empty, and solves their minimum distances, all but i's own, in one
    _min_distance_many call, to the targets' carriers from a line without
    a profile and to their witness pieces from a capsule; a row with no
    such pair makes no call.  stage(rows) does the same for up to ROW_BLOCK
    metric rows at once, their open pairs in one call, and keeps each row's
    mask until neighbor_set(i) serves it; the expand engine stages the rows
    its frontier will ask for next.  A searched row takes the pairs whose
    carrier bound (_carrier_bound) is below its threshold and decides them
    in one _witness_hits call.  Each pair's decision then goes to relates_v1 /
    relates_prob, called once per pair, as its root; the diagonal of a
    metric row goes without one, so min_distance's shortcut decides it.
    neighbor_set(i) is that row over the whole dataset and relates(i, j)
    that row over line j alone, i and j indexing the dataset as U[i] does,
    an IndexError out of range; both count every pair in eval_count, and
    every pair the witness search leaves undecided (reported as unrelated)
    in undecided_count.
    """

    def __init__(self, U: Sequence[SegmentLike], spec: NeighbourhoodSpec):
        self.U = list(U)
        self.spec = spec
        self.eval_count = 0
        self.undecided_count = 0
        self._staged: dict[int, np.ndarray] = {}  # metric row -> its mask, until served
        if len({l.dim for l in self.U}) > 1:
            raise ValueError("all lines of a dataset must have the same dimension")
        n = len(self.U)
        self.centre = np.array([l.center for l in self.U], dtype=np.float64)
        self.half_len = np.array([math.inf if l.is_line else l.half_length for l in self.U])
        self.profiles: list[Profile | None] = _per_line(spec.profile, n, "profile")
        if spec.version == 2:
            self.alphas = [_volume_alpha(spec, i, l, p)
                           for i, (l, p) in enumerate(zip(self.U, self.profiles))]
        else:
            self.alphas = [float(a) for a in _per_line(spec.alpha, n, "alpha")]
        windows = [_witness_domain(l, p) for l, p in zip(self.U, self.profiles)]
        self.window_lo = np.array([w[0] for w in windows], dtype=np.float64)
        self.window_hi = np.array([w[1] for w in windows], dtype=np.float64)
        self.has_piece = self.window_hi >= self.window_lo
        # the n carriers, then the n witness pieces, which a capsule row reads
        carriers = _carriers(*self.U)
        pieces = _witness_pieces(*carriers, self.window_lo, self.window_hi) if n else carriers
        self.stack = tuple(np.concatenate(pair) for pair in zip(carriers, pieces))
        self.x, self.direction, self.sq_length, self.is_segment = (a[:n] for a in self.stack)
        # each profiled line's threshold over its reach, its window; None
        # for a density-free line
        self.thresholds = [None if p is None else _witness_threshold(p, a, w)
                           for p, a, w in zip(self.profiles, self.alphas, windows)]
        # each line's metric radius: alpha without a density, the threshold
        # of a capsule, None for a line the witness search decides
        self.radii = [a if p is None else t if _is_capsule(l, p) else None
                      for l, p, a, t in zip(self.U, self.profiles, self.alphas, self.thresholds)]

    def _carrier_bound(self, i: int, js: slice) -> np.ndarray:
        """A lower bound on the distance from line i to each line of js:
        max(dist(c_j, carrier_i) - h_j, dist(c_i, carrier_j) - h_i).

        Every point of a finite carrier lies within its half-length h of its
        centre c, and the distance to a set is 1-Lipschitz, so each term is
        a lower bound.  A point's carrier is the point itself; only when
        both carriers are lines is every term -inf.  The centre gap
        |c_i - c_j| - h_i - h_j is never above the first term, since
        carrier_i lies within h_i of c_i.
        """
        _, sq = _feet_sq(np.asfortranarray(self.centre[js]), self.x[i], self.direction[i],
                         self.sq_length[i], self.is_segment[i])  # column-major: see _feet_sq
        bound = np.sqrt(sq) - self.half_len[js]
        if self.is_segment[i]:
            _, sq = _feet_sq(self.centre[i], self.x[js], self.direction[js], self.sq_length[js],
                             self.is_segment[js])
            np.maximum(bound, np.sqrt(sq) - self.half_len[i], out=bound)
        return bound

    def _centre_gaps(self, i: int, js: slice) -> np.ndarray:
        """The centre gaps |c_i - c_j| - h_i - h_j from line i to each line
        of the dataset slice js, -inf where either carrier is a line."""
        gaps = self.centre[js] - self.centre[i]
        gaps = np.sqrt(np.einsum("ij,ij->i", gaps, gaps))
        gaps -= self.half_len[i]
        gaps -= self.half_len[js]
        return gaps

    def _metric_rows(self, rows: Sequence[int], js: slice) -> list[np.ndarray]:
        """The decision mask of each metric row of rows over the dataset
        slice js: False where the centre gap is at or beyond its radius, on
        the diagonal and, in a capsule row, where the target's witness
        domain is empty; min distance < radius elsewhere, from one
        `_min_distance_many` call over the open pairs of every row, and no
        call when no row has one.  A density-free row measures to its
        targets' carriers, a capsule row to their witness pieces, the rows
        of the stack offset by n."""
        n = len(self.U)
        lines = range(n)[js]
        masks, starts = [], []
        for i in rows:
            mask = self._centre_gaps(i, js) < self.radii[i]
            capsule = self.profiles[i] is not None
            if capsule:
                mask &= self.has_piece[js]
            if i in lines:  # the diagonal keeps min_distance's shortcut
                mask[i - lines.start] = False
            masks.append(mask)
            starts.append(lines.start + n if capsule else lines.start)
        at = [mask.nonzero()[0] for mask in masks]
        counts = [len(a) for a in at]
        if any(counts):
            l1 = np.repeat(rows, counts)
            l2 = np.concatenate(at) + np.repeat(starts, counts)
            dist, _, _ = _min_distance_many(*(a[l1] for a in self.stack),
                                            *(a[l2] for a in self.stack))
            radius = np.repeat([self.radii[i] for i in rows], counts)
            for mask, a, hit in zip(masks, at, np.split(dist < radius, np.cumsum(counts)[:-1])):
                mask[a] = hit
        return masks

    def stage(self, rows: Iterable[int]) -> None:
        """Solve the open pairs of the metric rows among the first ROW_BLOCK
        of rows in one kernel call, and keep each row's mask until
        neighbor_set serves it.  A call while any row is staged does
        nothing, so a block is served whole before the next is solved and
        no more than ROW_BLOCK rows are ever held.  Searched rows are left
        to their own path; staging changes no decision and counts nothing."""
        if self._staged:
            return
        rows = [range(len(self.U))[i] for i in islice(rows, ROW_BLOCK)]  # as _related reads i
        block = [i for i in rows if self.radii[i] is not None]
        if block:
            self._staged = dict(zip(block, self._metric_rows(block, slice(None))))

    def _related(self, i: int, js: slice) -> list[int]:
        """The lines of the dataset slice js that line i relates to."""
        i = range(len(self.U))[i]  # an IndexError out of range, as U[i]
        lines = range(len(self.U))[js]
        self.eval_count += len(lines)
        U, l1, p1, alpha1 = self.U, self.U[i], self.profiles[i], self.alphas[i]
        radius = self.radii[i]
        # each pair's relates_* call returns the row's decision, its root;
        # the calls remain because benchmark/tracing.py counts them
        if radius is not None:
            # version 1, a declared density-free line or a capsule: the metric relation
            staged = self._staged.pop(i, None) if js == slice(None) else None
            roots = (staged if staged is not None else self._metric_rows([i], js)[0]).tolist()
            if i in lines:
                roots[i - lines.start] = None  # decided by min_distance's shortcut
            return [j for j, root in zip(lines, roots) if relates_v1(l1, U[j], radius, root)]
        reach, threshold = (self.window_lo[i], self.window_hi[i]), self.thresholds[i]
        related = (self._carrier_bound(i, js) < threshold) & (threshold > 0.0)
        idx = np.arange(len(U))[js][related]
        related[related], undecided = _witness_hits(
            l1, p1, alpha1, reach, threshold, self.x[idx], self.direction[idx],
            self.sq_length[idx], self.window_lo[idx], self.window_hi[idx])
        self.undecided_count += undecided
        return [j for j, root in zip(lines, related.tolist())
                if relates_prob(l1, p1, alpha1, U[j], root=root)]

    def relates(self, i: int, j: int) -> bool:
        """Does line i relate to line j."""
        j = range(len(self.U))[j]  # an IndexError out of range, as U[j]
        return bool(self._related(i, slice(j, j + 1)))

    def neighbor_set(self, i: int) -> set[int]:
        """Indices of all dataset lines line i relates to (itself included
        whenever it can reach its own density)."""
        return set(self._related(i, slice(None)))

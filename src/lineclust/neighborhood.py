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

over l2's parameter domain intersected with the effective window of l2's own
density (its declared support).  phi can be multimodal: the density may have
several influential bumps along t*(s) and dist has kinks where the projection
clamps at a segment end.  The search is a certified branch and bound over
the cells of a uniform root grid of search_samples parameters (Shubert 1972;
Hansen & Walster 2004).  Every cell [a, b] gets a lower bound on phi from
its two ends (_cell_bounds): dist(g2(s), l1) is convex in s, and t*(s) is
monotone with every density unimodal.  One numpy pass per level prunes the
cells whose bound is >= 0 (with a relative pad of PRUNE_PAD), evaluates phi
at the midpoints of the rest and bisects them.  A relation is reported only
for an actually evaluated phi(s) < 0, so false positives are impossible, and
a pair is unrelated only when every cell is pruned.  A pair that still has
a cell when the cells are narrower than SEARCH_TOL, or that would spend more
than WITNESS_BUDGET evaluations, is undecided: it is reported as unrelated
and counted through the caller's on_undecided.

Before any of this, a pair whose lower bound on the distance between the
two carriers already reaches alpha1 * sup f1 is rejected, the bound version
1 applies with alpha1.  Version 1 decides the rest by the exact minimum
distance; versions 2 and 3 never solve it, the root level and the branch
and bound alone decide what the bound leaves open.
RelationEvaluator computes the bound for a whole relation row in a few
array expressions, from the centres, half-lengths and carriers stacked once
per dataset, and hands each pair's value to relates_v1 / relates_prob as
`gap`, the caller's lower bound; called without it, they skip it.  A
version 1 row uses the centre gap |c1 - c2| - h1 - h2 alone.  A row whose
line has a profile tightens it to the carrier bound: the largest of the
centre gap, dist(c2, carrier1) - h2 and dist(c1, carrier2) - h1, TRACLUS's
perpendicular-distance pruning (Lee, Han & Whang 2007).  It is finite
unless both carriers are lines, and it rejects the lifted segments that
sweep a whole axis past one another, whose centre gaps are all negative.

A metric row (version 1, or a density-free line in version 3) solves every
pair off the diagonal that its centre gap leaves open in one
_min_distance_many call and hands each pair its decision, distance <
alpha1, as `root`.  That call is the one distance kernel, over pairs that
each carry their own l1: a row is a block of one row, a block of up to
ROW_BLOCK rows staged ahead of their use (RelationEvaluator.stage) is
solved in one call, and min_distance solves a single pair as a row of one,
so a pair's distance has the same bits in each.  The diagonal keeps
min_distance's shortcut for a carrier against itself, and a row with no
other open pair, every row of a dataset of isolated lines, makes no array
solve and passes no root, so it costs what the per-pair loop does
(acceptance criterion 7 measures those rows).

The rest of the witness set-up also splits by line.  The threshold
alpha1 * sup f1 over l1's reach (the t* range of its projection) depends on
l1 alone (_witness_threshold), and l2's witness domain, [0, 1] or unbounded
intersected with the effective window of f2, on l2 alone
(_witness_domain), cut to a finite window when unbounded
(_line_candidate_window).  RelationEvaluator resolves every line's alpha,
profile, witness domain, reach and threshold once, when it is built, and
passes them to relates_prob beside `gap`; a direct call without them
computes them with the same helpers.

phi has one evaluator, array calls of _closest_sq_many and Profile.pdf
over many parameters at once, and a pair one decision path: phi at its one
parameter when its witness set is one (a point l2, or a window no wider
than SEARCH_TOL; _point_hits), else its root level (_root_level), a hit on
the grid or every cell pruned, and only where that leaves a kept cell and
no hit, the branch and bound below it (_refine).  A profile row takes these
steps for every pair its bound leaves open, _point_hits in one array pass
and _root_level in one per block of ROOT_BLOCK pairs, and hands each pair
its decision as a bool `root`, as a metric row does.  relates_prob, still
called once per pair, takes them as a batch of one when it gets no root;
each pair's result has the same bits in a batch of any size.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import islice
from numbers import Integral, Real
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError
from .geometry import (
    SegmentLike,
    _carriers,
    _closest_sq_many,
    _feet_sq,
    _min_distance_many,
    closest_point,
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

SEARCH_TOL = 1e-9  # cell width in l2's parameter below which a witness search is undecided
WITNESS_BUDGET = 4096  # phi evaluations one pair may spend below its root grid
PRUNE_PAD = 1e-12  # relative margin a cell's lower bound on phi must clear to prune it
ROOT_BLOCK = 32  # pairs whose root levels one array pass evaluates, bounding a row's temporaries
ROW_BLOCK = 16  # metric rows whose open pairs one staged kernel call solves


@dataclass(frozen=True)
class NeighbourhoodSpec:
    """Version selector plus the parameters the chosen version needs.

    c is the cardinality threshold.  alpha and profile may be a single value
    applied to every line, or a per-line sequence indexed like the dataset.
    A None profile entry declares a line density-free (version 3 then falls
    back to the metric relation for that line, and its whole extent acts as
    the witness set).  Values are checked when the spec is built: a profile
    must be a Profile (an entry may also be None), an alpha and a volume a
    finite positive real number, and version, c and search_samples
    integers; a bool is neither.  A per-line sequence is checked against
    the dataset's length when a RelationEvaluator is built.

    search_samples is the size of the root grid the witness search
    partitions l2's window with.  The branch and bound below it decides
    every pair it can certify whatever the grid, so the grid sets where
    the search starts, not which witnesses it can miss.
    """

    version: int
    c: int
    alpha: PerLineAlpha | None = None
    volume: float | None = None
    profile: PerLineProfile | None = None
    alpha_mode: str = "literal"  # "literal" or "exact-volume" (version 2)
    search_samples: int = 64

    def __post_init__(self):
        for name in ("version", "c", "search_samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.version not in (1, 2, 3):
            raise ConfigurationError(f"version must be 1, 2 or 3, got {self.version}")
        if self.c < 1:
            raise ConfigurationError(f"cardinality c must be >= 1, got {self.c}")
        if self.search_samples < 2:
            raise ConfigurationError("search_samples must be >= 2")
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
                raise ConfigurationError(f"{what} must be a finite positive number, "
                                         f"got {value!r}")
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


# -- membership and version 1 ------------------------------------------------

def contains_point(l: SegmentLike, p: Profile, alpha: float, point) -> bool:
    """Is the point strictly inside the alpha-scaled density neighbourhood."""
    cp = closest_point(point, l)
    return cp.distance < alpha * density(p, cp.t_star)


def relates_v1(l1: SegmentLike, l2: SegmentLike, alpha1: float,
               gap: float = -math.inf, root: bool | None = None) -> bool:
    """Metric relation: minimum distance strictly below alpha1.

    gap is a lower bound on that distance known to the caller; a pair it
    already puts at alpha1 or beyond is rejected without the exact solve.
    root is what a caller that solved many pairs at once found for this
    one, min distance < alpha1 from a _min_distance_many row; without it
    the pair is solved here by min_distance, the same kernel on a row of
    one, so the decision is the same either way.
    """
    if gap >= alpha1:
        return False
    if root is not None:
        return root
    return min_distance(l1, l2).distance < alpha1


# -- witness search for the probabilistic versions ----------------------------

def _witness_domain(l: SegmentLike, p: Profile | None) -> tuple[float, float]:
    """Parameters of l a witness may take: [0, 1] for a segment, unbounded
    for a line, intersected with the effective window of l's own density p.
    Empty (hi < lo) when that window misses [0, 1]."""
    lo, hi = (-math.inf, math.inf) if l.is_line else (0.0, 1.0)
    if p is not None:
        w = effective_window(p)
        lo, hi = max(lo, w[0]), min(hi, w[1])
    return lo, hi


def _witness_threshold(l1: SegmentLike, p1: Profile, alpha1: float,
                       domain1: tuple[float, float] | None = None
                       ) -> tuple[tuple[float, float], float]:
    """Line l1's reach and witness threshold, which depend on l1 alone.

    The reach is the range of t*(s) values the projection onto l1 can
    produce: [0, 1] for a segment, and for a line its witness domain
    (domain1 when the caller has it), the effective window of f1.  The
    threshold is alpha1 * sup f1 over the reach, 0.0 where f1 vanishes
    there; no witness lies at or beyond it.
    """
    if alpha1 <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha1}")
    if not l1.is_line:
        reach = (0.0, 1.0)
    else:
        reach = domain1 if domain1 is not None else _witness_domain(l1, p1)
    cap = peak_density(p1, *reach)
    return reach, alpha1 * cap if cap > 0.0 else 0.0


def _line_candidate_window(l1: SegmentLike, l2: SegmentLike, threshold: float,
                           reach: tuple[float, float]) -> tuple[float, float] | None:
    """Finite s-interval that must contain any witness on an infinite l2, or
    None when none can.  A witness lies within threshold of its closest point
    on l1, at a t* in the reach, so within threshold + h of the centre c of
    the piece of l1 the reach covers, h its half-length: the window is the
    chord of that ball, around the closest approach s0 of l2 to c.
    """
    c = l1.x + 0.5 * (reach[0] + reach[1]) * l1.direction
    radius = threshold + 0.5 * (reach[1] - reach[0]) * math.sqrt(l1.sq_length)
    r = l2.x - c
    s0 = -float(r @ l2.direction) / l2.sq_length
    r += s0 * l2.direction
    half_sq = (radius * radius - float(r @ r)) / l2.sq_length
    if half_sq <= 0.0:
        return None
    half = math.sqrt(half_sq)
    return (s0 - half, s0 + half)


def _cell_bounds(a: np.ndarray, b: np.ndarray, da: np.ndarray, db: np.ndarray,
                 ta: np.ndarray, tb: np.ndarray, s_min: float, speed: float,
                 alpha1: float, profile1: Profile) -> tuple[np.ndarray, np.ndarray]:
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
    unimodal: f1 on a cell is at most f1 at its mode clipped into
    [min(ta, tb), max(ta, tb)].  Neither bound reads min_distance.
    """
    at_min = (a == s_min) | (b == s_min)
    lipschitz = np.maximum(0.5 * (da + db - speed * (b - a)), 0.0)
    dist = np.where(at_min, lipschitz, np.minimum(da, db))
    peak = np.clip(profile1.mode(), np.minimum(ta, tb), np.maximum(ta, tb))
    scaled = alpha1 * profile1.pdf(peak)
    return dist - scaled, PRUNE_PAD * (dist + scaled)


def _root_level(l1: SegmentLike, profile1: Profile, alpha1: float, X: np.ndarray,
                D: np.ndarray, sq: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                samples: int) -> tuple[np.ndarray, ...]:
    """The root level of the witness search for m pairs (l1, l2_k) at once.

    X, D are the (m, dim) base points and directions of the l2s, sq their
    (m,) squared lengths (none zero) and lo, hi their (m,) finite witness
    windows.  Returns (s, t, d, hit, keep): the (m, samples) grid of each
    window, np.linspace's arithmetic lo + k * step with the last point set
    to hi; the projection parameters on l1 and distances to l1 of the grid
    points; each pair's (m,) hit flag, some grid phi < 0; and its
    (m, samples - 1) mask of the cells _cell_bounds does not prune, with
    s_min the first grid point of least distance and the speed sqrt(sq).
    Every operation acts on each pair's row alone, so a pair's row has the
    same bits whatever the other pairs are.
    """
    step = (hi - lo) / (samples - 1)
    s = np.arange(samples) * step[:, None] + lo[:, None]
    s[:, -1] = hi
    P = X[:, None, :] + s[:, :, None] * D[:, None, :]
    t, sq_d = _closest_sq_many(P.reshape(-1, P.shape[2]), l1)
    t = t.reshape(s.shape)
    d = np.sqrt(sq_d).reshape(s.shape)
    hit = (d - alpha1 * profile1.pdf(t) < 0.0).any(axis=1)
    s_min = np.take_along_axis(s, np.argmin(d, axis=1)[:, None], axis=1)
    bound, pad = _cell_bounds(s[:, :-1], s[:, 1:], d[:, :-1], d[:, 1:], t[:, :-1], t[:, 1:],
                              s_min, np.sqrt(sq)[:, None], alpha1, profile1)
    return s, t, d, hit, bound < pad


def _point_hits(l1: SegmentLike, profile1: Profile, alpha1: float,
                P: np.ndarray) -> np.ndarray:
    """phi < 0 at each row of P, an (m, dim) array of points of l2s whose
    witness set is the one parameter that gives the point, x + lo * d: the
    (m,) hit flags of those pairs.  Every operation acts on each row alone,
    so a pair's flag is the same whatever the other pairs are.
    """
    t, sq = _closest_sq_many(P, l1)
    return np.sqrt(sq) - alpha1 * profile1.pdf(t) < 0.0


def _refine(l1: SegmentLike, profile1: Profile, alpha1: float, l2: SegmentLike,
            s: np.ndarray, t: np.ndarray, d: np.ndarray, keep: np.ndarray, width: float,
            on_undecided: Callable[[], None] | None) -> bool:
    """The branch and bound below one pair's root level, a _root_level row
    (s, t, d, keep) with no hit and a kept cell, cells width wide.  Each
    level evaluates phi at the kept cells' midpoints, True on a phi < 0,
    then bisects them and prunes the halves by _cell_bounds, False when none
    is left.  Cells no wider than SEARCH_TOL, or a level past WITNESS_BUDGET
    evaluations, leave the pair undecided: False, after on_undecided()."""
    k = int(np.argmin(d))
    s_min, d_min = float(s[k]), float(d[k])
    a, b, da, db, ta, tb = s[:-1], s[1:], d[:-1], d[1:], t[:-1], t[1:]
    speed = math.sqrt(l2.sq_length)
    spent = 0
    while True:
        if width <= SEARCH_TOL or spent + int(keep.sum()) > WITNESS_BUDGET:
            if on_undecided is not None:
                on_undecided()
            return False
        a, b, da, db, ta, tb = a[keep], b[keep], da[keep], db[keep], ta[keep], tb[keep]
        m = 0.5 * (a + b)
        spent += len(m)
        tm, sq = _closest_sq_many(l2.x + m[:, None] * l2.direction, l1)
        dm = np.sqrt(sq)
        if (dm - alpha1 * profile1.pdf(tm) < 0.0).any():
            return True
        k = int(np.argmin(dm))
        if dm[k] < d_min:
            s_min, d_min = float(m[k]), float(dm[k])
        a, b = np.concatenate((a, m)), np.concatenate((m, b))
        da, db = np.concatenate((da, dm)), np.concatenate((dm, db))
        ta, tb = np.concatenate((ta, tm)), np.concatenate((tm, tb))
        width *= 0.5
        bound, pad = _cell_bounds(a, b, da, db, ta, tb, s_min, speed, alpha1, profile1)
        keep = bound < pad
        if not keep.any():
            return False


def relates_prob(l1: SegmentLike, profile1: Profile, alpha1: float,
                 l2: SegmentLike, profile2: Profile | None = None, *,
                 search_samples: int = 64, gap: float = -math.inf,
                 reach: tuple[float, float] | None = None, threshold: float | None = None,
                 window: tuple[float, float] | None = None, root: bool | None = None,
                 on_undecided: Callable[[], None] | None = None) -> bool:
    """Witness test: does any point of l2 (within its own declared support)
    fall strictly inside l1's alpha-scaled density neighbourhood.

    gap is a lower bound on the distance between l1 and l2 known to the
    caller; a pair it puts at alpha1 * sup f1 or beyond is rejected before
    any phi is evaluated.  No exact distance solve follows.  reach and
    threshold (from _witness_threshold) depend on l1 alone and window (from
    _witness_domain) on l2 alone; a caller deciding many pairs passes them,
    and whatever it leaves out is computed here with the same helpers (both
    reach and threshold when either is missing).  root is the decision of a
    caller that decided many pairs at once, as relates_v1's is; without it
    the pair is decided here as a batch of one (_point_hits, or _root_level
    and then _refine).  A pair the branch and bound cannot decide returns
    False and calls on_undecided, when given.
    """
    if l1.dim != l2.dim:
        raise ValueError(f"dimension mismatch: {l1.dim}-d vs {l2.dim}-d")
    if reach is None or threshold is None:
        reach, threshold = _witness_threshold(l1, profile1, alpha1)
    if threshold <= 0.0 or gap >= threshold:
        return False
    lo, hi = window if window is not None else _witness_domain(l2, profile2)
    if hi < lo:
        return False
    if root is not None:
        return root
    if math.isinf(lo):  # a line without a density of its own
        window = _line_candidate_window(l1, l2, threshold, reach)
        if window is None:
            return False
        lo, hi = window
    if l2.is_degenerate or hi - lo <= SEARCH_TOL:
        return bool(_point_hits(l1, profile1, alpha1, (l2.x + lo * l2.direction)[None])[0])
    (s,), (t,), (d,), (hit,), (keep,) = _root_level(
        l1, profile1, alpha1, l2.x[None], l2.direction[None], np.array([l2.sq_length]),
        np.array([lo]), np.array([hi]), search_samples)
    if hit or not keep.any():
        return bool(hit)
    return _refine(l1, profile1, alpha1, l2, s, t, d, keep, (hi - lo) / (search_samples - 1),
                   on_undecided)


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
    array layout (centres, half-lengths, infinite for a line, and carriers
    as geometry._carriers stacks them, n x dim base points and directions),
    each line's alpha (version 2 derives it from V through _volume_alpha),
    profile and witness domain, stacked as window bounds too, and, for each
    line with a profile, its reach and threshold.  A per-line alpha or
    profile sequence of the wrong length, or a version 2 line without a
    profile, is a ConfigurationError here, not at the first row that needs
    the entry.

    A relation row, line i against a slice of the dataset, computes every
    pair's centre gap |c_i - c_j| - h_i - h_j in one array expression (-inf
    where either carrier is a line).  A metric row, whose line has no
    profile, solves the minimum distance of every pair but i itself that
    the gap leaves below alpha_i in one _min_distance_many call, and hands
    each such pair its decision as its root; a row with no such pair
    passes none, so an isolated row costs what the per-pair loop does.
    stage(rows) does the same for up to ROW_BLOCK metric rows at once, their
    open pairs in one call, and keeps each row's gaps and decisions until
    neighbor_set(i) serves it; the expand engine stages the rows its
    frontier will ask for next.  A row whose line has a profile tightens
    the gap to the carrier bound (_carrier_bound), -inf only where both
    carriers are lines, and evaluates the witness search's first step for
    every pair the bound leaves below the threshold whose window is finite
    and non-empty.  A pair whose witness set is one parameter, a point l2 or
    a window no wider than SEARCH_TOL, is decided in one _point_hits pass;
    any other by its root level, in blocks of ROOT_BLOCK pairs, and _refine
    where that leaves a kept cell and no hit.  Each pair's bound, with the
    resolved parameters and its decision as its root, goes to relates_v1 /
    relates_prob, called once per pair, as the caller's lower bound.
    neighbor_set(i) is that row over the whole dataset and relates(i, j)
    that row over line j alone; both count every pair in eval_count, and
    every pair the witness search leaves undecided (reported as unrelated)
    in undecided_count.
    """

    def __init__(self, U: Sequence[SegmentLike], spec: NeighbourhoodSpec):
        self.U = list(U)
        self.spec = spec
        self.eval_count = 0
        self.undecided_count = 0
        self._staged: dict[int, tuple] = {}  # metric row -> its _metric_rows entry, until served
        if len({l.dim for l in self.U}) > 1:
            raise ValueError("all lines of a dataset must have the same dimension")
        n = len(self.U)
        self.centre = np.array([l.center for l in self.U], dtype=np.float64)
        self.half_len = np.array([math.inf if l.is_line else l.half_length for l in self.U])
        self.x, self.direction, self.sq_length, self.is_segment = _carriers(*self.U)
        self.profiles: list[Profile | None] = _per_line(spec.profile, n, "profile")
        if spec.version == 2:
            self.alphas = [_volume_alpha(spec, i, l, p)
                           for i, (l, p) in enumerate(zip(self.U, self.profiles))]
        else:
            self.alphas = [float(a) for a in _per_line(spec.alpha, n, "alpha")]
        self.windows = [_witness_domain(l, p) for l, p in zip(self.U, self.profiles)]
        self.window_lo = np.array([w[0] for w in self.windows], dtype=np.float64)
        self.window_hi = np.array([w[1] for w in self.windows], dtype=np.float64)
        # the pairs a row batches, each l2 with a finite non-empty window: a
        # one-parameter witness set (a point, or a window no wider than
        # SEARCH_TOL) for _point_hits, a wider one for _root_level
        width = self.window_hi - self.window_lo
        finite = np.isfinite(width) & (width >= 0.0)
        narrow = (self.sq_length == 0.0) | (width <= SEARCH_TOL)
        self.one_parameter = finite & narrow
        self.searchable = finite & ~narrow
        # (reach, threshold) of each line with a profile, None for a metric line
        self.thresholds = [None if p is None else _witness_threshold(l, p, a, w)
                           for l, p, a, w in zip(self.U, self.profiles, self.alphas, self.windows)]

    def _carrier_bound(self, i: int, js: slice, gaps: np.ndarray) -> np.ndarray:
        """A lower bound on the distance from line i to each line of js:
        max(gap, dist(c_j, carrier_i) - h_j, dist(c_i, carrier_j) - h_i),
        with gaps the row's centre gaps.

        Every point of a finite carrier lies within its half-length h of its
        centre c, and the distance to a set is 1-Lipschitz, so each term is
        a lower bound.  A point's carrier is the point itself; only when
        both carriers are lines is every term -inf.
        """
        l1 = self.U[i]
        _, sq = _closest_sq_many(self.centre[js], l1)
        bound = np.maximum(gaps, np.sqrt(sq) - self.half_len[js])
        if not l1.is_line:
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

    def _metric_rows(self, rows: Sequence[int], js: slice) -> list[tuple]:
        """(gaps, at, hits) for each metric row of rows over the dataset
        slice js: its centre gaps, the offsets in js of the pairs off the
        diagonal they leave below its alpha, and those pairs' decisions,
        min distance < alpha, from one `_min_distance_many` call over the
        open pairs of every row; None for a row with no open pair, and no
        call when no row has one."""
        lines = range(len(self.U))[js]
        opened = []
        for i in rows:
            gaps = self._centre_gaps(i, js)
            open_ = gaps < self.alphas[i]
            if i in lines:  # the diagonal keeps min_distance's shortcut
                open_[i - lines.start] = False
            opened.append((gaps, open_.nonzero()[0]))
        counts = [len(at) for _, at in opened]
        if not any(counts):
            return [(gaps, at, None) for gaps, at in opened]
        l1 = np.repeat(rows, counts)
        l2 = np.concatenate([at for _, at in opened]) + lines.start
        dist, _, _ = _min_distance_many(
            self.x[l1], self.direction[l1], self.sq_length[l1], self.is_segment[l1],
            self.x[l2], self.direction[l2], self.sq_length[l2], self.is_segment[l2])
        alpha = np.repeat([self.alphas[i] for i in rows], counts)
        hits = np.split(dist < alpha, np.cumsum(counts)[:-1])
        return [(gaps, at, hit if len(at) else None) for (gaps, at), hit in zip(opened, hits)]

    def stage(self, rows: Iterable[int]) -> None:
        """Solve the open pairs of the metric rows among the first ROW_BLOCK
        of rows in one kernel call, and keep each row's gaps and decisions
        until neighbor_set serves it.  A call while any row is staged does
        nothing, so a block is served whole before the next is solved and
        no more than ROW_BLOCK rows are ever held.  Profile rows are left to
        their own path; staging changes no decision and counts nothing."""
        if self._staged:
            return
        block = [i for i in islice(rows, ROW_BLOCK) if self.profiles[i] is None]
        if block:
            self._staged = dict(zip(block, self._metric_rows(block, slice(None))))

    def _related(self, i: int, js: slice) -> list[int]:
        """The lines of the dataset slice js that line i relates to."""
        lines = range(len(self.U))[js]
        self.eval_count += len(lines)
        U, l1, p1, alpha1 = self.U, self.U[i], self.profiles[i], self.alphas[i]
        if p1 is None:
            # version 1, or a declared density-free line: the metric relation
            staged = self._staged.pop(i, None) if js == slice(None) else None
            gaps, at, hits = staged or self._metric_rows([i], js)[0]
            if hits is None:
                return [j for j, g in zip(lines, gaps.tolist()) if relates_v1(l1, U[j], alpha1, g)]
            roots = [None] * len(lines)
            for k, hit in zip(at.tolist(), hits.tolist()):
                roots[k] = hit
            return [j for j, g, root in zip(lines, gaps.tolist(), roots)
                    if relates_v1(l1, U[j], alpha1, g, root)]
        gaps = self._centre_gaps(i, js)
        reach, threshold = self.thresholds[i]
        bound = self._carrier_bound(i, js, gaps)
        samples = self.spec.search_samples
        # the pairs relates_prob would not reject before it reads their root
        candidates = np.arange(len(self.U))[js][(bound < threshold) & (threshold > 0.0)]
        single = candidates[self.one_parameter[candidates]]
        batched = candidates[self.searchable[candidates]]
        profiles, windows, count = self.profiles, self.windows, self._count_undecided
        roots = {}
        if len(single):
            P = self.x[single] + self.window_lo[single][:, None] * self.direction[single]
            roots.update(zip(single.tolist(), _point_hits(l1, p1, alpha1, P).tolist()))
        for k in range(0, len(batched), ROOT_BLOCK):
            idx = batched[k:k + ROOT_BLOCK]
            lo, hi = self.window_lo[idx], self.window_hi[idx]
            s, t, d, hit, keep = _root_level(l1, p1, alpha1, self.x[idx], self.direction[idx],
                                             self.sq_length[idx], lo, hi, samples)
            for r in np.flatnonzero(~hit & keep.any(axis=1)).tolist():
                hit[r] = _refine(l1, p1, alpha1, U[idx[r]], s[r], t[r], d[r], keep[r],
                                 (hi[r] - lo[r]) / (samples - 1), count)
            roots.update(zip(idx.tolist(), hit.tolist()))
        return [j for j, g in zip(lines, bound.tolist())
                if relates_prob(l1, p1, alpha1, U[j], profiles[j], search_samples=samples, gap=g,
                                reach=reach, threshold=threshold, window=windows[j],
                                root=roots.get(j), on_undecided=count)]

    def _count_undecided(self) -> None:
        self.undecided_count += 1

    def relates(self, i: int, j: int) -> bool:
        """Does line i relate to line j."""
        j = range(len(self.U))[j]  # an IndexError out of range, as U[j]
        return bool(self._related(i, slice(j, j + 1)))

    def neighbor_set(self, i: int) -> set[int]:
        """Indices of all dataset lines line i relates to (itself included
        whenever it can reach its own density)."""
        return set(self._related(i, slice(None)))

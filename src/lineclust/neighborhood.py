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

over l2's witness domain, its parameter domain intersected with the
effective window of l2's own density (_witness_domain).  No witness lies at
or beyond the threshold alpha1 * sup f1 over l1's reach, the t* range of
its projection (_witness_threshold), and an unbounded domain, a line
without a density, is cut to the finite window that threshold leaves
(_line_candidate_window).  phi can be multimodal: the density may have
several influential bumps along t*(s) and dist has kinks where the
projection clamps at a segment end.  The search is a certified branch and
bound over the cells of a uniform root grid of search_samples parameters
(Shubert 1972; Hansen & Walster 2004).  Every cell [a, b] gets a lower
bound on phi from its two ends (_cell_bounds): dist(g2(s), l1) is convex in
s, and t*(s) is monotone with every density unimodal.  One numpy pass per
level prunes the cells whose bound is >= 0 (with a relative pad of
PRUNE_PAD), evaluates phi at the midpoints of the rest and bisects them.  A
relation is reported only for an actually evaluated phi(s) < 0, so false
positives are impossible, and a pair is unrelated only when every cell is
pruned.  A pair that still has a cell when the cells are narrower than
SEARCH_TOL, or that would spend more than WITNESS_BUDGET evaluations, is
undecided: it is reported as unrelated and counted through the caller's
on_undecided.

The witness decision is written once, _witness_hits, for a batch of pairs
(l1, l2_k) that share l1, the l2s given as rows of the stacked carrier
layout.  An empty window is no witness.  A pair whose witness set is one
parameter (a point l2, or a window no wider than SEARCH_TOL) is phi at that
parameter, every such pair in one _point_hits pass.  Any other pair is its
root level (_root_level, ROOT_BLOCK pairs per array pass), a hit on the
grid or every cell pruned, and only where that leaves a kept cell and no
hit, the branch and bound below it (_refine).  Every operation acts on each
pair alone, so a pair's decision has the same bits in a batch of any size:
a relation row is one batch, and relates_prob without a root is a batch of
one.

A pair whose lower bound on the distance between the two carriers already
reaches alpha1 * sup f1 is rejected first, the bound version 1 applies
with alpha1.  Version 1 decides the rest by the exact minimum distance;
versions 2 and 3 never solve it, the witness decision alone decides what
the bound leaves open.  RelationEvaluator computes the bound for a whole
relation row in a few array expressions, from the centres, half-lengths
and carriers stacked once per dataset.  A version 1 row uses the centre
gap |c1 - c2| - h1 - h2 alone.  A row whose line has a profile tightens it
to the carrier bound: the largest of the centre gap, dist(c2, carrier1) -
h2 and dist(c1, carrier2) - h1, TRACLUS's perpendicular-distance pruning
(Lee, Han & Whang 2007).  It is finite unless both carriers are lines, and
it rejects the lifted segments that sweep a whole axis past one another,
whose centre gaps are all negative.

A metric row (version 1, or a density-free line in version 3) solves every
pair off the diagonal that its centre gap leaves open in one
_min_distance_many call, the one distance kernel, over pairs that each
carry their own l1: a row is a block of one row, a block of up to
ROW_BLOCK rows staged ahead of their use (RelationEvaluator.stage) is
solved in one call, and min_distance solves a single pair as a row of one,
so a pair's distance has the same bits in each.  The diagonal keeps
min_distance's shortcut for a carrier against itself, through relates_v1
without a root, and a row with no other open pair, every row of a dataset
of isolated lines, makes no array solve (acceptance criterion 7 measures
those rows).

Every row thus decides each of its pairs in arrays, one boolean per pair.
It still calls relates_v1 / relates_prob once per pair with that decision
as `root`, which they return unchanged, because benchmark/tracing.py counts
a row's pairs by those calls.  Called without a root, they decide the pair
themselves, by the same kernels on a batch of one.
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


def _line_candidate_window(l1: SegmentLike, x2: np.ndarray, d2: np.ndarray, sq2: float,
                           threshold: float, reach: tuple[float, float]
                           ) -> tuple[float, float] | None:
    """Finite s-interval that must contain any witness on an infinite l2,
    the carrier row (x2, d2, sq2), or None when none can.  A witness lies
    within threshold of its closest point on l1, at a t* in the reach, so
    within threshold + h of the centre c of the piece of l1 the reach
    covers, h its half-length: the window is the chord of that ball, around
    the closest approach s0 of l2 to c.
    """
    c = l1.x + 0.5 * (reach[0] + reach[1]) * l1.direction
    radius = threshold + 0.5 * (reach[1] - reach[0]) * math.sqrt(l1.sq_length)
    r = x2 - c
    s0 = -float(r @ d2) / sq2
    r += s0 * d2
    half_sq = (radius * radius - float(r @ r)) / sq2
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


def _refine(l1: SegmentLike, profile1: Profile, alpha1: float, x2: np.ndarray,
            d2: np.ndarray, sq2: float, s: np.ndarray, t: np.ndarray, d: np.ndarray,
            keep: np.ndarray, width: float, on_undecided: Callable[[], None] | None) -> bool:
    """The branch and bound below one pair's root level, a _root_level row
    (s, t, d, keep) with no hit and a kept cell, cells width wide, on the
    l2 carrier row (x2, d2, sq2).  Each
    level evaluates phi at the kept cells' midpoints, True on a phi < 0,
    then bisects them and prunes the halves by _cell_bounds, False when none
    is left.  Cells no wider than SEARCH_TOL, or a level past WITNESS_BUDGET
    evaluations, leave the pair undecided: False, after on_undecided()."""
    k = int(np.argmin(d))
    s_min, d_min = float(s[k]), float(d[k])
    a, b, da, db, ta, tb = s[:-1], s[1:], d[:-1], d[1:], t[:-1], t[1:]
    speed = math.sqrt(sq2)
    spent = 0
    while True:
        if width <= SEARCH_TOL or spent + int(keep.sum()) > WITNESS_BUDGET:
            if on_undecided is not None:
                on_undecided()
            return False
        a, b, da, db, ta, tb = a[keep], b[keep], da[keep], db[keep], ta[keep], tb[keep]
        m = 0.5 * (a + b)
        spent += len(m)
        tm, sq = _closest_sq_many(x2 + m[:, None] * d2, l1)
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


def _witness_hits(l1: SegmentLike, p1: Profile, alpha1: float,
                  reach: tuple[float, float], threshold: float, X: np.ndarray,
                  D: np.ndarray, sq: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  samples: int, on_undecided: Callable[[], None] | None) -> np.ndarray:
    """The witness decisions of m pairs (l1, l2_k) at once: (m,) bools.

    X, D, sq are the l2s' carrier rows and lo, hi their witness domains;
    reach and threshold > 0 are l1's (_witness_threshold), and samples is the
    size of each root grid.  An empty window (hi < lo) is False.  An
    unbounded one, a line without a density, is cut pair by pair to
    _line_candidate_window, False when there is none.  A one-parameter
    witness set, a point l2 or a window no wider than SEARCH_TOL, is phi at
    that parameter, all of them in one _point_hits pass; any other pair is
    its root level, in blocks of ROOT_BLOCK pairs, and _refine where that
    leaves a kept cell and no hit.
    """
    lo, hi = lo.copy(), hi.copy()
    live = hi >= lo
    for k in np.flatnonzero(live & np.isinf(lo)).tolist():
        window = _line_candidate_window(l1, X[k], D[k], sq[k], threshold, reach)
        if window is None:
            live[k] = False
        else:
            lo[k], hi[k] = window
    hits = np.zeros(len(X), dtype=bool)
    narrow = live & ((sq == 0.0) | (hi - lo <= SEARCH_TOL))
    single = np.flatnonzero(narrow)
    if len(single):
        hits[single] = _point_hits(l1, p1, alpha1, X[single] + lo[single][:, None] * D[single])
    batched = np.flatnonzero(live & ~narrow)
    for k in range(0, len(batched), ROOT_BLOCK):
        idx = batched[k:k + ROOT_BLOCK]
        s, t, d, hit, keep = _root_level(l1, p1, alpha1, X[idx], D[idx], sq[idx], lo[idx],
                                         hi[idx], samples)
        for r in np.flatnonzero(~hit & keep.any(axis=1)).tolist():
            q = idx[r]
            hit[r] = _refine(l1, p1, alpha1, X[q], D[q], sq[q], s[r], t[r], d[r], keep[r],
                             (hi[q] - lo[q]) / (samples - 1), on_undecided)
        hits[idx] = hit
    return hits


def relates_prob(l1: SegmentLike, profile1: Profile, alpha1: float,
                 l2: SegmentLike, profile2: Profile | None = None, *,
                 search_samples: int = 64, root: bool | None = None,
                 on_undecided: Callable[[], None] | None = None) -> bool:
    """Witness test: does any point of l2 (within its own declared support)
    fall strictly inside l1's alpha-scaled density neighbourhood.

    root is the decision of a caller that decided many pairs at once, as
    relates_v1's is, returned as it is.  Without it the pair is decided
    here as a batch of one: l1's reach and threshold (_witness_threshold),
    l2's witness domain (_witness_domain), then _witness_hits, which a
    relation row runs on all its pairs.  A pair the branch and bound cannot
    decide returns False and calls on_undecided, when given.
    """
    if root is not None:
        return root
    if l1.dim != l2.dim:
        raise ValueError(f"dimension mismatch: {l1.dim}-d vs {l2.dim}-d")
    reach, threshold = _witness_threshold(l1, profile1, alpha1)
    if threshold <= 0.0:
        return False
    lo, hi = _witness_domain(l2, profile2)
    return bool(_witness_hits(l1, profile1, alpha1, reach, threshold, l2.x[None],
                              l2.direction[None], np.array([l2.sq_length]), np.array([lo]),
                              np.array([hi]), search_samples, on_undecided)[0])


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
    each line's alpha (version 2 derives it from V through _volume_alpha)
    and profile, its witness domain as window bounds, and, for each line
    with a profile, its reach and threshold.  A per-line alpha or profile
    sequence of the wrong length, or a version 2 line without a profile, is
    a ConfigurationError here, not at the first row that needs the entry.

    A relation row, line i against a slice of the dataset, decides every
    pair in arrays, as one boolean mask.  A metric row, whose line has no
    profile, takes the pairs whose centre gap |c_i - c_j| - h_i - h_j is
    below alpha_i and solves their minimum distances, all but i's own, in
    one _min_distance_many call; a row with no such pair makes no call.
    stage(rows) does the same for up to ROW_BLOCK metric rows at once, their
    open pairs in one call, and keeps each row's mask until neighbor_set(i)
    serves it; the expand engine stages the rows its frontier will ask for
    next.  A row whose line has a profile takes the pairs whose carrier
    bound (_carrier_bound) is below its threshold and decides them in one
    _witness_hits call.  Each pair's decision then goes to relates_v1 /
    relates_prob, called once per pair, as its root; the diagonal of a
    metric row goes without one, so min_distance's shortcut decides it.
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
        self._staged: dict[int, np.ndarray] = {}  # metric row -> its mask, until served
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
        windows = [_witness_domain(l, p) for l, p in zip(self.U, self.profiles)]
        self.window_lo = np.array([w[0] for w in windows], dtype=np.float64)
        self.window_hi = np.array([w[1] for w in windows], dtype=np.float64)
        # (reach, threshold) of each line with a profile, None for a metric line
        self.thresholds = [None if p is None else _witness_threshold(l, p, a, w)
                           for l, p, a, w in zip(self.U, self.profiles, self.alphas, windows)]

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

    def _metric_rows(self, rows: Sequence[int], js: slice) -> list[np.ndarray]:
        """The decision mask of each metric row of rows over the dataset
        slice js: False where the centre gap is at or beyond its alpha and
        on the diagonal, min distance < alpha elsewhere, from one
        `_min_distance_many` call over the open pairs of every row, and no
        call when no row has one."""
        lines = range(len(self.U))[js]
        masks = []
        for i in rows:
            mask = self._centre_gaps(i, js) < self.alphas[i]
            if i in lines:  # the diagonal keeps min_distance's shortcut
                mask[i - lines.start] = False
            masks.append(mask)
        at = [mask.nonzero()[0] for mask in masks]
        counts = [len(a) for a in at]
        if any(counts):
            l1 = np.repeat(rows, counts)
            l2 = np.concatenate(at) + lines.start
            dist, _, _ = _min_distance_many(
                self.x[l1], self.direction[l1], self.sq_length[l1], self.is_segment[l1],
                self.x[l2], self.direction[l2], self.sq_length[l2], self.is_segment[l2])
            alpha = np.repeat([self.alphas[i] for i in rows], counts)
            for mask, a, hit in zip(masks, at, np.split(dist < alpha, np.cumsum(counts)[:-1])):
                mask[a] = hit
        return masks

    def stage(self, rows: Iterable[int]) -> None:
        """Solve the open pairs of the metric rows among the first ROW_BLOCK
        of rows in one kernel call, and keep each row's mask until
        neighbor_set serves it.  A call while any row is staged does
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
        # each pair's relates_* call returns the row's decision, its root;
        # the calls remain because benchmark/tracing.py counts them
        if p1 is None:
            # version 1, or a declared density-free line: the metric relation
            staged = self._staged.pop(i, None) if js == slice(None) else None
            roots = (staged if staged is not None else self._metric_rows([i], js)[0]).tolist()
            if i in lines:
                roots[i - lines.start] = None  # decided by min_distance's shortcut
            return [j for j, root in zip(lines, roots) if relates_v1(l1, U[j], alpha1, root)]
        reach, threshold = self.thresholds[i]
        related = (self._carrier_bound(i, js, self._centre_gaps(i, js)) < threshold) \
            & (threshold > 0.0)
        idx = np.arange(len(U))[js][related]
        related[related] = _witness_hits(
            l1, p1, alpha1, reach, threshold, self.x[idx], self.direction[idx],
            self.sq_length[idx], self.window_lo[idx], self.window_hi[idx],
            self.spec.search_samples, self._count_undecided)
        return [j for j, root in zip(lines, related.tolist())
                if relates_prob(l1, p1, alpha1, U[j], root=root)]

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

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
1 applies with alpha1.  Version 1 decides the rest by the exact
min_distance; versions 2 and 3 never call it, the root level and the
branch and bound alone decide what the bound leaves open.
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

The rest of the witness set-up also splits by line.  The threshold
alpha1 * sup f1 over l1's reach (the t* range of its projection) depends on
l1 alone (_witness_threshold), and l2's witness domain, [0, 1] or unbounded
intersected with the effective window of f2, on l2 alone
(_witness_domain), cut to a finite window when unbounded
(_line_candidate_window).  RelationEvaluator resolves every line's alpha,
profile, witness domain, reach and threshold once, when it is built, and
passes them to relates_prob beside `gap`; a direct call without them
computes them with the same helpers.

phi is evaluated on whole levels of cells in one array call
(_closest_sq_many and Profile.pdf).  Most pairs are decided by the root
level alone, a hit on the grid or every cell pruned, so a profile row
evaluates the root level of every pair its bound leaves open in one array
pass per block of ROOT_BLOCK pairs (_root_level) and hands each pair its
row; relates_prob, still called once per pair, evaluates the root level
itself as a batch of one when it gets no row, so there is one code path.
Each pair's row has the same bits in a batch of any size.  Only a point
l2, or a window narrower than SEARCH_TOL, is decided by one scalar
evaluation through _closest_sq and density.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError
from .geometry import SegmentLike, _closest_sq, _closest_sq_many, closest_point, min_distance
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
               gap: float = -math.inf) -> bool:
    """Metric relation: minimum distance strictly below alpha1.

    gap is a lower bound on that distance known to the caller; a pair it
    already puts at alpha1 or beyond is rejected without the exact solve.
    """
    if gap >= alpha1:
        return False
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


def relates_prob(l1: SegmentLike, profile1: Profile, alpha1: float,
                 l2: SegmentLike, profile2: Profile | None = None, *,
                 search_samples: int = 64, gap: float = -math.inf,
                 reach: tuple[float, float] | None = None, threshold: float | None = None,
                 window: tuple[float, float] | None = None, root: Sequence | None = None,
                 on_undecided: Callable[[], None] | None = None) -> bool:
    """Witness test: does any point of l2 (within its own declared support)
    fall strictly inside l1's alpha-scaled density neighbourhood.

    gap is a lower bound on the distance between l1 and l2 known to the
    caller; a pair it puts at alpha1 * sup f1 or beyond is rejected before
    any phi is evaluated.  No exact distance solve follows: a point l2, or a
    window narrower than SEARCH_TOL, is decided by phi at its one parameter
    and every other pair by the branch and bound.  reach and threshold (from
    _witness_threshold) depend on l1 alone and window (from _witness_domain)
    on l2 alone; a caller deciding many pairs passes them, and whatever it
    leaves out is computed here with the same helpers (both reach and
    threshold when either is missing).  root is this pair's row (s, t, d,
    hit, keep) of a _root_level batch over window, for a caller that
    evaluated the root levels of many pairs at once; without it the root
    level is evaluated here, as a batch of one.  A pair the branch and bound
    cannot decide returns False and calls on_undecided, when given.
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
    if math.isinf(lo):  # a line without a density of its own
        window = _line_candidate_window(l1, l2, threshold, reach)
        if window is None:
            return False
        lo, hi = window

    if l2.is_degenerate or hi - lo <= SEARCH_TOL:
        # a point, or a window too narrow to split: phi at its one parameter
        p = [x + u * lo for x, u in zip(l2.x.tolist(), l2.direction.tolist())]
        t, sq = _closest_sq(p, l1)
        return math.sqrt(sq) - alpha1 * density(profile1, t) < 0.0

    # the root partition: search_samples parameters, search_samples - 1 cells
    if root is None:
        root = [r[0] for r in _root_level(l1, profile1, alpha1, l2.x[None], l2.direction[None],
                                          np.array([l2.sq_length]), np.array([lo]),
                                          np.array([hi]), search_samples)]
    s, t, d, hit, keep = root
    if hit:
        return True
    if not keep.any():
        return False
    k = int(np.argmin(d))
    s_min, d_min = float(s[k]), float(d[k])
    a, b, da, db, ta, tb = s[:-1], s[1:], d[:-1], d[1:], t[:-1], t[1:]
    speed = math.sqrt(l2.sq_length)
    width = (hi - lo) / (search_samples - 1)
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


# -- dispatch and neighbour sets ----------------------------------------------

def _volume_alpha(spec: NeighbourhoodSpec, i: int, l: SegmentLike,
                  p: Profile | None) -> float:
    """Version 2's alpha for line i (l, with profile p), from the volume V."""
    if p is None:
        raise ConfigurationError(f"version 2 cannot derive alpha for line {i} without a profile")
    if spec.alpha_mode == "exact-volume":
        return exact_volume_scaling_factor(spec.volume, p, l, l.dim)
    return scaling_factor(spec.volume, p, l, l.dim)


class RelationEvaluator:
    """Evaluates the relation over a fixed dataset, with per-line parameters
    resolved once and a relation-evaluation counter.

    Everything that depends on one line alone is resolved when the
    evaluator is built, into lists and arrays indexed like the dataset: the
    array layout (centres, base points and directions, n x dim, squared
    lengths, half-lengths, infinite for a line, and parameter domains),
    each line's alpha (version 2 derives it from V through _volume_alpha),
    profile and witness domain, stacked as window bounds too, and, for each
    line with a profile, its reach and threshold.  A per-line alpha or
    profile sequence of the wrong length, or a version 2 line without a
    profile, is a ConfigurationError here, not at the first row that needs
    the entry.

    A relation row, line i against a slice of the dataset, computes every
    pair's centre gap |c_i - c_j| - h_i - h_j in one array expression (-inf
    where either carrier is a line).  A row whose line has a profile
    tightens it to the carrier bound (_carrier_bound), -inf only where both
    carriers are lines, and evaluates the root level of the witness search
    (_root_level) for every pair the bound leaves below the threshold whose
    l2 is no point and whose window is finite and wider than SEARCH_TOL, in
    blocks of ROOT_BLOCK pairs.  Each pair's bound, with the resolved
    parameters and its root row, goes to relates_v1 / relates_prob, called
    once per pair, as the caller's lower bound.  neighbor_set(i) is that
    row over the whole dataset and relates(i, j) is that row over line j
    alone; both count every pair in eval_count, and every pair the witness
    search leaves undecided (reported as unrelated) in undecided_count.
    """

    def __init__(self, U: Sequence[SegmentLike], spec: NeighbourhoodSpec):
        self.U = list(U)
        self.spec = spec
        self.eval_count = 0
        self.undecided_count = 0
        if len({l.dim for l in self.U}) > 1:
            raise ValueError("all lines of a dataset must have the same dimension")
        n = len(self.U)
        self.centre = np.array([l.center for l in self.U], dtype=np.float64)
        self.half_len = np.array([math.inf if l.is_line else l.half_length for l in self.U])
        self.x = np.array([l.x for l in self.U], dtype=np.float64)
        self.direction = np.array([l.direction for l in self.U], dtype=np.float64)
        self.sq_length = np.array([l.sq_length for l in self.U], dtype=np.float64)
        self.inv_sq = np.divide(1.0, self.sq_length, out=np.zeros(n), where=self.sq_length > 0.0)
        # parameter domains: [0, 1] for a segment, all of R for a line
        is_line = np.isinf(self.half_len)
        self.domain_lo = np.where(is_line, -math.inf, 0.0)
        self.domain_hi = np.where(is_line, math.inf, 1.0)
        self.profiles: list[Profile | None] = _per_line(spec.profile, n, "profile")
        if spec.version == 2:
            self.alphas = [_volume_alpha(spec, i, l, p)
                           for i, (l, p) in enumerate(zip(self.U, self.profiles))]
        else:
            self.alphas = [float(a) for a in _per_line(spec.alpha, n, "alpha")]
        self.windows = [_witness_domain(l, p) for l, p in zip(self.U, self.profiles)]
        self.window_lo = np.array([w[0] for w in self.windows], dtype=np.float64)
        self.window_hi = np.array([w[1] for w in self.windows], dtype=np.float64)
        # the pairs a row batches: l2 no point, its window finite and wider than SEARCH_TOL
        width = self.window_hi - self.window_lo
        self.searchable = (self.sq_length > 0.0) & np.isfinite(width) & (width > SEARCH_TOL)
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
            D = self.direction[js]
            r = self.centre[i] - self.x[js]
            t = np.clip(np.einsum("ij,ij->i", r, D) * self.inv_sq[js],
                        self.domain_lo[js], self.domain_hi[js])
            r -= t[:, None] * D
            np.maximum(bound, np.sqrt(np.einsum("ij,ij->i", r, r)) - self.half_len[i], out=bound)
        return bound

    def _related(self, i: int, js: slice) -> list[int]:
        """The lines of the dataset slice js that line i relates to."""
        lines = range(len(self.U))[js]
        self.eval_count += len(lines)
        gaps = self.centre[js] - self.centre[i]
        gaps = np.sqrt(np.einsum("ij,ij->i", gaps, gaps))
        gaps -= self.half_len[i]
        gaps -= self.half_len[js]
        U, l1, p1, alpha1 = self.U, self.U[i], self.profiles[i], self.alphas[i]
        if p1 is None:
            # version 1, or a declared density-free line: the metric relation
            return [j for j, g in zip(lines, gaps.tolist()) if relates_v1(l1, U[j], alpha1, g)]
        reach, threshold = self.thresholds[i]
        bound = self._carrier_bound(i, js, gaps)
        samples = self.spec.search_samples
        batched = np.arange(len(self.U))[js][(bound < threshold) & self.searchable[js]]
        roots = {}
        for k in range(0, len(batched), ROOT_BLOCK):
            idx = batched[k:k + ROOT_BLOCK]
            s, t, d, hit, keep = _root_level(l1, p1, alpha1, self.x[idx], self.direction[idx],
                                             self.sq_length[idx], self.window_lo[idx],
                                             self.window_hi[idx], samples)
            roots.update(zip(idx.tolist(), zip(s, t, d, hit.tolist(), keep)))
        profiles, windows, count = self.profiles, self.windows, self._count_undecided
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

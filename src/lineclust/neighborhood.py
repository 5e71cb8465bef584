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
f1's volume over.  No witness lies at or beyond l1's radius, alpha1 *
sup f1 over the reach, and an unbounded domain, a line without a density,
is cut to the finite window that radius leaves (_line_windows).  phi can
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
parameter, every such pair in one _phi call.  The others go through the
levels in blocks of ROOT_BLOCK pairs, one loop from the root level down,
no call holding more points than a block's root level.  Every operation
acts on each pair alone, so a pair's decision has the same bits in a batch
of any size; a searched row is one batch.

Each line is resolved once, when a RelationEvaluator is built, to one
radius, the distance at or beyond which it relates to nothing: alpha1
without a density, alpha1 * sup f1 over its reach with one.  A capsule
(_is_capsule), a segment whose f1 is uniform(a, b) with a <= 0 and b >= 1,
has f1 = 1 / (b - a) wherever its t* can fall, so its neighbourhood is the
capsule of its radius, and a pair relates exactly when the minimum
distance to l2's witness piece, the part of l2 its witness domain covers
(_witness_pieces), is below it: phi's decision, since d - r < 0 exactly
when d < r, with no search and no undecided pair.  It is the neighbourhood of a lifted record
under the default uniform(0, 1) template.  Every other line with a
density, a line carrier or a support strictly inside [0, 1], is searched.

A pair whose lower bound on the distance between the two carriers already
reaches l1's radius is rejected first.  RelationEvaluator computes the
bound for a whole relation row in a few array expressions, from the
centres, half-lengths and carriers stacked once per dataset.  A metric
row uses the centre gap |c1 - c2| - h1 - h2 alone.  A searched row takes
the carrier bound instead, never below the centre gap: the larger of
dist(c2, carrier1) - h2 and dist(c1, carrier2) - h1, TRACLUS's
perpendicular-distance pruning (Lee, Han & Whang 2007).  It is finite
unless both carriers are lines, and it rejects the lifted segments that
sweep a whole axis past one another, whose centre gaps are all negative.
The witness decision alone decides what the bound leaves open in a
searched row, which never solves the exact minimum distance.

A metric row (version 1, a density-free line in version 3, or a capsule)
decides every pair off the diagonal between two bounds from the centres c
and half-lengths h.  It rejects where the gap |c1 - c2| - h1 - h2 reaches
its radius and relates where the span |c1 - c2| is below it: both centres
lie on what the row measures, so the minimum distance is at most the span.
A capsule measures to l2's witness piece, so there the span relates only
a target whose piece holds its carrier's centre, t = 0.5 in its witness
domain.  The pairs between the two bounds go to one _min_distance_many
call, the one distance kernel, as index pairs into the dataset's stack of
carriers, each pair with its own l1: to l2's carrier from a density-free
line, to l2's witness piece from a capsule, the pieces stacked after the
carriers.  The kernel gathers each pair's rows itself, once; the row
gathers nothing.  On dense local data
most open pairs relate within the span bound and never reach the kernel.
The span's squares are summed as the kernel sums (geometry._row_dot), so two points' span, which
is also their gap, is their distance to the bit: no point pair is solved.
A pair whose distance equals its span may come out of the kernel a last
bit above the span; a radius strictly between the two relates it, by its
span, as the gap already decides collinear ties.  Rows are decided as one
(rows, targets) block: a row is a block of one, a block of the
PAIR_BUDGET // n metric rows RelationEvaluator.build_graph decides at a
time is decided together and its open pairs solved in one call, and
min_distance solves a single pair as a row of one, so a pair's distance
has the same bits in each.  The diagonal keeps min_distance's shortcut for
a carrier against itself, through relates_v1 without a root, and a row
with no other open pair, every row of a dataset of isolated lines, makes
no array solve (acceptance criterion 7 measures those rows).

The expand engine asks for every row exactly once, so it has the evaluator
decide the whole relation before its first draw (build_graph): each row's
related lines, its diagonal aside in a metric row, as an ascending int32
array, O(n + related pairs) in memory, from which each neighbour set is
served.  The literal engine computes only the rows it draws, each when it
draws it.

Every row thus decides each of its pairs in arrays, one boolean per pair.
It still calls relates_v1 / relates_prob once per pair with that decision
as `root`, which they return unchanged, because benchmark/tracing.py counts
a row's pairs by those calls.  Called without a root, relates_v1 solves
its pair by min_distance, and relates_prob decides its pair as the row of
the two-line evaluator [l1, l2], with a spec NeighbourhoodSpec validates.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
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
PAIR_BUDGET = 2**14  # most pairs in one block of metric rows RelationEvaluator.build_graph decides

# the fields of NeighbourhoodSpec each version reads; it takes none of the others
_VERSION_FIELDS = {1: ("alpha",), 2: ("volume", "profile"), 3: ("alpha", "profile")}


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

    Which of alpha, volume and profile each version reads is one table,
    _VERSION_FIELDS: a field the version reads must be set, one it does not
    must be None.  alpha_mode derives alpha from the volume, so a version
    that reads no volume takes only "literal".

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
        if self.version not in _VERSION_FIELDS:
            raise ConfigurationError(f"version must be 1, 2 or 3, got {self.version}")
        fields = _VERSION_FIELDS[self.version]
        if self.c < 1:
            raise ConfigurationError(f"cardinality c must be >= 1, got {self.c}")
        modes = ("literal", "exact-volume") if "volume" in fields else ("literal",)
        if self.alpha_mode not in modes:
            raise ConfigurationError(f"version {self.version} takes alpha_mode "
                                     f"{' or '.join(map(repr, modes))}, got {self.alpha_mode!r}")
        # a str or bytes is a Sequence, and would otherwise pass for per-line values
        if isinstance(self.alpha, (str, bytes)):
            raise ConfigurationError(f"alpha must be a number or per-line numbers, "
                                     f"got the string {self.alpha!r}")
        if isinstance(self.profile, (str, bytes)):
            raise ConfigurationError(f"profile must be a Profile or per-line profiles, got the "
                                     f"string {self.profile!r} (parse_profile reads that form)")
        for what, value in _entries(self.alpha, "alpha"):
            _positive_float(value, f"{what} must be a finite positive number")
        for what, value in _entries(self.profile, "profile"):
            if value is not None and not isinstance(value, Profile):
                raise ConfigurationError(f"{what} must be a Profile or None, got {value!r}")
        for name in ("alpha", "volume", "profile"):
            if (getattr(self, name) is None) == (name in fields):
                need = "requires" if name in fields else "takes no"
                raise ConfigurationError(f"version {self.version} reads {' and '.join(fields)}: "
                                         f"it {need} {name}")
        if self.volume is not None:  # set by version 2 alone
            _positive_float(self.volume, "version 2 requires a finite positive volume V")


def _positive_float(value, message: str) -> None:
    """A ConfigurationError, message followed by the value, unless value is a
    real number, no bool, whose float is finite and positive.  The float is
    what a RelationEvaluator reads, so an integer beyond the float range,
    whose float() raises OverflowError, is rejected here too."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigurationError(f"{message}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigurationError(f"{message}, got a number beyond the float range") from None
    if not 0.0 < number < math.inf:
        raise ConfigurationError(f"{message}, got {value!r}")


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


def _is_capsule(l1: SegmentLike, p1: Profile) -> bool:
    """Is l1's neighbourhood a capsule, decided by the distance kernel
    rather than the witness search.

    A segment whose f1 is uniform(a, b) with a <= 0 and b >= 1 has the reach
    [0, 1] and f1 = 1 / (b - a) at every t* its projection can give, so its
    neighbourhood is the capsule around it of its radius, the product
    alpha1 * f1 that phi subtracts.  A pair relates exactly when the minimum
    distance to l2's witness piece is below that radius, and d - r < 0
    exactly when d < r, so the decision is phi's, with no search and none
    undecided.  A line, or a support
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
    windows.  Returns (s, hit, keep): the (m, samples) grid of each
    window, np.linspace's arithmetic lo + k * step with the last point set
    to hi; each window's (m,) hit flag, some grid phi < 0; and its
    (m, samples - 1) mask of the cells _cell_bounds does not prune, with the
    speed sqrt(sq) and s_min the first grid point of least distance.  That
    point stands in for the least distance over the window: dist(g2(s), l1)
    is convex, so it is monotone on every cell that does not end there.
    Every operation acts on each window's row alone, so a row has the same
    bits whatever the other windows are.
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
    return s, hit, bound < pad


def _witness_hits(l1: SegmentLike, p1: Profile, alpha1: float,
                  reach: tuple[float, float], radius: float, X: np.ndarray,
                  D: np.ndarray, sq: np.ndarray, lo: np.ndarray, hi: np.ndarray
                  ) -> tuple[np.ndarray, int]:
    """The witness decisions of m pairs (l1, l2_k) at once: (m,) bools, and
    how many of the pairs are undecided.

    X, D, sq are the l2s' carrier rows and lo, hi their witness domains;
    reach is l1's witness domain (_witness_domain) and radius > 0 its
    radius, alpha1 * sup f1 over the reach, beyond which no witness lies.
    An empty window (hi < lo) is False.  The unbounded ones, lines without
    a density, are cut to _line_windows in one call.  A one-parameter
    witness set, a point l2 or a window no wider than SEARCH_TOL, is phi at
    that parameter, all of them in one _phi call.  The other pairs go in
    blocks of ROOT_BLOCK through one loop of levels: the first is the
    pairs' windows at ROOT_SAMPLES points, each later one the cells the
    level above kept for a pair with no hit, three points each.  A level
    calls _root_level in chunks of ROOT_BLOCK * ROOT_SAMPLES // samples
    windows, so no call holds more points than a root block.  A pair is
    True at its first phi < 0 and False when it keeps no cell.  One that
    keeps a cell no wider than SEARCH_TOL, or whose cells below the root
    grid would number more than WITNESS_BUDGET, is undecided: False, its
    cells dropped before they are gathered.
    """
    free = np.flatnonzero(np.isinf(lo))
    if len(free):
        lo, hi = lo.copy(), hi.copy()
        lo[free], hi[free] = _line_windows(l1, radius, reach, X[free], D[free], sq[free])
    live = hi >= lo
    hits = np.zeros(len(X), dtype=bool)
    narrow = live & ((sq == 0.0) | (hi - lo <= SEARCH_TOL))
    single = np.flatnonzero(narrow)
    if len(single):
        P = X[single] + lo[single, None] * D[single]
        hits[single] = _phi(l1, p1, alpha1, reach, P)[2] < 0.0
    batched = np.flatnonzero(live & ~narrow)
    undecided = 0
    for k in range(0, len(batched), ROOT_BLOCK):
        idx = batched[k:k + ROOT_BLOCK]
        hit, spent, stuck = (np.zeros(len(idx), dtype=bool), np.zeros(len(idx)),
                             np.zeros(len(idx), dtype=bool))
        # the block's pair of each window, the windows, and their grid size
        r, a, b, samples = np.arange(len(idx)), lo[idx], hi[idx], ROOT_SAMPLES
        while len(r):
            chunk = ROOT_BLOCK * ROOT_SAMPLES // samples
            s, keep = np.empty((len(r), samples)), np.empty((len(r), samples - 1), dtype=bool)
            for j in range(0, len(r), chunk):
                q, w = r[j:j + chunk], idx[r[j:j + chunk]]  # the windows' pairs, in block and row
                s[j:j + chunk], found, keep[j:j + chunk] = _root_level(
                    l1, p1, alpha1, reach, X[w], D[w], sq[w], a[j:j + chunk], b[j:j + chunk],
                    samples)
                hit[q[found]] = True
            keep &= ~hit[r, None]  # the kept cells of the pairs with no hit
            if not keep.any():
                break
            spent += np.bincount(r, keep.sum(axis=1), len(idx))
            stuck |= spent > WITNESS_BUDGET  # undecided before their cells are gathered
            i, h = np.nonzero(keep & ~stuck[r, None])
            r, a, b, samples = r[i], s[i, h], s[i, h + 1], 3
            narrow = b - a <= SEARCH_TOL
            if narrow.any():  # the pairs of these cells are undecided
                stuck[r[narrow]] = True
                alive = ~stuck[r]
                r, a, b = r[alive], a[alive], b[alive]
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
    too, its radius, at or beyond which it relates to nothing (alpha
    without a profile, alpha * sup f1 over the reach with one), and whether
    the witness search decides its row (searched: a profiled line that is
    no capsule, _is_capsule).  A per-line alpha or profile sequence of the
    wrong length, or a version 2 line without a profile, is a
    ConfigurationError here, not at the first row that needs the entry.

    A relation row, line i against a slice of the dataset, decides every
    pair in arrays, as one boolean mask.  A metric row, whose line is not
    searched, decides each pair between two centre bounds (_metric_rows):
    it rejects where the gap |c_i - c_j| - h_i - h_j reaches its radius,
    in a capsule row also a target whose witness domain is empty, and
    relates where the span |c_i - c_j| is below it, in a capsule row only a
    target whose witness piece holds its centre (holds_centre).  The row
    solves the minimum distances of the pairs between the two, all but
    i's own, in one _min_distance_many call, which reads them by index
    from the stack: to the targets' carriers from a line without a
    profile and to their witness pieces from a capsule; a row with no such
    pair makes no call.  A searched row takes the pairs whose carrier
    bound (_carrier_bound) is below its radius and decides them in one
    _witness_hits call (_searched_row).  Each pair's decision then goes to
    relates_v1 / relates_prob, called once per pair, as its root; the
    diagonal of a metric row goes without one, so min_distance's shortcut
    decides it.
    neighbor_set(i) is that row over the whole dataset and relates(i, j)
    that row over line j alone, i and j indexing the dataset as U[i] does,
    an IndexError out of range; both count every pair in eval_count, and
    every pair the witness search leaves undecided (reported as unrelated)
    in undecided_count.  build_graph() decides every row once, the metric
    rows in blocks of PAIR_BUDGET // n, into graph, each row's related
    lines.  neighbor_set(i) then serves row i from graph[i], its roots a
    list set True at those lines, counting its pairs as a row decided on
    demand does; its undecided pairs were counted by the build.  The expand
    engine builds, since it asks for every row exactly once; the literal
    engine and relates(i, j) decide rows on demand.
    """

    def __init__(self, U: Sequence[SegmentLike], spec: NeighbourhoodSpec):
        self.U = list(U)
        self.spec = spec
        self.eval_count = 0
        self.undecided_count = 0
        # each row's related lines: empty until build_graph decides them
        self.graph: list[np.ndarray] = []
        if len({l.dim for l in self.U}) > 1:
            raise ValueError("all lines of a dataset must have the same dimension")
        n = len(self.U)
        # column-major, so each coordinate of the centres is contiguous
        self.centre = np.array([l.center for l in self.U], dtype=np.float64, order="F")
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
        # the witness piece holds its carrier's centre, at t = 0.5
        self.holds_centre = (self.window_lo <= 0.5) & (0.5 <= self.window_hi)
        # the n carriers, then the n witness pieces, which a capsule row reads
        carriers = _carriers(*self.U)
        pieces = _witness_pieces(*carriers, self.window_lo, self.window_hi) if n else carriers
        self.stack = tuple(np.concatenate(pair) for pair in zip(carriers, pieces))
        self.x, self.direction, self.sq_length, self.is_segment = (a[:n] for a in self.stack)
        # each line's radius, at or beyond which it relates to nothing: alpha
        # without a density, alpha * sup f1 over its reach, its window, with one
        self.radius = np.array([a if p is None else a * peak_density(p, *w)
                                for p, a, w in zip(self.profiles, self.alphas, windows)])
        self.searched = [p is not None and not _is_capsule(l, p)
                         for l, p in zip(self.U, self.profiles)]

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
        _, sq = _feet_sq(self.centre[js], self.x[i], self.direction[i],
                         self.sq_length[i], self.is_segment[i])  # column-major: see _feet_sq
        bound = np.sqrt(sq) - self.half_len[js]
        if self.is_segment[i]:
            _, sq = _feet_sq(self.centre[i], self.x[js], self.direction[js], self.sq_length[js],
                             self.is_segment[js])
            np.maximum(bound, np.sqrt(sq) - self.half_len[i], out=bound)
        return bound

    def _metric_rows(self, rows: Sequence[int], js: slice) -> np.ndarray:
        """The (k, m) decision masks of the k metric rows of rows over the m
        lines of the dataset slice js, one block decided between two centre
        bounds.  A pair is False where its gap |c_i - c_j| - h_i - h_j is at
        or beyond the row's radius, on the diagonal and, in a capsule row,
        where the target's witness domain is empty.  It is True where the
        span |c_i - c_j| is below the radius: both centres lie on what the
        row measures, so the minimum distance is at most the span.  In a
        capsule row that holds only for a target whose witness piece holds
        its carrier's centre, t = 0.5 in its witness domain (holds_centre).
        The pairs between the two bounds take min distance < radius from
        one `_min_distance_many` call, and none when no pair is left there.
        The call gets the stack and each pair's two indices into it, the
        row's line and the target's, and the kernel gathers what it reads:
        nothing is gathered here.  A density-free row measures to its
        targets' carriers, a capsule row to their witness pieces, the
        target's index offset by n.

        The span's squares are summed one coordinate at a time over the
        block, in geometry._row_dot's column order, so every gap keeps its
        bits and the span of two points, whose centres are the points and
        whose half-lengths are 0, is their distance from the kernel to the
        bit: neither bound leaves such a pair open.  The kernel may put a
        pair whose distance equals its span a last bit above it; a radius
        between the two relates that pair, by its span.  A row of one is
        read at its index, so that its centre, half-length and radius are
        scalars and its arrays 1-d, and a block with no open pair ends
        before its relate mask: an isolated row costs no more than a gap."""
        n = len(self.U)
        lines = range(n)[js]
        # a row of one at its index, a block's rows as a column
        at = (rows[0],) if len(rows) == 1 else (rows, None)
        # (dim, ...) views of the centres, each coordinate's targets contiguous
        ci, cj = self.centre.T[(slice(None), *at)], self.centre.T[:, js]
        span = np.square(cj[0] - ci[0])
        gap = np.empty_like(span)  # each coordinate's squares, then the gaps
        for k in range(1, len(ci)):
            np.subtract(cj[k], ci[k], out=gap)
            gap *= gap
            span += gap
        np.sqrt(span, out=span)
        radius = self.radius[at]
        np.subtract(span, self.half_len[at], out=gap)
        gap -= self.half_len[js]
        live = gap < radius
        mask = live.reshape(len(rows), -1)  # a view: (k, m) for a row of one too
        capsule = [self.profiles[i] is not None for i in rows]
        if any(capsule):
            plain = ~np.array(capsule)[:, None]  # the density-free rows
            mask &= self.has_piece[js] | plain
        for q, i in enumerate(rows):
            if i in lines:  # the diagonal keeps min_distance's shortcut
                mask[q, i - lines.start] = False
        if not np.count_nonzero(live):  # cheaper than live.any() on a row
            return mask
        near = (span < radius).reshape(mask.shape)
        del span, gap  # before the kernel's own temporaries
        if any(capsule):
            near &= self.holds_centre[js] | plain
        q, j = np.nonzero(mask & ~near)
        mask &= near
        if len(q):
            l1 = np.array(rows)[q]
            dist, _, _ = _min_distance_many(self.stack, l1,
                                            j + (lines.start + n * np.array(capsule)[q]))
            mask[q, j] = dist < self.radius[l1]
        return mask

    def _searched_row(self, i: int, js: slice) -> np.ndarray:
        """The (m,) decision mask of the searched row i over the m lines of
        the dataset slice js: the pairs whose carrier bound is below its
        radius, decided in one _witness_hits call, whose undecided pairs
        are added to undecided_count."""
        radius = self.radius[i]
        related = (self._carrier_bound(i, js) < radius) & (radius > 0.0)
        idx = np.arange(len(self.U))[js][related]
        related[related], undecided = _witness_hits(
            self.U[i], self.profiles[i], self.alphas[i], (self.window_lo[i], self.window_hi[i]),
            radius, self.x[idx], self.direction[idx], self.sq_length[idx], self.window_lo[idx],
            self.window_hi[idx])
        self.undecided_count += undecided
        return related

    def build_graph(self) -> None:
        """Decide every row over the whole dataset once, into graph: graph[i]
        holds row i's related lines as an ascending int32 array, and
        neighbor_set(i) serves them from there.

        The metric rows go through _metric_rows in ascending blocks of
        PAIR_BUDGET // n rows, at least one, so no block holds more than
        PAIR_BUDGET pairs unless a single row does; a metric row's diagonal
        is left out, for min_distance's shortcut to decide when the row is
        served.  A block's columns are one int32 array, from the flat
        nonzero of its (rows, n) mask, and each of its rows keeps a view of
        its own stretch of them.  Each searched row is its own
        _searched_row, whose undecided pairs count here, once.  Nothing
        counts in eval_count until a row is served."""
        n = len(self.U)
        graph = [None] * n  # each row's related lines, every row set below
        metric = [i for i in range(n) if not self.searched[i]]
        step = max(1, PAIR_BUDGET // max(n, 1))
        for rows in (metric[k:k + step] for k in range(0, len(metric), step)):
            mask = self._metric_rows(rows, slice(None))
            # np.nonzero(mask)[1], in a quarter of the time
            cols = (np.flatnonzero(mask) % n).astype(np.int32)
            ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
            for i, start, end in zip(rows, [0] + ends, ends):
                graph[i] = cols[start:end]
        for i in np.flatnonzero(self.searched).tolist():
            graph[i] = np.flatnonzero(self._searched_row(i, slice(None))).astype(np.int32)
        self.graph = graph

    def _related(self, i: int, js: slice) -> list[int]:
        """The lines of the dataset slice js that line i relates to, read
        from the graph when it is built and js is the whole dataset."""
        i = range(len(self.U))[i]  # an IndexError out of range, as U[i]
        lines = range(len(self.U))[js]
        self.eval_count += len(lines)
        if self.graph and js == slice(None):  # served from the graph
            roots = [False] * len(lines)
            for j in self.graph[i].tolist():
                roots[j] = True
        else:
            roots = (self._searched_row(i, js) if self.searched[i]
                     else self._metric_rows([i], js)[0]).tolist()
        U, l1 = self.U, self.U[i]
        # each pair's relates_* call returns the row's decision, its root;
        # the calls remain because benchmark/tracing.py counts them
        if self.searched[i]:
            p1, alpha1 = self.profiles[i], self.alphas[i]
            return [j for j, root in zip(lines, roots)
                    if relates_prob(l1, p1, alpha1, U[j], root=root)]
        # version 1, a declared density-free line or a capsule: the metric relation
        if i in lines:
            roots[i - lines.start] = None  # decided by min_distance's shortcut
        radius = self.radius[i]
        return [j for j, root in zip(lines, roots) if relates_v1(l1, U[j], radius, root)]

    def relates(self, i: int, j: int) -> bool:
        """Does line i relate to line j."""
        j = range(len(self.U))[j]  # an IndexError out of range, as U[j]
        return bool(self._related(i, slice(j, j + 1)))

    def neighbor_set(self, i: int) -> set[int]:
        """Indices of all dataset lines line i relates to (itself included
        whenever it can reach its own density)."""
        return set(self._related(i, slice(None)))

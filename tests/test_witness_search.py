"""The witness search of versions 2 and 3 against references that do not
share its φ evaluation.

`reference_relates_prob` is the earlier scalar search: an exact
`min_distance` prefilter, its own window for an infinite l2 read from that
solve, φ through the oracle's reference foot, with f₁ cut to l₁'s reach,
at every grid sample, an early exit on the first negative sample, golden
refinement of every local minimum, and no centre-gap bound.  It only ever
reports a witness it evaluated, so it is a one-way lower bound on what
the certified branch and bound finds; on the seeded samples below the two
still take the same decision on every pair.  The narrow-profile pairs are
ones the reference misses.  The one-way oracle samples l2 densely with
plain numpy and demands a relation wherever a sample is a witness by more
than the sampling error.  The cell bound is checked against φ sampled
densely over each cell, and a pair with no certifiable answer must be
reported as undecided within the budget.  `reference_point_phi` is the
scalar φ that once decided a pair whose witness set is one parameter (a
point l2, or a window no wider than SEARCH_TOL): the point's foot by the
oracle's `reference_foot` and f₁ there by `density`, where the library
evaluates that φ through the array evaluator of the root grid.  Neither
reference calls the distance kernels the library's φ runs on,
`closest_point` included.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lineclust import neighborhood
from lineclust.geometry import line, min_distance, segment
from lineclust.missing_data import AxisDomain, lift_dataset
from lineclust.neighborhood import (
    ROOT_BLOCK,
    SEARCH_TOL,
    WITNESS_BUDGET,
    NeighbourhoodSpec,
    RelationEvaluator,
    _cell_bounds,
    _line_windows,
    _phi,
    _root_level,
    _witness_domain,
    relates_prob,
)
from lineclust.oracle import contains_point, grid_min_distance, reference_foot
from lineclust.profiles import Profile, density, effective_window, peak_density

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _reference_golden_min(phi, lo, hi, tol):
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    best = min(f1, f2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = phi(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = phi(x2)
        best = min(best, f1, f2)
        if best < 0.0:
            break
    return best


def _reference_line_window(l1, l2, threshold, reach, dmin):
    """The reference's own finite s-interval for an infinite l2, read from the
    exact closest approach dmin.  For a segment l1 the triangle inequality
    gives dist >= |d2| * |s - s_min| - (d_min + L1), so candidates live in a
    ball around the closest approach.  For a line l1 the projection
    parameter is affine in s, which pins the preimage of the reach; in the
    perpendicular case the squared distance is an explicit quadratic in s."""
    if not l1.is_line:
        speed = math.sqrt(l2.sq_length)
        radius = (threshold + dmin.distance + 2.0 * l1.half_length) / speed
        return (dmin.t2 - radius, dmin.t2 + radius)
    a = l1.sq_length
    d1, d2 = l1.direction, l2.direction
    beta = float(d2 @ d1) / a
    t0 = float((l2.x - l1.x) @ d1) / a
    if abs(beta) > 1e-12:
        s_a = (reach[0] - t0) / beta
        s_b = (reach[1] - t0) / beta
        return (min(s_a, s_b), max(s_a, s_b))
    if not reach[0] <= t0 <= reach[1]:
        return None
    r = l2.x - l1.x
    qa = l2.sq_length
    qb = 2.0 * float(r @ d2)
    qc = float(r @ r) - t0 * t0 * a - threshold * threshold
    disc = qb * qb - 4.0 * qa * qc
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    return ((-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa))


def _reference_reach(l1, profile1):
    """l1's reach, the t* at which f1 is read: [0, 1] for a segment and all
    of R for a line, cut to f1's effective window."""
    lo, hi = effective_window(profile1)
    return (lo, hi) if l1.is_line else (max(lo, 0.0), min(hi, 1.0))


def _cut_density(profile, reach, t):
    """f at t, read as 0 outside the reach: a line's or a segment's
    neighbourhood is its body over f's effective window, with a segment's
    end caps where that window holds its ends."""
    return density(profile, t) if reach[0] <= t <= reach[1] else 0.0


def _set_up(l1, p1, alpha):
    """l1's reach and radius, its threshold, as a RelationEvaluator resolves them."""
    reach = _witness_domain(l1, p1)
    return reach, alpha * peak_density(p1, *reach)


def reference_relates_prob(l1, profile1, alpha1, l2, profile2=None, *,
                           search_samples=64, search_tol=1e-9):
    """Scalar witness search, one reference foot per φ evaluation."""
    reach = _reference_reach(l1, profile1)
    if reach[1] < reach[0]:
        return False
    cap = peak_density(profile1, *reach)
    if cap <= 0.0:
        return False
    threshold = alpha1 * cap
    dmin = min_distance(l1, l2)
    if dmin.distance >= threshold:
        return False
    window = None if l2.is_line else (0.0, 1.0)
    if profile2 is not None:
        w2 = effective_window(profile2)
        window = w2 if window is None else (max(window[0], w2[0]), min(window[1], w2[1]))
        if window[1] < window[0]:
            return False
    if window is None:
        window = _reference_line_window(l1, l2, threshold, reach, dmin)
        if window is None:
            return False

    def phi(s):
        t, sq = reference_foot(l2.x + l2.direction * s, l1)
        return math.sqrt(sq) - alpha1 * _cut_density(profile1, reach, t)

    lo, hi = window
    if l2.is_degenerate or hi - lo <= search_tol:
        return phi(lo) < 0.0
    grid = np.linspace(lo, hi, search_samples)
    vals = np.empty(search_samples)
    for k, s in enumerate(grid):
        vals[k] = phi(float(s))
        if vals[k] < 0.0:
            return True
    for k in range(search_samples):
        left = vals[k - 1] if k > 0 else math.inf
        right = vals[k + 1] if k < search_samples - 1 else math.inf
        if vals[k] <= left and vals[k] <= right:
            blo = grid[k - 1] if k > 0 else grid[k]
            bhi = grid[k + 1] if k < search_samples - 1 else grid[k]
            if bhi > blo and _reference_golden_min(phi, float(blo), float(bhi), search_tol) < 0.0:
                return True
    return False


FAMILIES = ("uniform", "normal", "ellipsoidal", "gamma", "beta", "exponential")


def random_profile(rng, family):
    if family == "uniform":
        a = rng.uniform(-0.5, 0.5)
        return Profile.uniform(a, a + rng.uniform(0.3, 1.5))
    if family == "normal":
        return Profile.normal(rng.uniform(0.0, 1.0), rng.uniform(0.002, 0.2))
    if family == "ellipsoidal":
        return Profile.ellipsoidal(rng.uniform(0.3, 1.5), 1.0)
    if family == "gamma":
        return Profile.gamma(rng.uniform(1.0, 5.0), rng.uniform(1.0, 12.0))
    if family == "beta":
        return Profile.beta(rng.uniform(1.0, 8.0), rng.uniform(1.0, 8.0))
    return Profile.exponential(rng.uniform(0.5, 12.0))


def searched_profile(rng, family):
    """random_profile's draw, with a uniform support that covers [0, 1]
    cut to end at 0.9: on a segment such a density is a capsule, which the
    distance kernel decides, and this one keeps the witness search."""
    p = random_profile(rng, family)
    if family == "uniform" and p.params[0] <= 0.0 and p.params[1] >= 1.0:
        return Profile.uniform(p.params[0], 0.9)
    return p


def random_carrier(rng, dim, kind):
    x = rng.uniform(-3.0, 3.0, dim)
    if kind == "degenerate":
        return segment(x, x)
    y = x + rng.normal(size=dim) * rng.uniform(0.2, 4.0)
    return line(x, y) if kind == "line" else segment(x, y)


def near_bound_target(rng, l1, threshold, factor):
    """A segment l2 whose centre-gap to l1 is threshold * factor."""
    dim = l1.dim
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    d = rng.normal(size=dim)
    d /= np.linalg.norm(d)
    h2 = rng.uniform(0.05, 1.0)
    c2 = l1.center + u * (threshold * factor + l1.half_length + h2)
    return segment(c2 - h2 * d, c2 + h2 * d)


def random_case(rng, k):
    """Pair k of the seeded regression sample: families, carrier kinds,
    target profiles and the centre-gap boundary all rotate with k."""
    dim = (2, 3, 7)[k % 3]
    p1 = random_profile(rng, FAMILIES[k % 6])
    p2 = random_profile(rng, FAMILIES[(k // 6) % 6]) if k % 2 else None
    alpha = rng.uniform(0.05, 3.0)
    kind1 = "line" if k % 11 == 0 else "segment"
    l1 = random_carrier(rng, dim, kind1)
    r = k % 9
    if r in (0, 1) and kind1 == "segment":
        threshold = alpha * peak_density(p1, 0.0, 1.0)
        factor = 1.0 + (1e-9 if r == 0 else -1e-9) * rng.uniform(1.0, 1e3)
        l2 = near_bound_target(rng, l1, threshold, factor)
    else:
        kind2 = {2: "line", 3: "degenerate"}.get(r, "segment")
        l2 = random_carrier(rng, dim, kind2)
    return l1, p1, alpha, l2, p2


def test_decisions_match_the_scalar_search():
    rng = np.random.default_rng(20241002)
    decided = {True: 0, False: 0}
    for k in range(2400):
        l1, p1, alpha, l2, p2 = random_case(rng, k)
        expected = reference_relates_prob(l1, p1, alpha, l2, p2)
        assert relates_prob(l1, p1, alpha, l2, p2) == expected, (k, l1, p1, alpha, l2, p2)
        decided[expected] += 1
    assert min(decided.values()) > 300


@pytest.mark.parametrize("factor", [1.0 + 1e-6, 1.0 - 1e-6])
def test_pairs_at_the_centre_gap_bound(factor):
    # collinear pairs: the minimum distance equals the centre gap
    p = Profile.uniform(0.0, 1.0)
    l1 = segment((0.0, 0.0), (2.0, 0.0))
    threshold = 1.0 * peak_density(p, 0.0, 1.0)
    start = 2.0 + threshold * factor
    l2 = segment((start, 0.0), (start + 1.0, 0.0))
    assert relates_prob(l1, p, 1.0, l2) == reference_relates_prob(l1, p, 1.0, l2) == (factor < 1.0)


@pytest.mark.parametrize("variance", [1e-6, 1e-7, 1e-8])
def test_decisions_match_where_refinement_decides(variance):
    # a spike of density on a long segment, l2 parallel below it: the grid
    # rarely lands on the spike, so golden refinement makes most decisions
    rng = np.random.default_rng(int(-math.log10(variance)))
    p = Profile.normal(0.5, variance)
    l1 = segment((0.0, 0.0), (100.0, 0.0))
    alpha = 0.5 / peak_density(p, 0.0, 1.0)
    decided = {True: 0, False: 0}
    for _ in range(30):
        y = rng.uniform(0.05, 0.45)
        x0 = rng.uniform(40.0, 49.0)
        l2 = segment((x0, y), (x0 + rng.uniform(2.0, 11.0), y))
        expected = reference_relates_prob(l1, p, alpha, l2)
        assert relates_prob(l1, p, alpha, l2) == expected
        decided[expected] += 1
    assert decided[True] > 0


ORACLE_SAMPLES = 4001


def test_sampled_witness_forces_a_relation():
    """One way: a witness found by dense numpy sampling of l2 means the pair
    relates.  A sample counts only when it beats the threshold by more than
    the sampling's Lipschitz slack: how far φ can move over one sampling
    step, |d2| * step for the distance plus the largest jump of alpha1 * f
    between neighbouring samples."""
    rng = np.random.default_rng(4001)
    s = np.linspace(0.0, 1.0, ORACLE_SAMPLES)
    step = s[1] - s[0]
    witnesses = 0
    for k in range(600):
        dim = (2, 7)[k % 2]
        p1 = random_profile(rng, FAMILIES[k % 6])
        l1 = random_carrier(rng, dim, "segment")
        l2 = random_carrier(rng, dim, "segment")
        alpha = rng.uniform(0.05, 3.0)
        pts = l2.x + s[:, None] * l2.direction
        t = np.clip((pts - l1.x) @ l1.direction / l1.sq_length, 0.0, 1.0)
        dist = np.linalg.norm(pts - (l1.x + t[:, None] * l1.direction), axis=1)
        f = p1.pdf(t)
        slack = step * math.sqrt(l2.sq_length) + alpha * np.abs(np.diff(f)).max()
        if np.any(dist < alpha * f - slack):
            witnesses += 1
            assert relates_prob(l1, p1, alpha, l2), (k, l1, p1, alpha, l2)
    assert witnesses >= 100


@pytest.mark.parametrize("variance", [1e-6, 1e-7, 1e-8, 1e-10])
def test_narrow_profile_witnesses_are_found(variance):
    # the density spike of l1 sits at x = 50; every l2 runs parallel below
    # the spike's reach of 0.5 and crosses x = 50, where its witness is
    rng = np.random.default_rng(int(round(-math.log10(variance))))
    p = Profile.normal(0.5, variance)
    l1 = segment((0.0, 0.0), (100.0, 0.0))
    alpha = 0.5 / peak_density(p, 0.0, 1.0)
    found = 0
    for _ in range(120):
        y = rng.uniform(0.05, 0.45)
        x0 = rng.uniform(-49.0, 49.0)
        l2 = segment((x0, y), (x0 + 100.0, y))
        assert contains_point(l1, p, alpha, (50.0, y))
        found += relates_prob(l1, p, alpha, l2, Profile.uniform(0.0, 1.0))
    assert found == 120


def _phi_parts(l1, l2, s):
    """Distances from g2(s) to l1 and the projection parameters, by plain numpy."""
    pts = l2.x + np.outer(s, l2.direction)
    t = (pts - l1.x) @ l1.direction / l1.sq_length
    if not l1.is_line:
        t = np.clip(t, 0.0, 1.0)
    return np.linalg.norm(pts - (l1.x + np.outer(t, l1.direction)), axis=1), t


def near_parallel(rng, l1, angle):
    """A segment or line turned by angle (radians) from l1's direction,
    offset from it by 0.1 to 2."""
    u = l1.direction / math.sqrt(l1.sq_length)
    w = rng.normal(size=l1.dim)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    v = math.cos(angle) * u + math.sin(angle) * w
    x = l1.x + w * rng.uniform(0.1, 2.0) + u * rng.uniform(-1.0, 1.0)
    y = x + v * rng.uniform(0.5, 4.0)
    return line(x, y) if rng.random() < 0.3 else segment(x, y)


def test_cell_bounds_never_exceed_phi():
    """On seeded pairs, profiles and cells, the bound on every cell is at most
    the minimum of φ over 1,001 points of the cell, beyond the pad; on the
    narrowest cells it is also within 1e-3 of that minimum, so it is no
    trivial bound."""
    rng = np.random.default_rng(1972)
    cells = near = 0
    for k in range(240):
        dim = (2, 3, 7)[k % 3]
        p1 = random_profile(rng, FAMILIES[k % 6])
        alpha = rng.uniform(0.05, 3.0)
        l1 = random_carrier(rng, dim, "line" if k % 5 == 0 else "segment")
        if k % 4 == 0:
            l2 = near_parallel(rng, l1, rng.uniform(1e-7, 1e-6))
        else:
            l2 = random_carrier(rng, dim, "line" if k % 7 == 0 else "segment")
        lo, hi = (-2.0, 3.0) if l2.is_line else (0.0, 1.0)
        # a coarse partition plus a cluster of narrow cells around one point
        centre = rng.uniform(lo, hi)
        s = np.unique(np.concatenate([np.linspace(lo, hi, 6), rng.uniform(lo, hi, 4),
                                      np.clip(centre + rng.uniform(-1e-5, 1e-5, 4), lo, hi)]))
        reach = _reference_reach(l1, p1)
        d, t = _phi_parts(l1, l2, s)
        bound, pad = _cell_bounds(p1, alpha, reach, s[:-1], s[1:], d[:-1], d[1:], t[:-1], t[1:],
                                  float(s[np.argmin(d)]), math.sqrt(l2.sq_length))
        for c in range(len(s) - 1):
            du, tu = _phi_parts(l1, l2, np.linspace(s[c], s[c + 1], 1001))
            inside = (tu >= reach[0]) & (tu <= reach[1])
            phi_min = float((du - alpha * np.where(inside, p1.pdf(tu), 0.0)).min())
            assert bound[c] <= phi_min + pad[c], (k, c, l1, l2, p1, alpha)
            if s[c + 1] - s[c] <= 2e-5:
                assert phi_min - bound[c] <= 1e-3 * (1.0 + abs(phi_min)), (k, c)
                near += 1
            cells += 1
    assert cells > 2000 and near > 200


def _undecided_flat():
    # alpha1 * f1(t) = t * (1 - 1e-15) under beta(2, 1), and l2 climbs at
    # 45 degrees from l1's start: phi(s) = s * 1e-15 (up to rounding), >= 0
    # everywhere, and no cell bound clears its pad, so only the budget ends it
    return (segment((0.0, 0.0), (1.0, 0.0)), segment((0.0, 0.0), (1.0, 1.0)),
            Profile.beta(2.0, 1.0), 0.5 * (1.0 - 1e-15))


def _undecided_edge():
    # f1 = 2 on t in [0, 0.5] and 0 beyond; l2 starts at height 1 above
    # t = 0.5 and heads away: phi is exactly 0 at s = 0 and positive after,
    # so one cell survives each level until SEARCH_TOL ends it
    return (segment((0.0, 0.0), (1.0, 0.0)), segment((0.5, 1.0), (1.5, 0.0)),
            Profile.uniform(0.0, 0.5), 0.5)


@pytest.mark.parametrize("case, min_refined, max_refined", [
    (_undecided_flat, WITNESS_BUDGET // 2, WITNESS_BUDGET),
    (_undecided_edge, round(math.log2(0.5 / 63 / SEARCH_TOL)), 100),
])
def test_undecided_pair_is_counted_within_budget(monkeypatch, case, min_refined, max_refined):
    l1, l2, p, alpha = case()
    # phi's minimum is within 1e-15 relative of 0, and never below it
    d, t = _phi_parts(l1, l2, np.linspace(0.0, 1.0, 100_001))
    scaled = alpha * p.pdf(t)
    assert (d - scaled >= 0.0).all()
    assert (d - scaled <= 1e-15 * (d + scaled)).any()
    calls = []
    root_level = neighborhood._root_level

    def recording(l1, p1, alpha1, reach, X, D, sq, lo, hi, samples):
        calls.append((len(X), samples))
        return root_level(l1, p1, alpha1, reach, X, D, sq, lo, hi, samples)

    monkeypatch.setattr(neighborhood, "_root_level", recording)
    spec = NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=p)
    ev = RelationEvaluator([l1, l2], spec)
    assert ev.relates(0, 1) is False
    assert ev.undecided_count == 1
    # the root grid, then the cells below it, each a window of three points
    assert calls[0] == (1, spec.search_samples)
    assert all(samples == 3 for _, samples in calls[1:])
    assert min_refined <= sum(cells for cells, _ in calls[1:]) <= max_refined


def _flat_row_7d():
    """An evaluator whose row 0 is a 7-d row of 64 copies of the flat
    undecided pair, which keeps every cell until the budget ends it."""
    l1, l2, p, alpha = _undecided_flat()
    lift = np.eye(2, 7)
    l1, l2 = (segment(l.x @ lift, l.y @ lift) for l in (l1, l2))
    return RelationEvaluator([l1] + [l2] * 64,
                             NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=p))


def test_levels_below_the_root_hold_no_more_points_than_a_root_block(monkeypatch):
    """The 7-d row of 64 flat undecided pairs: no _root_level call holds
    more points than a root block, and every pair is counted undecided
    once."""
    points = []
    root_level = neighborhood._root_level

    def recording(l1, p1, alpha1, reach, X, D, sq, lo, hi, samples):
        points.append(len(X) * samples)
        return root_level(l1, p1, alpha1, reach, X, D, sq, lo, hi, samples)

    monkeypatch.setattr(neighborhood, "_root_level", recording)
    ev = _flat_row_7d()
    assert ev.neighbor_set(0) == {0}
    assert ev.undecided_count == 64
    assert max(points) <= ROOT_BLOCK * ev.spec.search_samples
    # each pair spends at least half its budget, three points a cell
    assert sum(points) > 64 * WITNESS_BUDGET // 2 * 3


def test_over_budget_pairs_are_dropped_before_their_cells_are_gathered():
    """The 7-d row of 64 flat undecided pairs: a level drops the pairs its
    cells would take past WITNESS_BUDGET before it gathers their cells, so
    the row's traced peak stays below 7 MB (9.6 MB when they are gathered
    and then dropped), with every pair still counted undecided once."""
    ev = _flat_row_7d()
    tracemalloc.start()
    try:
        row = ev.neighbor_set(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row == {0} and ev.undecided_count == 64
    assert peak < 7e6, peak


def _root_pairs(rng, dim, family):
    """l1 with a density of the family, and l2s to batch against it: seeded
    segments with windows inside [0, 1] and lines with a density of their
    own, whose window is that density's effective window."""
    l1 = random_carrier(rng, dim, "line" if rng.random() < 0.3 else "segment")
    p1 = random_profile(rng, family)
    l2s, windows = [], []
    for k in range(int(rng.integers(2, 12))):
        if k % 3 == 2:
            l2s.append(random_carrier(rng, dim, "line"))
            windows.append(effective_window(random_profile(rng, FAMILIES[k % 6])))
        else:
            l2s.append(random_carrier(rng, dim, "segment"))
            windows.append(tuple(sorted(rng.uniform(0.0, 1.0, 2))))
    return l1, p1, l2s, windows


@pytest.mark.parametrize("samples", [64, 17])
def test_root_level_batch_is_bit_identical_to_single_pairs(samples):
    """_root_level over m pairs gives each pair the bits a batch of one
    gives it, and its grid is np.linspace's."""
    rng = np.random.default_rng(samples)
    for k in range(48):
        dim = (2, 7)[k % 2]
        l1, p1, l2s, windows = _root_pairs(rng, dim, FAMILIES[k % 6])
        alpha = rng.uniform(0.05, 3.0)
        reach = _witness_domain(l1, p1)
        X = np.array([l.x for l in l2s])
        D = np.array([l.direction for l in l2s])
        sq = np.array([l.sq_length for l in l2s])
        lo, hi = (np.array(w) for w in zip(*windows))
        batch = _root_level(l1, p1, alpha, reach, X, D, sq, lo, hi, samples)
        for r in range(len(l2s)):
            single = _root_level(l1, p1, alpha, reach, X[r:r + 1], D[r:r + 1], sq[r:r + 1],
                                 lo[r:r + 1], hi[r:r + 1], samples)
            for name, whole, one in zip(("s", "hit", "keep"), batch, single):
                assert np.array_equal(whole[r], one[0]), (k, r, name)
            assert np.array_equal(batch[0][r], np.linspace(lo[r], hi[r], samples)), (k, r)


def test_row_wider_than_a_block_matches_single_pairs(monkeypatch):
    """A row whose candidates fill several blocks decides every pair as
    relates_prob does on its own."""
    rng = np.random.default_rng(12)
    U = [segment((0.0, 0.0), (4.0, 0.0))]
    for _ in range(3 * ROOT_BLOCK):
        x = rng.uniform((-0.5, -0.3), (4.5, 0.3))
        U.append(segment(x, x + rng.normal(scale=0.5, size=2)))
    profiles = [Profile.normal(0.5, 0.01)] + [Profile.beta(2.0, 3.0)] * (len(U) - 1)
    spec = NeighbourhoodSpec(version=3, c=1, alpha=0.05, profile=profiles)
    blocks = []
    root_level = neighborhood._root_level

    def recording(l1, p1, alpha1, reach, X, *args):
        blocks.append(len(X))
        return root_level(l1, p1, alpha1, reach, X, *args)

    monkeypatch.setattr(neighborhood, "_root_level", recording)
    row = RelationEvaluator(U, spec).neighbor_set(0)
    assert len(blocks) >= 2 and sum(blocks) > ROOT_BLOCK and max(blocks) == ROOT_BLOCK
    monkeypatch.setattr(neighborhood, "_root_level", root_level)
    expected = {j for j, l2 in enumerate(U) if relates_prob(U[0], profiles[0], 0.05, l2, profiles[j])}
    assert row == expected
    assert 0 < len(expected) < len(U) - ROOT_BLOCK


def test_bare_call_is_a_batch_of_one(monkeypatch):
    # relates_prob without a root is row 0 of the two-line evaluator
    # [l1, l2], which hands l1's reach and threshold and l2's domain to
    # _witness_hits as a batch of one, and gets its decision and a count
    # of 0 undecided back
    l1, l2, p = line((0, 0), (1, 0)), line((0, 0.3), (1, 0.35)), Profile.normal(0.5, 0.04)
    reach, threshold = _set_up(l1, p, 1.0)
    calls, built = [], []
    witness_hits = neighborhood._witness_hits

    def recording(*args):
        calls.append((args, witness_hits(*args)))
        return calls[-1][1]

    class Recorded(RelationEvaluator):
        def __init__(self, U, spec):
            built.append((U, spec))
            super().__init__(U, spec)

    monkeypatch.setattr(neighborhood, "_witness_hits", recording)
    monkeypatch.setattr(neighborhood, "RelationEvaluator", Recorded)
    assert relates_prob(l1, p, 1.0, l2, None)
    assert built == [([l1, l2], NeighbourhoodSpec(version=3, c=1, alpha=1.0, profile=[p, None]))]
    ((l1_, p_, alpha, reach_, threshold_, X, D, sq, lo, hi), (hits, undecided)), = calls
    assert (l1_, p_, alpha, reach_, threshold_) == (l1, p, 1.0, reach, threshold)
    assert hits.tolist() == [True] and undecided == 0
    assert np.array_equal(X, l2.x[None]) and np.array_equal(D, l2.direction[None])
    assert sq.tolist() == [l2.sq_length] and (lo.tolist(), hi.tolist()) == ([-math.inf], [math.inf])
    assert RelationEvaluator([l1, l2], NeighbourhoodSpec(version=3, c=1, alpha=1.0,
                                                         profile=[p, None])).relates(0, 1)


def _to_piece(l1, reach, pts):
    """Distances from pts to l1 and to the piece of l1 the reach covers, and
    each point's t* on l1, by plain numpy."""
    if l1.is_degenerate:
        dist = np.linalg.norm(pts - l1.x, axis=1)
        return dist, dist, np.zeros(len(pts))
    t = (pts - l1.x) @ l1.direction / l1.sq_length
    t_star = t if l1.is_line else np.clip(t, 0.0, 1.0)
    dist = np.linalg.norm(pts - (l1.x + np.outer(t_star, l1.direction)), axis=1)
    t_piece = np.clip(t, *reach)
    return dist, np.linalg.norm(pts - (l1.x + np.outer(t_piece, l1.direction)), axis=1), t_star


@pytest.mark.parametrize("dim", [2, 3, 7])
def test_line_window_holds_every_witness(dim):
    """Seeded property of the window of an infinite l2: every densely sampled
    s whose point is within threshold of l1 at a t* inside the reach lies
    inside it, and it is empty only when no sample lies within threshold of
    the piece of l1 the reach covers.  The samples span every s whose point
    is within threshold of that piece: the piece's ends projected onto l2,
    widened by threshold / |d2|, since the parameter of a point's
    projection onto l2 moves by at most |step| / |d2|.  Each end of a
    window lies threshold + h from the piece's centre, so it is no wider
    than the ball it is cut from."""
    rng = np.random.default_rng(2000 + dim)
    outcomes = {True: 0, False: 0}
    for k in range(180):
        kind = ("segment", "line", "degenerate")[(k // 6) % 3]
        l1 = random_carrier(rng, dim, kind)
        reach = effective_window(random_profile(rng, FAMILIES[k % 6])) if l1.is_line \
            else (0.0, 1.0)
        l2 = random_carrier(rng, dim, "line")
        threshold = rng.uniform(0.05, 3.0)
        window = tuple(float(end[0]) for end in _line_windows(
            l1, threshold, reach, l2.x[None], l2.direction[None], np.array([l2.sq_length])))

        ends = [l1.x + r * l1.direction for r in reach]
        proj = [float((e - l2.x) @ l2.direction) / l2.sq_length for e in ends]
        pad = 2.0 * threshold / math.sqrt(l2.sq_length)
        s = np.linspace(min(proj) - pad, max(proj) + pad, 20_001)
        dist, to_piece, t = _to_piece(l1, reach, l2.x + np.outer(s, l2.direction))
        witness = (dist < threshold) & (t >= reach[0]) & (t <= reach[1])
        near = to_piece < threshold
        lo, hi = window
        outcomes[hi >= lo] += 1
        if hi < lo:
            assert not near.any(), (k, l1, l2, threshold, reach)
            continue
        inside = (s > lo) & (s < hi)
        assert inside[witness].all() and inside[near].all(), (k, l1, l2, threshold, reach)
        centre = l1.x + 0.5 * (reach[0] + reach[1]) * l1.direction
        radius = threshold + 0.5 * (reach[1] - reach[0]) * math.sqrt(l1.sq_length)
        for end in window:
            assert math.isclose(np.linalg.norm(l2.x + end * l2.direction - centre), radius,
                                rel_tol=1e-9), (k, end)
    assert min(outcomes.values()) >= 10, outcomes


@pytest.mark.parametrize("dim", [2, 3, 7])
def test_line_windows_batch_is_bit_identical_to_single_lines(dim):
    """_line_windows over m lines gives each line the bits a batch of one
    gives it, an empty window included."""
    rng = np.random.default_rng(300 + dim)
    empty = 0
    for k in range(48):
        l1 = random_carrier(rng, dim, ("segment", "line", "degenerate")[k % 3])
        reach = effective_window(random_profile(rng, FAMILIES[k % 6])) if l1.is_line \
            else (0.0, 1.0)
        threshold = rng.uniform(0.05, 3.0)
        l2s = [random_carrier(rng, dim, "line") for _ in range(int(rng.integers(2, 12)))]
        X = np.array([l.x for l in l2s])
        D = np.array([l.direction for l in l2s])
        sq = np.array([l.sq_length for l in l2s])
        lo, hi = _line_windows(l1, threshold, reach, X, D, sq)
        for r in range(len(l2s)):
            one = _line_windows(l1, threshold, reach, X[r:r + 1], D[r:r + 1], sq[r:r + 1])
            assert (lo[r], hi[r]) == (one[0][0], one[1][0]), (k, r)
        empty += int((hi < lo).sum())
    assert 0 < empty


def _witnesses(monkeypatch, l1, p1, alpha, l2, p2):
    """The points of l2 at which relates_prob's own φ evaluations read
    below 0, recorded from the one φ evaluator it calls."""
    phi = neighborhood._phi
    found = []

    def recording(l1, p1, alpha1, reach, P):
        t, d, values = phi(l1, p1, alpha1, reach, P)
        found.extend(P[values < 0.0])
        return t, d, values

    with monkeypatch.context() as m:
        m.setattr(neighborhood, "_phi", recording)
        relates_prob(l1, p1, alpha, l2, p2)
    return found


@pytest.mark.parametrize("dim", [2, 3, 7])
def test_rows_decide_line_targets_without_a_profile(monkeypatch, dim):
    """A version 3 row decides its line targets that have no density of
    their own in its one _witness_hits call, beside point, narrow-window and
    empty-window targets.  The row, relates(i, j) and relates_prob on each
    pair alone take one decision, and it is the reference's on every pair:
    f1 read cut to l1's reach leaves no witness far down a tail of f1 for
    the reference's grid to step over.  Each related line target comes with
    a witness that the reference foot and density confirm."""
    rng = np.random.default_rng(60 + dim)
    alpha = 0.4
    U, profiles, kinds = [], [], []
    for k in range(8):
        U.append(random_carrier(rng, dim, ("segment", "line")[k % 2]))
        profiles.append(random_profile(rng, FAMILIES[k % 6]))
        kinds.append("source")
    for k in range(96):
        # a target through a point q off one source, square to it at a t in
        # its reach where f > 0, at up to 1.5 times alpha f(t), at parameter
        # a of the target; each kind of target meets every source
        l1, p1 = U[k % 8], profiles[k % 8]
        t = rng.uniform(*_witness_domain(l1, p1))
        u = rng.normal(size=dim)
        u -= (u @ l1.direction) / l1.sq_length * l1.direction
        q = l1.x + t * l1.direction \
            + u / np.linalg.norm(u) * rng.uniform(0.0, 1.5) * alpha * density(p1, t)
        kind = ("line", "point", "narrow", "empty")[k // 8 % 4]
        a, d = rng.uniform(0.0, 1.0 - SEARCH_TOL), rng.normal(size=dim)
        x2 = q - a * d
        if kind == "line":
            U.append(line(x2, x2 + d))
            profiles.append(None)
        elif kind == "point":
            U.append(segment(q, q))
            profiles.append(None)
        else:
            U.append(segment(x2, x2 + d))
            profiles.append(Profile.uniform(a, a + 0.5 * SEARCH_TOL) if kind == "narrow"
                            else Profile.uniform(2.0, 3.0))
        kinds.append(kind)
    witness_hits = neighborhood._witness_hits
    unbounded = []

    def recording(l1, p1, alpha1, reach, threshold, X, D, sq, lo, hi, *args):
        unbounded.append(int(np.isinf(lo).sum()))
        return witness_hits(l1, p1, alpha1, reach, threshold, X, D, sq, lo, hi, *args)

    monkeypatch.setattr(neighborhood, "_witness_hits", recording)
    ev = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=profiles))
    rows = [ev.neighbor_set(i) for i in range(8)]
    # one call per row, holding the line targets its carrier bound leaves open
    assert len(unbounded) == 8 and sum(unbounded) >= 8, unbounded
    decided = {kind: [0, 0] for kind in ("line", "point", "narrow", "empty")}
    for i, row in enumerate(rows):
        l1, p1 = U[i], profiles[i]
        reach = _witness_domain(l1, p1)
        for j, l2 in enumerate(U):
            related = j in row
            assert ev.relates(i, j) == related, (i, j, kinds[j])
            assert relates_prob(l1, p1, alpha, l2, profiles[j]) == related, (i, j, kinds[j])
            expected = reference_relates_prob(l1, p1, alpha, l2, profiles[j])
            assert related == expected, (i, j, kinds[j])
            if related and kinds[j] == "line":
                t, sq = reference_foot(_witnesses(monkeypatch, l1, p1, alpha, l2, None)[0], l1)
                assert math.sqrt(sq) < alpha * _cut_density(p1, reach, t), (i, j)
            if kinds[j] != "source":
                decided[kinds[j]][related] += 1
    assert ev.undecided_count == 0
    assert decided["empty"][1] == 0
    assert min(decided["line"] + decided["point"] + decided["narrow"]) >= 10, decided


@pytest.mark.parametrize("crossing, related", [
    (0.3, True), (1.0, True), (1.6, False), (-0.7, False), (3.0, False),
])
def test_line_source_reads_its_density_cut_to_the_reach(crossing, related):
    """A line l1 under normal(0.5, 0.04), whose reach is its effective
    window, about (-0.45, 1.45), and line targets square to it: a target
    crossing inside the reach relates, one crossing outside does not,
    though f1 > 0 there, and no pair is undecided.  Read uncut, f1 would
    relate every crossing, through a witness within alpha1 * f1 of it:
    5e-6 at 1.6, 3e-7 at -0.7 and 2e-33 at 3.0."""
    p, alpha = Profile.normal(0.5, 0.04), 10.0
    l1 = line((0.0, 0.0), (1.0, 0.0))
    reach = _witness_domain(l1, p)
    assert (reach[0] < crossing < reach[1]) is related and density(p, crossing) > 0.0
    l2 = line((crossing, -2.0), (crossing, -1.0))
    ev = RelationEvaluator([l1, l2], NeighbourhoodSpec(version=3, c=1, alpha=alpha,
                                                       profile=[p, None]))
    assert ev.neighbor_set(0) == ({0, 1} if related else {0})
    assert ev.undecided_count == 0
    assert relates_prob(l1, p, alpha, l2) is related
    assert reference_relates_prob(l1, p, alpha, l2) is related
    assert contains_point(l1, p, alpha, (crossing, 0.0)) is related


@pytest.mark.parametrize("x, related", [(-3.9, True), (-4.1, False)])
def test_exponential_segment_keeps_its_cap_at_its_start(x, related):
    """A segment under exponential(4), whose window starts at 0, its mode,
    and a target square to its carrier x before its start: the target
    relates through the cap of radius alpha1 * f1(0) = 4 there exactly
    when it passes within 4 of the start, and no pair is undecided."""
    p, l1 = Profile.exponential(4.0), segment((0.0, 0.0), (1.0, 0.0))
    assert effective_window(p)[0] == 0.0
    for l2 in (segment((x, -1.0), (x, 1.0)), segment((x, 0.0), (x, 0.0))):
        ev = RelationEvaluator([l1, l2], NeighbourhoodSpec(version=3, c=1, alpha=1.0,
                                                           profile=[p, None]))
        assert ev.relates(0, 1) is related, l2
        assert ev.undecided_count == 0
        assert reference_relates_prob(l1, p, 1.0, l2) is related
    assert contains_point(l1, p, 1.0, (x, 0.0)) is related


@pytest.mark.parametrize("p", [Profile.uniform(2.0, 3.0), Profile.normal(3.0, 0.01)])
def test_segment_whose_window_misses_its_parameters_relates_to_nothing(p):
    """A segment's reach is [0, 1] cut to f1's window.  Where the window
    misses [0, 1], the reach is empty and the segment relates to nothing,
    itself and a copy of itself included, though normal(3, 0.01) is about
    5e-87 at t = 1, and no pair is undecided."""
    l1 = segment((0.0, 0.0), (1.0, 0.0))
    U = [l1, l1, segment((0.5, -1.0), (0.5, 1.0)), line((0.0, 0.5), (1.0, 0.5))]
    ev = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=10.0,
                                                profile=[p, None, None, None]))
    assert ev.radius[0] == 0.0
    assert ev.neighbor_set(0) == set()
    assert ev.undecided_count == 0
    assert not relates_prob(l1, p, 10.0, l1)


def test_profile_rows_never_call_min_distance(monkeypatch):
    """relates_prob, and every row of a version 3 evaluator whose line the
    witness search decides, decide without the exact distance solve, and
    take the decisions of the reference, which does call it.  No density
    here is a capsule (searched_profile)."""
    rng = np.random.default_rng(17)
    U, profiles = [], []
    for k in range(42):
        U.append(random_carrier(rng, 3, ("segment", "line", "degenerate")[k % 3]))
        profiles.append(None if k % 4 == 3 else searched_profile(rng, FAMILIES[k % 6]))
    alpha = 1.5
    expected = {i: {j for j, l2 in enumerate(U)
                    if reference_relates_prob(U[i], p, alpha, l2, profiles[j])}
                for i, p in enumerate(profiles) if p is not None}

    def refuse(l1, l2):
        raise AssertionError("min_distance was called")

    monkeypatch.setattr(neighborhood, "min_distance", refuse)
    ev = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=profiles))
    assert all(ev.searched[i] for i in expected)  # every profile row is searched
    assert {i: ev.neighbor_set(i) for i in expected} == expected
    assert ev.undecided_count == 0
    for i, row in expected.items():
        assert {j for j, l2 in enumerate(U)
                if relates_prob(U[i], profiles[i], alpha, l2, profiles[j])} == row
    related = sum(map(len, expected.values()))
    assert 200 < related < len(expected) * len(U) - 200, related


@pytest.mark.parametrize("eps", [1e-11, 1e-10, 1e-9, 1e-8])
@pytest.mark.parametrize("profile, x0, alpha, related", [
    (Profile.uniform(0.0, 1.0), 0.5, 0.3, True),
    (Profile.uniform(0.0, 1.0), 1.2, 1.0, False),
    (Profile.normal(0.5, 0.04), 0.3, 0.3, True),
    (Profile.normal(0.5, 0.04), 2.5, 0.3, False),
    (Profile.beta(2.0, 3.0), 0.4, 0.5, True),
    (Profile.beta(2.0, 3.0), 1.3, 0.5, False),
])
def test_near_perpendicular_lines_are_decided(monkeypatch, eps, profile, x0, alpha, related):
    """An infinite l2 with direction (eps, 1) crossing the line l1 at x0: it
    relates where f1 > 0 at the crossing and not where f1 vanishes there.
    The window around the reach keeps the search on the crossing, so the
    root grid decides every pair."""
    evaluated = []
    phi = neighborhood._phi

    def counting(l1, p1, alpha1, reach, P):
        evaluated.append(len(P))
        return phi(l1, p1, alpha1, reach, P)

    monkeypatch.setattr(neighborhood, "_phi", counting)
    l1, l2 = line((0.0, 0.0), (1.0, 0.0)), line((x0, -0.3), (x0 + eps, 0.7))
    spec = NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=[profile, None])
    ev = RelationEvaluator([l1, l2], spec)
    assert ev.relates(0, 1) is related
    assert ev.undecided_count == 0
    # at most the root grid
    assert sum(evaluated) <= spec.search_samples


def reference_point_phi(l1, profile1, alpha1, l2, lo):
    """(φ, scale) at l2's one parameter lo by the scalar path: the point's
    foot on l1 by `reference_foot` and f₁ there by `density`.  scale
    is the sum of the two parts φ compares."""
    p = [x + u * lo for x, u in zip(l2.x.tolist(), l2.direction.tolist())]
    t, sq = reference_foot(p, l1)
    reach = _reference_reach(l1, profile1)
    dist, scaled = math.sqrt(sq), alpha1 * _cut_density(profile1, reach, t)
    return dist - scaled, dist + scaled


def _one_parameter_pairs(rng, dim, family, kind1):
    """l1 with a density of the family, and l2s whose witness set is one
    parameter: points, and segments and lines whose density is a uniform
    window no wider than SEARCH_TOL.  Each l2 passes its one point at a
    random offset of up to 1.5 thresholds from a point of l1 at a t in the
    reach, so both decisions occur.  p1 is never a capsule
    (searched_profile), so the witness search decides every pair.  Returns
    l1, p1, alpha, l2s, their profiles and their one parameters."""
    l1 = random_carrier(rng, dim, kind1)
    p1 = searched_profile(rng, family)
    alpha = rng.uniform(0.05, 3.0)
    reach, threshold = _set_up(l1, p1, alpha)
    l2s, profiles, params = [], [], []
    for k in range(12):
        u = rng.normal(size=dim)
        q = l1.x + rng.uniform(*reach) * l1.direction \
            + u / np.linalg.norm(u) * rng.uniform(0.0, 1.5) * threshold
        kind2 = ("degenerate", "segment", "line")[k % 3]
        if kind2 == "degenerate":
            l2s.append(segment(q, q))
            profiles.append(None if k % 2 else random_profile(rng, "beta"))
            params.append(0.0)
            continue
        a = rng.uniform(0.0, 1.0 - SEARCH_TOL) if kind2 == "segment" else rng.uniform(-3.0, 3.0)
        d = rng.normal(size=dim) * rng.uniform(0.2, 4.0)
        x2 = q - a * d
        l2s.append(segment(x2, x2 + d) if kind2 == "segment" else line(x2, x2 + d))
        profiles.append(Profile.uniform(a, a + rng.uniform(1e-12, 0.9) * SEARCH_TOL))
        params.append(a)
    return l1, p1, alpha, l2s, profiles, params


@pytest.mark.parametrize("dim", [2, 3, 7])
def test_point_hits_batch_is_bit_identical_to_single_pairs(dim):
    """_phi at the points of m one-parameter pairs gives each pair the feet,
    distances and phi a batch of one gives it, and its hit flag, phi < 0,
    is relates_prob's decision."""
    rng = np.random.default_rng(30 + dim)
    for k in range(24):
        l1, p1, alpha, l2s, profiles, params = _one_parameter_pairs(
            rng, dim, FAMILIES[k % 6], ("segment", "line")[k % 2])
        P = np.array([l.x + lo * l.direction for l, lo in zip(l2s, params)])
        reach = _witness_domain(l1, p1)
        batch = _phi(l1, p1, alpha, reach, P)
        hits = batch[2] < 0.0
        assert hits.shape == (len(l2s),)
        for r, (l2, p2) in enumerate(zip(l2s, profiles)):
            single = _phi(l1, p1, alpha, reach, P[r:r + 1])
            for name, whole, one in zip(("t", "d", "phi"), batch, single):
                assert np.array_equal(whole[r:r + 1], one), (k, r, name)
            assert relates_prob(l1, p1, alpha, l2, p2) == hits[r], (k, r)


@pytest.mark.parametrize("dim", [2, 3, 7])
@pytest.mark.parametrize("kind1", ["segment", "line"])
def test_one_parameter_decisions_match_the_scalar_phi(monkeypatch, dim, kind1):
    """On seeded point and narrow-window l2s, relates_prob and a version 3
    row take the scalar φ's decision on every pair it does not leave within
    1e-12 of its scale, for every family of f₁."""
    rng = np.random.default_rng(40 + dim + (kind1 == "line"))
    decided = {True: 0, False: 0}
    real_phi, root_level = neighborhood._phi, neighborhood._root_level
    points, searching = [], []

    def recording(l1, p1, alpha1, reach, P):
        if not searching:  # the one-parameter pass, not a level of the search
            points.append(P)
        return real_phi(l1, p1, alpha1, reach, P)

    def level(*args):
        searching.append(True)
        try:
            return root_level(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(neighborhood, "_phi", recording)
    monkeypatch.setattr(neighborhood, "_root_level", level)
    for k in range(36):
        l1, p1, alpha, l2s, profiles, params = _one_parameter_pairs(rng, dim, FAMILIES[k % 6],
                                                                    kind1)
        spec = NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=[p1] + profiles)
        ev = RelationEvaluator([l1] + l2s, spec)
        points.clear()
        assert ev.searched[0]
        row = ev.neighbor_set(0)
        # one _phi pass holds every l2 the carrier bound leaves open
        threshold = ev.radius[0]
        bound = ev._carrier_bound(0, slice(1, None))
        assert len(points) <= 1 and sum(map(len, points)) == int((bound < threshold).sum())
        for j, (l2, p2, lo) in enumerate(zip(l2s, profiles, params), start=1):
            phi, scale = reference_point_phi(l1, p1, alpha, l2, lo)
            if abs(phi) <= 1e-12 * scale:
                continue
            expected = phi < 0.0
            assert relates_prob(l1, p1, alpha, l2, p2) == expected, (k, j)
            assert (j in row) == expected, (k, j)
            decided[expected] += 1
    assert min(decided.values()) >= 60, decided


def _lifted_dataset(rng, dim=7, count=90):
    """Records around three centres in R^dim and a few uniform ones, a
    sixth of them missing one coordinate, lifted with a different template
    family on each axis."""
    centres = rng.uniform(0.0, 5.0, size=(3, dim))
    records = [list(map(float, rng.normal(centres[k % 3], 0.4))) for k in range(count - 10)]
    records += [list(map(float, rng.uniform(-1.0, 6.0, dim))) for _ in range(10)]
    for v in rng.choice(count, size=count // 6, replace=False):
        records[int(v)][int(rng.integers(dim))] = None
    templates = (Profile.uniform(0.0, 1.0), Profile.normal(0.5, 0.02), Profile.beta(2.0, 3.0),
                 Profile.ellipsoidal(0.6, 1.0), Profile.gamma(2.0, 6.0),
                 Profile.exponential(3.0))
    domains = {axis: AxisDomain(axis=axis, window=(-1.5, 6.5),
                                profile_template=templates[axis % len(templates)])
               for axis in range(dim)}
    return lift_dataset(records, domains)


def test_profile_rows_never_call_the_scalar_phi(monkeypatch):
    """Every profile row of a lifted version 3 evaluator, and each direct
    relates_prob call of its pairs, decides with the validating
    `closest_point` and the scalar `density` refusing to run, and takes the
    decisions of the reference, which calls the reference foot and
    `density`."""
    lifted = _lifted_dataset(np.random.default_rng(2026))
    U, profiles = lifted.segments, lifted.profiles
    alpha = 1.0
    rows = [i for i, p in enumerate(profiles) if p is not None]
    expected = {i: {j for j, l2 in enumerate(U)
                    if reference_relates_prob(U[i], profiles[i], alpha, l2, profiles[j])}
                for i in rows}
    ev = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=profiles))

    def refuse(*args):
        raise AssertionError("the scalar phi was called")

    monkeypatch.setattr(neighborhood, "closest_point", refuse)
    monkeypatch.setattr(neighborhood, "density", refuse)
    assert {i: ev.neighbor_set(i) for i in rows} == expected
    assert ev.undecided_count == 0
    for i in rows:
        assert {j for j, l2 in enumerate(U)
                if relates_prob(U[i], profiles[i], alpha, l2, profiles[j])} == expected[i]
    points = sum(l.is_degenerate for l in U)
    related_points = sum(U[j].is_degenerate for row in expected.values() for j in row)
    assert 0 < related_points < len(rows) * points, related_points


def test_rows_refine_the_pairs_their_root_level_leaves_open(monkeypatch):
    """A row hands back to _root_level, as windows of three points, the
    kept cells of the pairs whose root level neither hits nor prunes every
    cell, and decides every pair as relates_prob does alone: a density
    spike on a long segment, which the root grids of the parallel l2s
    crossing it rarely land on, so the levels below the root find most of
    their witnesses."""
    rng = np.random.default_rng(50)
    p = Profile.normal(0.5, 1e-7)
    U = [segment((0.0, 0.0), (100.0, 0.0))]
    for _ in range(24):
        y, x0 = rng.uniform(0.05, 0.45), rng.uniform(-49.0, 49.0)
        U.append(segment((x0, y), (x0 + rng.uniform(2.0, 100.0), y)))
    profiles = [p] + [Profile.uniform(0.0, 1.0)] * (len(U) - 1)
    alpha = 0.5 / peak_density(p, 0.0, 1.0)
    found = []
    root_level = neighborhood._root_level

    def recording(l1, p1, alpha1, reach, X, D, sq, lo, hi, samples):
        level = root_level(l1, p1, alpha1, reach, X, D, sq, lo, hi, samples)
        if samples == 3:  # below the root grid, whose samples are the spec's 64
            found.extend(level[1].tolist())
        return level

    monkeypatch.setattr(neighborhood, "_root_level", recording)
    ev = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=profiles))
    rows = [ev.neighbor_set(i) for i in range(len(U))]
    assert len(found) > 0 and True in found
    assert ev.undecided_count == 0
    monkeypatch.setattr(neighborhood, "_root_level", root_level)
    for i, row in enumerate(rows):
        assert row == {j for j, l2 in enumerate(U)
                       if relates_prob(U[i], profiles[i], alpha, l2, profiles[j])}, i


def test_rows_count_each_undecided_pair_once():
    """Two segments from one point, where beta(2, 1)'s density vanishes: a
    row counts as many undecided pairs as the two-line evaluators of its
    pairs, the rows a bare relates_prob decides, and takes the same
    decisions."""
    U = [segment((0.0, 0.0), (1.0, 0.0)), segment((0.0, 0.0), (1.0, 1.0))]
    p, alpha = Profile.beta(2.0, 1.0), 0.4
    spec = NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=p)
    expected = [{j for j, l2 in enumerate(U) if relates_prob(l1, p, alpha, l2, p)} for l1 in U]
    undecided = 0
    for l1 in U:
        for l2 in U:
            pair = RelationEvaluator([l1, l2], spec)
            pair.relates(0, 1)
            undecided += pair.undecided_count
    ev = RelationEvaluator(U, spec)
    assert [ev.neighbor_set(i) for i in range(len(U))] == expected
    assert ev.undecided_count == undecided > 0


# -- capsules: a segment under uniform(a, b) with a <= 0 and b >= 1 -----------

CAPSULE_PROFILES = [Profile.uniform(0.0, 1.0), Profile.uniform(-0.5, 1.5),
                    Profile.uniform(-0.2, 1.0), Profile.uniform(0.0, 3.0)]


def _tangent_pair(rng, dim, p1, alpha, place, factor):
    """A segment l1 and a segment l2 whose minimum distance to it is its
    capsule radius alpha / (b - a) times factor, reached at l2's start and at
    an l1 parameter on the oracle's 1e-3 grid: square to l1's middle, past
    its end along its direction, or into its round cap at the end."""
    x = rng.uniform(-2.0, 2.0, dim)
    l1 = segment(x, x + rng.normal(size=dim) * rng.uniform(0.5, 3.0))
    radius = alpha * density(p1, 0.5)
    unit = l1.direction / math.sqrt(l1.sq_length)
    u = rng.normal(size=dim)
    u -= (u @ unit) * unit
    u /= np.linalg.norm(u)
    if place == "middle":
        foot, away = l1.x + 0.5 * l1.direction, u
    elif place == "end":
        foot, away = l1.y, unit
    else:  # the cap: any direction at less than 90 degrees from l1's
        foot, away = l1.y, (unit + u * rng.uniform(0.0, 3.0))
        away = away / np.linalg.norm(away)
    start = foot + away * (radius * factor)
    return l1, segment(start, start + away * rng.uniform(0.5, 2.0)), radius


@pytest.mark.parametrize("place", ["middle", "end", "cap"])
@pytest.mark.parametrize("factor", [1.0 - 1e-12, 1.0 + 1e-12])
def test_capsules_are_decided_at_their_radius(monkeypatch, place, factor):
    """Uniform segment pairs tangent to the capsule at 1e-12 relative inside
    and outside its radius: the row, relates(i, j) and relates_prob take
    the side the pair was placed on, as the reference does, with no witness
    search and none undecided.  grid_min_distance, whose grid holds the
    closest pair of parameters, confirms the placement to its rounding, and
    min_distance puts the pair on its side."""
    rng = np.random.default_rng([7, len(place), int(factor > 1.0)])

    def refuse(*args):
        raise AssertionError("a capsule row ran the witness search")

    for k in range(12):
        dim = (2, 3, 7)[k % 3]
        p1 = CAPSULE_PROFILES[k % 4]
        p2 = (None, Profile.uniform(0.0, 1.0), Profile.uniform(-1.0, 2.0))[k % 3]
        alpha = rng.uniform(0.05, 2.0)
        l1, l2, radius = _tangent_pair(rng, dim, p1, alpha, place, factor)
        related = factor < 1.0
        assert math.isclose(grid_min_distance(l1, l2), radius, rel_tol=1e-9)
        assert (min_distance(l1, l2).distance < radius) is related
        assert reference_relates_prob(l1, p1, alpha, l2, p2) is related, k
        ev = RelationEvaluator([l1, l2], NeighbourhoodSpec(version=3, c=1, alpha=alpha,
                                                           profile=[p1, p2]))
        assert not ev.searched[0] and ev.radius[0] == radius
        with monkeypatch.context() as m:
            m.setattr(neighborhood, "_witness_hits", refuse)
            assert ev.neighbor_set(0) == ({0, 1} if related else {0}), k
            assert ev.relates(0, 1) is related
            assert relates_prob(l1, p1, alpha, l2, p2) is related
        assert ev.undecided_count == 0


@pytest.mark.parametrize("kind, profile, searched", [
    ("segment", Profile.uniform(0.2, 0.8), True),   # a support strictly inside [0, 1]
    ("line", Profile.uniform(0.0, 1.0), True),      # a line's neighbourhood has flat ends
    ("segment", Profile.uniform(-0.5, 1.5), False),  # a capsule of radius alpha / 2
])
def test_capsule_scope(monkeypatch, kind, profile, searched):
    """Only a segment whose uniform support covers [0, 1] is a capsule: its
    row makes no _witness_hits call and has radius alpha * f1, and the
    others keep the search.  Every decision is the reference's."""
    rng = np.random.default_rng(len(kind) + int(searched))
    alpha = 0.8
    l1 = line((0.0, 0.0), (1.0, 0.0)) if kind == "line" else segment((0.0, 0.0), (1.0, 0.0))
    U, profiles = [l1], [profile]
    for k in range(40):
        x = rng.uniform((-1.0, -1.0), (2.0, 1.0))
        U.append(segment(x, x + rng.normal(scale=0.4, size=2)) if k % 4 else segment(x, x))
        profiles.append(None if k % 2 else Profile.uniform(0.0, 1.0))
    calls = []
    witness_hits = neighborhood._witness_hits

    def counting(*args):
        calls.append(len(args[5]))
        return witness_hits(*args)

    monkeypatch.setattr(neighborhood, "_witness_hits", counting)
    ev = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=profiles))
    row = ev.neighbor_set(0)
    if searched:
        assert ev.searched[0] and len(calls) == 1 and calls[0] > 0
    else:
        assert not ev.searched[0] and ev.radius[0] == alpha / 2 and calls == []
    expected = {j for j, l2 in enumerate(U)
                if reference_relates_prob(l1, profile, alpha, l2, profiles[j])}
    assert row == expected
    assert {j for j in range(len(U)) if ev.relates(0, j)} == expected
    assert {j for j, l2 in enumerate(U)
            if relates_prob(l1, profile, alpha, l2, profiles[j])} == expected
    assert ev.undecided_count == 0
    assert 1 < len(expected) < len(U) - 5


def test_capsule_rows_measure_to_the_witness_piece():
    """A capsule row measures to each target's witness piece, not to its
    carrier: every target below but the points crosses l1, so its carrier
    is within the radius, and relates only where its piece is too.  A
    narrow window, an empty window, points and lines carrying a profile,
    inside and outside; the row, relates(i, j), relates_prob and the
    reference take one decision on each."""
    alpha = 0.3
    l1, p1 = segment((0.0, 0.0), (2.0, 0.0)), Profile.uniform(0.0, 1.0)
    U, profiles, expected = [l1], [p1], [True]

    def target(l2, p2, related):
        U.append(l2)
        profiles.append(p2)
        expected.append(related)

    # crossing l1 at x = 1 at parameter 0.5, the window at parameter a
    for a, related in ((0.5 - 0.4 * SEARCH_TOL, True), (0.9, False)):
        target(segment((1.0, -1.0), (1.0, 1.0)), Profile.uniform(a, a + 0.5 * SEARCH_TOL), related)
    target(segment((1.0, -1.0), (1.0, 1.0)), Profile.uniform(2.0, 3.0), False)  # empty
    target(segment((1.0, 0.2), (1.0, 0.2)), None, True)  # points, off l1
    target(segment((1.0, 0.4), (1.0, 0.4)), Profile.beta(2.0, 2.0), False)
    # lines crossing l1 at x = 1 at parameter 5, windowed about 0.5 or about 5
    target(line((1.0, -0.5), (1.0, -0.4)), Profile.normal(0.5, 0.01), False)
    target(line((1.0, -0.5), (1.0, -0.4)), Profile.normal(5.0, 0.01), True)
    target(line((1.0, -0.5), (1.0, -0.4)), None, True)
    ev = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=profiles))
    assert not ev.searched[0] and ev.radius[0] == alpha
    row = ev.neighbor_set(0)
    for j, (l2, p2, related) in enumerate(zip(U, profiles, expected)):
        assert l2.is_degenerate or min_distance(l1, l2).distance < 1e-12
        assert (j in row) is related, j
        assert ev.relates(0, j) is related, j
        assert relates_prob(l1, p1, alpha, l2, p2) is related, j
        assert reference_relates_prob(l1, p1, alpha, l2, p2) is related, j
    assert ev.undecided_count == 0

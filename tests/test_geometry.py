import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lineclust import geometry
from lineclust.geometry import (
    MinDistance,
    _carriers,
    _feet_sq,
    _min_distance_many,
    closest_point,
    line,
    min_distance,
    segment,
    segments,
)
from lineclust.neighborhood import NeighbourhoodSpec, RelationEvaluator, relates_v1
from lineclust.oracle import grid_min_distance, reference_foot
from lineclust.profiles import Profile


def rand_segment(rng, dim, span=10.0, max_len=None):
    x = rng.uniform(-span, span, dim)
    d = rng.normal(size=dim)
    if max_len is not None:
        d = d / np.linalg.norm(d) * rng.uniform(0.1, max_len)
    return segment(x, x + d)


class TestDerivedQuantities:
    def test_345(self):
        l = segment((0, 0), (3, 4))
        assert l.sq_length == 25.0
        assert l.half_length == pytest.approx(2.5)

    def test_degenerate(self):
        l = segment((1, 1), (1, 1))
        assert l.sq_length == l.half_length == 0.0
        assert l.is_degenerate

    def test_sqrt3(self):
        l = segment((0, 0, 0), (1, 1, 1))
        assert 2.0 * l.half_length == pytest.approx(math.sqrt(3))
        assert np.allclose(l.center, (0.5, 0.5, 0.5))

    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_segments_have_the_bits_of_segment(self, dim):
        # derived as arrays for all rows, each row must match segment() on
        # its own, the squared length included (a row sum in another order
        # than d @ d can move its last bit)
        rng = np.random.default_rng(dim)
        X = rng.normal(scale=5.0, size=(300, dim))
        Y = X + rng.normal(size=(300, dim)) * rng.uniform(0.0, 3.0, size=(300, 1))
        Y[::7] = X[::7]  # points too
        for got, x, y in zip(segments(X, Y), X, Y):
            want = segment(x.copy(), y.copy())
            assert got.kind == want.kind == "segment"
            for name in ("x", "y", "direction", "sq_length", "center", "half_length"):
                assert (np.asarray(getattr(got, name)).tobytes()
                        == np.asarray(getattr(want, name)).tobytes()), name

    @pytest.mark.parametrize("X, Y, message", [
        (np.zeros((2, 0)), np.zeros((2, 0)), "endpoints must be two (m, dim) arrays"),
        (np.zeros((2, 2)), np.zeros((2, 3)), "endpoints must be two (m, dim) arrays"),
        (np.zeros(2), np.zeros(2), "endpoints must be two (m, dim) arrays"),
        (np.array([[0.0, math.nan]]), np.zeros((1, 2)), "point coordinates must be finite"),
        (np.zeros((1, 2)), np.array([[math.inf, 0.0]]), "point coordinates must be finite"),
    ])
    def test_segments_rejects(self, X, Y, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            segments(X, Y)


class TestClosestPoint:
    def test_interior_foot(self):
        r = closest_point((1, 1), segment((0, 0), (2, 0)))
        assert r.t_star == pytest.approx(0.5)
        assert np.allclose(r.point, (1, 0))
        assert r.distance == pytest.approx(1.0)

    def test_clamps_to_endpoint(self):
        r = closest_point((3, 0), segment((0, 0), (2, 0)))
        assert r.t_star == 1.0
        assert np.allclose(r.point, (2, 0))
        assert r.distance == pytest.approx(1.0)

    def test_line_does_not_clamp(self):
        r = closest_point((3, 0), line((0, 0), (2, 0)))
        assert r.t_star == pytest.approx(1.5)
        assert r.distance == pytest.approx(0.0)

    def test_degenerate_segment(self):
        r = closest_point((1, 1), segment((0, 0), (0, 0)))
        assert r.t_star == 0.0
        assert r.distance == pytest.approx(math.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            closest_point((1, 1, 1), segment((0, 0), (2, 0)))

    def test_optimality_over_sampled_parameters(self):
        # the reported distance never beats a sampled point on the carrier
        rng = np.random.default_rng(7)
        for _ in range(1000):
            dim = int(rng.integers(2, 6))
            kind_line = bool(rng.integers(2))
            l = rand_segment(rng, dim)
            if kind_line:
                l = line(l.x, l.y)
            p = rng.uniform(-10, 10, dim)
            r = closest_point(p, l)
            ts = rng.uniform(-3, 4, 100) if kind_line else rng.uniform(0, 1, 100)
            pts = l.x + ts[:, None] * l.direction
            dists = np.linalg.norm(pts - p, axis=1)
            assert r.distance <= dists.min() + 1e-12


COORD = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestFeetSq:
    """The foot kernel against the oracle's reference foot.  One carrier
    broadcast to every row gives each row the bits of that carrier repeated
    per row and of the row alone, and closest_point, the validating row of
    one, gives each row's bits too; so does one point broadcast to every
    carrier."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([2, 7]), kind=st.sampled_from(["segment", "line", "degenerate"]),
           data=st.data())
    def test_agrees_with_closest_point(self, dim, kind, data):
        x = data.draw(hnp.arrays(np.float64, dim, elements=COORD))
        y = x.copy() if kind == "degenerate" else data.draw(hnp.arrays(np.float64, dim, elements=COORD))
        if kind == "line":
            d = y - x
            assume(float(d @ d) > 0.0)  # a line needs a representable direction
            l = line(x, y)
        else:
            l = segment(x, y)
        m = data.draw(st.integers(1, 16))
        P = data.draw(hnp.arrays(np.float64, (m, dim), elements=COORD))
        row = _carriers(l)  # the stacked (1, dim) / (1,) carrier row
        t, sq = _feet_sq(P, *(v[0] for v in row))  # one carrier, as neighborhood._phi passes it
        assert t.shape == sq.shape == (m,)
        for got in (_feet_sq(P, *row), _feet_sq(P, *(np.repeat(v, m, axis=0) for v in row))):
            assert np.array_equal(got[0], t) and np.array_equal(got[1], sq)
        scale = 1.0 + np.abs(P).max() + np.abs(x).max() + np.abs(y).max()
        speed = math.sqrt(l.sq_length)
        for k in range(m):
            one = _feet_sq(P[k:k + 1], *row)
            assert (one[0][0], one[1][0]) == (t[k], sq[k])
            t_ref, sq_ref = reference_foot(P[k], l)
            t_tol = 1e-12 * (1.0 + scale / speed) if speed > 0 else 0.0
            assert t[k] == pytest.approx(t_ref, rel=1e-12, abs=t_tol)
            assert math.sqrt(sq[k]) == pytest.approx(math.sqrt(sq_ref), rel=1e-12,
                                                     abs=1e-12 * scale)
            cp = closest_point(P[k], l)
            assert (cp.t_star, cp.distance) == (t[k], math.sqrt(sq[k]))

    @pytest.mark.parametrize("dim", [2, 3, 7])
    def test_one_point_broadcast_to_every_carrier(self, dim):
        rng = np.random.default_rng(dim)
        L = [rand_segment(rng, dim) for _ in range(24)]
        L = [line(l.x, l.y) if k % 3 == 1 else segment(l.x, l.x) if k % 3 == 2 else l
             for k, l in enumerate(L)]
        p = rng.uniform(-10.0, 10.0, dim)
        carriers = _carriers(*L)
        t, sq = _feet_sq(p, *carriers)
        assert t.shape == sq.shape == (len(L),)
        for k, l in enumerate(L):
            one = _feet_sq(p[None], *(v[k:k + 1] for v in carriers))
            assert (one[0][0], one[1][0]) == (t[k], sq[k])
            cp = closest_point(p, l)
            assert (cp.t_star, cp.distance) == (t[k], math.sqrt(sq[k]))


def reference_min_distance(l1, l2):
    """The enumeration `min_distance` no longer runs, on numpy 2- to
    7-element arrays: the interior normal-equation solve when it is
    feasible, else the best of the segment endpoints each projected by
    `oracle.reference_foot`.  It shares neither method nor arithmetic with
    the clamp-project-reclamp solve, so the comparison is independent."""
    if l1 is l2:
        return MinDistance(0.0, 0.0, 0.0)
    a = l1.sq_length
    c = l2.sq_length
    if a == 0.0 and c == 0.0:
        diff = l1.x - l2.x
        return MinDistance(math.sqrt(float(diff @ diff)), 0.0, 0.0)
    if a == 0.0:
        t2, sq = reference_foot(l1.x, l2)
        return MinDistance(math.sqrt(sq), 0.0, t2)
    if c == 0.0:
        t1, sq = reference_foot(l2.x, l1)
        return MinDistance(math.sqrt(sq), t1, 0.0)
    d1 = l1.direction
    d2 = l2.direction
    r = l1.x - l2.x
    b = float(d1 @ d2)
    d = float(d1 @ r)
    e = float(d2 @ r)
    den = a * c - b * b
    if den > 1e-14 * a * c:
        t1 = (b * e - c * d) / den
        t2 = (a * e - b * d) / den
        if (l1.is_line or 0.0 <= t1 <= 1.0) and (l2.is_line or 0.0 <= t2 <= 1.0):
            diff = r + d1 * t1 - d2 * t2
            return MinDistance(math.sqrt(float(diff @ diff)), t1, t2)
    elif l1.is_line and l2.is_line:
        t2 = e / c
        diff = r - d2 * t2
        return MinDistance(math.sqrt(float(diff @ diff)), 0.0, t2)
    best = None
    if not l1.is_line:
        for t1_edge, p_edge in ((0.0, l1.x), (1.0, l1.y)):
            t2c, sq = reference_foot(p_edge, l2)
            if best is None or sq < best[0]:
                best = (sq, t1_edge, t2c)
    if not l2.is_line:
        for t2_edge, p_edge in ((0.0, l2.x), (1.0, l2.y)):
            t1c, sq = reference_foot(p_edge, l1)
            if best is None or sq < best[0]:
                best = (sq, t1c, t2_edge)
    return MinDistance(math.sqrt(best[0]), best[1], best[2])


class TestMinDistance:
    def test_parallel_offset(self):
        d = min_distance(segment((0, 0), (1, 0)), segment((0, 1), (1, 1)))
        assert d.distance == pytest.approx(1.0)

    def test_crossing(self):
        d = min_distance(segment((0, 0), (1, 1)), segment((0, 1), (1, 0)))
        assert d.distance == pytest.approx(0.0)
        assert d.t1 == pytest.approx(0.5)
        assert d.t2 == pytest.approx(0.5)

    def test_skew_3d(self):
        d = min_distance(segment((0, 0, 0), (1, 0, 0)), segment((0, 0, 1), (0, 1, 1)))
        assert d.distance == pytest.approx(1.0, abs=2e-3)

    def test_self_distance_exact_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            l = rand_segment(rng, 3)
            assert min_distance(l, l).distance == 0.0
        ll = line((0.0, 1.0), (2.0, 5.0))
        assert min_distance(ll, ll).distance == 0.0

    @pytest.mark.parametrize("dim", [2, 7])
    def test_self_pair_matches_an_equal_copy(self, dim):
        # the identity shortcut must return what the solve returns
        rng = np.random.default_rng(dim)
        for _ in range(40):
            x = rng.uniform(-10, 10, dim)
            y = x + rng.normal(size=dim)
            for l in (segment(x, y), line(x, y), segment(x, x)):
                copy = type(l)(l.x.copy(), l.y.copy(), l.kind)
                assert min_distance(l, l) == min_distance(l, copy) == (0.0, 0.0, 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            l1 = rand_segment(rng, dim)
            l2 = rand_segment(rng, dim)
            a = min_distance(l1, l2).distance
            b = min_distance(l2, l1).distance
            assert abs(a - b) < 1e-12

    def test_degenerate_operands(self):
        pt = segment((1, 1), (1, 1))
        seg = segment((0, 0), (2, 0))
        assert min_distance(pt, seg).distance == pytest.approx(1.0)
        assert min_distance(seg, pt).distance == pytest.approx(1.0)
        assert min_distance(pt, pt).distance == 0.0

    def test_line_reaches_outside_segment_span(self):
        d = min_distance(line((0, 0), (1, 0)), segment((5, 2), (5, 3)))
        assert d.distance == pytest.approx(2.0)
        assert d.t1 == pytest.approx(5.0)

    def test_parallel_lines(self):
        d = min_distance(line((0, 0), (1, 0)), line((3, 2), (9, 2)))
        assert d.distance == pytest.approx(2.0)
        assert d.t1 == 0.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_lines_crossing_at_a_tiny_angle_meet(self):
        # two lines through the origin about 6e-8 rad apart: sin^2 of the
        # angle is below the solve's 1e-14 parallel cutoff, so one operand
        # order takes them as parallel and returns l1's offset at x = 0
        l1 = line((1.19e-7, 2.0), (0.0, 0.0))
        l2 = line((0.0, 0.0), (0.0, 1.0))
        assert min_distance(l1, l2).distance == 0.0
        assert min_distance(l2, l1).distance == 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([2, 3, 7]), kind2=st.sampled_from(["line", "segment", "point"]),
           parallel=st.booleans(), data=st.data())
    def test_line_operand_is_exact_and_optimal(self, dim, kind2, parallel, data):
        # pairs with a line operand: line-line, line-segment, line-point
        coords = hnp.arrays(np.float64, dim, elements=st.floats(-100, 100), fill=st.nothing())
        x1, y1, x2 = data.draw(coords), data.draw(coords), data.draw(coords)
        assume(np.linalg.norm(y1 - x1) > 1e-3)
        if kind2 == "point":
            y2 = x2.copy()
        elif parallel:
            k = data.draw(st.floats(0.01, 10)) * data.draw(st.sampled_from([-1.0, 1.0]))
            y2 = x2 + k * (y1 - x1)
        else:
            y2 = data.draw(coords)
            assume(np.linalg.norm(y2 - x2) > 1e-3)
        l1 = line(x1, y1)
        l2 = line(x2, y2) if kind2 == "line" else segment(x2, y2)
        md = min_distance(l1, l2)
        p1 = x1 + md.t1 * l1.direction
        p2 = x2 + md.t2 * l2.direction
        scale = 1.0 + max(np.abs(v).max() for v in (x1, y1, x2, y2, p1, p2))
        tol = 1e-12 * scale
        if kind2 != "line":
            assert 0.0 <= md.t2 <= 1.0
        assert md.distance == pytest.approx(float(np.linalg.norm(p1 - p2)), rel=1e-12, abs=tol)
        assert min_distance(l2, l1).distance == pytest.approx(md.distance, rel=1e-12, abs=tol)
        # sampled pairs: a grid on each carrier around the optimum, and each
        # sampled point of one operand against its foot on the other
        offsets = np.concatenate([np.linspace(-1.0, 1.0, 41) * w for w in (1e-3, 1.0, 100.0)])
        t1s = md.t1 + offsets
        t2s = md.t2 + offsets if kind2 == "line" else np.linspace(0.0, 1.0, 41)
        P1 = x1 + t1s[:, None] * l1.direction
        P2 = x2 + t2s[:, None] * l2.direction
        grid = np.sqrt(((P1[:, None, :] - P2[None, :, :]) ** 2).sum(axis=2)).min()
        feet = min(min(closest_point(p, l2).distance for p in P1),
                   min(closest_point(p, l1).distance for p in P2))
        assert md.distance <= min(grid, feet) * (1 + 1e-12) + tol

    def test_matches_grid_oracle(self):
        # unit-scale segments: grid min at step 1e-3 agrees within 2e-3
        rng = np.random.default_rng(42)
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            l1 = rand_segment(rng, dim, span=3.0, max_len=2.0)
            l2 = rand_segment(rng, dim, span=3.0, max_len=2.0)
            exact = min_distance(l1, l2).distance
            grid = grid_min_distance(l1, l2, step=1e-3)
            assert grid + 1e-12 >= exact  # grid can only overestimate
            assert abs(exact - grid) < 2e-3


def _carrier(kind, x, y):
    if kind == "line":
        return line(x, y)
    return segment(x, x.copy() if kind == "point" else y)


class TestScalarKernel:
    """`min_distance`, a row of one of the distance kernel, against the numpy
    enumeration above."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([2, 3, 7]),
           kind1=st.sampled_from(["segment", "line", "point"]),
           kind2=st.sampled_from(["segment", "line", "point"]),
           make_parallel=st.booleans(), data=st.data())
    def test_agrees_with_reference(self, dim, kind1, kind2, make_parallel, data):
        coords = hnp.arrays(np.float64, dim, elements=COORD)
        x1, y1, x2, y2 = (data.draw(coords) for _ in range(4))
        if make_parallel and kind1 != "point":
            k = data.draw(st.floats(0.01, 10)) * data.draw(st.sampled_from([-1.0, 1.0]))
            y2 = x2 + k * (y1 - x1)
        for kind, x, y in ((kind1, x1, y1), (kind2, x2, y2)):
            assume(kind == "point" or np.linalg.norm(y - x) > 1e-3)
        l1, l2 = _carrier(kind1, x1, y1), _carrier(kind2, x2, y2)
        a, c = l1.sq_length, l2.sq_length
        den = a * c - float(l1.direction @ l2.direction) ** 2
        # the near-parallel band where the normal equations cancel in both
        assume(not 1e-14 * a * c < den <= 1e-6 * a * c)
        point = a == 0.0 or c == 0.0
        parallel = not point and den <= 1e-14 * a * c
        # both kernels solve the same normal equations from differently
        # rounded b, d, e, so their agreement scales with its condition number
        cond = 1.0 if point or parallel else a * c / den
        scale = 1.0 + max(np.abs(v).max() for v in (x1, y1, x2, y2))
        tol = 1e-12 * scale * cond
        for p, q in ((l1, l2), (l2, l1)):
            got, ref = min_distance(p, q), reference_min_distance(p, q)
            assert got.distance == pytest.approx(ref.distance, rel=1e-12, abs=tol)
            if parallel and not (p.is_line and q.is_line):
                # parallel with an endpoint: equally near endpoints may tie,
                # so the parameters need only achieve the distance in range
                for t, l in ((got.t1, p), (got.t2, q)):
                    assert l.is_line or 0.0 <= t <= 1.0
                gap = (p.x + got.t1 * p.direction) - (q.x + got.t2 * q.direction)
                assert float(np.linalg.norm(gap)) == pytest.approx(got.distance, rel=1e-12,
                                                                   abs=tol)
                continue
            for t, t_ref, l in ((got.t1, ref.t1, p), (got.t2, ref.t2, q)):
                speed = math.sqrt(l.sq_length)
                assert t == pytest.approx(t_ref, rel=1e-12, abs=tol / speed if speed else 0.0)

    @pytest.mark.parametrize("side", [1.0 + 1e-9, 1.0 - 1e-9])
    def test_relates_v1_at_alpha(self, side):
        # alpha placed 1e-9 relative either side of the reference distance
        rng = np.random.default_rng(1985)
        kinds = ("segment", "line", "point")
        decided = 0
        for k in range(600):
            dim = (2, 3, 7)[k % 3]
            l1 = _carrier(kinds[(k // 3) % 3], *rng.uniform(-50, 50, (2, dim)))
            x2, y2 = rng.uniform(-50, 50, (2, dim))
            if k % 4 == 0 and not l1.is_degenerate:  # an exactly parallel partner
                y2 = x2 + rng.uniform(0.1, 3.0) * l1.direction
            l2 = _carrier(kinds[(k // 9) % 3], x2, y2)
            ref = reference_min_distance(l1, l2)
            if ref.distance < 1.0:
                continue  # too close for a relative placement to clear rounding
            decided += 1
            alpha = ref.distance * side
            assert relates_v1(l1, l2, alpha) == (ref.distance < alpha) == (side > 1.0)
        assert decided > 300


def _unit_normal(rng, u):
    """A random unit vector orthogonal to the unit vector u."""
    w = rng.normal(size=u.size)
    w -= (w @ u) * u
    return w / np.linalg.norm(w)


def _row_partners(rng, l1, scale):
    """(family, x, y) carriers for a row against l1: random, parallel and
    1e-7 to 1e-6 rad off parallel to l1, crossing l1's carrier, an equal
    copy of l1, and short pieces far beyond both ends of l1's span, where the
    solve's t2 overshoots l2 and is reclamped."""
    dim = l1.dim
    x1 = l1.x
    d1 = l1.direction if l1.sq_length > 0.0 else rng.normal(size=dim)
    u = d1 / np.linalg.norm(d1)
    out = [("equal", x1.copy(), l1.y.copy())]
    for _ in range(4):
        x = scale * rng.uniform(-5.0, 5.0, dim)
        out.append(("random", x, x + scale * rng.normal(size=dim)))
        x = x1 + scale * rng.normal(size=dim)
        out.append(("parallel", x, x + rng.uniform(-3.0, 3.0) * d1))
        angle = rng.uniform(1e-7, 1e-6)
        v = math.cos(angle) * u + math.sin(angle) * _unit_normal(rng, u)
        x = x1 + scale * rng.uniform(0.1, 2.0) * _unit_normal(rng, u)
        out.append(("near-parallel", x, x + scale * rng.uniform(0.5, 3.0) * v))
        w = _unit_normal(rng, u) + rng.normal(scale=0.3) * u
        x = x1 + rng.uniform(0.0, 1.0) * d1 - scale * rng.uniform(0.2, 2.0) * w
        out.append(("crossing", x, x + scale * rng.uniform(2.5, 4.0) * w))
        # a short piece along l1's direction, offset sideways, beyond one end
        end = rng.choice([-1.0, 1.0])
        x = x1 + (0.5 + end * rng.uniform(2.0, 4.0)) * d1 + scale * _unit_normal(rng, u)
        out.append(("reclamp", x, x + end * 0.1 * d1 + 0.01 * scale * _unit_normal(rng, u)))
    return out


def _stepwise(stack, k1, k2) -> tuple[float, float, float]:
    """`_min_distance_many`'s documented steps for the pair of rows k1, k2
    of a carrier stack, in Python floats: every dot product summed one
    coordinate at a time from the first, the den > 1e-14*a*c test, the
    clamp, the reclamp on the end of l2 that t2 overshot, and a point
    operand's foot.  Each step is one IEEE operation, so the kernel must
    give these bits."""
    def dot(u, v):
        s = u[0] * v[0]
        for p, q in zip(u[1:], v[1:]):
            s = s + p * q
        return s

    def clamp(t, seg):
        return min(max(t, 0.0), 1.0) if seg else t

    def foot(P, X, D, sq, seg):
        t = clamp(dot([p - x for p, x in zip(P, X)], D) / sq if sq > 0.0 else 0.0, seg)
        q = [p - (x + u * t) for p, x, u in zip(P, X, D)]
        return t, dot(q, q)

    X, D, sq, seg = stack
    x1, d1, a, seg1 = X[k1].tolist(), D[k1].tolist(), float(sq[k1]), bool(seg[k1])
    x2, d2, c, seg2 = X[k2].tolist(), D[k2].tolist(), float(sq[k2]), bool(seg[k2])
    if a == 0.0:
        t2, gap_sq = foot(x1, x2, d2, c, seg2)
        return math.sqrt(gap_sq), 0.0, t2
    if c == 0.0:
        t1, gap_sq = foot(x2, x1, d1, a, seg1)
        return math.sqrt(gap_sq), t1, 0.0
    r = [p - q for p, q in zip(x1, x2)]
    b, d, e = dot(d2, d1), dot(r, d1), dot(r, d2)
    den = a * c - b * b
    t1 = clamp((b * e - c * d) / den if den > 1e-14 * a * c else 0.0, seg1)
    t2 = (b * t1 + e) / c
    if seg2 and not 0.0 <= t2 <= 1.0:
        t2 = 0.0 if t2 < 0.0 else 1.0
        t1 = clamp((b * t2 - d) / a, seg1)
    q = [p + u * t1 - v * t2 for p, u, v in zip(r, d1, d2)]
    return math.sqrt(dot(q, q)), t1, t2


class TestRowKernel:
    """A pair's result does not depend on the block it sits in: every
    (distance, t1, t2) triple of a `_min_distance_many` block of m pairs,
    index pairs into one carrier stack, has the bits of the pair's block of
    one, of the kernel's steps taken in Python floats and, where the stack
    holds the pair's own carriers, of `min_distance`, which solves that
    block of one on the stack of its two carriers.  A relation row is a
    block whose pairs share l1's index; a staged block mixes the l1s of many
    rows, and all its point pairs are one foot pass."""

    @staticmethod
    def _assert_each_pair_alone(stack, i1, i2):
        """The block (i1[k], i2[k]) against each pair solved alone and by
        the kernel's steps; returns the block's (distance, t1, t2)."""
        got = _min_distance_many(stack, i1, i2)
        assert all(v.shape == (len(i2),) for v in got)
        for k, (k1, k2) in enumerate(zip(i1, i2)):
            one = _min_distance_many(stack, [k1], [k2])
            assert [v[k] for v in got] == [v[0] for v in one], k
            assert [v[k] for v in got] == list(_stepwise(stack, k1, k2)), k
        return got

    @classmethod
    def _assert_lines_alone(cls, lines, i1, i2):
        """The block of index pairs into the stack of lines, each pair also
        against min_distance on its two lines; returns the min_distance
        results."""
        got = cls._assert_each_pair_alone(_carriers(*lines), i1, i2)
        solves = [min_distance(lines[k1], lines[k2]) for k1, k2 in zip(i1, i2)]
        assert np.array_equal(np.transpose(got), solves)
        return solves

    @staticmethod
    def _reclamped(families, L1, L2, solves):
        """Pairs the reclamp branch settled: a short segment beyond l1's span,
        solved at one of its ends."""
        return sum(family == "reclamp" and not l1.is_degenerate and not l2.is_line
                   and not l2.is_degenerate and m.t2 in (0.0, 1.0)
                   for family, l1, l2, m in zip(families, L1, L2, solves))

    @pytest.mark.parametrize("dim", [2, 3, 7])
    @pytest.mark.parametrize("kind1", ["segment", "line", "point"])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_bit_identical_to_min_distance(self, dim, kind1, scale):
        rng = np.random.default_rng([dim, len(kind1), int(scale)])
        families = set()
        reclamped = 0
        for _ in range(6):
            x1 = scale * rng.uniform(-5.0, 5.0, dim)
            l1 = _carrier(kind1, x1, x1 + scale * rng.normal(size=dim))
            row = [(family, _carrier(kind2, x, y))
                   for family, x, y in _row_partners(rng, l1, scale)
                   for kind2 in ("segment", "line", "point")
                   if not (kind2 == "line" and (x == y).all())]
            # a row: l1 at index 0 of the stack, its targets after it
            L2 = [l2 for _, l2 in row]
            solves = self._assert_lines_alone([l1, *L2], [0] * len(L2), range(1, len(L2) + 1))
            families.update(family for family, _ in row)
            reclamped += self._reclamped([family for family, _ in row], [l1] * len(L2), L2,
                                         solves)
        assert len(families) == 6
        if kind1 != "point":
            assert reclamped > 0  # the reclamp branch ran

    @pytest.mark.parametrize("dim", [2, 3, 7])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_blocks_of_many_l1s(self, dim, scale):
        # the rows of segment, line and point l1s, shuffled into one block
        rng = np.random.default_rng([dim, int(scale), 16])
        sources, pairs = [], []
        for k in range(9):
            x1 = scale * rng.uniform(-5.0, 5.0, dim)
            sources.append(_carrier(("segment", "line", "point")[k % 3], x1,
                                    x1 + scale * rng.normal(size=dim)))
            pairs += [(family, k, _carrier(kind2, x, y))
                      for family, x, y in _row_partners(rng, sources[k], scale)
                      for kind2 in ("segment", "line", "point")
                      if not (kind2 == "line" and (x == y).all())]
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
        families, i1, L2 = (list(v) for v in zip(*pairs))
        L1 = [sources[k] for k in i1]
        assert len({(l1.kind, l1.is_degenerate) for l1 in L1}) == 3
        # the stack holds each l1 once, then the targets
        solves = self._assert_lines_alone(sources + L2, i1,
                                          range(len(sources), len(sources) + len(L2)))
        assert len(set(families)) == 6
        assert self._reclamped(families, L1, L2, solves) > 0  # the reclamp branch ran

    @pytest.mark.parametrize("dim", [2, 7])
    def test_point_pairs_in_a_mixed_block(self, dim, monkeypatch):
        # point l1s (pairs of two points among them), point l2s and general
        # pairs, shuffled into one block: every point pair is one foot pass
        rng = np.random.default_rng([dim, 28])
        kinds = ("segment", "line", "point")
        pairs = []
        for k1 in kinds:
            for k2 in kinds:
                for _ in range(4):
                    x1, y1, x2, y2 = rng.normal(scale=3.0, size=(4, dim))
                    pairs.append((_carrier(k1, x1, y1), _carrier(k2, x2, y2)))
        L1, L2 = (list(v) for v in zip(*(pairs[k] for k in rng.permutation(len(pairs)))))
        m = len(L1)
        stack, i1, i2 = _carriers(*L1, *L2), range(m), range(m, 2 * m)
        feet = []

        def spy(P, *rest, _real=geometry._feet_sq):
            feet.append(len(P))
            return _real(P, *rest)
        monkeypatch.setattr(geometry, "_feet_sq", spy)
        dist, t1, t2 = _min_distance_many(stack, i1, i2)
        # one pass for the 12 point l1s and the 8 point l2s
        assert feet == [20]
        monkeypatch.undo()
        self._assert_lines_alone(L1 + L2, i1, i2)
        for k, (l1, l2) in enumerate(zip(L1, L2)):
            if l2.is_degenerate:
                assert t2[k] == 0.0
                foot = closest_point(l2.x, l1)
                assert (dist[k], t1[k]) == (foot.distance, foot.t_star)

    @pytest.mark.parametrize("dim", [2, 7])
    def test_pairs_of_two_points(self, dim):
        # both operands points: the foot pass at t1 = t2 = 0, alone and in
        # a block with a point against a segment and a general pair
        base = np.arange(dim, dtype=float)
        step = np.zeros(dim)
        step[:2] = 3.0, 4.0
        lines = [segment(base, base), segment(base + step, base + step),
                 segment(base - step, base + 2.0 * step), segment(base + 7.0, base - 1.0)]
        dist, t1, t2 = self._assert_each_pair_alone(_carriers(*lines), [0, 1, 0, 2], [1, 0, 2, 3])
        assert (dist[:2] == 5.0).all() and (t1[:2] == 0.0).all() and (t2[:2] == 0.0).all()
        assert dist[2] == pytest.approx(0.0, abs=1e-12) and t1[2] == 0.0
        assert t2[2] == pytest.approx(1.0 / 3.0)
        assert min_distance(lines[0], lines[1]) == (5.0, 0.0, 0.0)

    @pytest.mark.parametrize("dim", [2, 7])
    def test_indices_into_witness_pieces(self, dim):
        # a relation evaluator's stack holds its n carriers, then their n
        # witness pieces: pairs from the carriers to the pieces, offset n
        rng = np.random.default_rng([dim, 1985])
        U = []
        for k in range(12):
            x = rng.uniform(-3.0, 3.0, dim)
            U.append(segment(x, x) if k % 4 == 3 else segment(x, x + rng.normal(size=dim)))
        windows = [Profile.uniform(0.0, 1.0), Profile.uniform(0.2, 0.7),
                   Profile.normal(0.5, 0.04), Profile.uniform(0.6, 0.6001)]
        profiles = [windows[k % 4] for k in range(len(U))]
        ev = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=1.0, profile=profiles))
        n = len(U)
        i1, i2 = np.nonzero(~np.eye(n, dtype=bool))
        dist, t1, t2 = self._assert_each_pair_alone(ev.stack, i1, i2 + n)
        X, D = ev.stack[:2]
        for k, (k1, k2) in enumerate(zip(i1, i2)):
            # the piece as a segment of its own: the same pair to rounding
            piece = segment(X[n + k2], X[n + k2] + D[n + k2])
            assert dist[k] == pytest.approx(min_distance(U[k1], piece).distance,
                                            rel=1e-9, abs=1e-12)
            assert 0.0 <= t1[k] <= 1.0 and 0.0 <= t2[k] <= 1.0
        # a piece is a part of its carrier: never nearer than the whole one
        whole = _min_distance_many(ev.stack, i1, i2)[0]
        assert (dist >= whole * (1.0 - 1e-12)).all() and (dist > whole + 1e-6).any()

    def test_empty_row_and_no_warning_on_degenerate_divisors(self):
        l1 = segment((0.0, 0.0), (1.0, 0.0))
        empty = _min_distance_many(_carriers(l1), [], [])
        assert len(empty) == 3 and all(v.shape == (0,) for v in empty)
        # a point l2 (c = 0), an exactly parallel one (den = 0), and a point
        # l1 in a block with others, beyond the end of its segment l2: pytest
        # turns a RuntimeWarning from a division into an error
        stack = _carriers(l1, segment((5.0, 5.0), (5.0, 5.0)), segment((0.5, 2.0), (0.5, 2.0)),
                          segment((3.0, 1.0), (4.0, 1.0)))
        dist, t1, t2 = _min_distance_many(stack, [0, 0, 1], [2, 3, 0])
        assert dist.tolist() == [2.0, math.sqrt(5.0), math.sqrt(41.0)]
        assert t1.tolist() == [0.5, 1.0, 0.0] and t2.tolist() == [0.0, 0.0, 1.0]


def _exact_gap_sq(l1, l2, t1, t2) -> Fraction:
    """|g1(t1) - g2(t2)|^2 in rationals, for float or rational parameters."""
    t1, t2 = Fraction(t1), Fraction(t2)
    return sum((Fraction(x1) + (Fraction(y1) - Fraction(x1)) * t1
                - Fraction(x2) - (Fraction(y2) - Fraction(x2)) * t2) ** 2
               for x1, y1, x2, y2 in zip(l1.x.tolist(), l1.y.tolist(),
                                         l2.x.tolist(), l2.y.tolist()))


def exact_min_sq(l1, l2) -> Fraction:
    """The exact squared minimum distance, by the enumeration `min_distance`
    no longer runs: the interior critical point when it is feasible, each
    segment endpoint against its clamped projection onto the other carrier,
    and one point of two parallel lines.  A convex quadratic attains its
    minimum over the parameter domains at one of these, so no solve from
    production code is needed to know it."""
    u1 = [Fraction(y) - Fraction(x) for x, y in zip(l1.x.tolist(), l1.y.tolist())]
    u2 = [Fraction(y) - Fraction(x) for x, y in zip(l2.x.tolist(), l2.y.tolist())]
    r = [Fraction(x1) - Fraction(x2) for x1, x2 in zip(l1.x.tolist(), l2.x.tolist())]
    a, b, c = (sum(p * q for p, q in zip(*uv)) for uv in ((u1, u1), (u1, u2), (u2, u2)))
    d = sum(p * q for p, q in zip(u1, r))
    e = sum(p * q for p, q in zip(u2, r))
    seg1, seg2 = not l1.is_line, not l2.is_line

    def clamp(t, seg):
        return min(max(t, Fraction(0)), Fraction(1)) if seg else t

    candidates = []
    den = a * c - b * b
    if den:
        t1, t2 = (b * e - c * d) / den, (a * e - b * d) / den
        if clamp(t1, seg1) == t1 and clamp(t2, seg2) == t2:
            candidates.append((t1, t2))
    elif not seg1 and not seg2:
        candidates.append((Fraction(0), e / c))
    if seg1:
        candidates += [(t1, clamp((b * t1 + e) / c, seg2) if c else Fraction(0))
                       for t1 in (Fraction(0), Fraction(1))]
    if seg2:
        candidates += [(clamp((b * t2 - d) / a, seg1) if a else Fraction(0), t2)
                       for t2 in (Fraction(0), Fraction(1))]
    return min(_exact_gap_sq(l1, l2, t1, t2) for t1, t2 in candidates)


# small-integer carriers, exactly representable, whose optimum takes each
# branch of the clamp-project-reclamp solve in at least one order
EXACT_CASES = {
    "interior": (segment((0, 0, 0), (4, 0, 0)), segment((2, -1, 3), (2, 3, 3))),
    "interior-generic": (segment((0, 0, 0), (3, 1, -2)), segment((1, -2, 2), (2, 3, 1))),
    "t1-clamped-t2-feasible": (segment((0, 0), (2, 0)), segment((5, -1), (5, 3))),
    "t2-reclamped-at-0": (segment((0, 0), (4, 0)), segment((1, 1), (3, 3))),
    "t2-reclamped-at-1": (segment((0, 0), (4, 0)), segment((3, 3), (1, 1))),
    "t1-clamped-t2-reclamped": (segment((0, 0, 0), (4, 0, 0)), segment((3, 1, 2), (7, 2, 2))),
    "parallel-overlap": (segment((0, 0), (4, 0)), segment((1, 2), (3, 2))),
    "parallel-overlap-partial": (segment((0, 0), (4, 0)), segment((-1, 2), (3, 2))),
    "parallel-disjoint": (segment((0, 0), (4, 0)), segment((6, 1), (9, 1))),
    "parallel-reverse": (segment((0, 0, 0), (4, 2, 0)), segment((12, 6, 1), (6, 3, 1))),
    "parallel-reverse-overlap": (segment((0, 0), (4, 0)), segment((3, 2), (-1, 2))),
    "parallel-lines": (line((0, 0), (1, 0)), line((3, 2), (9, 2))),
    "parallel-lines-reverse-3d": (line((0, 0, 0), (1, 2, 2)), line((5, 1, 0), (3, -3, -4))),
    "segment-line": (segment((5, 2), (5, 3)), line((0, 0), (1, 0))),
    "segment-line-skew": (segment((1, 1, 4), (3, 2, 1)), line((0, 0, 0), (1, 2, 0))),
    "segment-line-parallel": (segment((0, 1), (2, 1)), line((5, 0), (7, 0))),
    "lines-skew": (line((0, 0, 0), (1, 0, 0)), line((0, 1, 2), (0, 2, 3))),
    "point-segment-end": (segment((7, 1), (7, 1)), segment((0, 0), (4, 0))),
    "point-segment-foot": (segment((2, 3), (2, 3)), segment((0, 0), (4, 0))),
    "point-line": (segment((9, -2, 1), (9, -2, 1)), line((0, 0, 0), (1, 1, 1))),
    "point-point": (segment((1, 2, 3), (1, 2, 3)), segment((4, 6, 3), (4, 6, 3))),
}


class TestExactReference:
    """`min_distance` against `exact_min_sq`, which shares no arithmetic or
    method with it."""

    @staticmethod
    def check(p, q):
        got = min_distance(p, q)
        exact = math.sqrt(exact_min_sq(p, q))
        # a few ulps of the largest term of a gap component r + d1*t1 - d2*t2
        scale = max(1.0, *(abs(v) for l in (p, q) for v in (*l.x, *l.y)))
        tol = 8 * math.ulp(scale * (1.0 + abs(got.t1) + abs(got.t2)))
        assert abs(got.distance - exact) <= tol
        for t, l in ((got.t1, p), (got.t2, q)):
            assert l.is_line or 0.0 <= t <= 1.0
        assert abs(math.sqrt(_exact_gap_sq(p, q, got.t1, got.t2)) - exact) <= tol

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_cases_in_both_orders(self, case):
        l1, l2 = EXACT_CASES[case]
        self.check(l1, l2)
        self.check(l2, l1)

    def test_random_small_integer_carriers(self):
        rng = np.random.default_rng(1985)
        kinds = ("segment", "line", "point")
        checked = 0
        for k in range(600):
            dim = (2, 3, 7)[k % 3]
            x1, y1, x2, y2 = rng.integers(-6, 7, (4, dim)).astype(float)
            if k % 4 == 0:  # an exactly parallel partner, either way round
                y2 = x2 + rng.integers(-3, 4) * (y1 - x1)
            pairs = ((kinds[(k // 3) % 3], x1, y1), (kinds[(k // 9) % 3], x2, y2))
            if any(kind == "line" and (x == y).all() for kind, x, y in pairs):
                continue  # a line needs two distinct points
            self.check(*(_carrier(*pair) for pair in pairs))
            checked += 1
        assert checked > 500


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            segment((0, float("nan")), (1, 0))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            segment((0, 0), (math.inf, 0))

    def test_line_needs_distinct_points(self):
        with pytest.raises(ValueError):
            line((1, 2), (1, 2))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            segment((0, 0), (1, 0, 0))
        with pytest.raises(ValueError):
            min_distance(segment((0, 0), (1, 0)), segment((0, 0, 0), (1, 0, 0)))

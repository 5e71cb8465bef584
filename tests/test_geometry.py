import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lineclust.geometry import (
    _closest_sq_many,
    closest_point,
    length,
    line,
    min_distance,
    param_point,
    segment,
)
from lineclust.oracle import grid_min_distance


def rand_segment(rng, dim, span=10.0, max_len=None):
    x = rng.uniform(-span, span, dim)
    d = rng.normal(size=dim)
    if max_len is not None:
        d = d / np.linalg.norm(d) * rng.uniform(0.1, max_len)
    return segment(x, x + d)


class TestParamPoint:
    def test_endpoints_and_midpoint(self):
        l = segment((0, 0), (2, 0))
        assert np.allclose(param_point(l, 0.0), (0, 0))
        assert np.allclose(param_point(l, 1.0), (2, 0))
        assert np.allclose(param_point(l, 0.5), (1, 0))

    def test_line_extrapolates(self):
        l = line((1, 1), (3, 5))
        assert np.allclose(param_point(l, -1.0), (-1, -3))

    def test_segment_domain_enforced(self):
        l = segment((0, 0), (2, 0))
        with pytest.raises(ValueError):
            param_point(l, 1.5)
        with pytest.raises(ValueError):
            param_point(l, -0.1)

    def test_linearity(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            l = rand_segment(rng, int(rng.integers(2, 6)))
            t = rng.uniform(0, 1)
            lhs = param_point(l, t) - param_point(l, 0.0)
            rhs = t * (param_point(l, 1.0) - param_point(l, 0.0))
            assert np.abs(lhs - rhs).max() < 1e-12


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


class TestClosestSqMany:
    """The array kernel against the validating scalar closest_point."""

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
        t, sq = _closest_sq_many(P, l)
        assert t.shape == sq.shape == (m,)
        scale = 1.0 + np.abs(P).max() + np.abs(x).max() + np.abs(y).max()
        speed = math.sqrt(l.sq_length)
        for k in range(m):
            ref = closest_point(P[k], l)
            t_tol = 1e-12 * (1.0 + scale / speed) if speed > 0 else 0.0
            assert t[k] == pytest.approx(ref.t_star, rel=1e-12, abs=t_tol)
            assert math.sqrt(sq[k]) == pytest.approx(ref.distance, rel=1e-12, abs=1e-12 * scale)


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
        # the identity shortcut must return what the enumeration returns
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


class TestLength:
    def test_345(self):
        assert length(segment((0, 0), (3, 4))) == pytest.approx(5.0)

    def test_degenerate(self):
        assert length(segment((1, 1), (1, 1))) == 0.0

    def test_sqrt3(self):
        assert length(segment((0, 0, 0), (1, 1, 1))) == pytest.approx(math.sqrt(3))

    def test_line_rejected(self):
        with pytest.raises(ValueError):
            length(line((0, 0), (1, 0)))


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

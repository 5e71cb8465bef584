import math

import numpy as np
import pytest

from lineclust.geometry import line, min_distance, segment
from lineclust.profiles import Profile
from lineclust.oracle import (
    adjusted_rand_index,
    contains_point,
    grid_min_distance,
    reference_dbscan,
    simpson_integral,
)


class TestGridMinDistance:
    def test_crossing_near_zero(self):
        d = grid_min_distance(segment((0, 0), (1, 1)), segment((0, 1), (1, 0)), step=1e-3)
        assert d <= 1.5e-3

    def test_parallel_offset(self):
        d = grid_min_distance(segment((0, 0), (1, 0)), segment((0, 1), (1, 1)), step=1e-3)
        assert d == pytest.approx(1.0, abs=1e-3)

    def test_lipschitz_bound_against_closed_form(self):
        rng = np.random.default_rng(3)
        step = 1e-3
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            l1 = segment(rng.uniform(-5, 5, dim), rng.uniform(-5, 5, dim))
            l2 = segment(rng.uniform(-5, 5, dim), rng.uniform(-5, 5, dim))
            exact = min_distance(l1, l2).distance
            grid = grid_min_distance(l1, l2, step=step)
            bound = (math.sqrt(l1.sq_length) + math.sqrt(l2.sq_length)) * step
            assert -1e-9 <= grid - exact <= bound + 1e-12

    def test_lines_unsupported(self):
        with pytest.raises(ValueError):
            grid_min_distance(line((0, 0), (1, 0)), segment((0, 1), (1, 1)))


UNIT = segment((0.0, 0.0), (1.0, 0.0))
U01 = Profile.uniform(0.0, 1.0)


class TestContainsPoint:
    def test_inside(self):
        assert contains_point(UNIT, U01, 1.0, (0.5, 0.5))

    def test_boundary_excluded(self):
        assert not contains_point(UNIT, U01, 1.0, (0.5, 1.0))

    def test_gaussian_tail(self):
        p = Profile.normal(0.5, 0.0025)
        # the foot at t = 0.999 lies outside the window, about (0.26, 0.74)
        assert not contains_point(UNIT, p, 1.0, (0.999, 0.5))
        assert contains_point(UNIT, p, 1.0, (0.5, 0.5))

    def test_segment_reads_its_density_cut_to_the_window(self):
        # f > 0 at both ends, but a segment's reach is [0, 1] cut to the
        # window, as a line's is the window: the cap at t = 1 is cut away
        # under normal(0.2, 0.0025), and the cap at t = 0, the mode of
        # exponential(4), is kept
        p = Profile.normal(0.2, 0.0025)
        assert contains_point(UNIT, p, 1e-3, (0.2, 1e-3 * p.pdf(0.2) / 2))
        assert p.pdf(1.0) > 0.0 and not contains_point(UNIT, p, 1.0, (1.0, 0.0))
        assert contains_point(UNIT, Profile.exponential(4.0), 1.0, (-3.9, 0.0))
        assert not contains_point(UNIT, Profile.exponential(4.0), 1.0, (-4.0, 0.0))
        assert not contains_point(UNIT, Profile.uniform(2.0, 3.0), 10.0, (0.5, 0.0))


class TestSimpson:
    def test_cubic_exact(self):
        assert simpson_integral(lambda t: t ** 3, 0, 2, panels=16) == pytest.approx(4.0)

    def test_gaussian(self):
        val = simpson_integral(lambda t: np.exp(-t * t), -6, 6, panels=4096)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)


class TestReferenceDbscan:
    def test_two_far_singletons(self):
        labels, core = reference_dbscan([(0, 0), (100, 100)], eps=1.0, minpts=2)
        assert list(labels) == [-1, -1]
        assert not core.any()

    def test_tight_blob(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 0.1, size=(10, 2))
        labels, core = reference_dbscan(pts, eps=1.0, minpts=3)
        assert set(labels) == {1}
        assert core.all()

    def test_strict_eps(self):
        # exactly-at-eps pairs are not neighbours
        labels, core = reference_dbscan([(0, 0), (1, 0)], eps=1.0, minpts=2)
        assert list(labels) == [-1, -1]

    def test_border_points(self):
        # B and C are cores; A and D are their borders
        pts = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.7, 0.0)]
        labels, core = reference_dbscan(pts, eps=0.8, minpts=3)
        assert list(core) == [False, True, True, False]
        assert list(labels) == [1, 1, 1, 1]


class TestAri:
    def test_identical(self):
        assert adjusted_rand_index([1, 1, 2, 2], [5, 5, 9, 9]) == 1.0

    def test_independent_is_near_zero(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 5, 2000)
        b = rng.integers(0, 5, 2000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_partial(self):
        a = [1, 1, 1, 2, 2, 2]
        b = [1, 1, 2, 2, 2, 2]
        val = adjusted_rand_index(a, b)
        assert 0.0 < val < 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([1], [1, 2])

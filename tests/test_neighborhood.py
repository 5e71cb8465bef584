import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lineclust import neighborhood
from lineclust.data_io import gen_doughnut
from lineclust.engine import RunConfig, run
from lineclust.errors import ConfigurationError
from lineclust.geometry import _min_distance_many, closest_point, line, min_distance, segment
from lineclust.missing_data import AxisDomain, lift_dataset
from lineclust.neighborhood import (
    NeighbourhoodSpec,
    RelationEvaluator,
    _witness_domain,
    _witness_hits,
    relates_prob,
    relates_v1,
)
from lineclust.oracle import contains_point
from lineclust.profiles import (
    Profile,
    adaptive_quadrature,
    density,
    effective_window,
    peak_density,
    scaling_factor,
    unit_ball_volume,
)
from test_geometry import exact_min_sq

UNIT = segment((0.0, 0.0), (1.0, 0.0))
U01 = Profile.uniform(0.0, 1.0)


class TestSpecValidation:
    def test_version_rows(self):
        NeighbourhoodSpec(version=1, c=2, alpha=1.0)
        NeighbourhoodSpec(version=2, c=2, volume=2.0, profile=U01)
        NeighbourhoodSpec(version=3, c=2, alpha=1.0, profile=U01)

    # which fields a version takes is test_field_rule's
    @pytest.mark.parametrize("kwargs", [dict(version=1, c=0, alpha=1.0),
                                        dict(version=4, c=2, alpha=1.0)],
                             ids=["c-below-1", "version-4"])
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NeighbourhoodSpec(**kwargs)

    @pytest.mark.parametrize("given", [set(given) for k in range(4) for given
                                       in combinations(("alpha", "volume", "profile"), k)])
    @pytest.mark.parametrize("version, reads", [(1, {"alpha"}), (2, {"volume", "profile"}),
                                                (3, {"alpha", "profile"})])
    def test_field_rule(self, version, reads, given):
        # a spec builds exactly when the fields set are those its version reads
        values = dict(alpha=1.0, volume=2.0, profile=U01)
        kwargs = dict(version=version, c=2, **{name: values[name] for name in given})
        if given == reads:
            NeighbourhoodSpec(**kwargs)
        else:
            with pytest.raises(ConfigurationError, match=f"version {version} reads") as err:
                NeighbourhoodSpec(**kwargs)
            assert str(err.value).split()[-1] in given ^ reads  # the field named is wrong

    @pytest.mark.parametrize("kwargs", [dict(version=1, c=2, alpha=1.0),
                                        dict(version=3, c=2, alpha=1.0, profile=U01)])
    def test_alpha_mode_is_version_2s(self, kwargs):
        # exact-volume derives alpha from a volume, which only version 2 reads
        NeighbourhoodSpec(**kwargs, alpha_mode="literal")
        for mode in ("exact-volume", "volume"):
            with pytest.raises(ConfigurationError, match=f"version {kwargs['version']} takes "
                                                         f"alpha_mode 'literal', got '{mode}'"):
                NeighbourhoodSpec(**kwargs, alpha_mode=mode)
        with pytest.raises(ConfigurationError, match="version 2 takes alpha_mode 'literal' or "
                                                     "'exact-volume', got 'volume'"):
            NeighbourhoodSpec(version=2, c=2, volume=2.0, profile=U01, alpha_mode="volume")

    @pytest.mark.parametrize("kwargs, what", [
        (dict(version=True, c=2, alpha=1.0), "version"),
        (dict(version=2.0, c=2, volume=2.0, profile=U01), "version"),
        (dict(version=1, c=2.5, alpha=1.0), "c"),
        (dict(version=1, c=True, alpha=1.0), "c"),
    ])
    def test_integer_fields_must_be_integers(self, kwargs, what):
        # True would otherwise run as version 1
        with pytest.raises(ConfigurationError, match=f"{what} must be an integer"):
            NeighbourhoodSpec(**kwargs)

    def test_root_grid_is_a_constant_not_a_field(self):
        # the results echo reads search_samples; no spec sets it
        assert NeighbourhoodSpec.search_samples == neighborhood.ROOT_SAMPLES == 64
        assert NeighbourhoodSpec(version=3, c=2, alpha=1.0, profile=U01).search_samples == 64
        with pytest.raises(TypeError):
            NeighbourhoodSpec(version=3, c=2, alpha=1.0, profile=U01, search_samples=32)

    @pytest.mark.parametrize("kwargs, what", [
        (dict(version=1, c=2, alpha="2"), "alpha"),
        (dict(version=3, c=2, alpha="2", profile=U01), "alpha"),
        (dict(version=1, c=2, alpha=b"2"), "alpha"),
        (dict(version=3, c=2, alpha=1.0, profile="uniform:0,1"), "profile"),
        (dict(version=2, c=2, volume=2.0, profile="uniform:0,1"), "profile"),
    ])
    def test_string_alpha_or_profile_rejected(self, kwargs, what):
        # a str is a sequence: "2" would pass for one per-line alpha
        with pytest.raises(ConfigurationError, match=f"{what} must be .* got the string"):
            NeighbourhoodSpec(**kwargs)

    def test_per_line_profile_entry_must_be_a_profile(self):
        with pytest.raises(ConfigurationError,
                           match="profile at index 0 must be a Profile or None, got 'uniform:0,1'"):
            NeighbourhoodSpec(version=3, c=1, alpha=1.0, profile=["uniform:0,1", "uniform:0,1"])
        with pytest.raises(ConfigurationError,
                           match="profile at index 1 must be a Profile or None"):
            NeighbourhoodSpec(version=2, c=1, volume=2.0, profile=[U01, 0.5])
        with pytest.raises(ConfigurationError, match="profile must be a Profile or None, got 0.5"):
            NeighbourhoodSpec(version=3, c=1, alpha=1.0, profile=0.5)

    def test_per_line_alpha_must_be_a_number(self):
        with pytest.raises(ConfigurationError, match="alpha at index 1 .* got 'x'"):
            NeighbourhoodSpec(version=1, c=1, alpha=[1.0, "x"])

    def test_per_line_alpha_must_not_be_a_bool(self):
        with pytest.raises(ConfigurationError, match="alpha at index 1 .* got True"):
            NeighbourhoodSpec(version=1, c=1, alpha=[1.0, True])

    def test_single_alpha_must_not_be_a_bool(self):
        # True is a Real equal to 1, so without the check it would read as alpha = 1.0
        with pytest.raises(ConfigurationError, match="alpha must be a finite positive number, "
                                                     "got True"):
            NeighbourhoodSpec(version=1, c=1, alpha=True)

    def test_alpha_array_rejected(self):
        # an ndarray is neither one number nor a Sequence of per-line numbers
        with pytest.raises(ConfigurationError, match=r"alpha must be a finite positive number, "
                                                     r"got array\(\[1\., 2\.\]\)"):
            NeighbourhoodSpec(version=1, c=1, alpha=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("kwargs, what", [
        (dict(version=1, c=1, alpha={0: 2.0, 1: 0.5}), "alpha"),
        (dict(version=3, c=1, alpha=1.0, profile={0: U01, 1: None}), "profile"),
    ])
    def test_mapping_rejected(self, kwargs, what):
        with pytest.raises(ConfigurationError,
                           match=f"{what} must be a single value or a per-line sequence, "
                                 f"not a mapping"):
            NeighbourhoodSpec(**kwargs)

    def test_per_line_lookup(self):
        spec = NeighbourhoodSpec(version=1, c=1, alpha=[2, 0.5])
        ev = RelationEvaluator([UNIT, UNIT], spec)
        assert ev.alphas == [2.0, 0.5]
        assert ev.profiles == [None, None]
        single = RelationEvaluator([UNIT, UNIT], NeighbourhoodSpec(version=1, c=1, alpha=3.0))
        assert single.alphas == [3.0, 3.0]

    def test_sequence_profile_none_is_allowed_but_gap_is_not(self):
        spec = NeighbourhoodSpec(version=3, c=1, alpha=1.0, profile=[U01, None])
        assert RelationEvaluator([UNIT, UNIT], spec).profiles == [U01, None]
        with pytest.raises(ConfigurationError,
                           match="profile has 2 per-line entries for a dataset of 3 lines"):
            RelationEvaluator([UNIT, UNIT, UNIT], spec)

    @pytest.mark.parametrize("volume", [math.nan, math.inf, 0.0, -1.0, True, "3"])
    def test_volume_must_be_finite_and_positive(self, volume):
        with pytest.raises(ConfigurationError, match="finite positive volume"):
            NeighbourhoodSpec(version=2, c=2, volume=volume, profile=U01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_alpha_must_be_finite_and_positive(self, bad):
        # a single value and a per-line value are both checked when the spec is built
        for kwargs in (dict(version=1, c=2, alpha=bad),
                       dict(version=3, c=2, alpha=bad, profile=U01)):
            with pytest.raises(ConfigurationError, match="alpha must be a finite positive"):
                NeighbourhoodSpec(**kwargs)
        with pytest.raises(ConfigurationError, match="alpha at index 1 must be a finite positive"):
            NeighbourhoodSpec(version=1, c=2, alpha=[1.0, bad])

    @pytest.mark.parametrize("kwargs, message", [
        (dict(version=1, c=2, alpha=10**400), "alpha must be a finite positive number"),
        (dict(version=3, c=2, alpha=[1.0, 2, 10**400], profile=U01),
         "alpha at index 2 must be a finite positive number"),
        (dict(version=2, c=2, volume=10**400, profile=U01),
         "version 2 requires a finite positive volume V"),
    ], ids=["alpha", "per-line-alpha", "volume"])
    def test_integer_beyond_the_float_range(self, kwargs, message):
        # 10**400 is a finite Real, but float() of it raises OverflowError
        with pytest.raises(ConfigurationError,
                           match=f"{message}, got a number beyond the float range"):
            NeighbourhoodSpec(**kwargs)
        largest = dict(kwargs, **{k: 10**308 for k in ("alpha", "volume") if k in kwargs})
        NeighbourhoodSpec(**largest)  # an integer within the float range is accepted


class TestRelatesV1:
    def test_threshold(self):
        l1 = segment((0, 0), (1, 0))
        l2 = segment((0, 2), (1, 2))
        assert not relates_v1(l1, l2, 1.0)
        assert not relates_v1(l1, l2, 2.0)  # strict
        assert relates_v1(l1, l2, 3.0)

    def test_reflexive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(-5, 5, 3)
            l = segment(x, x + rng.normal(size=3))
            assert relates_v1(l, l, rng.uniform(0.01, 10))

    def test_matches_plain_min_distance(self):
        # the centre-gap fast path must never change the answer
        rng = np.random.default_rng(2)
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            l1 = segment(rng.uniform(-5, 5, dim), rng.uniform(-5, 5, dim))
            l2 = segment(rng.uniform(-5, 5, dim), rng.uniform(-5, 5, dim))
            alpha = rng.uniform(0.05, 6)
            assert relates_v1(l1, l2, alpha) == (min_distance(l1, l2).distance < alpha)
            assert relates_v1(l1, l2, alpha, root=None) == relates_v1(l1, l2, alpha)

    def test_root_is_taken_as_it_is(self):
        l1 = segment((0, 0), (1, 0))
        l2 = segment((0, 2), (1, 2))
        # a root is the caller's decision for the pair, taken as it is,
        # even where the pair's own solve would decide otherwise
        assert relates_v1(l1, l2, 3.0) is True
        assert relates_v1(l1, l2, 3.0, root=False) is False
        assert relates_v1(l1, l2, 1.0) is False
        assert relates_v1(l1, l2, 1.0, root=True) is True


class TestRelatesProb:
    def test_self_relation(self):
        assert relates_prob(UNIT, U01, 1.0, UNIT, U01)

    def test_constant_tube_reject(self):
        l2 = segment((0, 1), (1, 1))
        assert not relates_prob(UNIT, U01, 0.5, l2, U01)
        assert relates_prob(UNIT, U01, 1.5, l2, U01)

    def test_root_is_taken_as_it_is(self):
        # as relates_v1's: a row's decision for the pair, returned unchanged
        l2 = segment((0, 1), (1, 1))
        assert relates_prob(UNIT, U01, 0.5, l2, U01, root=True) is True
        assert relates_prob(UNIT, U01, 1.5, l2, U01, root=False) is False

    def test_gaussian_mode_reachable_endpoint(self):
        p = Profile.normal(0.5, 0.01)
        alpha = 2.0 / density(p, 0.5)  # alpha * f(0.5) = 2
        l2 = segment((0.5, 1.5), (0.5, 3.0))
        assert relates_prob(UNIT, p, alpha, l2)
        # dense-grid oracle on the same pair
        s = np.linspace(0, 1, 10001)
        pts = l2.x + s[:, None] * l2.direction
        phi = np.array([
            closest_point(q, UNIT).distance - alpha * density(p, closest_point(q, UNIT).t_star)
            for q in pts
        ])
        assert phi.min() < 0

    def test_degenerate_target_reduces_to_contains(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = Profile.normal(rng.uniform(0.2, 0.8), rng.uniform(0.01, 0.2))
            alpha = rng.uniform(0.2, 3)
            q = rng.uniform(-1, 2, 2)
            target = segment(q, q)
            assert relates_prob(UNIT, p, alpha, target) == contains_point(UNIT, p, alpha, q)

    def test_empty_witness_window(self):
        # l2's declared support lies entirely outside its parameter range
        away = Profile.uniform(2.0, 3.0)
        assert not relates_prob(UNIT, U01, 5.0, segment((0, 0.1), (1, 0.1)), away)

    @pytest.mark.parametrize("p1", [U01, Profile.normal(0.5, 0.1)], ids=["capsule", "searched"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_alpha_is_checked_as_the_spec_checks_it(self, p1, bad):
        # unchecked, a NaN alpha would relate nothing and an infinite one everything
        with pytest.raises(ConfigurationError, match="alpha must be a finite positive number, "
                                                     f"got {bad!r}"):
            relates_prob(UNIT, p1, bad, segment((0, 1), (1, 1)), U01)

    def test_zero_density_ends_are_undecided_once(self):
        # beta(2, 1) vanishes at the shared point, where the distance does
        # too: the search cannot prune the cell there; relates_prob decides
        # the pair as this evaluator's row
        l1, l2, p = UNIT, segment((0, 0), (1, 1)), Profile.beta(2.0, 1.0)
        assert relates_prob(l1, p, 0.4, l2, p) is False
        ev = RelationEvaluator([l1, l2], NeighbourhoodSpec(version=3, c=1, alpha=0.4, profile=p))
        assert ev.relates(0, 1) is False
        assert ev.undecided_count == 1

    @pytest.mark.parametrize("p1", [U01, Profile.uniform(-0.5, 1.5)])
    def test_capsule_against_an_empty_witness_domain(self, p1):
        # each target crosses l1, but its density's window misses its
        # parameter range, so it has no point to relate
        away = Profile.uniform(2.0, 3.0)
        targets = [segment((0.5, -1), (0.5, 1)), segment((0.5, 0), (0.5, 0)), UNIT]
        assert RelationEvaluator([UNIT], NeighbourhoodSpec(version=3, c=1, alpha=1.0,
                                                           profile=p1)).searched == [False]
        for l2 in targets:
            assert relates_prob(UNIT, p1, 1.0, l2)
            assert not relates_prob(UNIT, p1, 1.0, l2, away), l2

    def test_v1_equivalence_on_constant_tubes(self):
        # uniform profile of height h covering [0,1]: the witness test equals
        # the metric test at threshold alpha * h whenever the closest
        # approach projects to l1's interior
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 500:
            a = rng.uniform(-1.0, 0.0)
            b = rng.uniform(1.0, 2.0)
            prof = Profile.uniform(a, b)
            h = 1.0 / (b - a)
            x = rng.uniform(-5, 5, 2)
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            L1 = rng.uniform(1.0, 3.0)
            l1 = segment(x, x + L1 * d)
            t_star = rng.uniform(0.25, 0.75)
            u = np.array([-d[1], d[0]])
            delta = rng.uniform(0.05, 2.0)
            alpha = rng.uniform(0.05, 3.0)
            if abs(delta - alpha * h) < 1e-3:
                continue  # stay away from the strict boundary
            m = l1.x + t_star * L1 * d + delta * u
            L2 = rng.uniform(0.1, 0.2) * L1
            l2 = segment(m - 0.5 * L2 * d, m + 0.5 * L2 * d)
            assert relates_prob(l1, prof, alpha, l2, prof) == \
                relates_v1(l1, l2, alpha * h) == (delta < alpha * h)
            checked += 1

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(57)
        for _ in range(500):
            p = Profile.normal(rng.uniform(0.2, 0.8), rng.uniform(0.0025, 0.1))
            l1 = segment(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2))
            l2 = segment(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2))
            alpha = rng.uniform(0.1, 2)
            if relates_prob(l1, p, alpha, l2):
                assert relates_prob(l1, p, alpha * rng.uniform(1.0, 4.0), l2)

    def test_agrees_with_dense_scan(self):
        # production search vs a 1e-4-step scan; near-zero minima excluded
        rng = np.random.default_rng(71)
        families = ["uniform", "normal", "gamma", "beta", "exponential", "ellipsoidal"]
        checked = 0
        trials = 0
        while checked < 500 and trials < 3000:
            trials += 1
            fam = families[int(rng.integers(len(families)))]
            if fam == "uniform":
                a = rng.uniform(-0.5, 0.3)
                p1 = Profile.uniform(a, a + rng.uniform(0.4, 1.5))
            elif fam == "normal":
                p1 = Profile.normal(rng.uniform(0, 1), rng.uniform(0.0025, 0.09))
            elif fam == "gamma":
                p1 = Profile.gamma(rng.uniform(1, 4), rng.uniform(1, 12))
            elif fam == "beta":
                p1 = Profile.beta(rng.uniform(1, 8), rng.uniform(1, 8))
            elif fam == "exponential":
                p1 = Profile.exponential(rng.uniform(0.5, 12))
            else:
                p1 = Profile.ellipsoidal(rng.uniform(0.5, 1.5), 1.0)
            l1 = segment(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            l2 = segment(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            if l1.is_degenerate or l2.is_degenerate:
                continue
            alpha = rng.uniform(0.1, 2.5)
            s = np.linspace(0.0, 1.0, 10001)
            pts = l2.x + s[:, None] * l2.direction
            diff = pts - l1.x
            t = np.clip(diff @ l1.direction / l1.sq_length, 0.0, 1.0)
            feet = l1.x + t[:, None] * l1.direction
            dist = np.linalg.norm(pts - feet, axis=1)
            phi = dist - alpha * p1.pdf(t)
            if abs(phi.min()) < 1e-6:
                continue  # boundary case by construction
            assert relates_prob(l1, p1, alpha, l2) == (phi.min() < 0), (
                f"{p1} alpha={alpha} phi_min={phi.min()}")
            checked += 1
        assert checked == 500


class TestDispatch:
    def test_v2_uniform_cylinder_alpha_one(self):
        seg3 = segment((0, 0, 0), (1, 0, 0))
        spec2 = NeighbourhoodSpec(version=2, c=1, volume=math.pi, profile=U01)
        spec3 = NeighbourhoodSpec(version=3, c=1, alpha=1.0, profile=U01)
        other = segment((0.3, 0.5, 0), (0.7, 0.5, 0))
        far = segment((0.3, 1.5, 0), (0.7, 1.5, 0))
        U = [seg3, other, far]
        ev2, ev3 = RelationEvaluator(U, spec2), RelationEvaluator(U, spec3)
        assert ev2.relates(0, 1) == ev3.relates(0, 1) is True
        assert ev2.relates(0, 2) == ev3.relates(0, 2) is False

    def test_v1_regime(self):
        l1 = segment((0, 0), (4, 0))
        l2 = segment((0, 5), (4, 5))
        spec = NeighbourhoodSpec(version=1, c=1, alpha=12.0)
        assert RelationEvaluator([l1, l2], spec).relates(0, 1)

    def test_v3_none_profile_falls_back_to_metric(self):
        spec = NeighbourhoodSpec(version=3, c=1, alpha=1.5, profile=[None, U01])
        l1 = segment((0, 0), (1, 0))
        l2 = segment((0, 1), (1, 1))
        assert RelationEvaluator([l1, l2], spec).relates(0, 1) == relates_v1(l1, l2, 1.5)

    def test_v2_none_profile_is_an_error(self):
        spec = NeighbourhoodSpec(version=2, c=1, volume=1.0, profile=[None])
        with pytest.raises(ConfigurationError):
            RelationEvaluator([UNIT], spec).relates(0, 0)

    @pytest.mark.parametrize("alpha_mode", ["literal", "exact-volume"])
    def test_v2_point_is_an_error_naming_the_line(self, alpha_mode):
        spec = NeighbourhoodSpec(version=2, c=1, volume=1.0, profile=Profile.normal(0.5, 0.04),
                                 alpha_mode=alpha_mode)
        U = [UNIT, segment((2.0, 1.0), (2.0, 1.0))]
        with pytest.raises(ConfigurationError, match="line 1: it is a point"):
            RelationEvaluator(U, spec)

    def test_asymmetry_witness(self):
        l1 = segment((0, 0), (1, 0))
        l2 = segment((0, 2), (1, 2))
        spec = NeighbourhoodSpec(version=1, c=1, alpha=[3.0, 0.5])
        assert RelationEvaluator([l1, l2], spec).relates(0, 1)
        assert not RelationEvaluator([l1, l2], spec).relates(1, 0)

    def test_reflexivity_across_versions(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            x = rng.uniform(-5, 5, dim)
            l = segment(x, x + rng.normal(size=dim))
            version = int(rng.integers(1, 4))
            if version == 1:
                spec = NeighbourhoodSpec(version=1, c=1, alpha=float(rng.uniform(0.01, 5)))
            else:
                # density positive somewhere inside the parameter interior
                p = Profile.normal(rng.uniform(0.1, 0.9), rng.uniform(0.01, 0.5))
                if version == 2:
                    if l.is_degenerate:
                        continue  # no volume for a zero-length axis
                    spec = NeighbourhoodSpec(version=2, c=1,
                                             volume=float(rng.uniform(0.5, 4)), profile=p)
                else:
                    spec = NeighbourhoodSpec(version=3, c=1,
                                             alpha=float(rng.uniform(0.01, 5)), profile=p)
            assert RelationEvaluator([l], spec).relates(0, 0)


class TestNeighborSet:
    def test_singleton(self):
        spec = NeighbourhoodSpec(version=1, c=1, alpha=1.0)
        assert RelationEvaluator([UNIT], spec).neighbor_set(0) == {0}

    def test_collinear_triple(self):
        U = [segment((0, 0), (1, 0)), segment((1.5, 0), (2.5, 0)), segment((3, 0), (4, 0))]
        spec = NeighbourhoodSpec(version=1, c=1, alpha=1.0)
        ev = RelationEvaluator(U, spec)
        assert ev.neighbor_set(0) == {0, 1}
        assert ev.neighbor_set(1) == {0, 1, 2}
        assert ev.neighbor_set(2) == {1, 2}

    def test_evaluator_counts(self):
        U = [segment((0, 0), (1, 0)), segment((5, 0), (6, 0))]
        ev = RelationEvaluator(U, NeighbourhoodSpec(version=1, c=1, alpha=1.0))
        ev.neighbor_set(0)
        ev.neighbor_set(1)
        assert ev.eval_count == 4

    def test_row_index_is_normalised(self, monkeypatch):
        # row i is read as U[i] reads it, before the graph is looked up
        U = [segment((0, 0), (1, 0)), segment((0, 1), (1, 1)), segment((0, 2), (1, 2))]
        for staged in (False, True):
            ev = RelationEvaluator(U, NeighbourhoodSpec(version=1, c=1, alpha=1.5))
            solved = []
            metric_rows = ev._metric_rows
            monkeypatch.setattr(ev, "_metric_rows",
                                lambda rows, js: solved.append(list(rows)) or metric_rows(rows, js))
            if staged:
                ev.build_graph()
                assert solved == [[0, 1, 2]]
                solved.clear()
            assert ev.neighbor_set(-1) == {1, 2}
            assert solved == ([] if staged else [[2]])  # a staged row is served, not solved
            assert ev.neighbor_set(2) == {1, 2}
            assert ev.neighbor_set(-3) == ev.neighbor_set(0) == {0, 1}
            assert ev.relates(-1, 1) and not ev.relates(-1, 0)
            assert ev.relates(True, 0) == ev.relates(1, 0) is True
            assert ev.neighbor_set(True) == ev.neighbor_set(1) == {0, 1, 2}
            count = ev.eval_count
            for bad in (3, -4):
                with pytest.raises(IndexError):
                    ev.neighbor_set(bad)
                with pytest.raises(IndexError):
                    ev.relates(bad, 0)
            assert ev.eval_count == count

    def test_v2_alpha_memoized(self, monkeypatch):
        # derived once per line when the evaluator is built, never by a row
        calls = []

        def counted(*args, _real=neighborhood.scaling_factor):
            calls.append(args)
            return _real(*args)
        monkeypatch.setattr(neighborhood, "scaling_factor", counted)
        U = [segment((0, 0, 0), (1, 0, 0)), segment((0, 0.5, 0), (1, 0.5, 0))]
        spec = NeighbourhoodSpec(version=2, c=1, volume=math.pi, profile=U01)
        ev = RelationEvaluator(U, spec)
        assert len(calls) == len(U)
        ev.neighbor_set(0)
        ev.neighbor_set(0)
        assert len(calls) == len(U)
        assert ev.alphas == pytest.approx([1.0, 1.0], rel=1e-9)


def _quadrature_alpha(V, p, l, exact_volume):
    """Version 2's alpha with the integral of f^m by adaptive quadrature, not
    the closed form: V / (c_m |d| integral), its m-th root for exact-volume."""
    m = l.dim - 1
    lo, hi = effective_window(p)
    integral = adaptive_quadrature(lambda t: p.pdf(t) ** m, lo, hi)
    ratio = V / (unit_ball_volume(m) * math.sqrt(l.sq_length) * integral)
    return ratio ** (1.0 / m) if exact_volume else ratio


class TestVolumeAlphaDecisions:
    """Version 2 with its closed-form alpha decides every pair as version 3
    does with each line's alpha taken by quadrature."""

    @staticmethod
    def _check(U, p, V, alpha_mode):
        spec2 = NeighbourhoodSpec(version=2, c=5, volume=V, profile=p, alpha_mode=alpha_mode)
        ev2 = RelationEvaluator(U, spec2)
        alphas = [_quadrature_alpha(V, p, l, alpha_mode == "exact-volume") for l in U]
        ev3 = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=5, alpha=alphas, profile=p))
        assert ev2.alphas == pytest.approx(alphas, rel=1e-12)
        sets = [ev2.neighbor_set(i) for i in range(len(U))]
        assert sets == [ev3.neighbor_set(i) for i in range(len(U))]
        assert ev2.undecided_count == ev3.undecided_count == 0
        sizes = sorted(len(s) for s in sets)
        assert sizes[0] < 5 < sizes[-1]  # rows on both sides of the core threshold

    @pytest.mark.parametrize("seed", [7, 1, 10, 11])
    def test_doughnut(self, seed):
        U = [r.to_segment() for r in gen_doughnut(120, seed=seed)]
        self._check(U, Profile.normal(0.5, 0.04), 60.0, "literal")

    def test_exact_volume_in_3d(self):
        rng = np.random.default_rng(19)
        U = [segment((*r.x, z1), (*r.y, z2))
             for r, (z1, z2) in zip(gen_doughnut(60, seed=3), rng.uniform(-1.0, 1.0, (60, 2)))]
        self._check(U, Profile.normal(0.5, 0.04), 900.0, "exact-volume")


class TestInfiniteLineTargets:
    def test_line_source_with_profile(self):
        # density along an infinite line; window makes the search finite
        src = line((0.0, 0.0), (1.0, 0.0))
        p = Profile.normal(0.0, 1.0)
        near = segment((0.0, 0.2), (0.5, 0.2))
        far = segment((0.0, 5.0), (0.5, 5.0))
        alpha = 1.0
        assert relates_prob(src, p, alpha, near)
        assert not relates_prob(src, p, alpha, far)

    def test_line_target_without_profile(self):
        # witness may sit anywhere on the infinite target
        src = segment((0.0, 0.0), (1.0, 0.0))
        target = line((40.0, 0.5), (41.0, 0.5))  # passes right above src
        assert relates_prob(src, U01, 1.0, target)
        target_far = line((40.0, 5.0), (41.0, 5.0))
        assert not relates_prob(src, U01, 1.0, target_far)

    def test_perpendicular_line_target(self):
        src = line((0.0, 0.0), (1.0, 0.0))
        p = Profile.normal(0.0, 0.04)
        vertical_hit = line((0.0, -3.0), (0.0, 4.0))   # crosses the mode
        vertical_miss = line((9.0, -3.0), (9.0, 4.0))  # crosses far in the tail
        assert relates_prob(src, p, 1.0, vertical_hit)
        assert not relates_prob(src, p, 1.0, vertical_miss)


class TestRowKernel:
    """RelationEvaluator's rows against per-pair decisions made without a bound."""

    @staticmethod
    def _dataset(version, dim, seed):
        """Seeded segments, lines and degenerate segments with per-line alpha
        and profiles, plus, for three searched anchors (beta(1, 1)), two pairs
        of partners 1e-9 relative below and above the anchor's threshold:
        collinear ones, where the centre gap is the minimum distance, and
        ones pointing away perpendicular to the anchor's midpoint, where only
        the carrier bound is.  Returns (U, spec, [(anchor, below, above), ...])."""
        rng = np.random.default_rng([version, dim, seed])
        U = []
        for k in range(18):
            x = rng.uniform(-3, 3, dim)
            y = x + rng.normal(scale=1.5, size=dim)
            if k % 6 == 4:
                U.append(line(x, y))
            elif k % 6 == 5 and version != 2:  # version 2 has no volume for a point
                U.append(segment(x, x))
            else:
                U.append(segment(x, y))
        anchors = [0, 1, 2]
        n = len(U) + 4 * len(anchors)
        families = [Profile.normal(0.5, 0.02), Profile.uniform(0.0, 1.0), Profile.beta(2, 5), None]
        profiles = [families[k % 4] for k in range(n)]
        if version == 2:
            profiles = [p or U01 for p in profiles]
        flat = Profile.beta(1.0, 1.0)  # U01's density, but searched: not a capsule
        for a in anchors:
            profiles[a] = flat  # the threshold is reached at the segment's end
        alpha = None if version == 2 else [float(rng.uniform(0.3, 2.0)) for _ in range(n)]
        spec = NeighbourhoodSpec(version=version, c=1, alpha=alpha,
                                 volume=3.0 if version == 2 else None,
                                 profile=None if version == 1 else profiles)
        near = []
        for a in anchors:
            l1 = U[a]
            if version == 2:
                threshold = scaling_factor(spec.volume, flat, l1, dim)
            else:
                threshold = spec.alpha[a]  # beta(1, 1) peaks at 1
            unit = l1.direction / math.sqrt(l1.sq_length)
            ids = []
            for rel in (1.0 - 1e-9, 1.0 + 1e-9):
                start = l1.y + unit * (threshold * rel)
                ids.append(len(U))
                U.append(segment(start, start + unit * rng.uniform(0.5, 2.0)))
            gaps = [float(np.linalg.norm(l1.center - U[j].center))
                    - l1.half_length - U[j].half_length for j in ids]
            assert gaps[0] < threshold <= gaps[1]
            near.append((a, *ids))
            normal = rng.normal(size=dim)
            normal -= (normal @ unit) * unit
            normal /= np.linalg.norm(normal)
            ids = []
            for rel in (1.0 - 1e-9, 1.0 + 1e-9):
                start = l1.center + normal * (threshold * rel)
                ids.append(len(U))
                U.append(segment(start, start + normal * rng.uniform(0.5, 2.0)))
            gaps = [float(np.linalg.norm(l1.center - U[j].center))
                    - l1.half_length - U[j].half_length for j in ids]
            assert max(gaps) < threshold  # the centre gap rejects neither
            near.append((a, *ids))
        return U, spec, near

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_match_unbounded_pairs(self, version, dim, seed):
        U, spec, near = self._dataset(version, dim, seed)
        ev = RelationEvaluator(U, spec)
        profiles = spec.profile or [None] * len(U)
        for i, l1 in enumerate(U):
            p1 = profiles[i]
            if version == 2:
                alpha1 = scaling_factor(spec.volume, p1, l1, dim)
            else:
                alpha1 = spec.alpha[i]
            if p1 is None:
                expected = {j for j, l2 in enumerate(U) if relates_v1(l1, l2, alpha1)}
            else:
                expected = {j for j, l2 in enumerate(U)
                            if relates_prob(l1, p1, alpha1, l2, profiles[j])}
            assert ev.neighbor_set(i) == expected, f"row {i}"
            assert {j for j in range(len(U)) if ev.relates(i, j)} == expected, f"row {i}"
        # the pairs beside the bound reach both outcomes
        for a, below, above in near:
            assert ev.relates(a, below) and not ev.relates(a, above)
            if version != 1:  # a searched row: its carrier bound alone rejects `above`
                assert ev.searched[a]
                bound = ev._carrier_bound(a, slice(None))
                threshold = ev.radius[a]
                assert bound[below] < threshold <= bound[above]

    def test_counts(self):
        U, spec, _ = self._dataset(3, 2, 0)
        ev = RelationEvaluator(U, spec)
        ev.relates(0, 5)
        assert ev.eval_count == 1
        ev.neighbor_set(3)
        assert ev.eval_count == 1 + len(U)

    def test_missing_per_line_entries_raise(self):
        # a per-line sequence must cover the dataset exactly, checked when
        # the evaluator is built rather than at the first row that needs it
        U = [UNIT, segment((0, 1), (1, 1))]
        for entries in (1, 3):
            message = f"has {entries} per-line entries for a dataset of 2 lines"
            with pytest.raises(ConfigurationError, match="alpha " + message):
                RelationEvaluator(U, NeighbourhoodSpec(version=1, c=1, alpha=[2.0] * entries))
            with pytest.raises(ConfigurationError, match="profile " + message):
                RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=1.0,
                                                       profile=[U01] * entries))
            with pytest.raises(ConfigurationError, match="profile " + message):
                RelationEvaluator(U, NeighbourhoodSpec(version=2, c=1, volume=1.0,
                                                       profile=[U01] * entries))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="same dimension"):
            RelationEvaluator([UNIT, segment((0, 0, 0), (1, 0, 0))],
                              NeighbourhoodSpec(version=1, c=1, alpha=1.0))


class TestMetricRows:
    """Metric rows (version 1, a density-free line in version 3, or a
    capsule, a segment under uniform(a, b) with a <= 0 and b >= 1) decide
    every pair off the diagonal that the centre gap leaves open in one
    _min_distance_many solve."""

    @staticmethod
    def _mixed(dim, seed):
        """Segments, lines and points close enough that most pairs are open,
        each line's alpha the exact distance to its successor, so that the
        strict test sits on a solve's last bit."""
        rng = np.random.default_rng([dim, seed])
        U = []
        for k in range(24):
            x = rng.uniform(-2, 2, dim)
            y = x + rng.normal(size=dim)
            U.append(line(x, y) if k % 5 == 3 else segment(x, x if k % 5 == 4 else y))
        alpha = [min_distance(l, U[(i + 1) % len(U)]).distance or 0.5 for i, l in enumerate(U)]
        return U, NeighbourhoodSpec(version=1, c=1, alpha=alpha)

    @staticmethod
    def _lifted(seed):
        """Points in R^3, a quarter of them with one missing entry, lifted to
        version 3: the complete ones are density-free and the lifted ones
        on axes 0 and 1 carry the default uniform(0, 1) template, a capsule,
        so all of them are metric rows; the lifted ones on axis 2 carry a
        normal template, and the witness search decides their rows."""
        rng = np.random.default_rng(seed)
        records = []
        for k in range(40):
            rec = [float(v) for v in rng.normal(scale=0.8, size=3)]
            if k % 4 == 1:
                rec[k % 3] = None
            records.append(rec)
        domains = {axis: AxisDomain(axis=axis, window=(-3.0, 3.0)) for axis in range(2)}
        domains[2] = AxisDomain(axis=2, window=(-3.0, 3.0),
                                profile_template=Profile.normal(0.5, 0.04))
        lifted = lift_dataset(records, domains)
        spec = NeighbourhoodSpec(version=3, c=1, alpha=0.6, profile=lifted.profiles)
        return lifted.segments, spec

    @staticmethod
    def _counting(monkeypatch):
        calls = []

        def counted(l1, l2, _real=neighborhood.min_distance):
            calls.append((l1, l2))
            return _real(l1, l2)
        monkeypatch.setattr(neighborhood, "min_distance", counted)
        return calls

    @pytest.mark.parametrize("dim", [2, 3, 7])
    def test_mixed_rows_match_the_scalar_solve(self, dim, monkeypatch):
        U, spec = self._mixed(dim, 0)
        ev = RelationEvaluator(U, spec)
        calls = self._counting(monkeypatch)
        rows = [ev.neighbor_set(i) for i in range(len(U))]
        assert len(calls) == len(U) and all(l1 is l2 for l1, l2 in calls)
        for i, row in enumerate(rows):
            assert (i + 1) % len(U) not in row or spec.alpha[i] == 0.5  # strict at alpha
            assert row == {j for j, l2 in enumerate(U)
                           if min_distance(U[i], l2).distance < spec.alpha[i]}, f"row {i}"
            assert row == {j for j in range(len(U)) if ev.relates(i, j)}, f"row {i}"
        assert sum(map(len, rows)) > 2 * len(U)  # rows with open pairs off the diagonal

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lifted_rows(self, seed, monkeypatch):
        U, spec = self._lifted(seed)
        ev = RelationEvaluator(U, spec)
        # metric lines, those not searched: density-free lines and capsules
        metric = [i for i, searched in enumerate(ev.searched) if not searched]
        capsules = [i for i in metric if spec.profile[i] is not None]
        assert 0 < len(capsules) < len(metric) < len(U)
        calls = self._counting(monkeypatch)
        rows = [ev.neighbor_set(i) for i in range(len(U))]
        # searched rows never call it, metric rows only on their diagonal
        assert len(calls) == len(metric) and all(l1 is l2 for l1, l2 in calls)
        assert any(len(rows[i]) > 1 for i in metric)
        assert any(len(rows[i]) > 1 for i in capsules)
        for i, row in enumerate(rows):
            assert row == {j for j in range(len(U)) if ev.relates(i, j)}, f"row {i}"
            if i in metric:
                # uniform(0, 1) peaks at 1, and every witness domain here
                # covers its whole carrier, so a capsule's piece is l2 itself
                assert ev.radius[i] == spec.alpha
                assert row == {j for j, l2 in enumerate(U)
                               if min_distance(U[i], l2).distance < spec.alpha}, f"row {i}"
            if i in capsules:
                assert row == {j for j, l2 in enumerate(U)
                               if relates_prob(U[i], spec.profile[i], spec.alpha, l2,
                                               spec.profile[j])}, f"row {i}"
        assert ev.undecided_count == 0

    @pytest.mark.parametrize("data", ["mixed-2", "mixed-3", "mixed-7", "lifted-0", "lifted-1"])
    def test_staged_rows_match_unstaged_rows(self, data, monkeypatch):
        # staged: served from the graph build_graph decides before any row
        # is asked for; unstaged: each row decided when it is asked for
        kind, arg = data.split("-")
        U, spec = self._mixed(int(arg), 0) if kind == "mixed" else self._lifted(int(arg))
        plain, staged = RelationEvaluator(U, spec), RelationEvaluator(U, spec)
        metric = [not searched for searched in plain.searched]  # the metric lines
        assert any(metric) and (kind == "mixed" or not all(metric))
        blocks = []
        metric_rows = staged._metric_rows
        monkeypatch.setattr(staged, "_metric_rows",
                            lambda rows, js: blocks.append((list(rows), js))
                            or metric_rows(rows, js))
        staged.build_graph()
        # searched rows are never in a block; every metric row is, once, in order
        assert sum((rows for rows, _ in blocks), []) == [i for i in range(len(U)) if metric[i]]
        built = len(blocks)
        assert staged.eval_count == 0
        calls = self._counting(monkeypatch)
        order = np.random.default_rng(len(U)).permutation(len(U)).tolist()
        for i in order:
            assert staged.relates(i, i) == plain.relates(i, i)  # the unstaged path
            row = plain.neighbor_set(i)
            assert staged.neighbor_set(i) == row, f"row {i}"
            # the graph's row: ascending int32, and a metric row's diagonal left out
            stored = staged.graph[i]
            assert stored.dtype == np.int32 and stored.ndim == 1, f"row {i}"
            assert stored.tolist() == sorted(row - {i} if metric[i] else row), f"row {i}"
        # served rows are not decided again: only relates(i, i) solves a row
        assert all(js == slice(i, i + 1) for (i,), js in blocks[built:])
        assert staged.eval_count == plain.eval_count
        assert staged.undecided_count == plain.undecided_count == 0
        # min_distance only on the diagonal: each metric row's neighbor_set
        # and relates(i, i), in each evaluator
        assert len(calls) == 4 * sum(metric) and all(l1 is l2 for l1, l2 in calls)

    @pytest.mark.parametrize("data", ["mixed-2", "lifted-1"])
    def test_blocks_keep_to_the_pair_budget(self, data, monkeypatch):
        # the metric rows go to _metric_rows in ascending blocks of
        # PAIR_BUDGET // n rows, a single row where one row alone is over
        # the budget, and the graph is the same whatever the budget
        kind, arg = data.split("-")
        U, spec = self._mixed(int(arg), 1) if kind == "mixed" else self._lifted(int(arg))
        n = len(U)
        graphs = []
        for budget in (neighborhood.PAIR_BUDGET, 5 * n + 3, n, n - 1):
            monkeypatch.setattr(neighborhood, "PAIR_BUDGET", budget)
            ev = RelationEvaluator(U, spec)
            blocks = []
            metric_rows = ev._metric_rows
            monkeypatch.setattr(ev, "_metric_rows",
                                lambda rows, js: blocks.append(list(rows)) or metric_rows(rows, js))
            ev.build_graph()
            metric = [i for i in range(n) if not ev.searched[i]]
            step = max(1, budget // n)
            assert blocks == [metric[k:k + step] for k in range(0, len(metric), step)]
            assert all(len(b) * n <= budget for b in blocks) or step == 1
            assert len(ev.graph) == n
            for row in ev.graph:  # each row ascending int32
                assert row.dtype == np.int32 and row.ndim == 1
                assert np.all(np.diff(row) > 0)
            graphs.append(([row.tolist() for row in ev.graph], ev.undecided_count))
        assert len(blocks) == len(metric) and all(g == graphs[0] for g in graphs)

    def test_isolated_rows_keep_the_scalar_loop(self, monkeypatch):
        # no pair off the diagonal is open: nothing is solved in an array
        U = [segment((10.0 * k, 0.0), (10.0 * k + 1.0, 0.0)) for k in range(6)]
        ev = RelationEvaluator(U, NeighbourhoodSpec(version=1, c=1, alpha=1.0))
        monkeypatch.setattr(neighborhood, "_min_distance_many", None)  # a call would raise
        calls = self._counting(monkeypatch)
        assert [ev.neighbor_set(i) for i in range(len(U))] == [{i} for i in range(len(U))]
        assert len(calls) == len(U)


class TestPointRows:
    """A metric row decides the pair of a point and a point target by their
    centre span, which is their gap and their distance to the bit, and
    solves only its other open pairs."""

    @staticmethod
    def _points(dim, seed):
        """Points with a few segments among them, two duplicate points and an
        integer 3-4-5 pair.  Each line's alpha is the exact distance to its
        successor, so the strict test sits on the last bit, and 5 on the
        3-4-5 pair, which therefore does not relate."""
        rng = np.random.default_rng([dim, seed, 345])
        U = []
        for k in range(20):
            x = rng.uniform(-2.0, 2.0, dim)
            U.append(segment(x, x + rng.normal(size=dim)) if k % 5 == 2 else segment(x, x))
        U += [segment(U[0].x, U[0].x), segment(U[1].x, U[1].x)]  # duplicates
        base = np.round(U[3].x)
        step = np.zeros(dim)
        step[:2] = 3.0, 4.0
        U += [segment(base, base), segment(base + step, base + step)]
        alpha = [min_distance(l, U[(i + 1) % len(U)]).distance or 0.5 for i, l in enumerate(U)]
        alpha[-2:] = 5.0, 5.0
        return U, alpha

    @pytest.mark.parametrize("rows", ["v1", "v3-density-free", "v3-capsule"])
    @pytest.mark.parametrize("dim", [2, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_match_the_distance(self, rows, dim, seed, monkeypatch):
        U, alpha = self._points(dim, seed)
        if rows == "v1":
            spec = NeighbourhoodSpec(version=1, c=1, alpha=alpha)
        else:  # the other lines alternate between the two kinds of metric row
            kinds = [None, U01] if rows == "v3-density-free" else [U01, None]
            profile = [kinds[k % 2] for k in range(len(U))]
            profile[-2:] = [kinds[0]] * 2
            spec = NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=profile)
        ev = RelationEvaluator(U, spec)
        assert not any(ev.searched)
        kernel_pairs = []

        def recorded(stack, i1, i2, _real=neighborhood._min_distance_many):
            sq = stack[2]
            kernel_pairs.extend(zip(sq[i1].tolist(), sq[i2].tolist()))
            return _real(stack, i1, i2)
        monkeypatch.setattr(neighborhood, "_min_distance_many", recorded)
        got = [ev.neighbor_set(i) for i in range(len(U))]
        staged = RelationEvaluator(U, spec)
        staged.build_graph()
        got_staged = [staged.neighbor_set(i) for i in range(len(U))]
        assert kernel_pairs and (0.0, 0.0) not in kernel_pairs  # no point pair is solved
        for i, row in enumerate(got):
            expected = {j for j, l2 in enumerate(U)
                        if min_distance(U[i], l2).distance < ev.radius[i]}
            assert row == got_staged[i] == expected, f"row {i}"
        n = len(U)
        assert {0, n - 4} <= got[0] and {1, n - 3} <= got[1]  # duplicates relate
        assert min_distance(U[-2], U[-1]).distance == 5.0 == ev.radius[-2] == ev.radius[-1]
        assert n - 1 not in got[-2] and n - 2 not in got[-1]  # strict at alpha
        # the rows relate points to points beyond the duplicates
        points = [j for j in range(n) if U[j].is_degenerate]
        assert sum(len(got[i] & set(points)) for i in points) > 3 * len(points)

    @pytest.mark.parametrize("dim", [2, 7])
    def test_gap_of_two_points_is_their_distance(self, dim, monkeypatch):
        # two points' gap is their span, and it decides their pair: at a
        # radius of their kernel distance d it does not relate, at the next
        # float above d it does, and no call solves it, so the span has d's bits
        U = [l for l in self._points(dim, 0)[0] if l.is_degenerate]
        points = range(len(U))
        stack = RelationEvaluator(U, NeighbourhoodSpec(version=1, c=1, alpha=1.0)).stack
        dists = {i: _min_distance_many(stack, [i] * len(U), points)[0].tolist() for i in points}
        monkeypatch.setattr(neighborhood, "_min_distance_many", None)  # a call would raise
        decided = 0
        for i in points:
            for j, d in zip(points, dists[i]):
                if d == 0.0:  # the diagonal and the duplicates
                    continue
                for radius, related in ((d, False), (math.nextafter(d, math.inf), True)):
                    alpha = [1.0] * len(U)
                    alpha[i] = radius
                    ev = RelationEvaluator(U, NeighbourhoodSpec(version=1, c=1, alpha=alpha))
                    assert ev.relates(i, j) is related and (j in ev.neighbor_set(i)) is related
                    decided += 1
        assert decided > len(U) ** 2


class TestCentreBounds:
    """A metric row decides its pairs between two centre bounds: it rejects
    where the gap |c_i - c_j| - h_i - h_j reaches the radius, relates where
    the span |c_i - c_j| is below it (in a capsule row only for a target
    whose witness piece holds its carrier's centre) and solves only the
    pairs between the two."""

    # parallel segments side by side, the same reversed, and a point
    # opposite a midpoint: each pair's minimum distance is its span
    TIES = [segment((0, 0), (4, 0)), segment((0, 3), (4, 3)), segment((4, 6), (0, 6)),
            segment((2, 9), (2, 9))]

    @pytest.mark.parametrize("rows", ["v1", "capsule"])
    @pytest.mark.parametrize("staged", [False, True], ids=["unstaged", "staged"])
    def test_ties_in_integer_coordinates(self, rows, staged):
        U = self.TIES
        for alpha in (3.0, math.nextafter(3.0, math.inf)):
            spec = (NeighbourhoodSpec(version=1, c=1, alpha=alpha) if rows == "v1" else
                    NeighbourhoodSpec(version=3, c=1, alpha=alpha, profile=U01))
            ev = RelationEvaluator(U, spec)
            assert not any(ev.searched) and (ev.radius == alpha).all()
            if staged:
                ev.build_graph()
            got = [ev.neighbor_set(i) for i in range(len(U))]
            assert got == [{j for j, l2 in enumerate(U) if min_distance(l1, l2).distance < alpha}
                           for l1 in U]
            assert got == [{j for j in range(len(U)) if ev.relates(i, j)} for i in range(len(U))]
            if alpha == 3.0:
                assert got == [{i} for i in range(len(U))]  # nothing off the diagonal
            else:
                assert got == [{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}]

    @pytest.mark.parametrize("staged", [False, True], ids=["unstaged", "staged"])
    def test_capsule_target_whose_piece_misses_its_centre(self, staged, monkeypatch):
        # the target's carrier centre (0.5, 0.3) is 0.3 from the row's, but
        # its witness piece, t in [0.8, 1], starts 1.68 away
        U = [segment((0.0, 0.0), (1.0, 0.0)), segment((0.5, -2.0), (0.5, 2.6))]
        p2 = Profile.uniform(0.8, 1.0)
        ev = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=1.0, profile=[U01, p2]))
        assert ev.searched == [False, True]
        solved = []

        def recorded(stack, i1, i2, _real=neighborhood._min_distance_many):
            dist, t1, t2 = _real(stack, i1, i2)
            solved.extend(dist.tolist())
            return dist, t1, t2
        monkeypatch.setattr(neighborhood, "_min_distance_many", recorded)
        if staged:  # the build solves the pair; neighbor_set reads it
            ev.build_graph()
        assert ev.neighbor_set(0) == {0}
        assert not ev.relates(0, 1)
        assert ev.undecided_count == 0
        # the pair went to the kernel, which measured the piece
        assert len(solved) == 2 and solved[0] == solved[1] == pytest.approx(1.68)
        assert relates_prob(U[0], U01, 1.0, U[1], p2) is False

    @pytest.mark.parametrize("data", ["doughnut-v1", "lifted-0", "lifted-1"])
    def test_no_pair_below_the_span_reaches_the_kernel(self, data, monkeypatch):
        # every radius here is alpha: uniform(0, 1) peaks at 1, and every
        # witness piece is centred on its carrier's centre
        if data == "doughnut-v1":
            U = [r.to_segment() for r in gen_doughnut(600, seed=7)]
            spec, seed = NeighbourhoodSpec(version=1, c=5, alpha=12.0), 3
        else:
            (U, spec), seed = TestMetricRows._lifted(int(data[-1])), 0
        spans = []

        def recorded(stack, i1, i2, _real=neighborhood._min_distance_many):
            X, D = stack[:2]
            spans.extend(np.linalg.norm((X[i1] + 0.5 * D[i1]) - (X[i2] + 0.5 * D[i2]),
                                        axis=1).tolist())
            return _real(stack, i1, i2)
        monkeypatch.setattr(neighborhood, "_min_distance_many", recorded)
        labels = run(U, RunConfig(spec=spec, mode="expand", rng_seed=seed))
        assert spans and min(spans) >= spec.alpha * (1.0 - 1e-12)
        if data == "doughnut-v1":
            assert len(spans) == 14108
            assert labels.k == 2


def _carrier(kind, x, y):
    if kind == "point":
        return segment(x, x)
    return line(x, y) if kind == "line" else segment(x, y)


CARRIER_COORD = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


class TestCarrierBound:
    """RelationEvaluator._carrier_bound's terms against the exact rational
    minimum distance."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([2, 3, 7]),
           kinds=st.lists(st.sampled_from(["segment", "line", "point"]), min_size=2, max_size=5),
           data=st.data())
    def test_never_exceeds_the_distance(self, dim, kinds, data):
        U = []
        for kind in kinds:
            x = data.draw(hnp.arrays(np.float64, dim, elements=CARRIER_COORD))
            y = data.draw(hnp.arrays(np.float64, dim, elements=CARRIER_COORD))
            assume(kind != "line" or float((y - x) @ (y - x)) > 0.0)
            U.append(_carrier(kind, x, y))
        ev = RelationEvaluator(U, NeighbourhoodSpec(version=3, c=1, alpha=1.0, profile=U01))
        scale = 1.0 + max(max(np.abs(l.x).max(), np.abs(l.y).max()) for l in U)
        for i, l1 in enumerate(U):
            bound = ev._carrier_bound(i, slice(None))
            # the centre gap is never above the carrier terms, beyond rounding
            gap = (np.linalg.norm(ev.centre - ev.centre[i], axis=1)
                   - ev.half_len[i] - ev.half_len)
            assert (bound >= gap - 1e-12 * (1.0 + np.abs(gap))).all(), (i, bound, gap)
            for j, l2 in enumerate(U):
                both_lines = l1.is_line and l2.is_line
                assert (bound[j] == -np.inf) == both_lines, (i, j)
                if not both_lines:
                    exact = math.sqrt(exact_min_sq(l1, l2))
                    assert bound[j] <= exact + 8 * np.spacing(scale), (i, j, bound[j], exact)


class TestWitnessSetUp:
    """The witness set-up a RelationEvaluator resolves once per line when it
    is built: each profiled line's reach and threshold, and every line's
    witness domain."""

    @staticmethod
    def _dataset():
        U = [
            segment((0.0, 0.0), (1.0, 0.0)),      # 0 source segment
            line((0.0, 0.3), (1.0, 0.3)),         # 1 source line
            line((40.0, 0.5), (41.0, 0.5)),       # 2 infinite target without a profile
            line((0.5, -3.0), (0.5, 4.0)),        # 3 infinite target with a profile
            segment((0.0, 0.1), (1.0, 0.1)),      # 4 target whose window misses [0, 1]
            segment((0.2, 0.4), (0.8, 0.6)),      # 5 segment target
            line((40.0, 5.0), (41.0, 5.0)),       # 6 far infinite target without a profile
        ]
        gauss = Profile.normal(0.5, 0.04)
        profiles = [U01, gauss, None, gauss, Profile.uniform(2.0, 3.0), Profile.beta(2, 5), None]
        return U, NeighbourhoodSpec(version=3, c=1, alpha=1.0, profile=profiles)

    def test_set_up_gives_the_same_decisions(self):
        U, spec = self._dataset()
        ev = RelationEvaluator(U, spec)
        decided = {}
        for i, l1 in enumerate(U):
            p1 = spec.profile[i]
            if p1 is None:
                continue
            reach = _witness_domain(l1, p1)
            threshold = peak_density(p1, *reach)  # alpha * sup f1 over the reach, alpha 1
            for j, l2 in enumerate(U):
                p2 = spec.profile[j]
                bare = relates_prob(l1, p1, 1.0, l2, p2)
                # the resolved set-up, handed to the row's witness decision
                lo, hi = _witness_domain(l2, p2)
                (hit,), undecided = _witness_hits(l1, p1, 1.0, reach, threshold, l2.x[None],
                                                  l2.direction[None], np.array([l2.sq_length]),
                                                  np.array([lo]), np.array([hi]))
                assert hit == bare and undecided == 0, (i, j)
                assert ev.relates(i, j) == bare, (i, j)
                decided[i, j] = bare
        # each kind of target, from a source segment and a source line
        assert decided[0, 2] and decided[1, 2]            # no profile: candidate window
        assert decided[0, 3] and decided[1, 3]            # infinite, with a profile
        assert not decided[0, 4] and not decided[1, 4]    # within reach, empty window
        assert not decided[0, 6] and not decided[1, 6]

    def test_set_up_runs_once_per_row_and_line(self, monkeypatch):
        calls = {"peak_density": 0, "effective_window": 0}
        for name in calls:
            def counted(*args, _real=getattr(neighborhood, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(neighborhood, name, counted)
        U, spec, _ = TestRowKernel._dataset(3, 2, 0)
        profiled = [j for j in range(len(U)) if spec.profile[j] is not None]
        assert 0 < len(profiled) < len(U)
        for _ in range(2):  # a second evaluator resolves everything again
            calls.update(peak_density=0, effective_window=0)
            ev = RelationEvaluator(U, spec)
            # one radius and one witness domain per profiled line, when built
            built = {"peak_density": len(profiled), "effective_window": len(profiled)}
            assert calls == built
            for i in range(len(U)):
                ev.neighbor_set(i)
            ev.relates(profiled[0], profiled[-1])
            assert calls == built


class TestMetamorphic:
    """Two relations that must hold exactly, whatever order or block a row's
    pairs are decided in (Chen et al., Metamorphic Testing, ACM CSUR 2018).
    Scaling every coordinate and alpha by 2^k scales every foot parameter by
    1 and every distance and radius by 2^k, all exactly, so no decision
    changes.  Permuting the dataset, with its per-line parameters, permutes
    the neighbour sets.  Each holds for a staged evaluator, served from its
    graph, and an unstaged one, which decides each row when asked."""

    @staticmethod
    def _lifted7d(template):
        """Records in R^7 around three planted means plus uniform noise, one
        in seven missing one coordinate, lifted over (-2.5, 7.5)."""
        rng = np.random.default_rng(2000)
        means = np.array([[0.0] * 7, [5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 5.0, 5.0, 5.0, 0.0, 0.0]])
        data = np.vstack([rng.normal(means[k % 3], 0.3, size=7) for k in range(84)]
                         + [rng.uniform(-2.0, 7.0, size=(12, 7))])
        records = [list(map(float, row)) for row in data]
        for k in range(3, len(records), 7):
            records[k][int(rng.integers(7))] = None
        domains = {axis: AxisDomain(axis=axis, window=(-2.5, 7.5), profile_template=template)
                   for axis in range(7)}
        lifted = lift_dataset(records, domains)
        return lifted.segments, NeighbourhoodSpec(version=3, c=5, alpha=1.0,
                                                  profile=lifted.profiles)

    @classmethod
    def _dataset(cls, name):
        if name.startswith("doughnut"):
            U = [r.to_segment() for r in gen_doughnut(90, seed=7)]
            if name == "doughnut-v1":
                return U, NeighbourhoodSpec(version=1, c=5, alpha=12.0)
            profile = (Profile.normal(0.5, 0.04) if name == "doughnut-v3-normal"
                       else Profile.exponential(3.0))
            return U, NeighbourhoodSpec(version=3, c=5, alpha=3.0, profile=profile)
        if name.startswith("mixed"):
            U, spec = TestMetricRows._mixed(3, 2)
            if name == "mixed-v1":
                return U, spec
            return U, NeighbourhoodSpec(version=3, c=1, alpha=spec.alpha,
                                        profile=Profile.beta(2.0, 5.0))
        return cls._lifted7d(U01 if name == "lifted7d-capsule" else Profile.normal(0.5, 0.01))

    @staticmethod
    def _rows(U, spec, staged):
        ev = RelationEvaluator(U, spec)
        if staged:
            ev.build_graph()
        return [ev.neighbor_set(i) for i in range(len(U))], ev.undecided_count

    DATA = ["doughnut-v1", "doughnut-v3-normal", "doughnut-v3-exponential", "mixed-v1",
            "mixed-v3-beta", "lifted7d-capsule", "lifted7d-normal"]

    @pytest.mark.parametrize("staged", [False, True], ids=["unstaged", "staged"])
    @pytest.mark.parametrize("data", DATA)
    def test_scaling_by_a_power_of_two(self, data, staged):
        U, spec = self._dataset(data)
        rows, undecided = self._rows(U, spec, staged=False)
        assert sum(map(len, rows)) > len(U)  # pairs off the diagonal relate
        for k in (-3, 5):
            s = 2.0 ** k
            scaled = [(line if l.is_line else segment)(l.x * s, l.y * s) for l in U]
            alpha = ([a * s for a in spec.alpha] if isinstance(spec.alpha, list)
                     else spec.alpha * s)
            got = self._rows(scaled, NeighbourhoodSpec(version=spec.version, c=spec.c,
                                                       alpha=alpha, profile=spec.profile),
                             staged)
            assert got == (rows, undecided), f"scaled by 2^{k}"

    @pytest.mark.parametrize("staged", [False, True], ids=["unstaged", "staged"])
    @pytest.mark.parametrize("data", DATA)
    def test_permuting_the_dataset(self, data, staged):
        U, spec = self._dataset(data)
        rows, undecided = self._rows(U, spec, staged=False)
        order = np.random.default_rng(len(U)).permutation(len(U)).tolist()
        place = {i: k for k, i in enumerate(order)}  # where each line goes

        def permuted(values):
            return [values[i] for i in order] if isinstance(values, list) else values
        spec_p = NeighbourhoodSpec(version=spec.version, c=spec.c, alpha=permuted(spec.alpha),
                                   profile=permuted(spec.profile))
        got, got_undecided = self._rows([U[i] for i in order], spec_p, staged)
        assert got == [{place[j] for j in rows[i]} for i in order]
        assert got_undecided == undecided

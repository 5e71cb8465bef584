import math
import re

import numpy as np
import pytest

from lineclust.engine import RunConfig, run_expand
from lineclust.errors import ConfigurationError, UnsupportedRecordError
from lineclust.geometry import segment
from lineclust.missing_data import AxisDomain, lift, lift_dataset
from lineclust.neighborhood import NeighbourhoodSpec
from lineclust.profiles import Profile

DOM = {1: AxisDomain(axis=1, window=(-4.0, 4.0))}


class TestLift:
    def test_missing_axis_becomes_window_segment(self):
        lp = lift((1.2, None, 3.0), DOM, source_id="r1")
        assert lp.missing_axis == 1
        assert np.allclose(lp.segment.x, (1.2, -4.0, 3.0))
        assert np.allclose(lp.segment.y, (1.2, 4.0, 3.0))
        assert lp.profile == Profile.uniform(0.0, 1.0)
        assert lp.source_id == "r1"

    def test_nan_marks_missing(self):
        lp = lift((1.2, math.nan, 3.0), DOM)
        assert lp.missing_axis == 1

    def test_complete_point_is_degenerate(self):
        lp = lift((0.5, 0.5), {})
        assert lp.missing_axis is None
        assert lp.profile is None
        assert lp.segment.is_degenerate
        assert np.allclose(lp.segment.x, (0.5, 0.5))

    def test_two_missing_rejected(self):
        with pytest.raises(UnsupportedRecordError):
            lift((None, None, 1.0), DOM)

    def test_missing_axis_without_domain(self):
        with pytest.raises(ConfigurationError):
            lift((None, 1.0), DOM)  # axis 0 undeclared

    def test_template_profile_carried(self):
        dom = {0: AxisDomain(axis=0, window=(0.0, 10.0),
                             profile_template=Profile.normal(0.5, 0.01))}
        lp = lift((None, 2.0), dom)
        assert lp.profile == Profile.normal(0.5, 0.01)

    def test_window_validated(self):
        with pytest.raises(ConfigurationError):
            AxisDomain(axis=0, window=(4.0, -4.0))

    @pytest.mark.parametrize("fields, message", [
        (dict(axis=True), "axis must be an integer, got True"),
        (dict(axis=1.5), "axis must be an integer, got 1.5"),
        (dict(axis="1"), "axis must be an integer, got '1'"),
        (dict(axis=-1), "axis index must be >= 0, got -1"),
        (dict(window=(0, 1, 2)), "axis window must be two real numbers (lo, hi), got (0, 1, 2)"),
        (dict(window=("a", "b")), "axis window must be two real numbers (lo, hi), got ('a', 'b')"),
        (dict(window="01"), "axis window must be two real numbers (lo, hi), got '01'"),
        (dict(window=(0, True)), "axis window must be two real numbers (lo, hi), got (0, True)"),
        (dict(window=1.0), "axis window must be two real numbers (lo, hi), got 1.0"),
        (dict(window=(0.0, math.inf)), "axis window needs finite lo < hi, got (0.0, inf)"),
        (dict(window=(math.nan, 1.0)), "axis window needs finite lo < hi, got (nan, 1.0)"),
        (dict(window=(1.0, 1.0)), "axis window needs finite lo < hi, got (1.0, 1.0)"),
        (dict(profile_template="uniform:0,1"), "profile_template must be a Profile, got "
                                               "'uniform:0,1'"),
        (dict(profile_template=None), "profile_template must be a Profile, got None"),
    ])
    def test_malformed_fields_rejected(self, fields, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            AxisDomain(**{"axis": 0, "window": (0.0, 1.0), **fields})

    def test_integer_and_numpy_fields_accepted(self):
        dom = AxisDomain(axis=np.int64(1), window=[np.float64(-1.0), 2])
        assert lift((0.0, None), {1: dom}).segment.y.tolist() == [0.0, 2.0]

    def test_lift_geometry_preserves_known_coordinates(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            vals = list(rng.uniform(-3, 3, n))
            k = int(rng.integers(n))
            vals[k] = None
            dom = {k: AxisDomain(axis=k, window=(-5.0, 5.0))}
            lp = lift(tuple(vals), dom)
            for axis in range(n):
                if axis == k:
                    continue
                assert lp.segment.x[axis] == vals[axis]
                assert lp.segment.y[axis] == vals[axis]


class TestLiftDataset:
    def test_order_and_ids(self):
        pts = [(0.0, 1.0), (None, 2.0), (3.0, None)]
        doms = {0: AxisDomain(axis=0, window=(-1, 1)),
                1: AxisDomain(axis=1, window=(-2, 2))}
        res = lift_dataset(pts, doms, ids=["a", "b", "c"])
        assert res.source_ids == ["a", "b", "c"]
        assert res.segments[0].is_degenerate
        assert res.profiles == [None, Profile.uniform(0, 1), Profile.uniform(0, 1)]

    def test_failures_list_record_indices(self):
        pts = [(0.0, 1.0), (None, None), (None, 2.0), (None, None)]
        with pytest.raises(UnsupportedRecordError) as exc:
            lift_dataset(pts, {0: AxisDomain(axis=0, window=(-1, 1))})
        msg = str(exc.value)
        assert "record 1" in msg and "record 3" in msg

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(UnsupportedRecordError):
            lift_dataset([(1.0, 2.0), (1.0, 2.0, 3.0)], {})

    @pytest.mark.parametrize("domains, message", [
        ({0: AxisDomain(axis=1, window=(-1, 1))}, "domain for axis 1 is declared under key 0"),
        ({2: AxisDomain(axis=2, window=(-1, 1))},
         "domain for axis 2 (0-based) is at or beyond the records' dimension 2"),
    ])
    def test_inconsistent_domains_rejected(self, domains, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            lift_dataset([(0.0, 1.0), (None, 2.0)], domains)

    def test_all_complete_matches_direct_point_run(self):
        # degenerate-segment distances are point distances, so a fully
        # complete dataset clusters identically to raw points
        rng = np.random.default_rng(12)
        pts = np.vstack([
            rng.normal((0, 0), 0.3, size=(20, 2)),
            rng.normal((6, 6), 0.3, size=(20, 2)),
        ])
        res = lift_dataset([tuple(p) for p in pts], {})
        direct = [segment(p, p) for p in pts]
        cfg = RunConfig(spec=NeighbourhoodSpec(version=1, c=3, alpha=1.0),
                        mode="expand", rng_seed=17)
        assert run_expand(res.segments, cfg) == run_expand(direct, cfg)

    def test_round_trip_labels_by_source(self):
        pts = [(0.0, 0.0), (0.1, 0.0), (9.0, 9.0)]
        res = lift_dataset(pts, {}, ids=["p1", "p2", "far"])
        cfg = RunConfig(spec=NeighbourhoodSpec(version=1, c=2, alpha=0.5),
                        mode="expand", rng_seed=3)
        labels = run_expand(res.segments, cfg)
        by_source = res.labels_by_source(labels)
        assert set(by_source) == {"p1", "p2", "far"}
        assert by_source["p1"] == by_source["p2"] == [1]
        assert by_source["far"] == []

    def test_mixed_v3_run_with_fallback(self):
        # complete points (no profile) and a lifted record cluster together
        pts = [(0.0, 0.0), (0.3, 0.0), (0.15, None), (8.0, 8.0)]
        doms = {1: AxisDomain(axis=1, window=(-1.0, 1.0))}
        res = lift_dataset(pts, doms)
        spec = NeighbourhoodSpec(version=3, c=2, alpha=0.5, profile=res.profiles)
        labels = run_expand(res.segments, RunConfig(spec=spec, mode="expand", rng_seed=1))
        assert labels.memberships[0] == labels.memberships[1] == labels.memberships[2]
        assert labels.memberships[3] == []

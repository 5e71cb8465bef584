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
        (dict(window=(0, 10**400)), "axis window needs finite lo < hi, got a number beyond "
                                    "the float range"),
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

    def test_repeated_ids_rejected(self):
        # labels_by_source keys on the ids, so a repeat would drop a record's memberships
        with pytest.raises(ValueError, match="id 'a' is repeated, at indices 0 and 2"):
            lift_dataset([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)], {}, ids=["a", "b", "a"])

    def test_failures_list_record_indices(self):
        pts = [(0.0, 1.0), (None, None), (None, 2.0), (None, None)]
        with pytest.raises(UnsupportedRecordError) as exc:
            lift_dataset(pts, {0: AxisDomain(axis=0, window=(-1, 1))})
        msg = str(exc.value)
        assert "record 1" in msg and "record 3" in msg

    @pytest.mark.parametrize("value, kind", [([1], "list"), ({"x": 1.0}, "dict")])
    def test_value_of_a_refused_type_is_a_record_failure(self, value, kind):
        with pytest.raises(UnsupportedRecordError, match=re.escape(
                f"record 1: point coordinates must be numbers or numeric strings, "
                f"got a {kind}")) as exc:
            lift_dataset([(0.0, 1.0), (value, 2.0), (None, None)], {})
        assert "record 2: record '2' has 2 missing values" in str(exc.value)
        with pytest.raises(ValueError, match=f"got a {kind}"):
            lift((value, 2.0), {})

    def test_integer_beyond_float_range_is_a_record_failure(self):
        with pytest.raises(UnsupportedRecordError, match=re.escape(
                "record 1: point coordinates must be finite, got a number beyond the float "
                "range")):
            lift_dataset([(0.0, 1.0), (10**400, 2.0)], {})

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


class TestBulkLift:
    """lift_dataset lifts a dataset as arrays; each segment must have the
    bits of segment(lo, hi) built from that record alone."""

    FIELDS = ("x", "y", "direction", "sq_length", "center", "half_length")

    @staticmethod
    def _dataset(rng, dim: int, n: int):
        records = [list(map(float, rng.normal(scale=3.0, size=dim))) for _ in range(n)]
        for k in rng.choice(n, size=n // 3, replace=False).tolist():
            records[k][int(rng.integers(dim))] = None if rng.integers(2) else math.nan
        templates = [Profile.uniform(0.0, 1.0), Profile.normal(0.5, 0.1), Profile.beta(2, 3)]
        domains = {axis: AxisDomain(axis=axis, window=tuple(sorted(rng.uniform(-9, 9, 2))),
                                    profile_template=templates[axis % 3])
                   for axis in range(dim)}
        return records, domains

    @pytest.mark.parametrize("dim, seed", [(2, 0), (3, 1), (3, 2), (7, 3), (7, 4)])
    def test_segments_match_per_record_segments(self, dim, seed):
        records, domains = self._dataset(np.random.default_rng(seed), dim, 120)
        result = lift_dataset(records, domains)
        for rec, got, profile in zip(records, result.segments, result.profiles):
            k = next((a for a, v in enumerate(rec) if v is None or math.isnan(v)), None)
            lo = [domains[k].window[0] if a == k else v for a, v in enumerate(rec)]
            hi = [domains[k].window[1] if a == k else v for a, v in enumerate(rec)]
            want = segment(lo, hi)
            assert got.kind == "segment"
            for name in self.FIELDS:
                a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert profile == (None if k is None else domains[k].profile_template)
            lp = lift(rec, domains)
            assert lp.missing_axis == k and lp.profile == profile
            assert all(np.asarray(getattr(lp.segment, name)).tobytes()
                       == np.asarray(getattr(want, name)).tobytes() for name in self.FIELDS)

    def test_failures_keep_their_messages(self):
        # marked missing from the raw values: the string "nan" and an
        # infinity are values that are not finite, not missing entries
        records = [(0.0, 1.0, 2.0), ("nan", 1.0, 2.0), (math.inf, 1.0, None),
                   ("abc", 1.0, None), (None, None, 1.0), (None, 1.0, 2.0), ("-inf", 0.0, 0.0)]
        domains = {2: AxisDomain(axis=2, window=(-1.0, 1.0))}
        with pytest.raises(UnsupportedRecordError) as exc:
            lift_dataset(records, domains)
        assert str(exc.value) == (
            "record 1: point coordinates must be finite; "
            "record 2: point coordinates must be finite; "
            "record 3: could not convert string to float: 'abc'; "
            "record 4: record '4' has 2 missing values; at most 1 is supported; "
            "record 5: record '5' is missing axis 0 but no domain is declared for it; "
            "record 6: point coordinates must be finite")
        for rec, error in [(records[1], ValueError), (records[3], ValueError),
                           (records[4], UnsupportedRecordError),
                           (records[5], ConfigurationError)]:
            with pytest.raises(error):
                lift(rec, domains)

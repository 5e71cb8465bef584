import dataclasses
import hashlib
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from lineclust.data_io import (
    SegmentRecord,
    gen_convex,
    gen_doughnut,
    gen_isolated,
    load_geojson,
    load_points_csv,
    load_segments_csv,
    result_document,
    write_points_csv,
    write_results,
    write_segments_csv,
    write_svg,
)
from lineclust.engine import RunConfig, run_expand, run_literal
from lineclust.errors import ConfigurationError, ParseError
from lineclust.geometry import segment
from lineclust.neighborhood import NeighbourhoodSpec


class TestSegmentsCsv:
    def test_single_record(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,x1,x2,y1,y2\ns1,0,0,2,0\n")
        recs = load_segments_csv(path)
        assert len(recs) == 1
        assert recs[0].id == "s1"
        assert recs[0].dim == 2
        assert np.allclose(recs[0].x, (0, 0))
        assert np.allclose(recs[0].y, (2, 0))

    def test_nan_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x1,x2,y1,y2\na,0,0,1,0\nb,0,NaN,1,0\n")
        with pytest.raises(ParseError, match=r":3:"):
            load_segments_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,x1,x2,y1,y2\na,0,0,1\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_segments_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("id,x1,x2,y1,y2\na,zero,0,1,0\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_segments_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("name,x1,y1\na,0,1\n")
        with pytest.raises(ParseError, match=r":1:"):
            load_segments_csv(path)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        recs = [SegmentRecord(id=f"r{i}", x=rng.uniform(-1e3, 1e3, 3),
                              y=rng.uniform(-1e3, 1e3, 3)) for i in range(50)]
        path = tmp_path / "rt.csv"
        write_segments_csv(recs, path)
        back = load_segments_csv(path)
        for a, b in zip(recs, back):
            assert a.id == b.id
            assert (a.x == b.x).all()
            assert (a.y == b.y).all()


    @pytest.mark.parametrize("dim", [2, 3, 7])
    def test_loaded_segments_equal_singly_built_ones_to_the_bit(self, tmp_path, dim):
        rng = np.random.default_rng(dim)

        def coords(m):
            # up to 1e151, so that no squared length of 7 coordinates overflows
            return rng.choice([-1.0, 1.0], (m, dim)) * rng.uniform(1, 10, (m, dim)) \
                * 10.0 ** rng.integers(-300, 151, (m, dim))

        X, Y = coords(40), coords(40)
        Y[5] = X[5]  # a degenerate row: a point
        path = tmp_path / "mixed.csv"
        write_segments_csv([SegmentRecord(f"r{k}", x, y) for k, (x, y) in enumerate(zip(X, Y))],
                           path)
        recs = load_segments_csv(path)
        singly = [segment(rec.x, rec.y) for rec in recs]
        assert recs[5].to_segment().is_degenerate
        assert max(s.sq_length for s in singly) > 1e290
        for k, (rec, s) in enumerate(zip(recs, singly)):
            assert (rec.x.tobytes(), rec.y.tobytes()) == (X[k].tobytes(), Y[k].tobytes())
            assert rec.to_segment() is rec.to_segment()  # carried, not derived again
            _assert_same_segment(rec.to_segment(), s)
        # a record made from a loaded one derives its own segment, not the carried one
        moved = dataclasses.replace(recs[0], y=recs[1].y)
        _assert_same_segment(moved.to_segment(), segment(X[0], Y[1]))

    @pytest.mark.parametrize("row", ["0,0,1e200,0", "1e308,0,1e308,0"],
                             ids=["length", "centre"])
    def test_overflowing_segment_names_its_line(self, tmp_path, row):
        # finite coordinates whose squared length or centre overflows would
        # give the relation NaN or infinite bounds; the loader names the line
        path = tmp_path / "far.csv"
        path.write_text(f"id,x1,x2,y1,y2\na,0,0,1,0\nb,{row}\nc,0,0,1,1\n")
        with pytest.raises(ParseError, match=r"far\.csv:3: endpoints out of range: the "
                                             r"direction, centre or squared length overflows"):
            load_segments_csv(path)

    def test_hand_built_record_is_checked(self):
        rec = SegmentRecord("h", x=np.array([0.0, math.nan]), y=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            rec.to_segment()

    def test_duplicate_id_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,x1,x2,y1,y2\na,0,0,1,0\nb,0,1,1,1\na,0,2,1,2\n")
        with pytest.raises(ParseError, match=r"dup\.csv:4: duplicate id 'a'"):
            load_segments_csv(path)


def _assert_same_segment(a, b):
    """Every field of two segments holds the same bits."""
    for name in ("x", "y", "direction", "center"):
        u, v = getattr(a, name), getattr(b, name)
        assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name
    for name in ("sq_length", "half_length"):
        u, v = getattr(a, name), getattr(b, name)
        assert type(u) is type(v) and np.float64(u).tobytes() == np.float64(v).tobytes(), name
    assert a.kind == b.kind == "segment"


class TestPointsCsv:
    def test_duplicate_id_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,x1,x2\np1,1,2\np1,,3\n")
        with pytest.raises(ParseError, match=r"dup\.csv:3: duplicate id 'p1'"):
            load_points_csv(path)

    def test_missing_markers(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("id,x1,x2,x3\np1,1.5,,3\np2,na,2,3\np3,1,2,3\n")
        rows = load_points_csv(path)
        assert rows[0] == ("p1", (1.5, None, 3.0))
        assert rows[1] == ("p2", (None, 2.0, 3.0))
        assert rows[2] == ("p3", (1.0, 2.0, 3.0))

    def test_round_trip(self, tmp_path):
        rows = [("a", (1.0, None)), ("b", (None, -2.5)), ("c", (0.0, 0.125))]
        path = tmp_path / "pts.csv"
        write_points_csv(rows, path)
        assert load_points_csv(path) == rows

    def test_bad_value(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("id,x1\np1,abc\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_points_csv(path)


@pytest.mark.parametrize("load, header, row, noun", [
    (load_segments_csv, "id,x1,x2,y1,y2", ["0", "0", "1", "0"], "coordinate"),
    (load_points_csv, "id,x1,x2", ["0", "1"], "value"),
], ids=["segments", "points"])
def test_csv_loaders_reject_bad_files_with_path_and_line(tmp_path, load, header, row, noun):
    """Both CSV loaders read rows one way: an empty file, a row with the
    wrong field count and an infinite field are ParseErrors at path:line,
    after blank rows.  Of two bad lines of different kinds, in either
    order, the first in the file is the one named."""
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ParseError, match=r"bad\.csv:1: empty file$"):
        load(path)
    width = len(row) + 1
    path.write_text(f"{header}\n\na,{','.join(row)}\nb,{','.join(row)},9\n")
    with pytest.raises(ParseError,
                       match=rf"bad\.csv:4: expected {width} fields, got {width + 1}$"):
        load(path)
    path.write_text(f"{header}\na,{','.join(row)}\n\nb,{','.join(row[:-1])}, inf\n")
    with pytest.raises(ParseError, match=rf"bad\.csv:4: non-finite {noun} ' inf'$"):
        load(path)
    # (id, fields, message) of a bad line; "a" is the good line 2's id
    faults = {
        "non-numeric": ("b", ["zero"] + row[1:], "non-numeric field 'zero'"),
        "non-finite": ("b", row[:-1] + [" inf"], f"non-finite {noun} ' inf'"),
        "short": ("b", row[:-1], f"expected {width} fields, got {width - 1}"),
        "duplicate": ("a", row, "duplicate id 'a' (first on line 2)"),
    }
    for first, second in itertools.permutations(faults, 2):
        if {first, second} == {"non-numeric", "non-finite"}:
            continue  # one kind
        (id3, fields3, message), (id4, fields4, _) = faults[first], faults[second]
        id4 = "c" if id4 == "b" else id4
        path.write_text(f"{header}\na,{','.join(row)}\n{id3},{','.join(fields3)}\n"
                        f"{id4},{','.join(fields4)}\n")
        with pytest.raises(ParseError, match=rf"bad\.csv:3: {re.escape(message)}$"):
            load(path)
    # a field over the csv module's size limit stops the reader on line 4
    path.write_text(f"{header}\na,{','.join(row)}\nb,zero,{','.join(row[1:])}\n"
                    f"c,{'9' * 200_000}\n")
    with pytest.raises(ParseError, match=r"bad\.csv:3: non-numeric field 'zero'$"):
        load(path)
    # so do bytes that are not UTF-8, past the first block the file reads
    good = "".join(f"c{k},{','.join(row)}\n" for k in range(2000))
    path.write_bytes(f"{header}\na,{','.join(row)}\nb,zero,{','.join(row[1:])}\n{good}"
                     .encode() + b"d,\xff\n")
    with pytest.raises(ParseError, match=r"bad\.csv:3: non-numeric field 'zero'$"):
        load(path)
    if load is load_points_csv:
        # a record lift cannot take is named before the reader stops on line 4
        path.write_text(f"{header}\na,{','.join(row)}\nb,,NA\nc,{'9' * 200_000}\n")
        with pytest.raises(ParseError, match=r"bad\.csv:3: record 'b' is missing x1 and x2; "
                                             r"at most 1 missing value is supported$"):
            load(path, axes=[0])


@pytest.mark.parametrize("load, header, row", [
    (load_segments_csv, "id,x1,x2,y1,y2", "0,0,1,0"),
    (load_points_csv, "id,x1,x2", "0,1"),
], ids=["segments", "points"])
def test_csv_reader_faults_name_their_line(tmp_path, load, header, row):
    """A fault the csv module or the UTF-8 decoder meets is a ParseError at
    the path:line that holds it, not a csv.Error or a codec message."""
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\na,{row}\n\nb,{'9' * 200_000}\n")
    with pytest.raises(ParseError, match=r"bad\.csv:4: field larger than field limit"):
        load(path)
    # a byte that is not UTF-8, within the first block the file reads and past it
    for good in (0, 2000):
        lines = "".join(f"c{k},{row}\n" for k in range(good))
        path.write_bytes(f"{header}\na,{row}\n{lines}".encode() + b"d,\xff\n")
        with pytest.raises(ParseError, match=rf"bad\.csv:{good + 3}: not UTF-8 text: "
                                             r"invalid start byte, byte 0xff$"):
            load(path)
    path.write_bytes(header.encode() + b"\xe9\n")
    with pytest.raises(ParseError, match=r"bad\.csv:1: not UTF-8 text"):
        load(path)


class TestGeoJson:
    def _write(self, tmp_path, obj):
        path = tmp_path / "data.geojson"
        path.write_text(json.dumps(obj))
        return path

    def test_linestring_split(self, tmp_path):
        path = self._write(tmp_path, {
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "geometry": {"type": "LineString",
                             "coordinates": [[0, 0], [1, 0], [1, 1]]},
                "properties": {},
            }],
        })
        recs = load_geojson(path)
        assert len(recs) == 2
        assert recs[0].id == "f0-s0"
        assert np.allclose(recs[1].x, (1, 0))
        assert np.allclose(recs[1].y, (1, 1))
        for rec in recs:
            _assert_same_segment(rec.to_segment(), segment(rec.x, rec.y))

    def test_multilinestring(self, tmp_path):
        path = self._write(tmp_path, {
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "geometry": {"type": "MultiLineString",
                             "coordinates": [[[0, 0], [1, 0]], [[5, 5], [6, 5]]]},
                "properties": {},
            }],
        })
        recs = load_geojson(path)
        assert len(recs) == 2
        assert {r.id for r in recs} == {"f0-p0-s0", "f0-p1-s0"}

    def test_segment_count_is_vertices_minus_one(self, tmp_path):
        rng = np.random.default_rng(23)
        features = []
        expected = 0
        for i in range(8):
            nv = int(rng.integers(2, 9))
            expected += nv - 1
            features.append({
                "type": "Feature",
                "geometry": {"type": "LineString",
                             "coordinates": rng.uniform(0, 10, (nv, 2)).tolist()},
                "properties": {},
            })
        path = self._write(tmp_path, {"type": "FeatureCollection", "features": features})
        assert len(load_geojson(path)) == expected

    def test_non_line_geometry_skipped(self, tmp_path, caplog):
        path = self._write(tmp_path, {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature",
                 "geometry": {"type": "Point", "coordinates": [0, 0]},
                 "properties": {}},
                {"type": "Feature",
                 "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
                 "properties": {}},
            ],
        })
        with caplog.at_level("WARNING"):
            recs = load_geojson(path)
        assert len(recs) == 1
        assert any("non-line geometry" in r.message for r in caplog.records)

    def test_crop_box(self, tmp_path, caplog):
        path = self._write(tmp_path, {
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "geometry": {"type": "LineString",
                             "coordinates": [[0, 0], [1, 0], [50, 50]]},
                "properties": {},
            }],
        })
        recs = load_geojson(path, crop=(-1, -1, 2, 2))
        assert len(recs) == 1  # the segment reaching (50,50) is cropped out
        with caplog.at_level("WARNING"):
            nothing = load_geojson(path, crop=(100, 100, 101, 101))
        assert nothing == []
        assert any("excluded every segment" in r.message for r in caplog.records)

    @pytest.mark.parametrize("box", [(2, 2, -1, -1), (0, 3, 1, 2), (math.nan, -1, 3, 3),
                                     (-1, -1, 3, math.nan)])
    def test_inverted_or_nan_crop_box_rejected(self, tmp_path, box):
        path = self._write(tmp_path, {
            "type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {},
                          "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 0]]}}],
        })
        with pytest.raises(ConfigurationError, match="selects nothing") as exc:
            load_geojson(path, crop=box)
        assert repr(tuple(box)) in str(exc.value)

    @pytest.mark.parametrize("box", [(0, 0, 1), (0, 0, 1, 1, 2), (0, 0, "1", 1), True,
                                     (0, 0, True, 1), (0, None, 1, 1), "0011", 5])
    def test_crop_box_must_be_four_real_numbers(self, tmp_path, box):
        path = self._write(tmp_path, {"type": "FeatureCollection", "features": []})
        with pytest.raises(ConfigurationError, match="must be four real numbers") as exc:
            load_geojson(path, crop=box)
        assert repr(box) in str(exc.value)

    def test_infinite_crop_bounds_and_any_real_numbers_are_legal(self, tmp_path):
        path = self._write(tmp_path, {
            "type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {},
                          "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 0]]}}],
        })
        for box in [(-math.inf, -math.inf, math.inf, math.inf), [-1, -1, 2.5, 2.5],
                    np.array([-1.0, -1.0, 2.0, 2.0]), iter((-1, -1, 2, 2))]:
            assert len(load_geojson(path, crop=box)) == 1, box

    def test_duplicate_segment_id_rejected_with_feature_indices(self, tmp_path):
        line = {"type": "LineString", "coordinates": [[0, 0], [1, 0]]}
        path = self._write(tmp_path, {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "id": "r", "geometry": line, "properties": {}},
                {"type": "Feature", "id": "q", "geometry": line, "properties": {}},
                {"type": "Feature", "id": "r", "geometry": line, "properties": {}},
            ],
        })
        match = r"features 0 and 2 both give segment id 'r-s0'"
        with pytest.raises(ParseError, match=match) as exc:
            load_geojson(path)
        assert str(path) in str(exc.value)
        # a cropped-out duplicate produces no segment, so nothing collides
        assert [r.id for r in load_geojson(path, crop=(-1, -1, 0.5, 0.5))] == []

    def test_positions_must_be_two_numbers(self, tmp_path):
        for bad in ([0, 0, 5], [0], ["0", 0]):
            path = self._write(tmp_path, {
                "type": "FeatureCollection",
                "features": [
                    {"type": "Feature", "properties": {},
                     "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 0]]}},
                    {"type": "Feature", "properties": {},
                     "geometry": {"type": "MultiLineString",
                                  "coordinates": [[[2, 0], [3, 0]], [[0, 0], bad]]}},
                ],
            })
            with pytest.raises(ParseError, match="feature 1 has position") as exc:
                load_geojson(path)
            assert str(path) in str(exc.value)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["NaN", "Infinity", "-Infinity", "1e400", "10**400"])
    @pytest.mark.parametrize("crop", [None, (-10, -10, 10, 10)], ids=["whole", "cropped"])
    def test_non_finite_positions_are_parse_errors(self, tmp_path, token, crop):
        # json reads NaN and Infinity, overflows 1e400 to inf and reads an
        # integer beyond the float range; within the crop box or not, such a
        # position names the file and feature
        path = tmp_path / "data.geojson"
        path.write_text(
            '{"type": "FeatureCollection", "features": ['
            '{"type": "Feature", "properties": {},'
            ' "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]}},'
            '{"type": "Feature", "properties": {},'
            ' "geometry": {"type": "LineString",'
            f' "coordinates": [[0, 0], [{token}, 1], [2, 2]]}}}}]}}')
        with pytest.raises(ParseError, match="feature 1 has position") as exc:
            load_geojson(path, crop=crop)
        assert str(path) in str(exc.value) and "finite" in str(exc.value)

    def test_overflowing_segment_names_its_feature(self, tmp_path):
        path = self._write(tmp_path, {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "id": "near", "properties": {},
                 "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 0]]}},
                {"type": "Feature", "id": "far", "properties": {},
                 "geometry": {"type": "LineString",
                              "coordinates": [[0, 0], [1, 0], [1e200, 0]]}},
            ],
        })
        with pytest.raises(ParseError, match=r"data\.geojson: feature 1, segment 'far-s1': "
                                             r"endpoints out of range"):
            load_geojson(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.geojson"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="malformed JSON"):
            load_geojson(path)

    def test_not_a_collection(self, tmp_path):
        path = self._write(tmp_path, {"type": "Feature"})
        with pytest.raises(ParseError, match="FeatureCollection"):
            load_geojson(path)

    def _assert_parse_error(self, tmp_path, features, match):
        path = self._write(tmp_path, {"type": "FeatureCollection", "features": features})
        with pytest.raises(ParseError, match=match) as exc:
            load_geojson(path)
        assert str(path) in str(exc.value)

    def test_feature_that_is_not_an_object(self, tmp_path):
        self._assert_parse_error(tmp_path, [5], "feature 0 is 5, not a JSON object")

    def test_features_that_are_not_an_array(self, tmp_path):
        self._assert_parse_error(tmp_path, {"a": 1}, "features must be a JSON array")

    def test_linestring_coordinates_that_are_not_a_list(self, tmp_path):
        good = {"type": "Feature", "properties": {},
                "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 0]]}}
        bad = {"type": "Feature", "properties": {},
               "geometry": {"type": "LineString", "coordinates": 5}}
        self._assert_parse_error(tmp_path, [good, bad], "feature 1 has line 5")

    def test_multilinestring_part_that_is_not_a_list(self, tmp_path):
        bad = {"type": "Feature", "properties": {},
               "geometry": {"type": "MultiLineString", "coordinates": [[[0, 0], [1, 0]], 5]}}
        self._assert_parse_error(tmp_path, [bad], "feature 0 has line 5")
        bad["geometry"]["coordinates"] = 5
        self._assert_parse_error(tmp_path, [bad], "feature 0 has coordinates 5")


class TestGenerators:
    def test_counts(self):
        assert len(gen_convex(150, seed=1)) == 150
        assert len(gen_doughnut(400, seed=1)) == 400
        assert len(gen_isolated(25)) == 25

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_segments_csv(gen_doughnut(100, seed=9), a)
        write_segments_csv(gen_doughnut(100, seed=9), b)
        assert a.read_bytes() == b.read_bytes()
        write_segments_csv(gen_doughnut(100, seed=10), b)
        assert a.read_bytes() != b.read_bytes()

    def test_doughnut_prefixes(self):
        recs = gen_doughnut(400, seed=2)
        kinds = {r.id[0] for r in recs}
        assert kinds == {"d", "s", "b"}

    @pytest.mark.parametrize("count", [0, -3])
    def test_isolated_count_must_be_positive(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            gen_isolated(count)

    @pytest.mark.parametrize("spacing", [0.0, -10.0, math.inf, math.nan])
    def test_isolated_spacing_must_be_finite_and_positive(self, spacing):
        with pytest.raises(ValueError, match="spacing must be finite and positive"):
            gen_isolated(10, spacing=spacing)

    def test_isolated_pairwise_far(self):
        recs = gen_isolated(10, spacing=10.0)
        from lineclust.geometry import min_distance
        U = [r.to_segment() for r in recs]
        for i in range(len(U)):
            for j in range(i + 1, len(U)):
                assert min_distance(U[i], U[j]).distance >= 9.0


class TestResults:
    def _labels(self):
        U = [r.to_segment() for r in gen_doughnut(60, seed=4)]
        cfg = RunConfig(spec=NeighbourhoodSpec(version=1, c=4, alpha=12.0),
                        mode="expand", rng_seed=8)
        return U, run_expand(U, cfg)

    def test_counts_consistent(self):
        U, labels = self._labels()
        doc = result_document(labels)
        assert doc["counts"]["k"] == len(doc["clusters"])
        assert doc["counts"]["outliers"] == len(doc["noise"])
        sizes = [len(c["members"]) for c in doc["clusters"]]
        if sizes:
            assert doc["counts"]["min"] == min(sizes)
            assert doc["counts"]["max"] == max(sizes)
        total = sum(sizes) + len(doc["noise"])
        assert total >= len(labels.memberships)  # overlap impossible in expand

    def test_empty_cluster_list_valid(self):
        U = [r.to_segment() for r in gen_isolated(3)]
        labels = run_expand(U, RunConfig(spec=NeighbourhoodSpec(version=1, c=2, alpha=0.5),
                                         mode="expand", rng_seed=0))
        doc = result_document(labels)
        assert doc["counts"] == {"k": 0, "min": 0, "max": 0, "outliers": 3}

    def test_write_results_stable_bytes(self, tmp_path):
        U, labels = self._labels()
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_results(labels, p1, config={"alpha": 12.0})
        write_results(labels, p2, config={"alpha": 12.0})
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc["seed"] == 8 and doc["mode"] == "expand"

    def test_documents_match_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((Path(__file__).parent.parent / "docs" /
                             "result_document.schema.json").read_text())
        U, expand = self._labels()
        literal = run_literal(U, RunConfig(spec=NeighbourhoodSpec(version=1, c=4, alpha=12.0),
                                           mode="literal", rng_seed=0))
        members = [m for cluster in literal.clusters for m in cluster]
        assert len(members) > len(set(members))  # a line in several clusters
        for labels in (expand, literal):
            doc = result_document(labels, config={"version": 1, "alpha": 12.0})
            jsonschema.validate(doc, schema)


class TestSvg:
    def test_rejects_non_2d(self, tmp_path):
        U = [SegmentRecord("a", np.zeros(3), np.ones(3)).to_segment()]
        labels = run_expand(U, RunConfig(spec=NeighbourhoodSpec(version=1, c=1, alpha=1.0),
                                         mode="expand", rng_seed=0))
        with pytest.raises(ValueError, match="2-d"):
            write_svg(U, labels, tmp_path / "no.svg")

    def test_stable_bytes_per_seed(self, tmp_path):
        U = [r.to_segment() for r in gen_doughnut(80, seed=5)]
        labels = run_expand(U, RunConfig(spec=NeighbourhoodSpec(version=1, c=4, alpha=12.0),
                                         mode="expand", rng_seed=5))
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg(U, labels, p1)
        write_svg(U, labels, p2)
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == \
            hashlib.sha256(p2.read_bytes()).hexdigest()
        text = p1.read_text()
        assert text.startswith("<?xml") and text.rstrip().endswith("</svg>")
        assert text.count("<line ") == sum(1 for l in U if not l.is_degenerate)

    def test_noise_rendered_grey(self, tmp_path):
        U = [r.to_segment() for r in gen_isolated(3)]
        labels = run_expand(U, RunConfig(spec=NeighbourhoodSpec(version=1, c=2, alpha=0.5),
                                         mode="expand", rng_seed=0))
        path = tmp_path / "grey.svg"
        write_svg(U, labels, path)
        assert '#bbbbbb' in path.read_text()

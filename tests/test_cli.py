import json

import pytest

from lineclust.cli import build_parser, main


def run_cli(*args):
    return main([str(a) for a in args])


class TestGen:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run_cli("gen", "doughnut", "--count", 60, "--seed", 3, "--out", out) == 0
        assert "wrote 60 segments" in capsys.readouterr().out
        assert out.read_text().startswith("id,x1,x2,y1,y2")

    def test_seed_determines_bytes(self, tmp_path):
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        run_cli("gen", "convex", "--count", 40, "--seed", 7, "--out", a)
        run_cli("gen", "convex", "--count", 40, "--seed", 7, "--out", b)
        run_cli("gen", "convex", "--count", 40, "--seed", 8, "--out", c)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("kind", ["convex", "doughnut"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_count_is_usage_error(self, tmp_path, capsys, kind, count):
        out = tmp_path / "g.csv"
        assert run_cli("gen", kind, "--count", count, "--out", out) == 2
        assert f"--count must be a positive integer, got {count}" in capsys.readouterr().err
        assert not out.exists()

    def test_default_counts(self, tmp_path):
        out = tmp_path / "c.csv"
        run_cli("gen", "convex", "--out", out)
        assert len(out.read_text().splitlines()) == 151  # header + 150


class TestCluster:
    def _gen(self, tmp_path, count=60, seed=3):
        path = tmp_path / "d.csv"
        run_cli("gen", "doughnut", "--count", count, "--seed", seed, "--out", path)
        return path

    def test_summary_line_and_outputs(self, tmp_path, capsys):
        data = self._gen(tmp_path)
        capsys.readouterr()  # drop the gen output
        out = tmp_path / "res.json"
        svg = tmp_path / "res.svg"
        trace = tmp_path / "trace.jsonl"
        code = run_cli("cluster", data, "--version", 1, "--c", 5, "--alpha", 12,
                       "--seed", 1, "--out", out, "--svg", svg, "--trace", trace)
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("k=") and "outliers=" in stdout and "evals=" in stdout
        doc = json.loads(out.read_text())
        assert doc["counts"]["k"] == doc["clusters"].__len__()
        assert svg.read_text().startswith("<?xml")
        assert trace.read_text().count("\n") >= 1

    def test_seed_determines_result_bytes(self, tmp_path):
        data = self._gen(tmp_path)
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("cluster", data, "--version", 1, "--c", 5, "--alpha", 12,
                "--seed", 9, "--out", o1)
        run_cli("cluster", data, "--version", 1, "--c", 5, "--alpha", 12,
                "--seed", 9, "--out", o2)
        assert o1.read_bytes() == o2.read_bytes()

    def test_v2_without_profile_is_usage_error(self, tmp_path):
        data = self._gen(tmp_path)
        code = run_cli("cluster", data, "--version", 2, "--c", 5, "--volume", 3,
                       "--out", tmp_path / "r.json")
        assert code == 2

    def test_v2_with_volume_and_profile_runs(self, tmp_path, capsys):
        # two parallel pairs of segments far apart: V derives the scale
        data = tmp_path / "pairs.csv"
        data.write_text(
            "id,x1,x2,y1,y2\n"
            "a1,0,0,1,0\n"
            "a2,0,0.4,1,0.4\n"
            "b1,50,0,51,0\n"
            "b2,50,0.4,51,0.4\n"
        )
        capsys.readouterr()
        for mode_args in ([], ["--alpha-mode", "exact-volume"]):
            code = run_cli("cluster", data, "--version", 2, "--c", 2,
                           "--volume", 2.0, "--profile", "uniform:0,1",
                           "--seed", 0, "--out", tmp_path / "v2.json", *mode_args)
            assert code == 0
            doc = json.loads((tmp_path / "v2.json").read_text())
            # V=2 over a unit segment gives alpha=1 in 2-d: each pair clusters
            assert doc["counts"]["k"] == 2
            assert doc["counts"]["outliers"] == 0

    def test_undecided_pairs_are_logged(self, tmp_path, caplog):
        # under beta:2,1 and alpha 0.5 * (1 - 1e-15), the scaled density of l1
        # at t is t * (1 - 1e-15), and l2 climbs at 45 degrees from l1's start:
        # phi along l2 is within rounding of 0, so the pair stays undecided
        data = tmp_path / "tangent.csv"
        data.write_text("id,x1,x2,y1,y2\nl1,0,0,1,0\nl2,0,0,1,1\n")
        for alpha, warned in ((0.5 * (1.0 - 1e-15), True), (2.0, False)):
            caplog.clear()
            code = run_cli("cluster", data, "--version", 3, "--c", 1, "--alpha", repr(alpha),
                           "--profile", "beta:2,1", "--mode", "expand",
                           "--out", tmp_path / "r.json")
            assert code == 0
            assert ("undecided by the witness search" in caplog.text) == warned

    def test_crossings_in_a_narrow_normal_tail_are_decided(self, tmp_path, caplog):
        # normal:0.5,0.0004 has the window 0.5 +- 0.095; each segment reads
        # its density cut to that window, so a crossing far down a tail,
        # where alpha * f1 is almost 0, is unrelated rather than undecided
        data, out = tmp_path / "d.csv", tmp_path / "r.json"
        assert run_cli("gen", "doughnut", "--count", 120, "--out", data) == 0
        caplog.clear()
        assert run_cli("cluster", data, "--version", 3, "--c", 5, "--alpha", 3,
                       "--profile", "normal:0.5,0.0004", "--out", out) == 0
        assert "undecided" not in caplog.text
        doc = json.loads(out.read_text())
        assert (doc["counts"]["k"], doc["counts"]["outliers"]) == (7, 78)

    def test_v1_with_profile_is_usage_error(self, tmp_path):
        data = self._gen(tmp_path)
        code = run_cli("cluster", data, "--version", 1, "--c", 5, "--alpha", 12,
                       "--profile", "uniform:0,1", "--out", tmp_path / "r.json")
        assert code == 2

    def test_missing_input_is_io_error(self, tmp_path):
        code = run_cli("cluster", tmp_path / "nope.csv", "--version", 1,
                       "--c", 5, "--alpha", 12)
        assert code == 1

    def test_bad_subcommand_is_usage_error(self):
        assert run_cli("clusterify") == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        data = self._gen(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "c": 5, "alpha": 12.0, "mode": "expand",
            "seed": 4, "out": str(tmp_path / "from_config.json"),
        }))
        assert run_cli("cluster", data, "--config", cfg) == 0
        assert (tmp_path / "from_config.json").exists()
        capsys.readouterr()
        # flag overrides the config's c
        assert run_cli("cluster", data, "--config", cfg, "--c", 200,
                       "--out", tmp_path / "strict.json") == 0
        doc = json.loads((tmp_path / "strict.json").read_text())
        assert doc["counts"]["k"] == 0  # nothing reaches c=200

    def test_unknown_config_keys_are_usage_errors(self, tmp_path, capsys):
        data = self._gen(tmp_path)
        capsys.readouterr()
        for extra in ({"threads": 4}, {"sead": 9}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"version": 1, "c": 5, "alpha": 12.0, **extra}))
            out = tmp_path / "never.json"
            assert run_cli("cluster", data, "--config", cfg, "--out", out) == 2
            err = capsys.readouterr().err
            assert f"unknown config key(s) {next(iter(extra))}" in err
            assert "accepted:" in err and "alpha_mode" in err
            assert not out.exists()

    def test_root_grid_is_no_option(self, tmp_path, capsys):
        # the witness search's root grid is a constant: neither a flag nor a
        # config key sets it, and the results echo still reports it
        data = self._gen(tmp_path)
        capsys.readouterr()
        flags = ("--version", 1, "--c", 5, "--alpha", 12)
        out = tmp_path / "never.json"
        assert run_cli("cluster", data, *flags, "--search-samples", 32, "--out", out) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"search_samples": 32}))
        assert run_cli("cluster", data, *flags, "--config", cfg, "--out", out) == 2
        assert "unknown config key(s) search_samples" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("cluster", data, *flags, "--out", tmp_path / "r.json") == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["config"]["search_samples"] == 64

    @pytest.mark.parametrize("bad", [
        {"crop": [0, 0, 1, 1]},
        {"c": 2.7},
        {"seed": 2.9},
        {"version": True},
        {"mode": 3},
        {"alpha": "x"},
    ])
    def test_config_values_must_fit_their_flags(self, tmp_path, capsys, bad):
        (key,) = bad
        if key == "crop":  # only GeoJSON input takes a crop box
            data = tmp_path / "net.geojson"
            data.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
        else:
            data = self._gen(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "c": 5, "alpha": 12.0, **bad}))
        out = tmp_path / "never.json"
        assert run_cli("cluster", data, "--config", cfg, "--out", out) == 2
        assert f"{cfg}: config key {key!r} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_every_cluster_option_is_a_config_key(self, tmp_path):
        data = self._gen(tmp_path)
        config = {
            "format": "csv", "version": 1, "c": 5, "alpha": 12.0, "mode": "literal",
            "seed": 2, "alpha_mode": "literal",
            "out": str(tmp_path / "r.json"), "svg": str(tmp_path / "r.svg"),
            "trace": str(tmp_path / "t.jsonl"), "crop": None, "volume": None,
            "profile": None, "profiles": None,
        }
        # the config names each cluster option, no more and no fewer
        options = vars(build_parser().parse_args(["cluster", str(data)]))
        assert set(config) == set(options) - {"command", "func", "input", "config"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("cluster", data, "--config", cfg) == 0
        assert (tmp_path / "r.svg").exists() and (tmp_path / "t.jsonl").exists()

    def test_profile_map_values_must_be_string_or_null(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("id,x1,x2,y1,y2\na,0,0,1,0\nb,0,0.4,1,0.4\n")
        profiles = tmp_path / "p.json"
        for bad in (5, {"a": 5}, 0, False, [1]):
            profiles.write_text(json.dumps({"a": bad, "b": None}))
            code = run_cli("cluster", data, "--version", 3, "--c", 1, "--alpha", 1,
                           "--profiles", profiles, "--out", tmp_path / "r.json")
            assert code == 2
            err = capsys.readouterr().err
            assert str(profiles) in err and "record 'a'" in err and "string or null" in err
        # an empty string is not density-free: it fails to parse as a profile
        profiles.write_text(json.dumps({"a": "", "b": None}))
        assert run_cli("cluster", data, "--version", 3, "--c", 1, "--alpha", 1,
                       "--profiles", profiles, "--out", tmp_path / "r.json") == 2
        profiles.write_text(json.dumps({"a": "uniform:0,1", "b": None}))
        assert run_cli("cluster", data, "--version", 3, "--c", 1, "--alpha", 1,
                       "--profiles", profiles, "--out", tmp_path / "r.json") == 0

    def test_malformed_config_names_file_line_and_column(self, tmp_path, capsys):
        data = self._gen(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"version": 1,\n {not json')
        assert run_cli("cluster", data, "--config", cfg, "--c", 5, "--alpha", 12,
                       "--out", tmp_path / "r.json") == 2
        assert f"{cfg}:2:2: malformed JSON" in capsys.readouterr().err

    def test_bad_profile_entry_names_file_and_record(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("id,x1,x2,y1,y2\na,0,0,1,0\nb,0,0.4,1,0.4\n")
        profiles = tmp_path / "p.json"
        profiles.write_text(json.dumps({"a": "uniform:0,1", "b": "normal:0.5"}))
        assert run_cli("cluster", data, "--version", 3, "--c", 1, "--alpha", 1,
                       "--profiles", profiles, "--out", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert f"error: {profiles}: profile for record 'b': normal needs variance" in err

    def test_malformed_profile_map_names_file_line_and_column(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("id,x1,x2,y1,y2\na,0,0,1,0\nb,0,0.4,1,0.4\n")
        profiles = tmp_path / "p.json"
        profiles.write_text("{not json")
        assert run_cli("cluster", data, "--version", 3, "--c", 1, "--alpha", 1,
                       "--profiles", profiles, "--out", tmp_path / "r.json") == 2
        assert f"{profiles}:1:2: malformed JSON" in capsys.readouterr().err

    def test_profile_map_gaps_and_shape_name_the_file(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("id,x1,x2,y1,y2\na,0,0,1,0\nb,0,0.4,1,0.4\n")
        profiles = tmp_path / "p.json"
        profiles.write_text(json.dumps({"a": None}))
        assert run_cli("cluster", data, "--version", 3, "--c", 1, "--alpha", 1,
                       "--profiles", profiles, "--out", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert f"{profiles}: profile map lacks entries for 1 record(s)" in err
        profiles.write_text(json.dumps(["uniform:0,1", None]))
        assert run_cli("cluster", data, "--version", 3, "--c", 1, "--alpha", 1,
                       "--profiles", profiles, "--out", tmp_path / "r.json") == 2
        assert f"{profiles}: profile map must be a JSON object" in capsys.readouterr().err

    def test_mode_notice_only_when_defaulted(self, tmp_path, capsys):
        data = self._gen(tmp_path)
        run_cli("cluster", data, "--version", 1, "--c", 5, "--alpha", 12,
                "--out", tmp_path / "a.json")
        assert "mode=expand" in capsys.readouterr().err
        run_cli("cluster", data, "--version", 1, "--c", 5, "--alpha", 12,
                "--mode", "literal", "--out", tmp_path / "b.json")
        assert "mode=expand" not in capsys.readouterr().err

    def test_geojson_input(self, tmp_path, capsys):
        geo = tmp_path / "net.geojson"
        geo.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "properties": {},
                 "geometry": {"type": "LineString",
                              "coordinates": [[0, 0], [1, 0], [2, 0]]}},
                {"type": "Feature", "properties": {},
                 "geometry": {"type": "LineString",
                              "coordinates": [[0, 0.2], [1, 0.2]]}},
            ],
        }))
        code = run_cli("cluster", geo, "--version", 1, "--c", 2, "--alpha", 0.5,
                       "--seed", 0, "--out", tmp_path / "g.json")
        assert code == 0
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["counts"]["k"] == 1

    def test_geojson_crop_flag(self, tmp_path):
        geo = tmp_path / "net.geojson"
        geo.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature", "properties": {},
                "geometry": {"type": "LineString",
                             "coordinates": [[0, 0], [1, 0], [50, 50], [51, 50]]},
            }],
        }))
        code = run_cli("cluster", geo, "--version", 1, "--c", 1, "--alpha", 0.5,
                       "--crop=-1,-1,2,2", "--seed", 0,
                       "--out", tmp_path / "c.json")
        assert code == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        total = sum(len(c["members"]) for c in doc["clusters"]) + len(doc["noise"])
        assert total == 1  # only the first vertex pair survives the crop
        # malformed crop box is a usage error
        assert run_cli("cluster", geo, "--version", 1, "--c", 1, "--alpha", 0.5,
                       "--crop", "0,0,2", "--out", tmp_path / "x.json") == 2

    def test_crop_on_csv_input_is_usage_error(self, tmp_path, capsys):
        data = self._gen(tmp_path)
        code = run_cli("cluster", data, "--version", 1, "--c", 5, "--alpha", 12,
                       "--crop", "a,b,c,d", "--out", tmp_path / "r.json")
        assert code == 2
        assert "--crop applies to GeoJSON input only" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("box", ["2,2,-1,-1", "0,3,1,2", "nan,-1,3,3", "-1,-1,3,nan"])
    def test_inverted_or_nan_crop_is_usage_error(self, tmp_path, capsys, box):
        geo = tmp_path / "net.geojson"
        geo.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {},
                          "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 0]]}}],
        }))
        code = run_cli("cluster", geo, "--version", 1, "--c", 1, "--alpha", 0.5,
                       f"--crop={box}", "--out", tmp_path / "r.json")
        assert code == 2
        err = capsys.readouterr().err
        parsed = tuple(float(v) for v in box.split(","))
        assert f"crop box {parsed!r} selects nothing" in err
        assert "excluded every segment" not in err and "no segments" not in err
        assert not (tmp_path / "r.json").exists()

    def test_non_numeric_crop_is_usage_error(self, tmp_path, capsys):
        geo = tmp_path / "net.geojson"
        geo.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
        code = run_cli("cluster", geo, "--version", 1, "--c", 1, "--alpha", 0.5,
                       "--crop", "0,0,x,2", "--out", tmp_path / "r.json")
        assert code == 2
        assert "--crop needs four numbers" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        data = self._gen(tmp_path)
        capsys.readouterr()
        code = run_cli("cluster", data, "--version", 1, "--c", 5, "--alpha", 12,
                       "--seed", -1, "--out", tmp_path / "r.json")
        assert code == 2
        assert "--seed must be a non-negative integer" in capsys.readouterr().err
        assert run_cli("gen", "doughnut", "--seed", -1, "--out", tmp_path / "g.csv") == 2
        assert "--seed must be a non-negative integer" in capsys.readouterr().err

    def test_v2_point_record_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "deg.csv"
        data.write_text("id,x1,x2,y1,y2\na,0,0,1,0\nb,2,1,2,1\n")
        code = run_cli("cluster", data, "--version", 2, "--volume", 1,
                       "--profile", "normal:0.5,0.04", "--c", 1, "--out", tmp_path / "r.json")
        assert code == 2
        assert "cannot derive alpha for line 1: it is a point" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flags", [
        ("--version", 1, "--alpha", "nan"),
        ("--version", 1, "--alpha", "inf"),
        ("--version", 3, "--alpha", "nan", "--profile", "uniform:0,1"),
        ("--version", 2, "--volume", "nan", "--profile", "uniform:0,1"),
        ("--version", 2, "--volume", "inf", "--profile", "uniform:0,1"),
        ("--version", 2, "--volume", 60, "--profile", "normal:nan,0.04"),
        ("--version", 3, "--alpha", 1, "--profile", "uniform:0,inf"),
    ])
    def test_non_finite_parameters_are_usage_errors(self, tmp_path, capsys, flags):
        data = self._gen(tmp_path)
        code = run_cli("cluster", data, "--c", 5, *flags, "--out", tmp_path / "r.json")
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestLift:
    def test_lift_then_cluster_v3(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text(
            "id,x1,x2\n"
            "a,0.0,0.0\n"
            "b,0.3,0.1\n"
            "c,0.15,NA\n"
            "d,8.0,8.0\n"
        )
        segs = tmp_path / "lifted.csv"
        code = run_cli("lift", pts, "--axis", "2=uniform:-1,1", "--out", segs)
        assert code == 0
        assert "lifted 4 records (1 with a missing entry)" in capsys.readouterr().out
        profiles = tmp_path / "lifted.csv.profiles.json"
        mapping = json.loads(profiles.read_text())
        assert mapping["a"] is None
        assert mapping["c"] == "uniform:0,1"
        code = run_cli("cluster", segs, "--version", 3, "--c", 2, "--alpha", 0.5,
                       "--profiles", profiles, "--seed", 0,
                       "--out", tmp_path / "res.json")
        assert code == 0
        doc = json.loads((tmp_path / "res.json").read_text())
        assert doc["counts"]["k"] == 1
        assert doc["noise"] == ["d"]

    def test_missing_axis_domain_is_usage_error(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("id,x1,x2\na,1.0,NA\n")
        assert run_cli("lift", pts, "--out", tmp_path / "s.csv") == 2

    def test_two_missing_is_runtime_error(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("id,x1,x2\na,NA,NA\n")
        code = run_cli("lift", pts, "--axis", "1=uniform:0,1",
                       "--axis", "2=uniform:0,1", "--out", tmp_path / "s.csv")
        assert code == 1

    def test_non_uniform_axis_needs_window(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("id,x1,x2\na,1.0,NA\n")
        assert run_cli("lift", pts, "--axis", "2=normal:0.5,0.01",
                       "--out", tmp_path / "s.csv") == 2
        assert run_cli("lift", pts, "--axis", "2=normal:0.5,0.01@-4,4",
                       "--out", tmp_path / "s.csv") == 0

    def test_axis_window_must_be_two_numbers(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("id,x1,x2\na,NA,1.0\n")
        for text in ("1=normal:0.5,0.01@a,b", "1=normal:0.5,0.01@-4"):
            assert run_cli("lift", pts, "--axis", text, "--out", tmp_path / "s.csv") == 2
            assert f"--axis window needs numbers lo,hi after @, got {text!r}" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("axes, named", [
        (["2=uniform:0,1", "2=uniform:5,9"], "'2=uniform:5,9' declares axis 2 again, "
                                             "after '2=uniform:0,1'"),
        (["2=uniform:0,1", "9=uniform:0,1"], "'9=uniform:0,1' names axis 9, but the points"),
    ])
    def test_contradictory_axes_are_usage_errors(self, tmp_path, capsys, axes, named):
        # a second window for one axis, or an axis the points do not have,
        # would otherwise be dropped or ignored without a word
        pts = tmp_path / "pts.csv"
        pts.write_text("id,x1,x2,x3\na,1.0,NA,2.0\n")
        flags = [part for text in axes for part in ("--axis", text)]
        assert run_cli("lift", pts, *flags, "--out", tmp_path / "s.csv") == 2
        assert f"--axis {named}" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_axes_from_config_file(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("id,x1,x2\na,1.0,NA\nb,0.5,0.5\n")
        cfg = tmp_path / "lift.json"
        cfg.write_text(json.dumps({
            "axes": ["2=uniform:-4,4"],
            "out": str(tmp_path / "from_cfg.csv"),
        }))
        assert run_cli("lift", pts, "--config", cfg) == 0
        assert (tmp_path / "from_cfg.csv").exists()
        # a flag overrides the config's output path
        assert run_cli("lift", pts, "--config", cfg,
                       "--out", tmp_path / "flag.csv") == 0
        assert (tmp_path / "flag.csv").exists()

    def test_axes_in_config_must_be_a_list_of_strings(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("id,x1,x2\na,1.0,NA\n")
        cfg = tmp_path / "lift.json"
        for axes in ("2=uniform:-4,4", [2], {"2": "uniform:-4,4"}):
            cfg.write_text(json.dumps({"axes": axes, "out": str(tmp_path / "s.csv")}))
            assert run_cli("lift", pts, "--config", cfg) == 2
            assert f"{cfg}: config key 'axes' must be a list of K=SPEC strings" \
                in capsys.readouterr().err
            assert not (tmp_path / "s.csv").exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("id,x1,x2\na,1.0,NA\n")
        cfg = tmp_path / "lift.json"
        cfg.write_text(json.dumps({"axes": ["2=uniform:-4,4"], "axis": ["1=uniform:0,1"],
                                   "out": str(tmp_path / "s.csv")}))
        assert run_cli("lift", pts, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "unknown config key(s) axis" in err
        assert "accepted: axes, out, profiles_out" in err
        assert not (tmp_path / "s.csv").exists()

    def test_malformed_config_names_file_line_and_column(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("id,x1,x2\na,1.0,NA\n")
        cfg = tmp_path / "lift.json"
        cfg.write_text("{not json")
        assert run_cli("lift", pts, "--config", cfg) == 2
        assert f"{cfg}:1:2: malformed JSON" in capsys.readouterr().err

    def test_without_axis_or_config_is_usage_error(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("id,x1\na,1.0\n")
        assert run_cli("lift", pts, "--out", tmp_path / "s.csv") == 2

"""Command-line interface: cluster, gen and lift subcommands.

Exit codes are stable: 0 success, 1 IO/runtime failure, 2 usage error.
A JSON config file can pre-set any cluster or lift option; explicit flags
override config values, and a key that names no option is rejected.
Outputs carry no timestamps, so a fixed seed fully determines the bytes
written by gen and cluster.  The LINECLUST_LOG environment variable
(debug/info/warning/error) sets the log verbosity.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

from . import data_io
from .engine import RunConfig, dump_trace, run
from .errors import ConfigurationError, ParseError, UnsupportedRecordError
from .missing_data import AxisDomain, lift_dataset
from .neighborhood import NeighbourhoodSpec
from .profiles import Profile, format_profile, parse_profile

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lineclust",
        description="Density-based clustering of lines and line segments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="cluster a segments file")
    p_cluster.add_argument("input", help="segments CSV or GeoJSON file")
    p_cluster.add_argument("--format", choices=["csv", "geojson"], default=None,
                           help="input format (default: by file extension)")
    p_cluster.add_argument("--version", type=int, choices=[1, 2, 3], default=None,
                           help="relation version (1 metric, 2 volume-derived, 3 scaled density)")
    p_cluster.add_argument("--c", type=int, default=None,
                           help="cardinality threshold (required)")
    p_cluster.add_argument("--alpha", type=float, default=None,
                           help="scale parameter (versions 1 and 3)")
    p_cluster.add_argument("--volume", type=float, default=None,
                           help="target neighbourhood volume V (version 2)")
    p_cluster.add_argument("--profile", default=None,
                           help="density for every line, e.g. uniform:0,1 (versions 2 and 3)")
    p_cluster.add_argument("--profiles", default=None,
                           help="JSON file mapping record id to a profile string or null")
    p_cluster.add_argument("--alpha-mode", choices=["literal", "exact-volume"], default=None,
                           help="version 2 scale derivation (default literal: V / base volume)")
    p_cluster.add_argument("--mode", choices=["literal", "expand"], default=None,
                           help="clustering mode (default expand)")
    p_cluster.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p_cluster.add_argument("--crop", default=None,
                           help="GeoJSON crop box minx,miny,maxx,maxy")
    p_cluster.add_argument("--out", default=None, help="results JSON path (default results.json)")
    p_cluster.add_argument("--svg", default=None, help="also render an SVG (2-d data only)")
    p_cluster.add_argument("--trace", default=None, help="write the draw trace as JSON lines")
    p_cluster.add_argument("--config", default=None, help="JSON config file; flags override it")
    p_cluster.set_defaults(func=functools.partial(cmd_cluster, options=_options(p_cluster)))

    p_gen = sub.add_parser("gen", help="generate a synthetic segments file")
    p_gen.add_argument("kind", choices=["convex", "doughnut"])
    p_gen.add_argument("--count", type=int, default=None,
                       help="records to generate (default: 150 convex, 400 doughnut)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_lift = sub.add_parser(
        "lift", help="lift a points CSV (missing entries allowed) to segments")
    p_lift.add_argument("input", help="points CSV with header id,x1..xn")
    p_lift.add_argument("--axis", action="append", default=[], metavar="K=SPEC",
                        help="domain for 1-based axis K, e.g. 2=uniform:-4,4 or "
                             "2=normal:0.5,0.01@-4,4 (template over t in [0,1])")
    p_lift.add_argument("--out", default=None, help="segments CSV to write")
    p_lift.add_argument("--profiles-out", default=None,
                        help="profile map JSON (default: <out>.profiles.json)")
    p_lift.add_argument("--config", default=None,
                        help="JSON config with keys axes/out/profiles_out; flags override")
    p_lift.set_defaults(func=functools.partial(cmd_lift, options=_options(p_lift)))

    return parser


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """A parser's options by name (dest), for checking --config values."""
    return {a.dest: a for a in parser._actions}


def main(argv=None) -> int:
    level = os.environ.get("LINECLUST_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, UnsupportedRecordError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# -- cluster -------------------------------------------------------------------

def _load_records(path, fmt, crop):
    if fmt is None:
        fmt = "geojson" if str(path).lower().endswith((".json", ".geojson")) else "csv"
    if fmt != "geojson":
        if crop:
            raise ConfigurationError("--crop applies to GeoJSON input only")
        return data_io.load_segments_csv(path)
    if not crop:
        return data_io.load_geojson(path)
    try:
        box = tuple(float(v) for v in crop.split(","))
    except ValueError:
        box = None
    if box is None or len(box) != 4:
        raise ConfigurationError(f"--crop needs four numbers minx,miny,maxx,maxy, got {crop!r}")
    return data_io.load_geojson(path, crop=box)


def _seed(value) -> int:
    """A --seed value; the RNG takes only non-negative integers."""
    if value < 0:
        raise ConfigurationError(f"--seed must be a non-negative integer, got {value}")
    return value


def _load_json(path):
    """The JSON value in the file at path; malformed JSON is a configuration
    error that names the file, line and column."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: "
                                     f"malformed JSON: {exc.msg}") from None


# the JSON values a --config key may hold, by its option's type (None: a string)
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 None: ((str,), "a string")}


def _read_config(path, options: dict[str, argparse.Action]) -> dict:
    """The --config JSON object at path ({} without one).

    Its keys must name options, and each value other than null must be what
    the option's flag parses to: of its type, and one of its choices.  A key
    mapped to None has no flag of its own; the caller checks its value.
    """
    if not path:
        return {}
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")
    unknown = sorted(set(cfg) - set(options))
    if unknown:
        raise ConfigurationError(f"{path}: unknown config key(s) {', '.join(unknown)}; "
                                 f"accepted: {', '.join(sorted(options))}")
    for key, value in cfg.items():
        option = options[key]
        if value is None or option is None:
            continue
        kinds, expected = _CONFIG_TYPES[option.type]
        # bool is an int subclass, but true/false is no number
        valid = isinstance(value, kinds) and not isinstance(value, bool)
        if option.choices is not None:
            valid = valid and value in option.choices
            expected = "one of " + ", ".join(map(str, option.choices))
        if not valid:
            raise ConfigurationError(f"{path}: config key {key!r} must be {expected}, "
                                     f"got {json.dumps(value)}")
    return cfg


def _per_line_profiles(path, ids) -> list[Profile | None]:
    mapping = _load_json(path)
    if not isinstance(mapping, dict):
        raise ConfigurationError(f"{path}: profile map must be a JSON object")
    missing = [rid for rid in ids if rid not in mapping]
    if missing:
        raise ConfigurationError(f"{path}: profile map lacks entries for "
                                 f"{len(missing)} record(s), e.g. {missing[:3]}")
    profiles = []
    for rid in ids:
        if mapping[rid] is not None and not isinstance(mapping[rid], str):
            raise ConfigurationError(f"{path}: profile for record {rid!r} must be a "
                                     f"string or null, got {mapping[rid]!r}")
        try:
            profiles.append(None if mapping[rid] is None else parse_profile(mapping[rid]))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: profile for record {rid!r}: {exc}") from None
    return profiles


def cmd_cluster(args, options: dict[str, argparse.Action]) -> int:
    # a config key is the name of a cluster option, the key pick() reads
    keys = set(vars(args)) - {"command", "func", "input", "config"}
    file_cfg = _read_config(args.config, {key: options[key] for key in keys})

    def pick(key, default=None):
        flag_value = getattr(args, key)
        return flag_value if flag_value is not None else file_cfg.get(key, default)

    version = pick("version")
    c = pick("c")
    if version is None or c is None:
        raise ConfigurationError("cluster requires --version and --c")
    records = _load_records(args.input, pick("format"), pick("crop"))
    if not records:
        raise ValueError(f"{args.input}: no segments to cluster")
    U = [r.to_segment() for r in records]
    ids = [r.id for r in records]

    profile_text = pick("profile")
    profiles_path = pick("profiles")
    if profile_text is not None and profiles_path is not None:
        raise ConfigurationError("--profile and --profiles are mutually exclusive")
    profile = None
    if profile_text is not None:
        profile = parse_profile(profile_text)
    elif profiles_path is not None:
        profile = _per_line_profiles(profiles_path, ids)

    spec = NeighbourhoodSpec(
        version=version,
        c=c,
        alpha=pick("alpha"),
        volume=pick("volume"),
        profile=profile,
        alpha_mode=pick("alpha_mode", "literal"),
    )
    mode = pick("mode")
    if mode is None:
        mode = "expand"
        print("mode=expand (cluster growth); use --mode literal for the "
              "one-pass draw loop without growth", file=sys.stderr)
    cfg = RunConfig(spec=spec, mode=mode, rng_seed=_seed(pick("seed", 0)))
    labels = run(U, cfg)
    if labels.undecided_count:
        log.warning("%d pairs were undecided by the witness search and taken as unrelated",
                    labels.undecided_count)

    echo = {
        "input": str(args.input),
        "version": spec.version,
        "c": spec.c,
        "alpha": spec.alpha,
        "volume": spec.volume,
        "profile": format_profile(profile) if isinstance(profile, Profile) else
                   ("per-line" if profile is not None else None),
        "alpha_mode": spec.alpha_mode,
        "search_samples": spec.search_samples,
    }
    out = pick("out", "results.json")
    data_io.write_results(labels, out, ids=ids, config=echo)
    svg = pick("svg")
    if svg:
        data_io.write_svg(U, labels, svg)
    trace = pick("trace")
    if trace:
        dump_trace(labels, trace)
    print(f"k={labels.k} outliers={len(labels.noise)} evals={labels.eval_count}")
    return 0


# -- gen -----------------------------------------------------------------------

def cmd_gen(args) -> int:
    count = args.count
    if count is None:
        count = 150 if args.kind == "convex" else 400
    if count < 1:
        raise ConfigurationError(f"--count must be a positive integer, got {count}")
    gen = data_io.gen_convex if args.kind == "convex" else data_io.gen_doughnut
    records = gen(count, seed=_seed(args.seed))
    data_io.write_segments_csv(records, args.out)
    print(f"wrote {len(records)} segments to {args.out}")
    return 0


# -- lift ----------------------------------------------------------------------

def _parse_axis(text: str) -> AxisDomain:
    """K=family:p1,p2[@lo,hi] with K 1-based (matching the x1..xn columns)."""
    head, sep, spec = text.partition("=")
    if not sep:
        raise ConfigurationError(f"--axis needs K=SPEC, got {text!r}")
    try:
        k = int(head)
    except ValueError:
        raise ConfigurationError(f"--axis index must be an integer, got {head!r}") from None
    if k < 1:
        raise ConfigurationError(f"--axis index is 1-based, got {k}")
    prof_text, at, window_text = spec.partition("@")
    template = parse_profile(prof_text)
    if at:
        try:  # a wrong count fails to unpack, a non-number to convert
            lo, hi = map(float, window_text.split(","))
        except ValueError:
            raise ConfigurationError(f"--axis window needs numbers lo,hi after @, "
                                     f"got {text!r}") from None
        return AxisDomain(axis=k - 1, window=(lo, hi), profile_template=template)
    if template.family != "uniform":
        raise ConfigurationError(
            f"--axis {text!r}: non-uniform templates need an explicit @lo,hi window")
    # uniform:lo,hi doubles as the window; the template becomes uniform in t
    return AxisDomain(axis=k - 1, window=(template.params[0], template.params[1]),
                      profile_template=Profile.uniform(0.0, 1.0))


def cmd_lift(args, options: dict[str, argparse.Action]) -> int:
    file_cfg = _read_config(args.config, {"axes": None, "out": options["out"],
                                          "profiles_out": options["profiles_out"]})
    axis_texts = args.axis or file_cfg.get("axes") or []
    if not isinstance(axis_texts, list) or not all(isinstance(t, str) for t in axis_texts):
        raise ConfigurationError(f"{args.config}: config key 'axes' must be a list of "
                                 f"K=SPEC strings, got {json.dumps(axis_texts)}")
    out = args.out if args.out is not None else file_cfg.get("out")
    profiles_out = args.profiles_out if args.profiles_out is not None \
        else file_cfg.get("profiles_out")
    if not axis_texts:
        raise ConfigurationError("lift requires at least one --axis declaration "
                                 "(or an axes list in --config)")
    if out is None:
        raise ConfigurationError("lift requires --out (or out in --config)")
    domains, declared = {}, {}
    for text in axis_texts:
        dom = _parse_axis(text)
        if dom.axis in declared:
            raise ConfigurationError(f"--axis {text!r} declares axis {dom.axis + 1} again, "
                                     f"after {declared[dom.axis]!r}")
        domains[dom.axis], declared[dom.axis] = dom, text
    rows = data_io.load_points_csv(args.input, axes=domains)
    if rows:
        dim = len(rows[0][1])
        for axis, text in declared.items():
            if axis >= dim:
                raise ConfigurationError(f"--axis {text!r} names axis {axis + 1}, but the "
                                         f"points of {args.input} have {dim} coordinates")
    result = lift_dataset([values for _, values in rows], domains,
                          ids=[rid for rid, _ in rows])
    records = [
        data_io.SegmentRecord(id=sid, x=seg.x, y=seg.y)
        for sid, seg in zip(result.source_ids, result.segments)
    ]
    data_io.write_segments_csv(records, out)
    profiles_out = profiles_out or f"{out}.profiles.json"
    mapping = {
        sid: (format_profile(p) if p is not None else None)
        for sid, p in zip(result.source_ids, result.profiles)
    }
    with open(profiles_out, "w", encoding="utf-8") as fh:
        json.dump(mapping, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lifted = sum(1 for p in result.profiles if p is not None)
    print(f"lifted {len(records)} records ({lifted} with a missing entry) "
          f"to {out} + {profiles_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

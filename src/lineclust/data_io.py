"""Dataset ingestion, synthetic generators, and result/plot emission.

File formats:

* segments CSV with header ``id,x1..xn,y1..yn`` (n inferred from the header)
* points CSV with header ``id,x1..xn``; an empty field or a literal ``NA``
  (case-insensitive) marks a missing value
* GeoJSON FeatureCollection of LineString / MultiLineString features, each
  polyline split into consecutive-vertex segments
* results JSON (cluster membership by record id plus summary counts)
* SVG rendering of 2-d datasets, one colour per cluster, noise in grey

A CSV file is checked row by row, in file order, before any record is
returned; a bad one is a ParseError naming path:line of its first bad line,
whatever faults follow it.  The segment loaders build every segment of a
file with one `geometry.segments` call, and each `SegmentRecord` they
return carries its segment.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from numbers import Real
from typing import Sequence

import numpy as np

from .engine import ClusterLabels
from .errors import ConfigurationError, ParseError
from .geometry import SegmentLike, _segment_failures, segment, segments

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SegmentRecord:
    """One input segment: its id and endpoints.  A loader sets `seg`, the
    segment it built for the whole file at once, and `to_segment` returns
    it; `seg` is no constructor argument, so it always matches x and y.  A
    record built one at a time (or by `dataclasses.replace`) has none, and
    `to_segment` checks and derives its segment then."""

    id: str
    x: np.ndarray
    y: np.ndarray
    seg: SegmentLike | None = field(init=False, default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.x)

    def to_segment(self) -> SegmentLike:
        return self.seg if self.seg is not None else segment(self.x, self.y)


def _records(ids: Sequence[str], X: np.ndarray, Y: np.ndarray,
             where: Sequence[str]) -> list[SegmentRecord]:
    """A record per row of the (m, dim) endpoint arrays X, Y, each carrying
    its segment, all built by one `segments` call.  A row whose segment
    cannot be built, one whose direction, centre or squared length
    overflows, is a ParseError that opens with where[k], the place of the
    first such row k in its file."""
    try:
        built = segments(X, Y)
    except ValueError:
        k, exc = _segment_failures(X, Y)[0]
        raise ParseError(f"{where[k]}: {exc}") from None
    records = []
    for rid, s in zip(ids, built):
        rec = SegmentRecord(rid, s.x, s.y)
        object.__setattr__(rec, "seg", s)
        records.append(rec)
    return records


# -- CSV rows ------------------------------------------------------------------

def _csv_lines(path):
    """(line number, row) for each row of the CSV file at path, the line
    number of the row's first line.  The file is read as UTF-8 up to its
    first line that holds a byte that is not, which ends the rows as a
    ParseError naming that line, once every row before it is read.  A row
    the csv module refuses, such as a field over its size limit, is a
    ParseError naming the line the reader stopped on."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1  # the line that holds the byte
        lineno = data.count(b"\n", 0, start) + 1
        text = data[:start].decode("utf-8")
        bad = ParseError(f"{path}:{lineno}: not UTF-8 text: {exc.reason}, "
                         f"byte {data[exc.start]:#04x}")
    reader = csv.reader(io.StringIO(text, newline=""))
    lineno = 1
    try:
        for row in reader:
            yield lineno, row
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    if bad is not None:
        raise bad


def _csv_rows(path, header_fields, missing: bool):
    """(line number, id, values) for each data row of the CSV file at path.

    header_fields(header, path) checks the header and returns the number of
    fields a row must have.  An empty file, a wrong field count, a repeated
    id and a field that is not a finite number are ParseErrors naming
    path:line, as are the faults _csv_lines names; blank rows are skipped.
    With missing, an empty field or NA (case-insensitive) is a missing
    value, None.
    """
    what = "value" if missing else "coordinate"
    seen: dict[str, int] = {}
    lines = _csv_lines(path)
    try:
        _, header = next(lines)
    except StopIteration:
        raise ParseError(f"{path}:1: empty file") from None
    width = header_fields(header, path)
    for lineno, row in lines:
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        first = seen.setdefault(row[0], lineno)
        if first != lineno:
            raise ParseError(f"{path}:{lineno}: duplicate id {row[0]!r} "
                             f"(first on line {first})")
        values = []
        for raw in row[1:]:
            txt = raw.strip()
            if missing and (txt == "" or txt.lower() == "na"):
                values.append(None)
                continue
            try:
                v = float(txt)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric field {raw!r}") from None
            if not math.isfinite(v):
                raise ParseError(f"{path}:{lineno}: non-finite {what} {raw!r}")
            values.append(v)
        yield lineno, row[0], values


# -- segments CSV ------------------------------------------------------------

def _segments_header(cols: list[str], path) -> int:
    names = [c.strip().lower() for c in cols]
    n = (len(names) - 1) // 2
    expected = ["id"] + [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    if n < 1 or names != expected:
        raise ParseError(f"{path}:1: header must be id,x1..xn,y1..yn, got {cols}")
    return 1 + 2 * n


def load_segments_csv(path) -> list[SegmentRecord]:
    """The records of a segments CSV, each carrying its segment.

    Every row is checked, in file order, before any record is built, so a
    bad file is a ParseError naming its first bad line.  The segments are
    then built by one `geometry.segments` call, with the fields
    `segment(rec.x, rec.y)` would give, to the bit; a row whose direction,
    centre or squared length overflows is a ParseError naming its line.
    """
    ids, vals, where = [], [], []
    for lineno, rid, values in _csv_rows(path, _segments_header, missing=False):
        ids.append(rid)
        vals.append(values)
        where.append(f"{path}:{lineno}")
    if not ids:
        return []
    V = np.array(vals, dtype=np.float64)
    n = V.shape[1] // 2
    return _records(ids, V[:, :n], V[:, n:], where)


def write_segments_csv(records: Sequence[SegmentRecord], path) -> None:
    """Inverse of load_segments_csv; 17 significant digits round-trip exactly."""
    if not records:
        raise ValueError("refusing to write an empty segments file")
    n = records[0].dim
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x{i}" for i in range(1, n + 1)]
                        + [f"y{i}" for i in range(1, n + 1)])
        for rec in records:
            if rec.dim != n:
                raise ValueError(f"record {rec.id!r} has dimension {rec.dim}, expected {n}")
            writer.writerow([rec.id] + [f"{v:.17g}" for v in rec.x]
                            + [f"{v:.17g}" for v in rec.y])


# -- points CSV (missing entries allowed) -------------------------------------

def _points_header(cols: list[str], path) -> int:
    names = [c.strip().lower() for c in cols]
    n = len(names) - 1
    if n < 1 or names[0] != "id" or names[1:] != [f"x{i}" for i in range(1, n + 1)]:
        raise ParseError(f"{path}:1: header must be id,x1..xn, got {cols}")
    return n + 1


def load_points_csv(path, axes: Collection[int] | None = None) -> list[tuple[str, tuple]]:
    """Rows of (id, values); a missing value is None (empty field or NA).

    With axes, the 0-based axes a lift declares a domain for, a record that
    lift_dataset could not lift is a ParseError naming path:line and the
    columns: one missing two or more values, or one on an axis not in axes.
    """
    rows = []
    for lineno, rid, values in _csv_rows(path, _points_header, missing=True):
        gaps = [] if axes is None else [k for k, v in enumerate(values) if v is None]
        if gaps:
            columns = " and ".join(f"x{k + 1}" for k in gaps)
            if len(gaps) > 1:
                raise ParseError(f"{path}:{lineno}: record {rid!r} is missing {columns}; "
                                 f"at most 1 missing value is supported")
            if gaps[0] not in axes:
                raise ParseError(f"{path}:{lineno}: record {rid!r} is missing {columns}, "
                                 f"an axis with no declared domain")
        rows.append((rid, tuple(values)))
    return rows


def write_points_csv(rows: Sequence[tuple[str, tuple]], path) -> None:
    if not rows:
        raise ValueError("refusing to write an empty points file")
    n = len(rows[0][1])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x{i}" for i in range(1, n + 1)])
        for rid, values in rows:
            writer.writerow([rid] + ["NA" if v is None else f"{v:.17g}" for v in values])


# -- GeoJSON ------------------------------------------------------------------

def _is_planar_position(pos) -> bool:
    """Is pos a GeoJSON position of exactly two finite numbers.  json reads
    NaN and Infinity, overflows 1e400 to inf and reads an integer of any
    size, so each number must also be a finite float."""
    if not (isinstance(pos, list) and len(pos) == 2):
        return False
    try:
        return all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v) for v in pos)
    except OverflowError:  # an integer beyond the float range
        return False


def load_geojson(path, crop: tuple[float, float, float, float] | None = None
                 ) -> list[SegmentRecord]:
    """Split LineString / MultiLineString features into vertex-pair segments.

    Non-line geometries are skipped with a warning.  With a crop box
    (minx, miny, maxx, maxy) only segments whose both endpoints fall inside
    are kept.  A box that is not four real numbers (a bool is not one) is a
    ConfigurationError, as is one with minx > maxx, miny > maxy or a NaN,
    which selects nothing; an infinite bound is legal.  Two features that
    yield one segment id, a position that is not two finite numbers (a 3-d
    coordinate, say, or a NaN, which json reads), and a feature list,
    feature, geometry or line of the wrong JSON type are parse errors, as
    is a segment whose direction, centre or squared length overflows,
    named by its feature and id.  The segments are built by one
    `geometry.segments` call, each carried by its record.
    """
    if crop is not None:
        box = tuple(crop) if isinstance(crop, Iterable) else None
        if box is None or len(box) != 4 or not all(
                isinstance(v, Real) and not isinstance(v, bool) for v in box):
            raise ConfigurationError(f"crop box {crop!r} must be four real numbers "
                                     f"(minx, miny, maxx, maxy); a bool is not a number")
        crop = box
        minx, miny, maxx, maxy = box
        # NaN compares false both ways, so a box holding one fails this too
        if not (minx <= maxx and miny <= maxy):
            raise ConfigurationError(f"crop box {box!r} selects nothing: it needs "
                                     f"minx <= maxx and miny <= maxy, and no NaN")
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("type") != "FeatureCollection":
        raise ParseError(f"{path}: expected a GeoJSON FeatureCollection")

    def inside(pt) -> bool:
        if crop is None:
            return True
        minx, miny, maxx, maxy = crop
        return minx <= pt[0] <= maxx and miny <= pt[1] <= maxy

    ids: list[str] = []
    where: list[str] = []  # each segment's feature and id, for a ParseError
    starts: list[list] = []
    ends: list[list] = []
    seen: dict[str, int] = {}  # segment id -> index of the feature that made it
    features = obj.get("features", [])
    if not isinstance(features, list):
        raise ParseError(f"{path}: features must be a JSON array, got {features!r}")
    for fi, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise ParseError(f"{path}: feature {fi} is {feature!r}, not a JSON object")
        geom = feature.get("geometry") or {}
        if not isinstance(geom, dict):
            raise ParseError(f"{path}: feature {fi} has geometry {geom!r}, not a JSON object")
        gtype = geom.get("type")
        fid = str(feature.get("id", f"f{fi}"))
        if gtype == "LineString":
            parts = [geom.get("coordinates", [])]
            part_ids = [fid]
        elif gtype == "MultiLineString":
            parts = geom.get("coordinates", [])
            if not isinstance(parts, list):
                raise ParseError(f"{path}: feature {fi} has coordinates {parts!r}; "
                                 f"a MultiLineString must be a list of lines")
            part_ids = [f"{fid}-p{pi}" for pi in range(len(parts))]
        else:
            log.warning("%s: feature %s has non-line geometry %r, skipped", path, fid, gtype)
            continue
        for pid, coords in zip(part_ids, parts):
            if not isinstance(coords, list):
                raise ParseError(f"{path}: feature {fi} has line {coords!r}; "
                                 f"a line must be a list of positions")
            for pos in coords:
                if not _is_planar_position(pos):
                    raise ParseError(f"{path}: feature {fi} has position {pos!r}; "
                                     f"positions must be [x, y], two finite numbers")
            for si in range(len(coords) - 1):
                a, b = coords[si], coords[si + 1]
                if not (inside(a) and inside(b)):
                    continue
                sid = f"{pid}-s{si}"
                if seen.setdefault(sid, fi) != fi:
                    raise ParseError(f"{path}: features {seen[sid]} and {fi} both give "
                                     f"segment id {sid!r}")
                ids.append(sid)
                where.append(f"{path}: feature {fi}, segment {sid!r}")
                starts.append(a)
                ends.append(b)
    if not ids:
        if crop is not None:
            log.warning("%s: crop box %s excluded every segment", path, crop)
        return []
    return _records(ids, np.array(starts, dtype=np.float64), np.array(ends, dtype=np.float64),
                    where)


# -- synthetic generators -----------------------------------------------------

def _chord(rng, mid, angle, lo_len, hi_len, rid) -> SegmentRecord:
    half = 0.5 * rng.uniform(lo_len, hi_len)
    d = np.array([math.cos(angle), math.sin(angle)])
    return SegmentRecord(id=rid, x=mid - half * d, y=mid + half * d)


def gen_convex(count: int = 150, seed: int = 0) -> list[SegmentRecord]:
    """Short segments inside three well-separated convex blobs.

    Blob centres sit ~50 units apart on a 100-unit canvas with blob radius 9
    and segment lengths 3..8, so a distance threshold around 12 connects each
    blob internally and never across blobs.  Deterministic per seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    centres = [np.array(c) for c in ((22.0, 24.0), (72.0, 30.0), (46.0, 80.0))]
    records = []
    for i in range(count):
        c = centres[i % 3]
        r = 9.0 * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        mid = c + r * np.array([math.cos(phi), math.sin(phi)])
        records.append(_chord(rng, mid, rng.uniform(0.0, 2.0 * math.pi), 3.0, 8.0, f"c{i:04d}"))
    return records


def gen_doughnut(count: int = 400, seed: int = 0) -> list[SegmentRecord]:
    """Chords along an annulus plus a dense central blob.

    The annulus (radius 35, centre (50, 50)) carries a densely packed arc
    and a sparser arc whose chords have only a handful of close neighbours,
    so raising the cardinality threshold from ~5 to ~8 demotes them from
    core status.  The blob sits well inside, more than 12 units from the
    ring.  Id prefixes d/s/b mark dense-arc, sparse-arc and blob records.
    Deterministic per seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    centre = np.array([50.0, 50.0])
    n_blob = max(1, round(0.25 * count))
    n_sparse = max(3, round(0.03 * count)) if count >= 20 else 0
    n_dense = count - n_blob - n_sparse
    records = []
    for i in range(n_dense):
        theta = 1.3 * math.pi * (i + 0.5) / max(n_dense, 1) + rng.uniform(-0.01, 0.01)
        radius = 35.0 + rng.uniform(-2.5, 2.5)
        mid = centre + radius * np.array([math.cos(theta), math.sin(theta)])
        tangent = theta + 0.5 * math.pi + rng.uniform(-0.2, 0.2)
        records.append(_chord(rng, mid, tangent, 4.0, 7.0, f"d{i:04d}"))
    for i in range(n_sparse):
        theta = 1.3 * math.pi + 0.7 * math.pi * (i + 0.5) / max(n_sparse, 1) \
            + rng.uniform(-0.02, 0.02)
        radius = 35.0 + rng.uniform(-2.5, 2.5)
        mid = centre + radius * np.array([math.cos(theta), math.sin(theta)])
        tangent = theta + 0.5 * math.pi + rng.uniform(-0.2, 0.2)
        records.append(_chord(rng, mid, tangent, 2.5, 4.0, f"s{i:04d}"))
    for i in range(n_blob):
        r = 7.0 * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        mid = centre + r * np.array([math.cos(phi), math.sin(phi)])
        records.append(_chord(rng, mid, rng.uniform(0.0, 2.0 * math.pi), 2.0, 5.0, f"b{i:04d}"))
    return records


def gen_isolated(count: int, spacing: float = 10.0) -> list[SegmentRecord]:
    """Unit segments spaced far apart along the x-axis; nothing relates to
    anything under a small threshold, the draw-loop worst case.  count must
    be >= 1 and spacing finite and positive."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"spacing must be finite and positive, got {spacing!r}")
    return [
        SegmentRecord(id=f"i{i:05d}",
                      x=np.array([spacing * i, 0.0]),
                      y=np.array([spacing * i + 1.0, 0.0]))
        for i in range(count)
    ]


# -- results ------------------------------------------------------------------

def result_document(labels: ClusterLabels, ids: Sequence[str] | None = None,
                    config: dict | None = None) -> dict:
    """JSON-ready summary of a run: clusters, noise and consistency counts."""
    n = len(labels.memberships)
    if ids is None:
        ids = [str(i) for i in range(n)]
    if len(ids) != n:
        raise ValueError("ids length does not match the number of lines")
    clusters = [{"id": cid + 1, "members": [ids[i] for i in members]}
                for cid, members in enumerate(labels.clusters)]
    noise = [ids[i] for i in labels.noise]
    sizes = [len(c["members"]) for c in clusters]
    return {
        "config": dict(config or {}),
        "mode": labels.mode,
        "seed": labels.rng_seed,
        "evals": labels.eval_count,
        "clusters": clusters,
        "noise": noise,
        "counts": {
            "k": len(clusters),
            "min": min(sizes) if sizes else 0,
            "max": max(sizes) if sizes else 0,
            "outliers": len(noise),
        },
    }


def write_results(labels: ClusterLabels, path, ids: Sequence[str] | None = None,
                  config: dict | None = None) -> None:
    doc = result_document(labels, ids=ids, config=config)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- SVG ----------------------------------------------------------------------

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#aec7e8",
    "#ffbb78", "#98df8a",
]
_NOISE_COLOUR = "#bbbbbb"
_SVG_WIDTH = 800.0


def write_svg(U: Sequence[SegmentLike], labels: ClusterLabels, path) -> None:
    """Render a 2-d dataset, one colour per cluster and noise in grey.

    The viewport is _SVG_WIDTH wide and auto-fits the data with a 5%
    margin.  Output bytes are a pure function of (U, labels), so renders
    are reproducible.
    """
    if any(l.dim != 2 for l in U):
        raise ValueError("SVG output requires 2-d data")
    if len(U) != len(labels.memberships):
        raise ValueError("labels do not match the dataset")
    pts = np.array([[l.x, l.y] for l in U], dtype=np.float64).reshape(-1, 2)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * float(span.max())
    lo = lo - margin
    span = span + 2 * margin
    scale = _SVG_WIDTH / float(span[0])
    height = float(span[1]) * scale
    stroke = max(0.75, 0.004 * _SVG_WIDTH)

    def sx(v: float) -> float:
        return (v - lo[0]) * scale

    def sy(v: float) -> float:
        return height - (v - lo[1]) * scale  # flip: SVG y grows downward

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {_SVG_WIDTH:.2f} {height:.2f}">',
        f'<rect width="{_SVG_WIDTH:.2f}" height="{height:.2f}" fill="#ffffff"/>',
    ]
    for l, members in zip(U, labels.memberships):
        colour = _PALETTE[(members[0] - 1) % len(_PALETTE)] if members else _NOISE_COLOUR
        x1, y1 = sx(l.x[0]), sy(l.x[1])
        x2, y2 = sx(l.y[0]), sy(l.y[1])
        if l.is_degenerate:
            out.append(f'<circle cx="{x1:.3f}" cy="{y1:.3f}" r="{stroke:.3f}" '
                       f'fill="{colour}"/>')
        else:
            out.append(f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                       f'stroke="{colour}" stroke-width="{stroke:.3f}" stroke-linecap="round"/>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")

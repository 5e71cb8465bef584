"""Names, default seeds and reported metrics; standard library only, so
``run.py`` can read them without importing the library."""

from __future__ import annotations

# workload -> default seed
WORKLOADS = {
    "doughnut-v1-expand": 7,
    "isolated-v1-literal": 0,
    "lifted7d-v3-expand": 2000,
    "doughnut-v2-volume": 7,
}

# (name, unit, better); the --trace 0 result line carries exactly these
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cluster_s", "s", "lower"),
    ("pairs_per_s", "pairs/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit, better); the --trace 1 result line carries exactly these.
# Times that are 0 on a workload whose run never enters the layer
# (missing_data.lift_s, profiles.alpha_s, profiles.busy_s, geometry.*_s) are
# printed in the text report only; their call counts are here.
PER_LAYER = [
    ("data_io.load_s", "s", "lower"),
    ("data_io.write_s", "s", "lower"),
    ("data_io.results_bytes", "bytes", "lower"),
    ("missing_data.lifted_records", "count", "lower"),
    ("profiles.alpha_calls", "count", "lower"),
    ("profiles.quadrature_calls", "count", "lower"),
    ("profiles.window_calls", "count", "lower"),
    ("profiles.peak_density_calls", "count", "lower"),
    ("profiles.density_calls", "count", "lower"),
    ("geometry.min_distance_calls", "count", "lower"),
    ("geometry.closest_point_calls", "count", "lower"),
    ("neighborhood.pairs", "count", "lower"),
    ("neighborhood.rows", "count", "lower"),
    ("neighborhood.row_s", "s", "lower"),
    ("neighborhood.row_ms.p50", "ms", "lower"),
    ("neighborhood.row_ms.p90", "ms", "lower"),
    ("neighborhood.row_ms.p99", "ms", "lower"),
    ("neighborhood.self_s", "s", "lower"),
    ("neighborhood.v1_calls", "count", "lower"),
    ("neighborhood.witness_calls", "count", "lower"),
    ("neighborhood.exact_share", "ratio", "lower"),
    ("neighborhood.phi_per_witness", "ratio", "lower"),
    ("neighborhood.hit_ratio", "ratio", "higher"),
    ("engine.draws", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.peak_aux", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

# units of the text-only entries of the untraced report; the ARI swings
# between seeds on doughnut-v2-volume (see README.md), so it is no gated metric
TEXT_ONLY_END_TO_END = {"ari": "ratio"}

# units of the text-only entries of the traced report
TEXT_ONLY_UNITS = {
    "missing_data.lift_s": "s",
    "profiles.alpha_s": "s",
    "profiles.busy_s": "s",
    "geometry.min_distance_s": "s",
    "geometry.closest_point_s": "s",
    "geometry.busy_s": "s",
    "engine.clusters": "count",
    "engine.noise": "count",
    "neighborhood.row_samples": "count",
}

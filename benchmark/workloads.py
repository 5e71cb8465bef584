"""The four seeded workloads and the operation the benchmark times.

Each workload writes its input file once (set-up) and then runs the same
library path as ``lineclust cluster``: read the input file, lift it (lifted
workload only), ``engine.run`` on one thread, ``data_io.write_results``.
Every library function the operation calls is looked up on its module at
call time, so the tracer in ``tracing.py`` sees the calls it patches.
"""

from __future__ import annotations

import os

import numpy as np

from lineclust import data_io, engine, missing_data
from lineclust.missing_data import AxisDomain
from lineclust.neighborhood import NeighbourhoodSpec
from lineclust.profiles import Profile, format_profile

LIFTED_WINDOW = (-2.5, 7.5)


def expression_dataset(seed: int):
    """Criterion 9's generator: 475 records in R^7, 4 planted clusters
    (labels 1..4), 47 uniform noise records (label 0), 71 records with one
    coordinate set to None.  Returns (records, planted)."""
    rng = np.random.default_rng(seed)
    means = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 5.0, 5.0, 5.0, 0.0, 0.0],
        [5.0, 0.0, 0.0, 0.0, 5.0, 5.0, 0.0],
    ])
    n_noise = 47
    per_cluster = (475 - n_noise) // 4
    points = []
    planted = []
    for k in range(4):
        points.append(rng.normal(means[k], 0.3, size=(per_cluster, 7)))
        planted += [k + 1] * per_cluster
    points.append(rng.uniform(-2.0, 7.0, size=(n_noise, 7)))
    planted += [0] * n_noise
    data = np.vstack(points)
    order = rng.permutation(len(data))
    data = data[order]
    planted = [planted[i] for i in order]

    records = [list(map(float, row)) for row in data]
    victims = rng.choice(len(records), size=round(0.15 * len(records)), replace=False)
    for v in victims:
        records[int(v)][int(rng.integers(7))] = None
    return records, planted


class Prepared:
    """A workload's input file plus everything needed to run and check it.

    ``planted`` maps each input record id to its planted group, for the ARI.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.lifted = name.startswith("lifted7d")
        self.input_path = os.path.join(workdir, "input.csv")
        if name == "doughnut-v1-expand":
            records = data_io.gen_doughnut(600, seed=seed)
            self.spec_args = dict(version=1, c=5, alpha=12.0)
            self.mode, self.rng_seed = "expand", 3
        elif name == "isolated-v1-literal":
            records = data_io.gen_isolated(1000)
            self.spec_args = dict(version=1, c=2, alpha=1.0)
            self.mode, self.rng_seed = "literal", seed
        elif name == "doughnut-v2-volume":
            records = data_io.gen_doughnut(120, seed=seed)
            self.spec_args = dict(version=2, c=5, volume=60.0,
                                  profile=Profile.normal(0.5, 0.04))
            self.mode, self.rng_seed = "expand", 3
        elif self.lifted:
            points, planted = expression_dataset(seed)
            ids = [f"p{i:04d}" for i in range(len(points))]
            data_io.write_points_csv(list(zip(ids, map(tuple, points))), self.input_path)
            self.spec_args = dict(version=3, c=5, alpha=1.0)
            self.mode, self.rng_seed = "expand", 0
            self.domains = {axis: AxisDomain(axis=axis, window=LIFTED_WINDOW) for axis in range(7)}
            # criterion 9 scores the complete records only
            self.planted = {rid: g for rid, g, rec in zip(ids, planted, points)
                            if all(v is not None for v in rec)}
            self.n = len(points)
        else:
            raise KeyError(name)
        if not self.lifted:
            data_io.write_segments_csv(records, self.input_path)
            self.n = len(records)
            if name.startswith("doughnut"):
                # ring chords (dense 'd' and sparse 's' arcs) against the blob
                self.planted = {r.id: 2 if r.id.startswith("b") else 1 for r in records}
            else:
                # every isolated line is planted noise
                self.planted = {r.id: 0 for r in records}

    def operation(self, out_path: str):
        """Load, lift, cluster and write results; returns (labels, ids, U)."""
        if self.lifted:
            rows = data_io.load_points_csv(self.input_path)
            lifted = missing_data.lift_dataset([values for _, values in rows], self.domains,
                                               ids=[rid for rid, _ in rows])
            U, ids = lifted.segments, lifted.source_ids
            spec = NeighbourhoodSpec(profile=lifted.profiles, **self.spec_args)
        else:
            records = data_io.load_segments_csv(self.input_path)
            U = [r.to_segment() for r in records]
            ids = [r.id for r in records]
            spec = NeighbourhoodSpec(**self.spec_args)
        cfg = engine.RunConfig(spec=spec, mode=self.mode, rng_seed=self.rng_seed, threads=1)
        labels = engine.run(U, cfg)
        profile = self.spec_args.get("profile")
        echo = {
            "input": os.path.basename(self.input_path),
            "version": spec.version,
            "c": spec.c,
            "alpha": spec.alpha,
            "volume": spec.volume,
            "profile": format_profile(profile) if profile is not None else
                       ("per-line" if self.lifted else None),
            "alpha_mode": spec.alpha_mode,
            "search_samples": spec.search_samples,
        }
        data_io.write_results(labels, out_path, ids=ids, config=echo)
        return labels, ids, U

#!/usr/bin/env python3
"""Cluster points with missing coordinates alongside complete ones.

A record missing its k-th coordinate is lifted to the axis-aligned segment
sweeping the declared window for that axis; complete records become
degenerate segments.  Version 3 then clusters everything together.  Under
the default uniform(0, 1) template a lifted record's neighbourhood is the
capsule of radius alpha around its segment, so its row is decided by the
exact distance to each target, as a complete record's row is by the plain
metric relation.  A template that is not uniform over all of [0, 1], such
as a normal, sends a lifted record's row to the witness test against its
density instead.

Run:  python demos/04_missing_entries.py
"""

import numpy as np

from lineclust import AxisDomain, NeighbourhoodSpec, RunConfig, lift_dataset, run


def main():
    rng = np.random.default_rng(5)
    # two planted groups in R^3 plus two stray records
    group_a = rng.normal((0.0, 0.0, 0.0), 0.2, size=(12, 3))
    group_b = rng.normal((4.0, 4.0, 4.0), 0.2, size=(12, 3))
    strays = np.array([[2.0, -3.0, 9.0], [-5.0, 7.0, 1.0]])
    records = [list(map(float, row)) for row in np.vstack([group_a, group_b, strays])]

    # knock one coordinate out of a few records
    for idx, axis in [(1, 2), (3, 0), (14, 1), (20, 2)]:
        records[idx][axis] = None
    ids = [f"g{i:02d}" for i in range(len(records))]

    domains = {axis: AxisDomain(axis=axis, window=(-6.0, 10.0)) for axis in range(3)}
    result = lift_dataset(records, domains, ids=ids)
    n_lifted = sum(1 for p in result.profiles if p is not None)
    print(f"lifted {len(records)} records, {n_lifted} with a missing entry")

    spec = NeighbourhoodSpec(version=3, c=4, alpha=0.9, profile=result.profiles)
    labels = run(result.segments, RunConfig(spec=spec, mode="expand", rng_seed=1))
    print(f"k={labels.k} clusters, outliers={len(labels.noise)}")

    by_source = result.labels_by_source(labels)
    for sid in ids:
        rec = records[ids.index(sid)]
        shown = ["NA" if v is None else f"{v:5.2f}" for v in rec]
        tag = by_source[sid] or "noise"
        print(f"  {sid}  ({', '.join(shown)})  -> {tag}")


if __name__ == "__main__":
    main()

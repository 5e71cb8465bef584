"""Acceptance suite: one test per release criterion, with pinned tolerances.

Each criterion is one test function, so `pytest -v` shows one PASSED/FAILED
line per criterion; each also prints a human-readable `PASS criterion N`
summary (visible with `-s`, and in the failure report otherwise).
"""

import gc
import math
import time
from collections import Counter

import numpy as np

from lineclust.data_io import gen_doughnut, gen_isolated
from lineclust.engine import RunConfig, run_expand, run_literal
from lineclust.geometry import min_distance, segment
from lineclust.missing_data import AxisDomain, lift_dataset
from lineclust.neighborhood import (
    NeighbourhoodSpec,
    RelationEvaluator,
    relates_prob,
    relates_v1,
)
from lineclust.oracle import (
    adjusted_rand_index,
    grid_min_distance,
    reference_dbscan,
    simpson_integral,
)
from lineclust.profiles import (
    Profile,
    adaptive_quadrature,
    density,
    effective_window,
    neighbourhood_volume,
    scaling_factor,
)


def announce(line: str) -> None:
    print(line, flush=True)


def random_profile(rng) -> Profile:
    fam = rng.choice(["uniform", "normal", "ellipsoidal", "gamma", "beta", "exponential"])
    if fam == "uniform":
        a = rng.uniform(-2, 0.5)
        return Profile.uniform(a, a + rng.uniform(0.2, 3))
    if fam == "normal":
        return Profile.normal(rng.uniform(-1, 2), rng.uniform(0.01, 1.0))
    if fam == "ellipsoidal":
        return Profile.ellipsoidal(rng.uniform(0.2, 3), rng.uniform(0.1, 5))
    if fam == "gamma":
        return Profile.gamma(rng.uniform(1, 6), rng.uniform(0.5, 8))
    if fam == "beta":
        return Profile.beta(rng.uniform(1, 6), rng.uniform(1, 6))
    return Profile.exponential(rng.uniform(0.3, 8))


def test_criterion_01_distance_exactness():
    """1000 random pairs in R^2..R^5: closed form within the Lipschitz bound
    of the 1e-3 grid oracle, in under 10 seconds."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        l1 = segment(rng.uniform(-10, 10, dim), rng.uniform(-10, 10, dim))
        l2 = segment(rng.uniform(-10, 10, dim), rng.uniform(-10, 10, dim))
        exact = min_distance(l1, l2).distance
        grid = grid_min_distance(l1, l2, step=1e-3)
        bound = (math.sqrt(l1.sq_length) + math.sqrt(l2.sq_length)) * 1e-3
        assert abs(exact - grid) <= bound + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"distance acceptance took {elapsed:.2f}s (budget 10s)"
    announce(f"PASS criterion 1: distance exactness, 1000 pairs in {elapsed:.2f}s")


def test_criterion_02_volume_oracles():
    """Closed-form volumes for the uniform box/cylinder; normal profile mass
    against an independent Simpson oracle within 1e-4."""
    u = Profile.uniform(0.0, 1.0)
    v2 = neighbourhood_volume(u, segment((0, 0), (1, 0)), 2)
    assert abs(v2 - 2.0) <= 1e-9
    v3 = neighbourhood_volume(u, segment((0, 0, 0), (1, 0, 0)), 3)
    assert abs(v3 - math.pi) <= 1e-9
    p = Profile.normal(0.5, 0.04)
    L = 1.0
    v = neighbourhood_volume(p, segment((0, 0), (L, 0)), 2)
    eps = 1e-6
    assert abs(v - 2 * L * (1 - 2 * eps)) <= 1e-4
    lo, hi = effective_window(p)
    oracle = 2 * L * simpson_integral(p.pdf, lo, hi)
    assert abs(v - oracle) <= 1e-4
    announce("PASS criterion 2: volume oracles (2.0, pi, truncated normal mass)")


def test_criterion_03_scaling_law():
    """Scale power law on 100 random triples; literal Definition-2 exactness
    in the plane."""
    rng = np.random.default_rng(1003)
    done = 0
    while done < 100:
        p = random_profile(rng)
        n = int(rng.choice([2, 3, 4]))
        seg = segment(rng.uniform(-3, 3, n), rng.uniform(-3, 3, n))
        if seg.is_degenerate:
            continue
        alpha = float(rng.uniform(0.2, 4.0))
        base = neighbourhood_volume(p, seg, n, 1.0)
        scaled = neighbourhood_volume(p, seg, n, alpha)
        assert abs(scaled - alpha ** (n - 1) * base) <= 1e-6 * abs(scaled)
        done += 1
    done = 0
    while done < 30:
        p = random_profile(rng)
        seg = segment(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2))
        if seg.is_degenerate:
            continue
        V = float(rng.uniform(0.5, 5.0))
        alpha = scaling_factor(V, p, seg, 2)
        assert abs(neighbourhood_volume(p, seg, 2, alpha) - V) <= 1e-6
        done += 1
    announce("PASS criterion 3: scaling law alpha^(n-1), exact volumes in 2-d")


def test_criterion_04_relation_properties():
    """Reflexivity over 1000 random lines/specs, a constructed asymmetry
    witness, and alpha-monotonicity over 500 pairs."""
    rng = np.random.default_rng(1004)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        x = rng.uniform(-5, 5, dim)
        l = segment(x, x + rng.normal(size=dim))
        version = int(rng.integers(1, 4))
        if version == 1:
            spec = NeighbourhoodSpec(version=1, c=1, alpha=float(rng.uniform(0.01, 5)))
        else:
            prof = Profile.normal(rng.uniform(0.1, 0.9), rng.uniform(0.01, 0.5))
            if version == 2:
                if l.is_degenerate:
                    continue
                spec = NeighbourhoodSpec(version=2, c=1,
                                         volume=float(rng.uniform(0.5, 4)), profile=prof)
            else:
                spec = NeighbourhoodSpec(version=3, c=1,
                                         alpha=float(rng.uniform(0.01, 5)), profile=prof)
        assert RelationEvaluator([l], spec).relates(0, 0)

    l1 = segment((0, 0), (1, 0))
    l2 = segment((0, 2), (1, 2))
    witness = NeighbourhoodSpec(version=1, c=1, alpha=[3.0, 0.5])
    assert RelationEvaluator([l1, l2], witness).relates(0, 1)
    assert not RelationEvaluator([l1, l2], witness).relates(1, 0)

    for _ in range(500):
        p = Profile.normal(rng.uniform(0.2, 0.8), rng.uniform(0.0025, 0.1))
        a = segment(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2))
        b = segment(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2))
        alpha = float(rng.uniform(0.1, 2.0))
        bigger = alpha * float(rng.uniform(1.0, 4.0))
        if rng.integers(2):
            if relates_v1(a, b, alpha):
                assert relates_v1(a, b, bigger)
        else:
            if relates_prob(a, p, alpha, b):
                assert relates_prob(a, p, bigger, b)
    announce("PASS criterion 4: reflexivity, asymmetry witness, alpha monotonicity")


def _ambiguous_border_exists(pts, eps, ref_labels, ref_core) -> bool:
    P = np.asarray(pts, dtype=np.float64)
    diff = P[:, None, :] - P[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    for p in range(len(P)):
        if ref_core[p]:
            continue
        owners = {int(ref_labels[c]) for c in range(len(P))
                  if ref_core[c] and dist[p, c] < eps}
        if len(owners) >= 2:
            return True
    return False


def test_criterion_05_dbscan_equivalence():
    """Expand mode on degenerate segments equals a reference point DBSCAN:
    identical core sets always, identical partitions when no border point is
    reachable from two clusters."""
    rng = np.random.default_rng(1005)
    eps, minpts = 0.5, 4
    unambiguous = 0
    for trial in range(20):
        centres = [(2.5, 2.5), (9.0, 3.0), (5.5, 9.0)]
        pts = np.vstack([
            rng.normal(centres[0], 0.25, size=(60, 2)),
            rng.normal(centres[1], 0.25, size=(60, 2)),
            rng.normal(centres[2], 0.25, size=(60, 2)),
            rng.uniform(0, 12, size=(20, 2)),
        ])
        lifted = lift_dataset([tuple(p) for p in pts], {})
        cfg = RunConfig(spec=NeighbourhoodSpec(version=1, c=minpts, alpha=eps),
                        mode="expand", rng_seed=trial)
        labels = run_expand(lifted.segments, cfg)
        ref_labels, ref_core = reference_dbscan(pts, eps, minpts)
        assert [bool(f) for f in labels.core_flags] == [bool(f) for f in ref_core]
        if not _ambiguous_border_exists(pts, eps, ref_labels, ref_core):
            unambiguous += 1
            ari = adjusted_rand_index(labels.labels().tolist(), ref_labels.tolist())
            assert ari == 1.0, f"trial {trial}: ARI {ari} != 1.0"
    assert unambiguous >= 15, f"only {unambiguous}/20 datasets were unambiguous"
    announce(f"PASS criterion 5: DBSCAN equivalence (core sets 20/20, "
             f"partitions {unambiguous}/20 unambiguous at ARI 1.0)")


def test_criterion_06_draw_loop_fidelity():
    """Literal mode reproduces the hand-executed trace of the 6-line fixture
    and reruns are identical."""
    # Adjacency: {0,1,2} mutual, {3,4} a pair, 5 isolated; c=3, seed=42.
    # PCG64(42) index draws over the ascending UNVISITED list: 0, 2, 1, 0.
    # Hand execution: draw 0 -> cluster {0,1,2}; draw 5 -> noise;
    # draw 4 -> noise; draw 3 -> noise.
    U = [
        segment((0.0, 0.0), (1.0, 0.0)),
        segment((0.0, 0.4), (1.0, 0.4)),
        segment((0.0, -0.4), (1.0, -0.4)),
        segment((10.0, 0.0), (11.0, 0.0)),
        segment((10.0, 0.5), (11.0, 0.5)),
        segment((20.0, 0.0), (21.0, 0.0)),
    ]
    cfg = RunConfig(spec=NeighbourhoodSpec(version=1, c=3, alpha=1.0),
                    mode="literal", rng_seed=42)
    lab = run_literal(U, cfg)
    assert lab.trace == [
        {"chosen": 0, "neighbours": 3, "decision": "cluster", "cluster": 1},
        {"chosen": 5, "neighbours": 1, "decision": "noise", "cluster": None},
        {"chosen": 4, "neighbours": 2, "decision": "noise", "cluster": None},
        {"chosen": 3, "neighbours": 2, "decision": "noise", "cluster": None},
    ]
    assert lab.seed_order == [0, 5, 4, 3]
    assert lab.clusters == [[0, 1, 2]]
    assert lab.noise == [3, 4, 5]
    assert run_literal(U, cfg) == lab
    announce("PASS criterion 6: draw-loop fidelity on the hand-executed fixture")


def test_criterion_07_complexity():
    """All-isolated worst case: exactly n^2 relation evaluations, quadratic
    wall time within [3.2, 5.0] per doubling, linear auxiliary memory.

    Timing methodology: sizes are measured in interleaved rounds and the
    per-size minimum is kept (scheduler or allocator noise only ever adds
    time), with the garbage collector paused inside the timed region.  The
    [3.2, 5.0] acceptance band itself is not relaxed.
    """
    sizes = [250, 500, 1000]
    spec = NeighbourhoodSpec(version=1, c=2, alpha=1.0)
    datasets = {n: [r.to_segment() for r in gen_isolated(n)] for n in sizes}
    # warm-up so allocator/import effects stay out of the measurement
    run_literal([r.to_segment() for r in gen_isolated(100)],
                RunConfig(spec=spec, mode="literal", rng_seed=0))
    best = {n: math.inf for n in sizes}
    for rep in range(4):
        for n in sizes:
            cfg = RunConfig(spec=spec, mode="literal", rng_seed=rep)
            gc_was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            labels = run_literal(datasets[n], cfg)
            elapsed = time.perf_counter() - start
            if gc_was_enabled:
                gc.enable()
            best[n] = min(best[n], elapsed)
            assert labels.eval_count == n * n, (
                f"n={n}: eval count {labels.eval_count} != {n * n}")
            assert labels.peak_aux <= 4 * n, (
                f"n={n}: peak auxiliary occupancy {labels.peak_aux} is not O(n)")
            assert labels.k == 0 and len(labels.noise) == n
    ratios = [best[sizes[i + 1]] / best[sizes[i]] for i in range(len(sizes) - 1)]
    for r in ratios:
        assert 3.2 <= r <= 5.0, f"wall-time ratios {ratios} leave [3.2, 5.0]"
    announce(f"PASS criterion 7: complexity (evals n^2 exact, "
             f"ratios {', '.join(f'{r:.2f}' for r in ratios)}, aux O(n))")


def test_criterion_08_figure_morphology():
    """Doughnut analog: cardinality 5 traces the annulus and the blob;
    raising it to 8 strictly shrinks the core set, line by line."""
    records = gen_doughnut(400, seed=7)
    U = [r.to_segment() for r in records]
    ids = [r.id for r in records]
    lab5 = run_expand(U, RunConfig(spec=NeighbourhoodSpec(version=1, c=5, alpha=12.0),
                                   mode="expand", rng_seed=3))
    lab8 = run_expand(U, RunConfig(spec=NeighbourhoodSpec(version=1, c=8, alpha=12.0),
                                   mode="expand", rng_seed=3))
    assert lab5.k >= 2
    blob_ids = {i for i, r in enumerate(records) if r.id.startswith("b")}
    ring_ids = {i for i, r in enumerate(records) if r.id.startswith("d")}
    best_blob = max(lab5.clusters, key=lambda cl: len(set(cl) & blob_ids))
    best_ring = max(lab5.clusters, key=lambda cl: len(set(cl) & ring_ids))
    assert len(set(best_blob) & blob_ids) >= 0.7 * len(blob_ids)
    assert len(set(best_ring) & ring_ids) >= 0.7 * len(ring_ids)
    assert not set(best_ring) & blob_ids  # ring and blob never merge
    # per-line core monotonicity, and a strict shrink overall
    for f8, f5 in zip(lab8.core_flags, lab5.core_flags):
        if f8:
            assert f5
    n_core5 = sum(1 for f in lab5.core_flags if f)
    n_core8 = sum(1 for f in lab8.core_flags if f)
    assert n_core8 < n_core5
    assert len(lab8.noise) >= len(lab5.noise)
    del ids
    announce(f"PASS criterion 8: doughnut morphology (k={lab5.k} at c=5, "
             f"core {n_core5}->{n_core8} at c=8, outliers "
             f"{len(lab5.noise)}->{len(lab8.noise)})")


def _synthetic_expression_dataset(seed: int):
    """475 records in R^7: 4 planted clusters, 10% uniform noise, 15% of
    records stripped of one coordinate.

    Cluster means differ pairwise in at least three axes.  Two lifted
    records have two free axes between them, so a pair of clusters that
    differed in only two axes could be bridged by segments missing exactly
    those axes; a third differing axis always stays fixed and keeps the
    separation.
    """
    rng = np.random.default_rng(seed)
    means = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 5.0, 5.0, 5.0, 0.0, 0.0],
        [5.0, 0.0, 0.0, 0.0, 5.0, 5.0, 0.0],
    ])
    n_noise = 47
    per_cluster = (475 - n_noise) // 4  # 107
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
    n_missing = round(0.15 * len(records))  # 71
    victims = rng.choice(len(records), size=n_missing, replace=False)
    for v in victims:
        axis = int(rng.integers(7))
        records[int(v)][axis] = None
    return records, planted


def test_criterion_09_missing_entry_recovery():
    """Planted 7-d clusters with one-missing-coordinate records: version-3
    expand recovers the partition (ARI >= 0.9 on complete records) and flags
    at least 80% of planted noise, across 5 seeds, each run under 30 s."""
    domains = {axis: AxisDomain(axis=axis, window=(-2.5, 7.5)) for axis in range(7)}
    spec_kwargs = dict(version=3, c=5, alpha=1.0)
    for seed in range(5):
        records, planted = _synthetic_expression_dataset(2000 + seed)
        result = lift_dataset(records, domains)
        spec = NeighbourhoodSpec(profile=result.profiles, **spec_kwargs)
        start = time.perf_counter()
        labels = run_expand(result.segments,
                            RunConfig(spec=spec, mode="expand", rng_seed=seed))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"seed {seed}: run took {elapsed:.1f}s (budget 30s)"

        complete = [i for i, rec in enumerate(records) if all(v is not None for v in rec)]
        predicted = labels.labels()
        ari = adjusted_rand_index([planted[i] for i in complete],
                                  [int(predicted[i]) for i in complete])
        assert ari >= 0.9, f"seed {seed}: ARI {ari:.3f} < 0.9 on complete records"

        noise_records = [i for i, p in enumerate(planted) if p == 0]
        flagged = sum(1 for i in noise_records if not labels.memberships[i])
        assert flagged >= 0.8 * len(noise_records), (
            f"seed {seed}: only {flagged}/{len(noise_records)} planted noise flagged")
    announce("PASS criterion 9: missing-entry recovery (ARI >= 0.9, "
             ">= 80% noise flagged, 5 seeds)")


def _lifted_recovered(records, planted, labels) -> int:
    """How many records with a missing entry land where their planted group
    went: in the cluster most of the group's complete records took, or in
    noise (label -1) where planted as noise.  labels holds one label per
    record."""
    complete = [all(v is not None for v in rec) for rec in records]
    majority = {g: Counter(lab for lab, p, c in zip(labels, planted, complete)
                           if p == g and c).most_common(1)[0][0]
                for g in set(planted) if g != 0}
    majority[0] = -1
    return sum(labels[i] == majority[planted[i]] for i in range(len(records)) if not complete[i])


def test_criterion_09_lifted_records_recovered():
    """Criterion 9 scores only the complete records; this scores the lifted
    ones, the records the method exists for.  Bound, fixed before it was
    run: at each of criterion 9's five seeds, at least 90% of the lifted
    records are in their planted group's majority cluster and no other, or
    in noise where they were planted as noise.  The same data with each
    missing entry imputed by its axis's mean over the known entries,
    clustered by the reference DBSCAN at the same radius and density
    (eps = alpha = 1, minpts = c = 5), is printed as a baseline, not gated."""
    domains = {axis: AxisDomain(axis=axis, window=(-2.5, 7.5)) for axis in range(7)}
    lines = []
    for seed in range(5):
        records, planted = _synthetic_expression_dataset(2000 + seed)
        result = lift_dataset(records, domains)
        spec = NeighbourhoodSpec(version=3, c=5, alpha=1.0, profile=result.profiles)
        labels = run_expand(result.segments, RunConfig(spec=spec, mode="expand", rng_seed=seed))
        # a record in more than one cluster is in no majority cluster alone
        single = [m[0] if len(m) == 1 else (None if m else -1) for m in labels.memberships]
        lifted = sum(any(v is None for v in rec) for rec in records)
        recovered = _lifted_recovered(records, planted, single)
        assert recovered >= 0.9 * lifted, f"seed {2000 + seed}: {recovered}/{lifted} lifted"

        data = np.array(records, dtype=np.float64)  # None reads as NaN
        data = np.where(np.isnan(data), np.nanmean(data, axis=0), data)
        ref_labels, _ = reference_dbscan(data, 1.0, 5)
        imputed = _lifted_recovered(records, planted, ref_labels.tolist())
        lines.append(f"seed {2000 + seed}: lifted {recovered}/{lifted}, "
                     f"mean-imputed {imputed}/{lifted}")
    announce("PASS criterion 9 (lifted records): >= 90% recovered at 5 seeds; "
             + "; ".join(lines))


def test_criterion_10_profile_correctness():
    """Every density family: normalization and support at 50 random
    parameterizations each."""
    rng = np.random.default_rng(1010)
    makers = {
        "uniform": lambda: Profile.uniform(a := rng.uniform(-3, 1), a + rng.uniform(0.1, 4)),
        "normal": lambda: Profile.normal(rng.uniform(-2, 2), rng.uniform(0.001, 2)),
        "ellipsoidal": lambda: Profile.ellipsoidal(rng.uniform(0.1, 4), rng.uniform(0.1, 9)),
        "gamma": lambda: Profile.gamma(rng.uniform(1, 10), rng.uniform(0.2, 10)),
        "beta": lambda: Profile.beta(rng.uniform(1, 10), rng.uniform(1, 10)),
        "exponential": lambda: Profile.exponential(rng.uniform(0.1, 10)),
    }
    supports = {
        "uniform": lambda p: (p.params[0], p.params[1]),
        "normal": lambda p: (-math.inf, math.inf),
        "ellipsoidal": lambda p: (-p.params[0], p.params[0]),
        "gamma": lambda p: (0.0, math.inf),
        "beta": lambda p: (0.0, 1.0),
        "exponential": lambda p: (0.0, math.inf),
    }
    for family, make in makers.items():
        for _ in range(50):
            p = make()
            lo, hi = effective_window(p, 1e-9)
            mass = adaptive_quadrature(p.pdf, lo, hi)
            assert 1.0 - 1e-6 <= mass <= 1.0 + 1e-7, f"{p}: mass {mass}"
            assert p.support() == supports[family](p)
            slo, shi = p.support()
            if math.isfinite(slo):
                assert density(p, slo - 0.25) == 0.0
            if math.isfinite(shi):
                assert density(p, shi + 0.25) == 0.0
            mid = p.mode()
            assert density(p, mid) > 0.0
    announce("PASS criterion 10: profile normalization and supports, 50x6 draws")

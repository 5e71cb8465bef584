import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lineclust
from lineclust import neighborhood
from lineclust.data_io import gen_doughnut
from lineclust.engine import (
    NOISE,
    RunConfig,
    dump_trace,
    run,
    run_expand,
    run_literal,
)
from lineclust.errors import ConfigurationError
from lineclust.geometry import segment
from lineclust.missing_data import AxisDomain, lift_dataset
from lineclust.neighborhood import NeighbourhoodSpec, RelationEvaluator
from lineclust.oracle import reference_dbscan


def collinear_chain(count, gap=0.5):
    """Unit segments on the x axis, consecutive gaps `gap`; with alpha = 1
    each segment relates exactly to itself and its immediate neighbours."""
    return [segment((i * (1 + gap), 0.0), (i * (1 + gap) + 1.0, 0.0))
            for i in range(count)]


def isolated(count, spacing=10.0):
    return [segment((spacing * i, 0.0), (spacing * i + 1.0, 0.0)) for i in range(count)]


V1 = lambda c, alpha=1.0: NeighbourhoodSpec(version=1, c=c, alpha=alpha)


class TestIsCore:
    def test_singleton(self):
        U = [segment((0, 0), (1, 0))]
        assert len(RelationEvaluator(U, V1(1)).neighbor_set(0)) >= 1
        assert not len(RelationEvaluator(U, V1(2)).neighbor_set(0)) >= 2

    def test_collinear_triple(self):
        U = collinear_chain(3)
        ev = RelationEvaluator(U, V1(3))
        assert len(ev.neighbor_set(1)) >= 3
        assert not len(ev.neighbor_set(0)) >= 3
        assert not len(ev.neighbor_set(2)) >= 3

    def test_monotone_in_c(self):
        rng = np.random.default_rng(4)
        U = [segment(rng.uniform(0, 15, 2), rng.uniform(0, 15, 2)) for _ in range(30)]
        for i in range(len(U)):
            for c_small, c_big in ((1, 3), (2, 5)):
                if len(RelationEvaluator(U, V1(c_big, 4.0)).neighbor_set(i)) >= c_big:
                    assert len(RelationEvaluator(U, V1(c_small, 4.0)).neighbor_set(i)) >= c_small


class TestLiteral:
    def test_isolated_is_noise(self):
        U = isolated(1)
        lab = run_literal(U, RunConfig(spec=V1(2), mode="literal", rng_seed=0))
        assert lab.k == 0
        assert lab.noise == [0]
        assert lab.eval_count == 1

    def test_mutual_triple_single_cluster(self):
        U = [segment((0, 0), (1, 0)), segment((0, 0.4), (1, 0.4)),
             segment((0, -0.4), (1, -0.4))]
        for seed in (0, 1, 99):
            lab = run_literal(U, RunConfig(spec=V1(3), mode="literal", rng_seed=seed))
            assert lab.clusters == [[0, 1, 2]]
            assert lab.noise == []

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(8)
        U = [segment(rng.uniform(0, 10, 2), rng.uniform(0, 10, 2)) for _ in range(25)]
        cfg = RunConfig(spec=V1(3, 2.0), mode="literal", rng_seed=123)
        assert run_literal(U, cfg) == run_literal(U, cfg)

    def test_hand_executed_trace(self):
        # Fixture adjacency: {0,1,2} mutually related, {3,4} a pair, 5 alone;
        # c = 3, seed = 42.  Neighbour sets: N0=N1=N2={0,1,2}, N3=N4={3,4},
        # N5={5}.  The PCG64(42) index draws over the ascending UNVISITED
        # list come out as 0, 2, 1, 0, so executing the draw loop by hand:
        #   draw over [0,1,2,3,4,5] -> index 0 -> line 0; |N|=3 >= 3:
        #       cluster 1 = {0,1,2}, all marked VISITED
        #   draw over [3,4,5]       -> index 2 -> line 5; |N|=1 < 3: NOISE
        #   draw over [3,4]         -> index 1 -> line 4; |N|=2 < 3: NOISE
        #   draw over [3]           -> index 0 -> line 3; |N|=2 < 3: NOISE
        U = [
            segment((0.0, 0.0), (1.0, 0.0)),
            segment((0.0, 0.4), (1.0, 0.4)),
            segment((0.0, -0.4), (1.0, -0.4)),
            segment((10.0, 0.0), (11.0, 0.0)),
            segment((10.0, 0.5), (11.0, 0.5)),
            segment((20.0, 0.0), (21.0, 0.0)),
        ]
        cfg = RunConfig(spec=V1(3), mode="literal", rng_seed=42)
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
        assert lab.eval_count == 4 * 6
        # byte-identical rerun
        again = run_literal(U, cfg)
        assert again == lab

    def test_noise_can_be_absorbed_later(self):
        # end segment drawn first becomes noise, then joins the middle's cluster
        U = collinear_chain(3)
        for seed in range(30):
            lab = run_literal(U, RunConfig(spec=V1(3), mode="literal", rng_seed=seed))
            if lab.seed_order[0] in (0, 2) and len(lab.seed_order) > 1 \
                    and lab.seed_order[1] == 1:
                assert lab.memberships[lab.seed_order[0]] == [1]
                break
        else:
            pytest.skip("no seed below 30 produced the end-then-middle draw order")

    def test_multi_membership_recorded(self):
        # line 1 is in both stars: N0={0,1}, N2={1,2}, with c=2
        U = collinear_chain(3)
        for seed in range(40):
            lab = run_literal(U, RunConfig(spec=V1(2), mode="literal", rng_seed=seed))
            if sorted(lab.seed_order[:2]) == [0, 2]:
                assert lab.memberships[1] == [1, 2]
                assert lab.clusters_may_overlap
                break
        else:
            pytest.skip("no seed below 40 drew both ends first")


class TestExpand:
    def test_chain_single_cluster_vs_literal(self):
        U = collinear_chain(10)
        cfg = RunConfig(spec=V1(2), mode="expand", rng_seed=5)
        lab = run_expand(U, cfg)
        assert lab.k == 1
        assert lab.clusters[0] == list(range(10))
        assert lab.noise == []
        lit = run_literal(U, RunConfig(spec=V1(2), mode="literal", rng_seed=5))
        assert lit.k >= 2  # one-hop stars cannot cover the chain

    def test_isolated_noise_both_modes(self):
        U = isolated(4)
        for mode, fn in (("literal", run_literal), ("expand", run_expand)):
            lab = fn(U, RunConfig(spec=V1(2), mode=mode, rng_seed=9))
            assert lab.k == 0
            assert lab.noise == [0, 1, 2, 3]

    def test_single_membership(self):
        rng = np.random.default_rng(14)
        U = [segment(rng.uniform(0, 12, 2), rng.uniform(0, 12, 2)) for _ in range(60)]
        lab = run_expand(U, RunConfig(spec=V1(3, 2.5), mode="expand", rng_seed=2))
        assert all(len(m) <= 1 for m in lab.memberships)
        assert not lab.clusters_may_overlap

    def test_point_dbscan_equivalence(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            pts = np.vstack([
                rng.normal((2, 2), 0.4, size=(30, 2)),
                rng.normal((8, 8), 0.4, size=(30, 2)),
                rng.uniform(0, 10, size=(8, 2)),
            ])
            U = [segment(p, p) for p in pts]
            eps, minpts = 0.9, 4
            lab = run_expand(U, RunConfig(spec=V1(minpts, eps), mode="expand",
                                          rng_seed=trial))
            ref_labels, ref_core = reference_dbscan(pts, eps, minpts)
            assert [bool(f) for f in lab.core_flags] == [bool(f) for f in ref_core]

    def test_every_line_labelled(self):
        rng = np.random.default_rng(31)
        U = [segment(rng.uniform(0, 20, 2), rng.uniform(0, 20, 2)) for _ in range(50)]
        for mode, fn in (("literal", run_literal), ("expand", run_expand)):
            lab = fn(U, RunConfig(spec=V1(3, 2.0), mode=mode, rng_seed=7))
            assert len(lab.memberships) == len(U)
            in_cluster = {i for cl in lab.clusters for i in cl}
            assert in_cluster | set(lab.noise) == set(range(len(U)))

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(44)
        U = [segment(rng.uniform(0, 10, 2), rng.uniform(0, 10, 2)) for _ in range(30)]
        cfg = RunConfig(spec=V1(3, 2.0), mode="expand", rng_seed=321)
        assert run_expand(U, cfg) == run_expand(U, cfg)


class TestInstrumentation:
    def test_eval_counts_isolated(self):
        for n in (1, 10, 40):
            U = isolated(n)
            lab = run_literal(U, RunConfig(spec=V1(2), mode="literal", rng_seed=0))
            assert lab.eval_count == n * n

    def test_eval_count_all_related(self):
        n = 12
        U = [segment((0, 0.01 * i), (1, 0.01 * i)) for i in range(n)]
        lab = run_literal(U, RunConfig(spec=V1(2), mode="literal", rng_seed=0))
        assert lab.eval_count == n  # one draw clusters everything

    def test_literal_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            U = [segment(rng.uniform(0, 25, 2), rng.uniform(0, 25, 2)) for _ in range(n)]
            lab = run_literal(U, RunConfig(spec=V1(3, 2.0), mode="literal",
                                           rng_seed=int(rng.integers(1000))))
            assert lab.eval_count <= n * n

    def test_peak_aux_linear(self):
        for n in (20, 80):
            U = isolated(n)
            lab = run_literal(U, RunConfig(spec=V1(2), mode="literal", rng_seed=0))
            assert lab.peak_aux <= 4 * n
            lab2 = run_expand(U, RunConfig(spec=V1(2), mode="expand", rng_seed=0))
            assert lab2.peak_aux <= 4 * n

    def test_labels_array(self):
        U = collinear_chain(3) + [segment((100.0, 0.0), (101.0, 0.0))]
        lab = run_expand(U, RunConfig(spec=V1(2), mode="expand", rng_seed=1))
        arr = lab.labels()
        assert arr[3] == NOISE
        assert set(arr[:3]) == {1}

    def test_trace_dump_is_jsonl(self, tmp_path):
        U = collinear_chain(4)
        lab = run_expand(U, RunConfig(spec=V1(2), mode="expand", rng_seed=6))
        path = tmp_path / "trace.jsonl"
        dump_trace(lab, path)
        import json
        lines = path.read_text().splitlines()
        assert len(lines) == len(lab.trace)
        for rec_text, rec in zip(lines, lab.trace):
            assert json.loads(rec_text) == rec

    def test_dispatcher(self):
        U = isolated(3)
        lit = run(U, RunConfig(spec=V1(2), mode="literal", rng_seed=0))
        exp = run(U, RunConfig(spec=V1(2), mode="expand", rng_seed=0))
        assert lit.mode == "literal" and exp.mode == "expand"

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            run_literal([], RunConfig(spec=V1(1), mode="literal", rng_seed=0))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(spec=V1(1), mode="both", rng_seed=0)

    @pytest.mark.parametrize("seed", [True, -1, 1.5, 2.0, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # True would otherwise run as seed 1, and -1 or 1.5 fail only inside run
        with pytest.raises(ConfigurationError, match="rng_seed must be a non-negative integer"):
            RunConfig(spec=V1(1), rng_seed=seed)

    def test_threads_other_than_one_rejected(self):
        RunConfig(spec=V1(1), threads=1)
        for threads in (0, 2, 4):
            with pytest.raises(ConfigurationError):
                RunConfig(spec=V1(1), threads=threads)


class TestRelationGraph:
    """Before its first draw run_expand has RelationEvaluator.build_graph
    decide every row, the metric rows in blocks of at most PAIR_BUDGET
    pairs, and serves each neighbour set from that graph.  run_literal,
    which computes only the rows it draws, builds none.  The graph changes
    no output byte; peak_aux counts its slots and entries."""

    @staticmethod
    def _datasets():
        rng = np.random.default_rng(17)
        doughnut = [r.to_segment() for r in gen_doughnut(120, seed=3)]
        yield doughnut, V1(5, 12.0)
        records = [[float(v) for v in rng.normal(scale=0.8, size=3)] for _ in range(60)]
        for k in range(1, 60, 4):
            records[k][k % 3] = None
        domains = {axis: AxisDomain(axis=axis, window=(-3.0, 3.0)) for axis in range(3)}
        lifted = lift_dataset(records, domains)
        yield lifted.segments, NeighbourhoodSpec(version=3, c=4, alpha=0.6,
                                                 profile=lifted.profiles)

    @staticmethod
    def _outputs(labels):
        return (labels.memberships, labels.core_flags, labels.trace, labels.clusters,
                labels.eval_count, labels.undecided_count)

    @staticmethod
    def _on_demand(m):
        """Within the monkeypatch context m, run_expand decides rows on demand."""
        m.setattr(RelationEvaluator, "build_graph", lambda ev: None)

    def test_blocks_are_bounded_and_every_row_served(self, monkeypatch):
        # each block keeps to the pair budget, a single row where one row
        # alone is over it, and every row of the graph is served once
        real_build, real_rows = RelationEvaluator.build_graph, RelationEvaluator._metric_rows
        real_served = RelationEvaluator.neighbor_set
        events, evaluators = [], []

        def build(ev):
            events.append("build")
            evaluators.append(ev)
            real_build(ev)
        monkeypatch.setattr(RelationEvaluator, "build_graph", build)
        monkeypatch.setattr(RelationEvaluator, "_metric_rows",
                            lambda ev, rows, js: events.append(len(rows)) or real_rows(ev, rows, js))
        monkeypatch.setattr(RelationEvaluator, "neighbor_set",
                            lambda ev, i: events.append(("row", i)) or real_served(ev, i))
        for budget in (neighborhood.PAIR_BUDGET, 1000, 50):
            monkeypatch.setattr(neighborhood, "PAIR_BUDGET", budget)
            for U, spec in self._datasets():
                n = len(U)
                for seed in range(4):
                    events.clear()
                    evaluators.clear()
                    run_expand(U, RunConfig(spec=spec, rng_seed=seed))
                    (ev,) = evaluators  # built once, before the first row is served
                    first = next(k for k, e in enumerate(events) if isinstance(e, tuple))
                    assert events[0] == "build"
                    blocks, served = events[1:first], events[first:]
                    assert all(isinstance(e, tuple) for e in served)  # nothing decided late
                    assert sum(blocks) == ev.searched.count(False)
                    assert all(k == max(1, budget // n) for k in blocks[:-1])
                    assert all(k * n <= budget or k == 1 for k in blocks)
                    assert (max(blocks) > 1) == (budget >= 2 * n)  # blocks of many rows
                    assert sorted(i for _, i in served) == list(range(n))
                    assert len(ev.graph) == n
                    assert all(row.dtype == np.int32 for row in ev.graph)

    def test_graph_changes_no_output(self, monkeypatch):
        for U, spec in self._datasets():
            graph = RelationEvaluator(U, spec)
            graph.build_graph()
            for seed in (0, 3):
                cfg = RunConfig(spec=spec, rng_seed=seed)
                built = run_expand(U, cfg)
                with monkeypatch.context() as m:
                    self._on_demand(m)
                    on_demand = run_expand(U, cfg)
                assert repr(self._outputs(built)) == repr(self._outputs(on_demand))
                # the gauge adds the graph's n slots and its entries
                assert built.peak_aux == (on_demand.peak_aux + len(U)
                                          + sum(len(row) for row in graph.graph))

    def test_literal_never_builds(self, monkeypatch):
        def refuse(ev):
            raise AssertionError("run_literal built the relation graph")
        monkeypatch.setattr(RelationEvaluator, "build_graph", refuse)
        for U, spec in self._datasets():
            run_literal(U, RunConfig(spec=spec, mode="literal", rng_seed=3))

    def test_min_distance_only_on_the_diagonal(self, monkeypatch):
        calls = []

        def counted(l1, l2, _real=neighborhood.min_distance):
            calls.append(l1 is l2)
            return _real(l1, l2)
        monkeypatch.setattr(neighborhood, "min_distance", counted)
        for built in (True, False):
            with monkeypatch.context() as m:
                if not built:
                    self._on_demand(m)
                for U, spec in self._datasets():
                    # metric lines, those not searched: every line of both
                    # datasets, the lifted ones being capsules under the
                    # default uniform template
                    metric = RelationEvaluator(U, spec).searched.count(False)
                    assert metric == len(U)
                    calls.clear()
                    labels = run_expand(U, RunConfig(spec=spec, rng_seed=3))
                    assert all(calls) and len(calls) == metric
                    assert labels.eval_count == len(U) ** 2


# a version 1 run, version 2 runs with every profile family but gamma (one in
# exact-volume mode, in 3-d) and a lifted version 3 run, in a process where
# any import of scipy fails
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from lineclust import (AxisDomain, NeighbourhoodSpec, Profile, RunConfig,
                       lift_dataset, run, segment)
U = [segment((0.0, 0.0), (1.0, 0.0)), segment((0.0, 0.5), (1.0, 0.5)),
     segment((9.0, 0.0), (10.0, 0.0))]
specs = [NeighbourhoodSpec(version=1, c=2, alpha=1.0),
         NeighbourhoodSpec(version=2, c=2, volume=1.0, profile=Profile.normal(0.5, 0.04))]
specs += [NeighbourhoodSpec(version=2, c=2, volume=2.0, profile=p)
          for p in (Profile.uniform(0.0, 1.0), Profile.beta(2.0, 2.0),
                    Profile.ellipsoidal(0.6, 1.0), Profile.exponential(2.0))]
for spec in specs:
    print(run(U, RunConfig(spec=spec)).memberships)
U3 = [segment((*l.x, 0.0), (*l.y, 0.0)) for l in U]
spec = NeighbourhoodSpec(version=2, c=2, volume=4.0, profile=Profile.normal(0.5, 0.04),
                         alpha_mode="exact-volume")
print(run(U3, RunConfig(spec=spec)).memberships)
lifted = lift_dataset([[0.0, 0.0], [0.2, None], [9.0, 9.0]],
                      {1: AxisDomain(axis=1, window=(-1.0, 1.0))})
spec = NeighbourhoodSpec(version=3, c=2, alpha=0.5, profile=lifted.profiles)
print(run(lifted.segments, RunConfig(spec=spec)).memberships)
"""


class TestPublicApi:
    def test_runs_without_scipy(self):
        # scipy is imported only for a gamma window or volume; none of these runs needs one
        env = dict(os.environ, PYTHONPATH=str(Path(lineclust.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[[1], [1], []]"] * 8

    def test_every_exported_name_resolves(self):
        for name in lineclust.__all__:
            assert getattr(lineclust, name) is not None, name

    def test_removed_wrappers_not_exported(self):
        for name in ("relates", "neighbor_set", "is_core", "relation_eval_count",
                     "param_point", "length", "relates_v1", "relates_prob",
                     "unit_ball_volume", "ClosestPointResult", "Support", "LiftedPoint",
                     "adaptive_quadrature", "density", "peak_density",
                     "exact_volume_scaling_factor", "format_profile", "parse_profile"):
            assert name not in lineclust.__all__
            assert not hasattr(lineclust, name)

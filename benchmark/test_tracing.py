"""Self-tests of the traced run, one traced pair per workload.

    python3 -m pytest benchmark/test_tracing.py -q

Each workload runs once untraced and twice traced (about a minute in all).
"""

from __future__ import annotations

import pytest

import worker  # puts the checkout's src/ first on sys.path
from catalog import WORKLOADS
from lineclust import geometry, neighborhood, profiles
from workloads import Prepared


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request, tmp_path_factory):
    name = request.param
    prepared = Prepared(name, WORKLOADS[name], str(tmp_path_factory.mktemp(name)))
    out = str(tmp_path_factory.getbasetemp() / f"{name}.json")
    plain = worker.run_once(prepared, out, traced=False)
    traced = [worker.run_once(prepared, out, traced=True) for _ in range(2)]
    layers = [op.tracer.layer_metrics(op.labels, len(op.results))[0] for op in traced]
    return prepared, plain, traced, layers


def test_traced_results_bytes_equal_untraced(runs):
    _, plain, traced, _ = runs
    assert all(op.results == plain.results for op in traced)


def test_traced_counts_repeat(runs):
    _, _, _, (first, second) = runs
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_count_identities(runs):
    prepared, _, _, (layer, _) = runs
    n = prepared.n
    assert layer["neighborhood.pairs"] == n * n
    assert layer["neighborhood.v1_calls"] + layer["neighborhood.witness_calls"] == n * n
    assert layer["neighborhood.rows"] == n
    if prepared.name == "isolated-v1-literal":
        assert layer["geometry.min_distance_calls"] == n  # self-pairs only
        assert layer["engine.draws"] == n
    if prepared.name == "doughnut-v2-volume":
        assert layer["profiles.alpha_calls"] == n
    assert worker.trace_errors(prepared, layer, None) == []


def test_spans_nest_and_cover_rows(runs):
    _, _, traced, _ = runs
    tracer = traced[0].tracer
    root = tracer.spans[0]
    assert root.name == "operation" and root.parent is None
    for span in tracer.spans[1:]:
        assert span.parent.start <= span.start <= span.end <= span.parent.end
    run_span = next(s for s in tracer.spans if s.name == "engine.run")
    assert all(s.parent is run_span for s in tracer.spans if s.name == "neighborhood.row")


def test_tracer_restores_the_library(runs):
    assert neighborhood.min_distance is geometry.min_distance
    assert neighborhood.density is profiles.density
    assert "neighbor_set" in vars(neighborhood.RelationEvaluator)
    assert neighborhood.RelationEvaluator.neighbor_set.__qualname__ == "RelationEvaluator.neighbor_set"

"""Every neighbour set of the benchmark's datasets, pinned by one digest.

Each case builds a workload's dataset and relation the way
`benchmark/workloads.py` does, from the same generators (criterion 9's for
the lifted 7-d records), and hashes `repr(sorted(ev.neighbor_set(i)))` for
every line i in order into one sha256.  A change that moves any decision of
any row moves the digest, and a pair the witness search leaves undecided
fails the case, so a refactor that claims to keep every decision is checked
here rather than by hand.

The benchmark's datasets send few pairs below the witness search's root
grid, so a seeded corpus of small version 3 datasets pins that search too:
every family of f1 (normal variances down to 1e-7, spikes the root grid
misses), segments, lines and points, density-free lines and root grids of
64, 17 and 5 samples, set through the module constant ROOT_SAMPLES.  Its
digest also takes each evaluator's undecided count, and the corpus holds
undecided pairs, so the pairs the search cannot certify are pinned as well.
"""

import hashlib

import numpy as np
import pytest
from test_acceptance import _synthetic_expression_dataset
from test_witness_search import FAMILIES, random_profile

from lineclust import neighborhood
from lineclust.data_io import gen_doughnut, gen_isolated
from lineclust.geometry import line, segment
from lineclust.missing_data import AxisDomain, lift_dataset
from lineclust.neighborhood import NeighbourhoodSpec, RelationEvaluator
from lineclust.profiles import Profile


def _doughnut_v1(seed):
    U = [r.to_segment() for r in gen_doughnut(600, seed=seed)]
    return U, NeighbourhoodSpec(version=1, c=5, alpha=12.0)


def _isolated(seed):
    U = [r.to_segment() for r in gen_isolated(1000)]
    return U, NeighbourhoodSpec(version=1, c=2, alpha=1.0)


def _lifted7d(seed):
    records, _ = _synthetic_expression_dataset(seed)
    domains = {axis: AxisDomain(axis=axis, window=(-2.5, 7.5)) for axis in range(7)}
    lifted = lift_dataset(records, domains)
    return lifted.segments, NeighbourhoodSpec(version=3, c=5, alpha=1.0, profile=lifted.profiles)


def _doughnut_v2(seed):
    U = [r.to_segment() for r in gen_doughnut(120, seed=seed)]
    return U, NeighbourhoodSpec(version=2, c=5, volume=60.0, profile=Profile.normal(0.5, 0.04))


@pytest.mark.parametrize("build, seed, digest", [
    (_doughnut_v1, 1, "7be74541476e"),
    (_doughnut_v1, 7, "ac30dc95e3bd"),
    (_doughnut_v1, 8, "7859b8776eca"),
    (_isolated, 0, "ddd2ac9f356e"),
    (_lifted7d, 2000, "6394127579be"),
    (_lifted7d, 2001, "e546f405e62c"),
    (_lifted7d, 2005, "aee50c0bc921"),
    (_doughnut_v2, 1, "b952d4376a84"),
    (_doughnut_v2, 7, "1f52abacf097"),
    (_doughnut_v2, 10, "a454ce596546"),
    (_doughnut_v2, 11, "fac83399c791"),
], ids=lambda v: v.__name__.lstrip("_") if callable(v) else None)
def test_neighbour_sets_are_pinned(build, seed, digest):
    U, spec = build(seed)
    ev = RelationEvaluator(U, spec)
    h = hashlib.sha256()
    for i in range(len(U)):
        h.update(repr(sorted(ev.neighbor_set(i))).encode())
    assert h.hexdigest()[:len(digest)] == digest
    assert ev.undecided_count == 0


def _corpus_profile(rng, family):
    """random_profile's draw, a normal's variance down to 1e-7: a spike of
    f1 that root grids miss."""
    if family == "normal":
        return Profile.normal(rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-7.0, -1.0))
    return random_profile(rng, family)


def _corpus_dataset(seed):
    """Dataset seed of the corpus: 10 to 40 lines in dimension 2, 3 or 7,
    about 10% points, 20% lines and the rest segments, about 10% of them
    without a density, and the root grid it runs on, 64, 17 or 5 samples."""
    rng = np.random.default_rng([7, seed])
    dim = (2, 3, 7)[seed % 3]
    U, profiles = [], []
    for k in range(int(rng.integers(10, 41))):
        x = rng.uniform(-2.0, 2.0, dim)
        y = x + rng.normal(size=dim) * rng.uniform(0.2, 3.0)
        kind = rng.random()
        U.append(segment(x, x) if kind < 0.1 else line(x, y) if kind < 0.3 else segment(x, y))
        profiles.append(None if rng.random() < 0.1 else _corpus_profile(rng, FAMILIES[k % 6]))
    spec = NeighbourhoodSpec(version=3, c=1, alpha=float(rng.uniform(0.05, 1.0)),
                             profile=profiles)
    return U, spec, (64, 17, 5)[seed // 3 % 3]


def test_witness_search_corpus_is_pinned(monkeypatch):
    """The corpus's 60 datasets hold 47,382 pairs.  904 of them leave the
    root grid with a kept cell and no hit, and 619 of those find a witness
    below it."""
    h = hashlib.sha256()
    undecided = 0
    for seed in range(60):
        U, spec, samples = _corpus_dataset(seed)
        monkeypatch.setattr(neighborhood, "ROOT_SAMPLES", samples)
        ev = RelationEvaluator(U, spec)
        for i in range(len(U)):
            h.update(repr(sorted(ev.neighbor_set(i))).encode())
        h.update(repr(ev.undecided_count).encode())
        undecided += ev.undecided_count
    assert h.hexdigest()[:12] == "881a4361652e"
    assert undecided > 0  # the corpus reaches pairs the search cannot certify
    assert undecided == 17

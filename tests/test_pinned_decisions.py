"""Every neighbour set of the benchmark's datasets, pinned by one digest.

Each case builds a workload's dataset and relation the way
`benchmark/workloads.py` does, from the same generators (criterion 9's for
the lifted 7-d records), and hashes `repr(sorted(ev.neighbor_set(i)))` for
every line i in order into one sha256.  A change that moves any decision of
any row moves the digest, and a pair the witness search leaves undecided
fails the case, so a refactor that claims to keep every decision is checked
here rather than by hand.
"""

import hashlib

import pytest
from test_acceptance import _synthetic_expression_dataset

from lineclust.data_io import gen_doughnut, gen_isolated
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

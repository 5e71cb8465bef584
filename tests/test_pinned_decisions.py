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
digest also takes each evaluator's undecided count, which is 0.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from test_acceptance import _synthetic_expression_dataset
from test_witness_search import FAMILIES, random_profile

from lineclust import neighborhood
from lineclust.data_io import gen_doughnut, gen_isolated
from lineclust.geometry import line, min_distance, segment
from lineclust.missing_data import AxisDomain, lift_dataset
from lineclust.neighborhood import NeighbourhoodSpec, RelationEvaluator
from lineclust.oracle import reference_foot
from lineclust.profiles import Profile, density, effective_window


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
    """The corpus's 60 datasets hold 47,382 pairs, of which 6,937 relate.
    896 of them leave the root grid with a kept cell and no hit, and 628 of
    those find a witness below it.

    The digest moved, from 8bc3e3e6b627 at 7,040 relations, when a
    density-free row began to measure to each target's witness piece
    instead of its whole carrier.  Every one of the 103 relations that went
    was a density-free row against a profiled target: 2 targets have an
    empty witness domain, and the other 101 lie out of reach of every
    completion their density allows, which
    test_density_free_rows_match_a_sampled_reference confirms without the
    distance kernel.  No relation came."""
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
    assert h.hexdigest()[:12] == "59203f17a440"
    assert undecided == 0


def _piece_window(l1, l2, lo, hi):
    """A finite interval of l2's parameter that holds a point of l2's
    witness piece [lo, hi] nearest to l1: the piece itself when it is
    bounded.  On a whole line l2 a point of it nearest to l1 lies within
    dist(c1, l2) + 2 h1 of the foot of l1's centre c1 (h1 its half-length)
    when l1 is a segment; for a line l1 it is the least squares point, in
    plain numpy."""
    if math.isfinite(lo):
        return lo, hi
    speed = math.sqrt(l2.sq_length)
    if not l1.is_line:
        s0, sq = reference_foot(l1.center, l2)
        r = (math.sqrt(sq) + 2.0 * l1.half_length) / speed
        return s0 - r, s0 + r
    # |P (x2 - x1 + s d2)| with P the projection off d1, least at s0
    def off(v):
        return v - (v @ l1.direction) / l1.sq_length * l1.direction
    pr, pd = off(l2.x - l1.x), off(l2.direction)
    s0 = -(pr @ pd) / (pd @ pd) if pd @ pd > 1e-12 * l2.sq_length else 0.0
    return s0 - 1.0, s0 + 1.0


def _sampled_decision(l1, alpha, l2, lo, hi, rel=1e-9, samples=33, rounds=8):
    """Does l1 relate, by the distance alpha, to the witness piece [lo, hi]
    of l2, from oracle.reference_foot alone: True, False, or None in the
    tie band.  The distance from l1 to g2(s) is convex in s, with slope at
    most |d2|, so over a grid of step h the least sampled distance m is at
    most h |d2| / 2 above the piece's distance.  m < alpha (1 - rel) is
    True and m - h |d2| / 2 >= alpha (1 + rel) False; between the two the
    grid shrinks to the cells beside the least sample, up to rounds
    times, and a pair still between them is a tie."""
    if hi < lo:
        return False
    a, b = _piece_window(l1, l2, lo, hi)
    speed = math.sqrt(l2.sq_length)
    for _ in range(rounds):
        s = np.linspace(a, b, samples)
        d = [math.sqrt(reference_foot(l2.x + l2.direction * t, l1)[1]) for t in s]
        k = int(np.argmin(d))
        if d[k] < alpha * (1.0 - rel):
            return True
        if d[k] - 0.5 * (s[1] - s[0]) * speed >= alpha * (1.0 + rel):
            return False
        a, b = s[max(k - 1, 0)], s[min(k + 1, samples - 1)]
    return None


def test_density_free_rows_match_a_sampled_reference():
    """Every pair of every density-free row of the corpus, against a
    decision that shares no code with the distance kernel: the target's
    witness piece, its parameter domain cut to its own density's effective
    window, sampled with oracle.reference_foot (_sampled_decision).  A pair
    whose sampled distance lies within the grid's error of alpha, after
    refinement, or within 1e-9 of it relative to alpha, is a tie and not
    compared; there are none.  An empty witness domain relates to
    nothing."""
    pairs = ties = 0
    for seed in range(60):
        U, spec, _ = _corpus_dataset(seed)
        ev = RelationEvaluator(U, spec)
        for i, l1 in enumerate(U):
            if spec.profile[i] is not None:
                continue
            got = ev.neighbor_set(i)
            for j, l2 in enumerate(U):
                lo, hi = (-math.inf, math.inf) if l2.is_line else (0.0, 1.0)
                if spec.profile[j] is not None:
                    w = effective_window(spec.profile[j])
                    lo, hi = max(lo, w[0]), min(hi, w[1])
                want = _sampled_decision(l1, spec.alpha, l2, lo, hi)
                pairs += 1
                if want is None:
                    ties += 1
                else:
                    assert (j in got) == want, (seed, i, j)
    assert pairs > 3000 and ties == 0


def test_density_free_segment_rows_equal_their_capsule():
    """A density-free segment or point and the same line under
    uniform(0, 1), a capsule of the same radius, measure the same set: the
    line itself to each target's witness piece.  So each density-free
    segment row of the corpus gives the same neighbour set either way."""
    rows = 0
    for seed in range(60):
        U, spec, _ = _corpus_dataset(seed)
        ev = RelationEvaluator(U, spec)
        for i, l in enumerate(U):
            if spec.profile[i] is not None or l.is_line:
                continue
            capsule = list(spec.profile)
            capsule[i] = Profile.uniform(0.0, 1.0)
            twin = RelationEvaluator(U, dataclasses.replace(spec, profile=capsule))
            assert not twin.searched[i]
            assert twin.neighbor_set(i) == ev.neighbor_set(i), (seed, i)
            rows += 1
    assert rows == 117


# (seed, i, j) of the corpus pairs the search left undecided while a segment
# read f1 uncut over [0, 1]
CORPUS_CROSSINGS = [
    (0, 1, 22), (0, 1, 28), (3, 25, 9), (3, 31, 26), (12, 1, 35), (15, 25, 17),
    (15, 25, 20), (21, 13, 15), (21, 25, 0), (21, 25, 22), (27, 7, 2), (33, 13, 26),
    (33, 25, 5), (42, 1, 2), (42, 13, 18), (45, 19, 9), (57, 31, 16),
]


@pytest.mark.parametrize("seed, i, j", CORPUS_CROSSINGS)
def test_crossings_outside_the_reach_are_decided(monkeypatch, seed, i, j):
    """l2 crosses the segment l1 at a t* outside f1's effective window, where
    alpha1 * f1 is positive but below 1e-18: f1 read uncut left the cells
    there unpruned and the pair undecided.  Cut to the window, it is 0
    there, and the pair is unrelated, with none undecided."""
    U, spec, samples = _corpus_dataset(seed)
    monkeypatch.setattr(neighborhood, "ROOT_SAMPLES", samples)
    crossing = min_distance(U[i], U[j])
    lo, hi = effective_window(spec.profile[i])
    assert U[i].kind == "segment" and crossing.distance < 1e-15
    assert not lo <= crossing.t1 <= hi
    assert 0.0 < spec.alpha * density(spec.profile[i], crossing.t1) < 1e-18
    ev = RelationEvaluator(U, spec)
    assert ev.relates(i, j) is False
    assert ev.undecided_count == 0

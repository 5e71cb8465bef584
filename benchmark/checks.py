"""Output checks, run outside the timed region.

Per operation: the relation count, membership, the isolated worst case's
labels, byte-identical results across repetitions, and the lifted ARI gate.
Per run: the relation itself on a seeded sample of pairs, against references
that do not go through ``RelationEvaluator``'s decision path (the grid
distance oracle for version 1; dense numpy sampling of l2 for version 2).
``oracle.relation_matrix`` is not used: it calls the production evaluator.
"""

from __future__ import annotations

import math

import numpy as np

from lineclust import oracle
from lineclust.neighborhood import NeighbourhoodSpec, RelationEvaluator

ARI_GATE = 0.9  # criterion 9
GRID_STEP = 2e-3
PAIR_SAMPLE = 80
WITNESS_SAMPLES = 4001


def ari(prepared, labels, ids) -> float:
    """ARI of the labels against the planted groups, over the planted ids."""
    predicted = labels.labels()
    keep = [k for k, rid in enumerate(ids) if rid in prepared.planted]
    return oracle.adjusted_rand_index([prepared.planted[ids[k]] for k in keep],
                                      [int(predicted[k]) for k in keep])


def operation_errors(prepared, labels, ids, results: bytes, reference: bytes | None,
                     ari_value: float) -> list[str]:
    """Everything wrong with one operation's output; empty when it passes."""
    n = prepared.n
    errors = []
    if labels.eval_count != n * n:
        errors.append(f"eval_count {labels.eval_count} != n^2 = {n * n}")
    if len(labels.memberships) != n or len(ids) != n:
        errors.append(f"{len(labels.memberships)} labels for {n} records")
    if prepared.mode == "expand" and any(len(m) > 1 for m in labels.memberships):
        errors.append("a line has several memberships in expand mode")
    if prepared.name == "isolated-v1-literal" and (labels.k != 0 or len(labels.noise) != n):
        errors.append(f"isolated lines clustered: k={labels.k}, noise={len(labels.noise)}")
    if reference is not None and results != reference:
        errors.append("results JSON differs from the first repetition")
    if prepared.lifted and not ari_value >= ARI_GATE:
        errors.append(f"ARI {ari_value:.4f} < {ARI_GATE} on complete records")
    return errors


def _sample_pairs(U, rng, reach: float) -> list[tuple[int, int]]:
    """Half of the sample among pairs whose centres lie within `reach` plus
    both half lengths (where the decision is not made by the bound), half
    uniform over all pairs."""
    n = len(U)
    centres = np.array([l.center for l in U])
    half = np.array([l.half_length for l in U])
    gap = np.linalg.norm(centres[:, None, :] - centres[None, :, :], axis=2) - half[:, None] - half[None, :]
    near = np.argwhere(gap < reach)
    picks = near[rng.choice(len(near), size=min(PAIR_SAMPLE // 2, len(near)), replace=False)]
    pairs = [(int(i), int(j)) for i, j in picks]
    pairs += [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(PAIR_SAMPLE - len(pairs))]
    return pairs


def relation_errors(prepared, U, seed: int) -> list[str]:
    """Sampled relation decisions checked against an independent reference."""
    name = prepared.name
    if name == "doughnut-v1-expand":
        return _v1_errors(prepared, U, np.random.default_rng([seed, 1]))
    if name == "doughnut-v2-volume":
        return _v2_errors(prepared, U, np.random.default_rng([seed, 2]))
    return []


def _v1_errors(prepared, U, rng) -> list[str]:
    alpha = prepared.spec_args["alpha"]
    ev = RelationEvaluator(U, NeighbourhoodSpec(**prepared.spec_args))
    errors = []
    decided = set()
    for i, j in _sample_pairs(U, rng, 2.0 * alpha):
        l1, l2 = U[i], U[j]
        d = oracle.grid_min_distance(l1, l2, step=GRID_STEP)
        # the grid value upper-bounds the true distance within this slack
        slack = (math.sqrt(l1.sq_length) + math.sqrt(l2.sq_length)) * GRID_STEP
        if d - slack < alpha <= d:
            continue
        expected = d < alpha
        decided.add(expected)
        if ev.relates(i, j) != expected:
            errors.append(f"pair ({i}, {j}): relates={not expected}, grid distance {d:.6f}, alpha {alpha}")
    if decided != {True, False}:
        errors.append("the sampled pairs do not hold both outcomes; the check tested too little")
    return errors


def _v2_errors(prepared, U, rng) -> list[str]:
    """One way: a witness found by dense sampling of l2 must make the pair relate.

    alpha1 = V / (c_1 |d1| * mass of the profile), with the mass integrated
    by fixed-panel Simpson over mean +- 12 sd; the production derivation
    integrates over a slightly narrower window, so its alpha1 is larger.
    l2's own profile window, 4.75 sd either side of 0.5, covers all of [0, 1].
    """
    spec_args = prepared.spec_args
    profile, volume = spec_args["profile"], spec_args["volume"]
    mean, var = profile.params
    sd = math.sqrt(var)
    mass = oracle.simpson_integral(profile.pdf, mean - 12 * sd, mean + 12 * sd)
    ev = RelationEvaluator(U, NeighbourhoodSpec(**spec_args))
    s = np.linspace(0.0, 1.0, WITNESS_SAMPLES)
    errors = []
    witnesses = 0
    for i, j in _sample_pairs(U, rng, 12.0):
        l1, l2 = U[i], U[j]
        alpha1 = volume / (2.0 * math.sqrt(l1.sq_length) * mass)
        pts = l2.x + s[:, None] * l2.direction
        t = np.clip((pts - l1.x) @ l1.direction / l1.sq_length, 0.0, 1.0)
        dist = np.linalg.norm(pts - (l1.x + t[:, None] * l1.direction), axis=1)
        if np.any(dist < alpha1 * profile.pdf(t) * (1.0 - 1e-9)):
            witnesses += 1
            if not ev.relates(i, j):
                errors.append(f"pair ({i}, {j}): sampled witness on l2 but relates=False")
    if witnesses == 0:
        errors.append("the sampled pairs hold no witness; the check tested nothing")
    return errors

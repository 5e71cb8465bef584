"""The clustering loop, in two modes.

`literal` is the one-pass draw loop: repeatedly draw a random unvisited line,
compute its neighbour set, and either emit that set as a new cluster (marking
its members visited) or record the drawn line as noise (marking it visited).
There is no transitive growth, so clusters are one-hop stars around the drawn
line, a line can end up in several clusters (multi-membership is recorded,
not deduplicated), and noise lines can still be absorbed into later clusters
through neighbour-set membership.

`expand` is the DBSCAN-style variant: a drawn core line seeds a cluster that
grows through a frontier queue over core members' neighbour sets; non-core
neighbours join as border lines (first claim wins) and unreached lines end as
noise.  Every line gets exactly one terminal label.  Every line's row is
computed exactly once, whether the line is drawn or reached through a
frontier, so the order the rows are asked for changes no decision: before
its first draw expand has RelationEvaluator.build_graph decide the whole
relation, the metric rows in blocks, and reads each neighbour set from that
graph.  literal mode computes a row when it draws its line: a line taken
into a cluster is never drawn, so its row is never computed.

Both modes are deterministic given the dataset order and the seed.  The RNG
is numpy's PCG64 (np.random.default_rng); each draw picks
candidates[rng.integers(len(candidates))] where candidates lists the
unvisited indices in ascending order.  A line counts as visited once it is
drawn or taken into a cluster.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import SegmentLike
from .neighborhood import NeighbourhoodSpec, RelationEvaluator

NOISE = -1


@dataclass(frozen=True)
class RunConfig:
    """Everything a clustering run depends on besides the dataset itself."""

    spec: NeighbourhoodSpec
    mode: str = "expand"  # "literal" or "expand"
    rng_seed: int = 0
    threads: int = 1  # only 1; kept because the benchmark's workloads still pass it

    def __post_init__(self):
        if self.mode not in ("literal", "expand"):
            raise ValueError(f"mode must be 'literal' or 'expand', got {self.mode!r}")
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
            raise ConfigurationError(f"rng_seed must be a non-negative integer, got {seed!r}")
        if self.threads != 1:
            raise ConfigurationError(f"threads must be 1, got {self.threads!r}")


@dataclass
class ClusterLabels:
    """Result of a clustering run.

    memberships[i] lists the 1-based ids of every cluster line i belongs to
    (several in literal mode, at most one in expand mode); an empty list
    means noise.  trace holds one record per draw; seed_order, the drawn
    lines in draw order, is derived from it.  peak_aux is the peak auxiliary
    container occupancy (labels plus the largest transient neighbour set /
    frontier, and in expand mode the relation graph's n slots, one per row,
    and its entries, one per related pair off a metric row's diagonal), used
    to check that no structure beyond O(n + related pairs) is ever held: about 65k
    entries on 600 doughnut segments at alpha 12, none on isolated lines.
    undecided_count is the number of pairs the witness search could not
    decide within its tolerance or budget; each was taken as unrelated.
    """

    mode: str
    rng_seed: int
    memberships: list[list[int]]
    clusters: list[list[int]]
    clusters_may_overlap: bool
    eval_count: int
    trace: list[dict]
    peak_aux: int
    core_flags: list[Optional[bool]] = field(default_factory=list)
    undecided_count: int = 0

    @property
    def seed_order(self) -> list[int]:
        return [rec["chosen"] for rec in self.trace]

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def noise(self) -> list[int]:
        return [i for i, m in enumerate(self.memberships) if not m]

    def labels(self) -> np.ndarray:
        """Single label per line: first cluster id, or NOISE (-1)."""
        return np.array([m[0] if m else NOISE for m in self.memberships], dtype=int)


def _draw(rng: np.random.Generator, visited: list[bool]) -> int:
    candidates = [i for i, v in enumerate(visited) if not v]
    return candidates[int(rng.integers(len(candidates)))]


def run_literal(U: Sequence[SegmentLike], cfg: RunConfig) -> ClusterLabels:
    """One-pass draw loop; clusters may overlap and are emitted as drawn."""
    if not U:
        raise ValueError("cannot cluster an empty dataset")
    n = len(U)
    ev = RelationEvaluator(U, cfg.spec)
    rng = np.random.default_rng(cfg.rng_seed)
    visited = [False] * n
    memberships: list[list[int]] = [[] for _ in range(n)]
    clusters: list[list[int]] = []
    trace: list[dict] = []
    peak_transient = 0
    unvisited = n

    while unvisited > 0:
        u = _draw(rng, visited)
        region = ev.neighbor_set(u)
        peak_transient = max(peak_transient, len(region))
        if len(region) >= cfg.spec.c:
            cid = len(clusters) + 1
            members = sorted(region | {u})
            clusters.append(members)
            for i in members:
                if not visited[i]:
                    visited[i] = True
                    unvisited -= 1
                memberships[i].append(cid)
            trace.append({"chosen": u, "neighbours": len(region),
                          "decision": "cluster", "cluster": cid})
        else:
            visited[u] = True
            unvisited -= 1
            trace.append({"chosen": u, "neighbours": len(region),
                          "decision": "noise", "cluster": None})

    return ClusterLabels(
        mode="literal", rng_seed=cfg.rng_seed, memberships=memberships,
        clusters=clusters, clusters_may_overlap=True,
        eval_count=ev.eval_count, trace=trace, peak_aux=n + peak_transient,
        undecided_count=ev.undecided_count, core_flags=[None] * n,
    )


def run_expand(U: Sequence[SegmentLike], cfg: RunConfig) -> ClusterLabels:
    """DBSCAN-style growth from core lines; single membership guaranteed."""
    if not U:
        raise ValueError("cannot cluster an empty dataset")
    n = len(U)
    ev = RelationEvaluator(U, cfg.spec)
    ev.build_graph()  # every row is computed once, whatever the order the frontier asks
    rng = np.random.default_rng(cfg.rng_seed)
    visited = [False] * n
    core: list[Optional[bool]] = [None] * n
    memberships: list[list[int]] = [[] for _ in range(n)]
    clusters: list[list[int]] = []
    trace: list[dict] = []
    peak_transient = 0
    unvisited = n

    while unvisited > 0:
        u = _draw(rng, visited)
        visited[u] = True
        unvisited -= 1
        region = ev.neighbor_set(u)
        core[u] = len(region) >= cfg.spec.c
        peak_transient = max(peak_transient, len(region))
        if not core[u]:  # tentative noise: it may still join a cluster as border
            trace.append({"chosen": u, "neighbours": len(region),
                          "decision": "noise", "cluster": None})
            continue

        cid = len(clusters) + 1
        members = [u]
        memberships[u] = [cid]
        frontier = deque(sorted(region - {u}))
        seen = set(frontier) | {u}
        while frontier:
            peak_transient = max(peak_transient, len(frontier) + len(seen))
            q = frontier.popleft()
            if not memberships[q]:
                memberships[q] = [cid]
                members.append(q)
            if core[q] is None:
                if not visited[q]:
                    visited[q] = True
                    unvisited -= 1
                region_q = ev.neighbor_set(q)
                core[q] = len(region_q) >= cfg.spec.c
                peak_transient = max(peak_transient, len(region_q))
                if core[q]:
                    new = region_q - seen
                    frontier.extend(sorted(new))
                    seen |= new
        clusters.append(sorted(members))
        trace.append({"chosen": u, "neighbours": len(region),
                      "decision": "cluster", "cluster": cid})

    return ClusterLabels(
        mode="expand", rng_seed=cfg.rng_seed, memberships=memberships,
        clusters=clusters, clusters_may_overlap=False,
        eval_count=ev.eval_count, trace=trace,
        peak_aux=n + peak_transient + len(ev.graph) + sum(map(len, ev.graph)),
        undecided_count=ev.undecided_count, core_flags=core,
    )


def run(U: Sequence[SegmentLike], cfg: RunConfig) -> ClusterLabels:
    if cfg.mode == "literal":
        return run_literal(U, cfg)
    return run_expand(U, cfg)


def dump_trace(labels: ClusterLabels, path) -> None:
    """Write the run trace as JSON lines (one record per draw)."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for rec in labels.trace:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
